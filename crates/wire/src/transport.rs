//! Pluggable byte transports carrying [`Frame`]s between cluster peers.
//!
//! A [`Transport`] hands out [`Listener`]s and dials [`Connection`]s; the
//! services in [`crate::service`] are written against these traits only,
//! so the same router/processor/storage loops run over:
//!
//! * [`TcpTransport`] — real loopback/LAN sockets via `std::net`, each
//!   connection a length-prefixed framed stream (`u32` little-endian
//!   payload length, then the [`Frame`] payload), with bounded-backoff
//!   dialling so peers may start in any order;
//! * [`InProcTransport`] — a hermetic in-process fabric over channels for
//!   tests and sandboxes without loopback. It still moves *encoded* bytes
//!   (not `Frame` values), so the codec is exercised on both paths.
//!
//! [`RetryPolicy`] is the bounded, jittered redial ladder every client-side
//! recovery path paces itself with (the batch multiplexer's reconnect and
//! replica-chain walk in [`crate::flow`]).
//!
//! The TCP data plane is zero-copy on both directions: receives land in
//! pooled buffers ([`bytes::BufferPool`]) out of which frame payloads are
//! decoded as `Arc`-backed slice views (no per-payload copy), and sends of
//! payload-bearing frames above [`VECTORED_SEND_MIN_BYTES`] go out through
//! `write_vectored` as `[len][meta][payload…]` scatter-gather lists
//! instead of being flattened into one allocation.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{Buf, BufferPool, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use grouting_metrics::log_warn;

use crate::error::{WireError, WireResult};
use crate::frame::{Frame, MAX_FRAME_BYTES};

/// The sending half of a framed connection.
pub trait FrameSink: Send {
    /// Writes one frame.
    fn send(&mut self, frame: &Frame) -> WireResult<()>;

    /// Writes only the first `keep` bytes of the frame's encoding and
    /// stops — the fault-injection layer's mid-frame truncation primitive.
    /// The peer is left holding a partial frame: on TCP its stream stalls
    /// until the connection closes, in-process the short payload decodes
    /// as a codec error. Sinks that cannot express a partial write (the
    /// default) send nothing at all, which a reader observes the same way
    /// once the connection drops.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the partial write.
    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        let _ = (frame, keep);
        Ok(())
    }
}

/// The receiving half of a framed connection.
pub trait FrameStream: Send {
    /// Blocks for the next frame.
    fn recv(&mut self) -> WireResult<Frame>;

    /// Polls for a frame without blocking: `Ok(Some)` when a complete
    /// frame was ready, `Ok(None)` when the peer has sent nothing (or only
    /// a partial frame) yet. This is the primitive the batch multiplexer's
    /// readiness loop spins on to keep many in-flight exchanges moving
    /// without parking on any single connection.
    ///
    /// Readiness contract: `Ok(None)` means the stream holds no complete
    /// buffered frame *and* the underlying source is drained (a socket
    /// read hit `WouldBlock`) — so a level-triggered readiness poller may
    /// safely block until the source becomes readable again.
    fn try_recv(&mut self) -> WireResult<Option<Frame>>;

    /// The underlying OS file descriptor, when the stream is backed by
    /// one — lets a readiness poller track the connection in the kernel.
    /// Fd-less streams (in-process channels) return `None` and get swept.
    fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Buffer-pool counters as `(checkouts, reused, free_now)` when the
    /// stream receives into a pool — monotonic totals a telemetry sampler
    /// turns into deltas. Pool-less streams return `None`.
    fn pool_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

/// A bidirectional framed connection between two peers.
pub struct Connection {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
}

impl Connection {
    /// Assembles a connection from its halves.
    pub fn from_halves(sink: Box<dyn FrameSink>, stream: Box<dyn FrameStream>) -> Self {
        Self { sink, stream }
    }

    /// Writes one frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures ([`WireError::Closed`] when the peer
    /// is gone).
    pub fn send(&mut self, frame: &Frame) -> WireResult<()> {
        self.sink.send(frame)
    }

    /// Blocks for the next frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures ([`WireError::Closed`] when the peer
    /// is gone).
    pub fn recv(&mut self) -> WireResult<Frame> {
        self.stream.recv()
    }

    /// Polls for a frame without blocking (see [`FrameStream::try_recv`]).
    ///
    /// # Errors
    ///
    /// Propagates transport failures ([`WireError::Closed`] when the peer
    /// is gone).
    pub fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        self.stream.try_recv()
    }

    /// Sends one frame and waits for the reply — the unary-RPC shape of
    /// the storage fetch path.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from either direction.
    pub fn request(&mut self, frame: &Frame) -> WireResult<Frame> {
        self.send(frame)?;
        self.recv()
    }

    /// Splits into independently owned halves so a reader thread can block
    /// on `recv` while another thread writes.
    pub fn split(self) -> (Box<dyn FrameSink>, Box<dyn FrameStream>) {
        (self.sink, self.stream)
    }

    /// The receive half's raw fd, when socket-backed (see
    /// [`FrameStream::raw_fd`]).
    pub fn raw_fd(&self) -> Option<i32> {
        self.stream.raw_fd()
    }
}

/// An endpoint accepting inbound connections.
pub trait Listener: Send {
    /// Blocks for the next inbound connection.
    fn accept(&mut self) -> WireResult<Connection>;

    /// Polls for an inbound connection without blocking: `Ok(Some)` when a
    /// dial was waiting, `Ok(None)` when none is. This is the accept-side
    /// primitive of the readiness reactor — one poll loop can watch its
    /// listener *and* every established connection without parking a
    /// thread on either.
    fn try_accept(&mut self) -> WireResult<Option<Connection>>;

    /// The address peers dial to reach this listener.
    fn addr(&self) -> String;

    /// The listening socket's raw fd, when OS-backed (see
    /// [`FrameStream::raw_fd`] for the contract).
    fn raw_fd(&self) -> Option<i32> {
        None
    }
}

/// A connection fabric: names addresses, listens, dials.
pub trait Transport: Send + Sync {
    /// Opens a listener. Pass [`Transport::any_addr`] to let the transport
    /// pick a free concrete address (returned by [`Listener::addr`]).
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>>;

    /// Dials a listening endpoint, retrying briefly so peers may start in
    /// any order.
    fn dial(&self, addr: &str) -> WireResult<Connection>;

    /// Dials with a single attempt and no internal patience — the
    /// primitive failover paths use so a dead endpoint fails in one round
    /// trip and the caller's own backoff ladder (see [`RetryPolicy`])
    /// paces the retries. Defaults to [`Transport::dial`] for transports
    /// whose dial is already instantaneous.
    ///
    /// # Errors
    ///
    /// [`WireError::Unroutable`] when nothing listens at `addr`.
    fn dial_once(&self, addr: &str) -> WireResult<Connection> {
        self.dial(addr)
    }

    /// The wildcard address for [`Transport::listen`].
    fn any_addr(&self) -> String;
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Longest single pause of the backoff ladder, whatever the base.
const MAX_RETRY_DELAY: Duration = Duration::from_millis(500);

/// Bounded exponential backoff with deterministic jitter, shared by every
/// client-side redial path (the batch multiplexer's reconnect and
/// replica-chain walk). `GROUTING_RETRY=attempts:base_ms` overrides the
/// defaults; the jitter is a pure function of `(attempt, salt)` so a
/// seeded run retries on an identical schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Dial attempts before giving up (≥ 1).
    pub attempts: u32,
    /// First pause; each later pause doubles, capped at 500 ms.
    pub base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 25, 50, 100, 200, 400, 500, 500 ms of pauses (~1.7 s of
        // patience): comparable to the dialler's historic startup grace
        // but strictly bounded, so a truly dead endpoint fails over to a
        // replica instead of hanging a fetch.
        Self {
            attempts: 8,
            base: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// A policy with explicit attempt count and base pause.
    pub fn new(attempts: u32, base: Duration) -> Self {
        Self {
            attempts: attempts.max(1),
            base,
        }
    }

    /// Reads `GROUTING_RETRY=attempts:base_ms`. Invalid values warn via
    /// `GROUTING_LOG`, naming the value, and fall back to the default.
    pub fn from_env() -> Self {
        match std::env::var("GROUTING_RETRY") {
            Ok(raw) => match Self::parse(&raw) {
                Some(policy) => policy,
                None => {
                    log_warn!(
                        "invalid GROUTING_RETRY value {raw:?} (expected attempts:base_ms, \
                         e.g. 4:10); using default"
                    );
                    Self::default()
                }
            },
            Err(_) => Self::default(),
        }
    }

    fn parse(raw: &str) -> Option<Self> {
        let (attempts, base_ms) = raw.split_once(':')?;
        let attempts: u32 = attempts.trim().parse().ok()?;
        let base_ms: u64 = base_ms.trim().parse().ok()?;
        if attempts == 0 {
            return None;
        }
        Some(Self {
            attempts,
            base: Duration::from_millis(base_ms),
        })
    }

    /// The pause after failed attempt number `attempt` (0-based):
    /// `base · 2^attempt` capped at 500 ms, plus up to 25 % deterministic
    /// jitter derived from `(attempt, salt)` — distinct salts (one per
    /// endpoint) de-synchronise a thundering herd of redials without
    /// sacrificing reproducibility.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(MAX_RETRY_DELAY);
        // xorshift64* of the (attempt, salt) pair: deterministic jitter.
        let mut x = salt
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt) + 1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let jitter_frac = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u32; // 0..=255
        exp + exp.mul_f64(f64::from(jitter_frac) / 1024.0)
    }

    /// Dials `addr` through the ladder: single-attempt dials, sleeping
    /// [`RetryPolicy::delay`] between failures.
    ///
    /// # Errors
    ///
    /// The final attempt's error once the ladder is exhausted.
    pub fn dial(&self, transport: &dyn Transport, addr: &str, salt: u64) -> WireResult<Connection> {
        let mut last = None;
        for attempt in 0..self.attempts {
            match transport.dial_once(addr) {
                Ok(conn) => return Ok(conn),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < self.attempts {
                        std::thread::sleep(self.delay(attempt, salt));
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| WireError::Unroutable(addr.to_string())))
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// Real sockets via `std::net`, framed with a `u32` length prefix.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    dial_attempts: u32,
    dial_backoff: Duration,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self {
            // ~2 s of patience: covers listener threads that have not
            // reached `accept` yet and services restarting mid-run.
            dial_attempts: 80,
            dial_backoff: Duration::from_millis(25),
        }
    }
}

impl TcpTransport {
    /// A transport with default dial patience.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides how long `dial` keeps retrying a refused connection.
    pub fn with_dial_patience(attempts: u32, backoff: Duration) -> Self {
        Self {
            dial_attempts: attempts.max(1),
            dial_backoff: backoff,
        }
    }
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>> {
        let listener = bind_reusable(addr)?;
        Ok(Box::new(TcpFrameListener {
            listener,
            nonblocking: false,
        }))
    }

    fn dial(&self, addr: &str) -> WireResult<Connection> {
        let mut last = None;
        for attempt in 0..self.dial_attempts {
            match TcpStream::connect(addr) {
                Ok(stream) => return tcp_connection(stream),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < self.dial_attempts {
                        std::thread::sleep(self.dial_backoff);
                    }
                }
            }
        }
        Err(match last {
            Some(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                WireError::Unroutable(addr.to_string())
            }
            Some(e) => e.into(),
            None => WireError::Unroutable(addr.to_string()),
        })
    }

    fn dial_once(&self, addr: &str) -> WireResult<Connection> {
        match TcpStream::connect(addr) {
            Ok(stream) => tcp_connection(stream),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                Err(WireError::Unroutable(addr.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn any_addr(&self) -> String {
        "127.0.0.1:0".to_string()
    }
}

/// Binds a listening socket with `SO_REUSEADDR` on Linux, so a restarted
/// service can reclaim its concrete address even while connections it
/// accepted there linger in `TIME_WAIT` — the chaos harness's
/// kill-and-rebind path. Wildcard (`:0`) binds and other platforms go
/// through the plain `std` bind.
fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        if let Ok(parsed) = addr.parse::<std::net::SocketAddrV4>() {
            if parsed.port() != 0 {
                if let Ok(listener) = crate::sys::tcp_listen_reuseaddr(&parsed) {
                    return Ok(listener);
                }
            }
        }
    }
    TcpListener::bind(addr)
}

fn tcp_connection(stream: TcpStream) -> WireResult<Connection> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok(Connection::from_halves(
        Box::new(TcpSink { stream: writer }),
        Box::new(TcpStreamHalf::new(stream)),
    ))
}

struct TcpFrameListener {
    listener: TcpListener,
    /// Set on the first `try_accept` and never reverted (same discipline
    /// as the stream half: a listener is either blocking-driven or
    /// reactor-polled, never interleaved).
    nonblocking: bool,
}

impl Listener for TcpFrameListener {
    fn accept(&mut self) -> WireResult<Connection> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return tcp_connection(stream),
                // Only reachable when `try_accept` switched the socket to
                // non-blocking; honour the blocking contract by waiting.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn try_accept(&mut self) -> WireResult<Option<Connection>> {
        if !self.nonblocking {
            self.listener.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        match self.listener.accept() {
            Ok((stream, _)) => tcp_connection(stream).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default()
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.listener.as_raw_fd())
    }
}

struct TcpSink {
    stream: TcpStream,
}

/// Below this many payload bytes a frame is flattened into one buffer and
/// sent with a single `write` — for small frames the syscall saved beats
/// the copy avoided. At or above it, the length prefix, the encoded meta
/// sections, and every payload view go out through one `write_vectored`
/// scatter-gather list, so a large batch response is never flattened into
/// a fresh allocation.
const VECTORED_SEND_MIN_BYTES: usize = 4096;

impl FrameSink for TcpSink {
    fn send(&mut self, frame: &Frame) -> WireResult<()> {
        let chunks = frame.encode_chunks();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let len = (total as u32).to_le_bytes();
        if chunks.len() == 1 || total < VECTORED_SEND_MIN_BYTES {
            let mut flat = Vec::with_capacity(4 + total);
            flat.extend_from_slice(&len);
            for chunk in &chunks {
                flat.extend_from_slice(chunk);
            }
            write_all_blocking(&mut self.stream, &flat)?;
        } else {
            let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + chunks.len());
            parts.push(&len);
            parts.extend(chunks.iter().map(|c| &c[..]));
            write_vectored_all(&mut self.stream, &parts)?;
        }
        self.stream.flush()?;
        Ok(())
    }

    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        // Flatten [len][payload…] and cut at `keep` raw bytes: the peer
        // sees a frame header promising more bytes than ever arrive.
        let chunks = frame.encode_chunks();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let mut flat = Vec::with_capacity(4 + total);
        flat.extend_from_slice(&(total as u32).to_le_bytes());
        for chunk in &chunks {
            flat.extend_from_slice(chunk);
        }
        flat.truncate(keep.min(flat.len().saturating_sub(1)).max(1));
        write_all_blocking(&mut self.stream, &flat)?;
        self.stream.flush()?;
        Ok(())
    }
}

/// A full socket buffer on a (possibly non-blocking) socket: wait for
/// write readiness instead of spinning. On Linux this parks in `poll`
/// until the kernel drains; elsewhere a yield-then-sleep pause paces the
/// retries without burning the core the reader needs.
#[cfg(target_os = "linux")]
fn wait_for_writable(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    let _ = crate::sys::wait_writable(stream.as_raw_fd(), Duration::from_millis(25));
}

#[cfg(not(target_os = "linux"))]
fn wait_for_writable(_stream: &TcpStream) {
    std::thread::yield_now();
    std::thread::sleep(Duration::from_micros(100));
}

/// `write_all` that tolerates a socket left in non-blocking mode: the
/// stream half of a polled connection switches the (shared) socket to
/// non-blocking on its first `try_recv` and leaves it there, so sends on
/// the same connection must treat `WouldBlock` as "kernel buffer full,
/// wait for writability" rather than an error.
fn write_all_blocking(stream: &mut TcpStream, mut buf: &[u8]) -> WireResult<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(WireError::Closed),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => wait_for_writable(stream),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Writes the concatenation of `parts` with `write_vectored`, batching at
/// most [`MAX_WRITE_SLICES`] slices per syscall and resuming mid-part
/// after short writes. Same `WouldBlock` discipline as
/// [`write_all_blocking`].
fn write_vectored_all(stream: &mut TcpStream, parts: &[&[u8]]) -> WireResult<()> {
    const MAX_WRITE_SLICES: usize = 64;
    let mut idx = 0usize;
    let mut off = 0usize;
    loop {
        // Skip exhausted (or empty) parts.
        while idx < parts.len() && off >= parts[idx].len() {
            idx += 1;
            off = 0;
        }
        if idx >= parts.len() {
            return Ok(());
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_WRITE_SLICES);
        for (i, part) in parts.iter().enumerate().skip(idx).take(MAX_WRITE_SLICES) {
            let p = if i == idx { &part[off..] } else { part };
            if !p.is_empty() {
                slices.push(IoSlice::new(p));
            }
        }
        match stream.write_vectored(&slices) {
            Ok(0) => return Err(WireError::Closed),
            Ok(mut n) => {
                // Advance the (part, offset) cursor past the bytes the
                // kernel took, which may end mid-part.
                while n > 0 {
                    let remaining = parts[idx].len() - off;
                    if n >= remaining {
                        n -= remaining;
                        idx += 1;
                        off = 0;
                    } else {
                        off += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => wait_for_writable(stream),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Capacity of each pooled receive buffer. Most frames are far smaller
/// (a buffer accumulates many); larger frames simply grow the `Vec`
/// underneath and the grown allocation is pooled all the same.
const RECV_BUFFER_CAPACITY: usize = 64 << 10;
/// Free receive buffers retained per connection.
const RECV_POOL_BUFFERS: usize = 4;

struct TcpStreamHalf {
    stream: TcpStream,
    /// Recycles receive buffers so a long-lived connection stops
    /// allocating once warm. Reclamation is `Arc`-gated: a buffer re-enters
    /// the free list only when no decoded payload view references it.
    pool: BufferPool,
    /// Frozen prefix of the unconsumed receive sequence. Complete frames
    /// are sliced out of here zero-copy (payloads stay `Arc`-backed views
    /// into this buffer) and the cursor advanced past them.
    frozen: Bytes,
    /// Accumulating tail: bytes read off the socket after `frozen` froze.
    /// Non-blocking reads can land mid-frame, so partial input parks here
    /// between polls. Invariant: unconsumed bytes = `frozen` ++ `acc`.
    acc: BytesMut,
    /// Whether the socket has been switched to non-blocking mode. Set on
    /// the first `try_recv` and never reverted, so a polling caller pays
    /// the fcntl once instead of twice per poll; a connection is driven
    /// either blocking (service loops) or polled (the batch multiplexer),
    /// never interleaved.
    nonblocking: bool,
}

impl TcpStreamHalf {
    fn new(stream: TcpStream) -> Self {
        let mut pool = BufferPool::new(RECV_BUFFER_CAPACITY, RECV_POOL_BUFFERS);
        let acc = pool.checkout();
        Self {
            stream,
            pool,
            frozen: Bytes::new(),
            acc,
            nonblocking: false,
        }
    }

    fn buffered(&self) -> usize {
        self.frozen.len() + self.acc.len()
    }

    /// Reads the 4-byte length prefix (possibly spanning the frozen/acc
    /// boundary) without consuming it.
    fn peek_len(&self) -> WireResult<usize> {
        let mut hdr = [0u8; 4];
        for (i, b) in hdr.iter_mut().enumerate() {
            *b = if i < self.frozen.len() {
                self.frozen[i]
            } else {
                self.acc[i - self.frozen.len()]
            };
        }
        let len = u32::from_le_bytes(hdr) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Codec(format!(
                "frame length {len} exceeds cap {MAX_FRAME_BYTES}"
            )));
        }
        Ok(len)
    }

    /// Moves every unconsumed byte into `frozen`: a zero-copy freeze of
    /// the accumulator when the frozen prefix is exhausted, one bulk copy
    /// into a pooled buffer otherwise.
    fn consolidate(&mut self) {
        let old = if self.frozen.is_empty() {
            let acc = std::mem::replace(&mut self.acc, self.pool.checkout());
            std::mem::replace(&mut self.frozen, acc.freeze())
        } else {
            let mut merged = self.pool.checkout();
            merged.extend_from_slice(&self.frozen);
            merged.extend_from_slice(&self.acc);
            self.acc.clear();
            std::mem::replace(&mut self.frozen, merged.freeze())
        };
        self.pool.checkin(old);
    }

    /// Pops one complete frame off the front of the buffered bytes, if
    /// present — payloads decoded as zero-copy views into the frozen
    /// receive buffer.
    fn parse_buffered(&mut self) -> WireResult<Option<Frame>> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let len = self.peek_len()?;
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        if self.frozen.len() < 4 + len {
            // The frame spans the frozen/acc boundary: merge once. Any
            // received byte is copied at most twice in its lifetime
            // (socket → acc, acc → merged).
            self.consolidate();
        }
        let payload = self.frozen.slice(4..4 + len);
        self.frozen.advance(4 + len);
        let frame = Frame::decode(payload);
        if self.frozen.is_empty() {
            // Fully consumed: offer the allocation back to the pool. It is
            // reclaimed only once no payload view of it is alive.
            let old = std::mem::replace(&mut self.frozen, Bytes::new());
            self.pool.checkin(old);
        }
        frame.map(Some)
    }
}

impl FrameStream for TcpStreamHalf {
    fn recv(&mut self) -> WireResult<Frame> {
        loop {
            if let Some(frame) = self.parse_buffered()? {
                return Ok(frame);
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(WireError::Closed),
                Ok(n) => self.acc.extend_from_slice(&chunk[..n]),
                // Only reachable when `try_recv` has been used on this
                // connection too; honour the blocking contract by waiting.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        if let Some(frame) = self.parse_buffered()? {
            return Ok(Some(frame));
        }
        if !self.nonblocking {
            self.stream.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        let mut closed = false;
        loop {
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    self.acc.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        // A frame completed by the final reads before EOF still counts;
        // the close surfaces on the next poll.
        if let Some(frame) = self.parse_buffered()? {
            return Ok(Some(frame));
        }
        if closed {
            return Err(WireError::Closed);
        }
        Ok(None)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.stream.as_raw_fd())
    }

    fn pool_stats(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.pool.checkouts(),
            self.pool.reused(),
            self.pool.available() as u64,
        ))
    }
}

// ---------------------------------------------------------------------------
// In-process
// ---------------------------------------------------------------------------

type Registry = Arc<Mutex<HashMap<String, Sender<Connection>>>>;

/// A hermetic in-process fabric: listeners are names in a shared registry,
/// connections are channel pairs carrying *encoded* frames.
#[derive(Clone, Default)]
pub struct InProcTransport {
    registry: Registry,
    next_name: Arc<AtomicU64>,
}

impl InProcTransport {
    /// A fresh, empty fabric (addresses are scoped to this instance).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for InProcTransport {
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>> {
        let name = if addr.is_empty() || addr == self.any_addr() {
            format!("inproc:{}", self.next_name.fetch_add(1, Ordering::Relaxed))
        } else {
            addr.to_string()
        };
        let (tx, rx) = unbounded();
        let mut reg = self.registry.lock().expect("registry poisoned");
        if reg.contains_key(&name) {
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("inproc address {name} already bound"),
            )));
        }
        reg.insert(name.clone(), tx);
        drop(reg);
        Ok(Box::new(InProcListener {
            name,
            inbox: rx,
            registry: Arc::clone(&self.registry),
        }))
    }

    fn dial(&self, addr: &str) -> WireResult<Connection> {
        let acceptor = {
            let reg = self.registry.lock().expect("registry poisoned");
            reg.get(addr).cloned()
        };
        let Some(acceptor) = acceptor else {
            return Err(WireError::Unroutable(addr.to_string()));
        };
        let (client_tx, server_rx) = unbounded::<Bytes>();
        let (server_tx, client_rx) = unbounded::<Bytes>();
        let server_side = Connection::from_halves(
            Box::new(ChanSink { tx: server_tx }),
            Box::new(ChanStream { rx: server_rx }),
        );
        acceptor
            .send(server_side)
            .map_err(|_| WireError::Unroutable(addr.to_string()))?;
        Ok(Connection::from_halves(
            Box::new(ChanSink { tx: client_tx }),
            Box::new(ChanStream { rx: client_rx }),
        ))
    }

    fn any_addr(&self) -> String {
        "inproc:any".to_string()
    }
}

struct InProcListener {
    name: String,
    inbox: Receiver<Connection>,
    registry: Registry,
}

impl Listener for InProcListener {
    fn accept(&mut self) -> WireResult<Connection> {
        self.inbox.recv().map_err(|_| WireError::Closed)
    }

    fn try_accept(&mut self) -> WireResult<Option<Connection>> {
        use crossbeam::channel::TryRecvError;
        match self.inbox.try_recv() {
            Ok(conn) => Ok(Some(conn)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WireError::Closed),
        }
    }

    fn addr(&self) -> String {
        self.name.clone()
    }
}

impl Drop for InProcListener {
    fn drop(&mut self) {
        if let Ok(mut reg) = self.registry.lock() {
            reg.remove(&self.name);
        }
    }
}

struct ChanSink {
    tx: Sender<Bytes>,
}

impl FrameSink for ChanSink {
    fn send(&mut self, frame: &Frame) -> WireResult<()> {
        self.tx.send(frame.encode()).map_err(|_| WireError::Closed)
    }

    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        // The channel fabric is message-based (no partial delivery), so a
        // mid-frame cut arrives as a short encoding the peer's decoder
        // rejects — the in-process spelling of a torn frame.
        let encoded = frame.encode();
        let cut = keep.min(encoded.len().saturating_sub(1)).max(1);
        self.tx
            .send(encoded.slice(0..cut))
            .map_err(|_| WireError::Closed)
    }
}

struct ChanStream {
    rx: Receiver<Bytes>,
}

impl FrameStream for ChanStream {
    fn recv(&mut self) -> WireResult<Frame> {
        let payload = self.rx.recv().map_err(|_| WireError::Closed)?;
        Frame::decode(payload)
    }

    fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        use crossbeam::channel::TryRecvError;
        match self.rx.try_recv() {
            Ok(payload) => Frame::decode(payload).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WireError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::NodeId;

    fn echo_server(listener: Box<dyn Listener>, serve_conns: usize) -> std::thread::JoinHandle<()> {
        let mut listener = listener;
        std::thread::spawn(move || {
            for _ in 0..serve_conns {
                let Ok(mut conn) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    while let Ok(frame) = conn.recv() {
                        if matches!(frame, Frame::Shutdown) {
                            break;
                        }
                        if conn.send(&frame).is_err() {
                            break;
                        }
                    }
                });
            }
        })
    }

    fn frame(i: u32) -> Frame {
        Frame::FetchBatchRequest {
            req_id: u64::from(i),
            nodes: vec![NodeId::new(i)],
            issued_ns: None,
        }
    }

    fn round_trips_over(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = echo_server(listener, 1);
        let mut conn = transport.dial(&addr).unwrap();
        for i in 0..50 {
            assert_eq!(conn.request(&frame(i)).unwrap(), frame(i));
        }
        conn.send(&Frame::Shutdown).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn inproc_round_trips() {
        round_trips_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_round_trips() {
        round_trips_over(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn inproc_dial_unknown_address_fails() {
        let t = InProcTransport::new();
        assert!(matches!(
            t.dial("inproc:nobody"),
            Err(WireError::Unroutable(_))
        ));
    }

    #[test]
    fn inproc_listener_drop_unbinds() {
        let t = InProcTransport::new();
        let listener = t.listen("inproc:tmp").unwrap();
        drop(listener);
        assert!(t.dial("inproc:tmp").is_err());
        // The name is free again.
        let again = t.listen("inproc:tmp").unwrap();
        assert_eq!(again.addr(), "inproc:tmp");
    }

    #[test]
    fn inproc_rejects_double_bind() {
        let t = InProcTransport::new();
        let _keep = t.listen("inproc:one").unwrap();
        assert!(t.listen("inproc:one").is_err());
    }

    #[test]
    fn tcp_dial_without_listener_errors() {
        let t = TcpTransport::with_dial_patience(2, Duration::from_millis(1));
        assert!(t.dial("127.0.0.1:1").is_err());
    }

    #[test]
    fn recv_reports_closed_when_peer_drops() {
        let t = InProcTransport::new();
        let mut listener = t.listen(&t.any_addr()).unwrap();
        let addr = listener.addr();
        let conn = t.dial(&addr).unwrap();
        let mut server_side = listener.accept().unwrap();
        drop(conn);
        assert!(matches!(server_side.recv(), Err(WireError::Closed)));
    }

    #[test]
    fn large_batch_response_round_trips_vectored() {
        // Well above VECTORED_SEND_MIN_BYTES with far more chunks than one
        // writev takes: exercises the scatter-gather send path (including
        // mid-part resume across syscalls) and the pooled multi-read
        // receive path.
        let payloads: Vec<Option<(u16, Bytes)>> = (0..200u32)
            .map(|i| {
                if i % 9 == 0 {
                    None
                } else {
                    Some(((i % 4) as u16, Bytes::from(vec![i as u8; 1500])))
                }
            })
            .collect();
        let f = Frame::FetchBatchResponse {
            req_id: 77,
            payloads,
        };
        let transport = TcpTransport::new();
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let send_frame = f.clone();
        let writer = std::thread::spawn(move || {
            let mut conn = TcpTransport::new().dial(&addr).unwrap();
            conn.send(&send_frame).unwrap();
            conn // held open until the reader is done
        });
        let mut server = listener.accept().unwrap();
        assert_eq!(server.recv().unwrap(), f);
        drop(writer.join().unwrap());
    }

    proptest::proptest! {
        /// Frames stream through the pooled receive path in sequence;
        /// payload views from earlier frames are held live while later
        /// frames churn the pool, and must stay byte-identical at the end
        /// (pool reuse must never alias a live view).
        #[test]
        fn prop_pooled_recv_round_trips_and_never_aliases(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::option::of(
                        (0u16..16, proptest::collection::vec(0u8..=255, 0..600)),
                    ),
                    0..12,
                ),
                1..6,
            ),
        ) {
            let transport = TcpTransport::new();
            let mut listener = transport.listen(&transport.any_addr()).unwrap();
            let addr = listener.addr();
            let frames: Vec<Frame> = batches
                .iter()
                .enumerate()
                .map(|(i, payloads)| Frame::FetchBatchResponse {
                    req_id: i as u64,
                    payloads: payloads
                        .iter()
                        .map(|p| p.clone().map(|(s, v)| (s, Bytes::from(v))))
                        .collect(),
                })
                .collect();
            let sender_frames = frames.clone();
            let writer = std::thread::spawn(move || {
                let mut conn = TcpTransport::new().dial(&addr).unwrap();
                for f in &sender_frames {
                    conn.send(f).unwrap();
                }
                conn
            });
            let mut server = listener.accept().unwrap();
            let mut held: Vec<Frame> = Vec::new();
            for want in &frames {
                let got = server.recv().unwrap();
                proptest::prop_assert_eq!(&got, want);
                // Keeping the decoded frame keeps its payload views alive
                // across the later receives below.
                held.push(got);
            }
            for (got, want) in held.iter().zip(&frames) {
                proptest::prop_assert_eq!(got, want);
            }
            drop(writer.join().unwrap());
        }
    }

    #[test]
    fn retry_policy_parses_and_rejects() {
        assert_eq!(
            RetryPolicy::parse("4:10"),
            Some(RetryPolicy::new(4, Duration::from_millis(10)))
        );
        assert_eq!(
            RetryPolicy::parse(" 2 : 250 "),
            Some(RetryPolicy::new(2, Duration::from_millis(250)))
        );
        for bad in ["", "4", "0:10", "four:ten", "4:", ":10", "4:10:2"] {
            assert_eq!(RetryPolicy::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn retry_delay_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::new(8, Duration::from_millis(25));
        for attempt in 0..8 {
            for salt in [0u64, 7, 0xDEAD_BEEF] {
                let d = policy.delay(attempt, salt);
                assert_eq!(d, policy.delay(attempt, salt), "reproducible");
                // Cap plus the 25 % jitter headroom.
                assert!(d <= MAX_RETRY_DELAY + MAX_RETRY_DELAY / 4, "{d:?}");
            }
        }
        // The exponential part grows until the cap.
        assert!(policy.delay(3, 1) > policy.delay(0, 1));
    }

    #[test]
    fn retry_dial_ladder_fails_fast_and_succeeds_on_live_listener() {
        let transport = TcpTransport::new();
        let policy = RetryPolicy::new(2, Duration::from_millis(1));
        // Port 1 is never listening: two quick attempts, then the error.
        let started = std::time::Instant::now();
        assert!(policy.dial(&transport, "127.0.0.1:1", 9).is_err());
        assert!(started.elapsed() < Duration::from_secs(1));
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = echo_server(listener, 1);
        let mut conn = policy.dial(&transport, &addr, 9).unwrap();
        assert_eq!(conn.request(&frame(3)).unwrap(), frame(3));
        conn.send(&Frame::Shutdown).unwrap();
        server.join().unwrap();
    }

    fn truncated_send_corrupts_not_completes(transport: Arc<dyn Transport>) {
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let conn = transport.dial(&addr).unwrap();
        let mut server_side = listener.accept().unwrap();
        let (mut sink, stream) = conn.split();
        let full = frame(42).encode();
        sink.send_truncated(&frame(42), full.len() / 2).unwrap();
        drop(sink);
        drop(stream);
        // The peer never assembles a frame from the torn bytes: it sees
        // the close (TCP) or a codec rejection (in-process), never a
        // spurious complete frame.
        match server_side.recv() {
            Err(WireError::Closed) | Err(WireError::Codec(_)) => {}
            other => panic!("torn frame surfaced as {other:?}"),
        }
    }

    #[test]
    fn tcp_truncated_send_corrupts_not_completes() {
        truncated_send_corrupts_not_completes(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn inproc_truncated_send_corrupts_not_completes() {
        truncated_send_corrupts_not_completes(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_listener_rebinds_its_concrete_address() {
        // The chaos harness's storage-restart path: a service that dies is
        // respawned on the same concrete address it announced before.
        let t = TcpTransport::new();
        let listener = t.listen(&t.any_addr()).unwrap();
        let addr = listener.addr();
        let mut conn = t.dial(&addr).unwrap();
        let mut listener = listener;
        let server_side = listener.accept().unwrap();
        drop(server_side); // server closes first → TIME_WAIT holds the port
        let _ = conn.recv(); // observe the close
        drop(listener);
        let again = t.listen(&addr).unwrap();
        assert_eq!(again.addr(), addr);
    }

    #[test]
    fn oversized_tcp_frame_is_rejected() {
        let t = TcpTransport::new();
        let mut listener = t.listen(&t.any_addr()).unwrap();
        let addr = listener.addr();
        let writer = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            let huge = (MAX_FRAME_BYTES as u32) + 1;
            raw.write_all(&huge.to_le_bytes()).unwrap();
            raw.flush().unwrap();
            // Hold the socket open until the reader has judged the length.
            std::thread::sleep(Duration::from_millis(100));
        });
        let mut conn = listener.accept().unwrap();
        assert!(matches!(conn.recv(), Err(WireError::Codec(_))));
        writer.join().unwrap();
    }
}
