//! A recording [`Transport`] wrapper for the traced run.
//!
//! Every cluster peer (router, each processor, each storage endpoint) is
//! handed its own [`TapTransport`] around the real one. Connections it
//! listens for or dials are split into their halves and re-assembled from
//! wrapping halves that stamp each frame crossing the boundary: receive
//! time, or send start plus the time spent inside `FrameSink::send`,
//! with the frame's kind, correlation key (`seq` or `req_id`) and encoded
//! size. The raw fd is forwarded, so a peer's epoll readiness is
//! unchanged. Each half keeps its events in memory and hands them to the
//! shared [`Recorder`] when it is dropped at teardown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use grouting_core::wire::service::now_ns;
use grouting_core::wire::{
    Connection, Frame, FrameSink, FrameStream, Listener, Transport, WireResult,
};

/// Which cluster peer a connection end belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Peer {
    Router,
    Processor(u16),
    Storage(u16),
}

/// The frame kinds the span analysis correlates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Submit,
    Dispatch,
    Completion,
    FetchReq,
    FetchResp,
    Other,
}

/// One frame crossing a wrapped connection end.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub peer: Peer,
    /// Connection id, unique per wrapped connection in one run.
    pub conn: u64,
    /// `true` for a frame this peer sent, `false` for one it received.
    pub out: bool,
    pub kind: Kind,
    /// `seq` for query frames, `req_id` for fetch batches.
    pub key: u64,
    /// Nodes in a batch request, payloads in a batch response.
    pub items: u32,
    /// `Frame::encoded_len`.
    pub bytes: u32,
    /// Receive time, or the time the send started (monotonic ns).
    pub t_ns: u64,
    /// Time spent inside `FrameSink::send` (0 for received frames).
    pub send_ns: u64,
}

/// Collects the event logs of every wrapped connection end of one run.
#[derive(Default)]
pub struct Recorder {
    next_conn: AtomicU64,
    logs: Mutex<Vec<Vec<Event>>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Every event handed in so far (call after the peers are joined).
    pub fn take(&self) -> Vec<Event> {
        let mut logs = self.logs.lock().expect("recorder lock poisoned");
        logs.drain(..).flatten().collect()
    }
}

/// One connection end's in-memory log, handed to the recorder on drop.
struct Log {
    peer: Peer,
    conn: u64,
    rec: Arc<Recorder>,
    events: Vec<Event>,
}

impl Log {
    fn push(&mut self, frame: &Frame, out: bool, t_ns: u64, send_ns: u64) {
        let (kind, key, items) = classify(frame);
        self.events.push(Event {
            peer: self.peer,
            conn: self.conn,
            out,
            kind,
            key,
            items,
            bytes: frame.encoded_len() as u32,
            t_ns,
            send_ns,
        });
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned recorder only loses this log.
        if let Ok(mut logs) = self.rec.logs.lock() {
            logs.push(std::mem::take(&mut self.events));
        }
    }
}

fn classify(frame: &Frame) -> (Kind, u64, u32) {
    match frame {
        Frame::Submit { seq, .. } => (Kind::Submit, *seq, 0),
        Frame::Dispatch { seq, .. } => (Kind::Dispatch, *seq, 0),
        Frame::Completion(c) => (Kind::Completion, c.seq, 0),
        Frame::FetchBatchRequest { req_id, nodes, .. } => {
            (Kind::FetchReq, *req_id, nodes.len() as u32)
        }
        Frame::FetchBatchResponse { req_id, payloads } => {
            (Kind::FetchResp, *req_id, payloads.len() as u32)
        }
        _ => (Kind::Other, 0, 0),
    }
}

/// A transport whose connections record every frame for one peer.
pub struct TapTransport {
    inner: Arc<dyn Transport>,
    peer: Peer,
    rec: Arc<Recorder>,
}

impl TapTransport {
    pub fn wrap(inner: &Arc<dyn Transport>, peer: Peer, rec: &Arc<Recorder>) -> Arc<dyn Transport> {
        Arc::new(Self {
            inner: Arc::clone(inner),
            peer,
            rec: Arc::clone(rec),
        })
    }
}

fn tap(conn: Connection, peer: Peer, rec: &Arc<Recorder>) -> Connection {
    let conn_id = rec.next_conn.fetch_add(1, Ordering::Relaxed);
    let log = |rec: &Arc<Recorder>| Log {
        peer,
        conn: conn_id,
        rec: Arc::clone(rec),
        events: Vec::new(),
    };
    let (sink, stream) = conn.split();
    Connection::from_halves(
        Box::new(TapSink {
            inner: sink,
            log: log(rec),
        }),
        Box::new(TapStream {
            inner: stream,
            log: log(rec),
        }),
    )
}

impl Transport for TapTransport {
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>> {
        Ok(Box::new(TapListener {
            inner: self.inner.listen(addr)?,
            peer: self.peer,
            rec: Arc::clone(&self.rec),
        }))
    }

    fn dial(&self, addr: &str) -> WireResult<Connection> {
        Ok(tap(self.inner.dial(addr)?, self.peer, &self.rec))
    }

    fn dial_once(&self, addr: &str) -> WireResult<Connection> {
        Ok(tap(self.inner.dial_once(addr)?, self.peer, &self.rec))
    }

    fn any_addr(&self) -> String {
        self.inner.any_addr()
    }
}

struct TapListener {
    inner: Box<dyn Listener>,
    peer: Peer,
    rec: Arc<Recorder>,
}

impl Listener for TapListener {
    fn accept(&mut self) -> WireResult<Connection> {
        Ok(tap(self.inner.accept()?, self.peer, &self.rec))
    }

    fn try_accept(&mut self) -> WireResult<Option<Connection>> {
        Ok(self
            .inner
            .try_accept()?
            .map(|c| tap(c, self.peer, &self.rec)))
    }

    fn addr(&self) -> String {
        self.inner.addr()
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }
}

struct TapSink {
    inner: Box<dyn FrameSink>,
    log: Log,
}

impl FrameSink for TapSink {
    fn send(&mut self, frame: &Frame) -> WireResult<()> {
        let start = now_ns();
        let sent = self.inner.send(frame);
        let spent = now_ns().saturating_sub(start);
        self.log.push(frame, true, start, spent);
        sent
    }

    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        self.inner.send_truncated(frame, keep)
    }
}

struct TapStream {
    inner: Box<dyn FrameStream>,
    log: Log,
}

impl TapStream {
    fn note(&mut self, frame: &Frame) {
        self.log.push(frame, false, now_ns(), 0);
    }
}

impl FrameStream for TapStream {
    fn recv(&mut self) -> WireResult<Frame> {
        let frame = self.inner.recv()?;
        self.note(&frame);
        Ok(frame)
    }

    fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        let frame = self.inner.try_recv()?;
        if let Some(f) = &frame {
            self.note(f);
        }
        Ok(frame)
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }

    fn pool_stats(&self) -> Option<(u64, u64, u64)> {
        self.inner.pool_stats()
    }
}
