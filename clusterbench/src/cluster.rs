//! Deploying the cluster over TCP loopback and driving it from one client
//! connection: an open-loop phase at a fixed rate, then bursts.
//!
//! The deployment makes the same public calls `launch_cluster` makes
//! (`StorageService::spawn_opts`, `run_router`,
//! `ProcessorService::spawn_opts`), with tracing, observability and fault
//! injection off unless a traced run asks for tracing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grouting_core::engine::{EngineAssets, EngineConfig};
use grouting_core::metrics::RunSnapshot;
use grouting_core::query::{Query, QueryResult};
use grouting_core::storage::{NetworkModel, Preset};
use grouting_core::trace::{TelemetryCounters, TraceLevel, TraceSnapshot};
use grouting_core::wire::service::now_ns;
use grouting_core::wire::{
    run_router, FetchMode, Frame, FrameSink, FrameStream, ObsConfig, PollerKind, ProcessorOptions,
    ProcessorService, Role, RouterOptions, ServiceHandle, StorageOptions, StorageService,
    TcpTransport, Transport, WireError, WireResult,
};

use crate::poll::wait_readable;
use crate::stats::Schedule;
use crate::tap::{Peer, Recorder, TapTransport};

/// How long the client waits without any progress before giving up.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Storage network emulation. The Ethernet preset is emulated by storage
/// endpoints that yield-spin until each delayed response is due; on 2 vCPUs
/// that took about half the CPU and made runs bimodal, so the measured
/// storage cost is the real loopback round trip.
const PRESET: Preset = Preset::Local;

/// Frames sent in a burst between two drains of the client connection, so
/// completions never back up far enough to stall the router's sends.
const BURST_DRAIN_EVERY: usize = 32;

/// A running deployment: 1 router, `P` processors, one storage endpoint
/// per tier server.
pub struct Deployment {
    base: Arc<dyn Transport>,
    router_addr: String,
    router: JoinHandle<WireResult<RunSnapshot>>,
    processors: Vec<JoinHandle<WireResult<()>>>,
    storage: Vec<ServiceHandle>,
    /// Reactor telemetry shared by every peer (traced runs only).
    pub telemetry: Option<Arc<TelemetryCounters>>,
}

/// Spawns the cluster and waits until every processor has said hello and
/// been acknowledged by the router. With `tap`, every peer's transport is
/// wrapped by the recording transport and the program's own `Stats`
/// tracing and reactor telemetry are on.
pub fn deploy(
    assets: &EngineAssets,
    engine: EngineConfig,
    tap: Option<&Arc<Recorder>>,
) -> Result<Deployment, String> {
    let base: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let peer_transport = |peer: Peer| match tap {
        Some(rec) => TapTransport::wrap(&base, peer, rec),
        None => Arc::clone(&base),
    };
    let trace = if tap.is_some() {
        TraceLevel::Stats
    } else {
        TraceLevel::Off
    };
    let telemetry = tap.map(|_| Arc::new(TelemetryCounters::new()));
    let poller = PollerKind::default_for_host();
    let err = |what: &str, e: WireError| format!("{what}: {e}");

    let mut storage = Vec::new();
    for id in 0..assets.tier.server_count() {
        let transport = peer_transport(Peer::Storage(id as u16));
        let any = transport.any_addr();
        storage.push(
            StorageService::spawn_opts(
                transport,
                &any,
                Arc::clone(&assets.tier),
                StorageOptions {
                    net: NetworkModel::from(PRESET),
                    poller,
                    telemetry: telemetry.clone(),
                    obs: ObsConfig::disabled(),
                    push_addr: None,
                    id: id as u16,
                },
            )
            .map_err(|e| err("storage spawn", e))?,
        );
    }
    let storage_addrs: Vec<String> = storage.iter().map(|h| h.addr().to_string()).collect();

    let router_transport = peer_transport(Peer::Router);
    let listener = router_transport
        .listen(&router_transport.any_addr())
        .map_err(|e| err("router listen", e))?;
    let router_addr = listener.addr();
    let router_assets = assets.clone();
    let router_opts = RouterOptions {
        snapshot_every: 0,
        poller,
        trace,
        telemetry: telemetry.clone(),
        obs: ObsConfig::disabled(),
    };
    let router =
        std::thread::spawn(move || run_router(listener, &router_assets, &engine, &router_opts));

    let ready: Vec<Arc<AtomicBool>> = (0..engine.processors)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let processors = ready
        .iter()
        .enumerate()
        .map(|(id, flag)| {
            ProcessorService::spawn_opts(
                peer_transport(Peer::Processor(id as u16)),
                id,
                router_addr.clone(),
                storage_addrs.clone(),
                assets.tier.partitioner(),
                engine,
                FetchMode::Batched,
                ProcessorOptions {
                    poller,
                    telemetry: telemetry.clone(),
                    replication: assets.tier.replication(),
                    retry: None,
                    stop: None,
                    ready: Some(Arc::clone(flag)),
                    obs: ObsConfig::disabled(),
                },
            )
        })
        .collect();
    let deployment = Deployment {
        base,
        router_addr,
        router,
        processors,
        storage,
        telemetry,
    };
    let started = Instant::now();
    while !ready.iter().all(|r| r.load(Ordering::SeqCst)) {
        if started.elapsed() > STALL_LIMIT || deployment.router.is_finished() {
            deployment.abort();
            return Err("processors never joined the router".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(deployment)
}

impl Deployment {
    /// Ends a deployment that ran no client (set-up repetitions): an empty
    /// submission lets the router finish and shut the processors down.
    pub fn shut_down_idle(self) -> Result<(), String> {
        let mut conn = self
            .base
            .dial(&self.router_addr)
            .map_err(|e| format!("dial router: {e}"))?;
        let hello = conn.send(&Frame::Hello {
            role: Role::Client,
            id: 0,
        });
        let end = conn.send(&Frame::SubmitEnd);
        if hello.is_ok() && end.is_ok() {
            while !matches!(conn.recv(), Ok(Frame::Shutdown) | Err(_)) {}
        }
        drop(conn);
        self.finish().map(|_| ())
    }

    /// Tears down a deployment whose run went wrong: a `Shutdown` from a
    /// fresh connection makes the router abort, which releases every
    /// other peer.
    pub fn abort(self) {
        if let Ok(mut conn) = self.base.dial(&self.router_addr) {
            let _ = conn.send(&Frame::Shutdown);
        }
        let _ = self.finish();
    }

    /// Joins the router and processors and stops the storage endpoints,
    /// returning the router's final snapshot.
    pub fn finish(self) -> Result<RunSnapshot, String> {
        let router = self.router.join();
        let mut dead = 0;
        for p in self.processors {
            if !matches!(p.join(), Ok(Ok(()))) {
                dead += 1;
            }
        }
        for s in self.storage {
            s.shutdown();
        }
        let snapshot = match router {
            Ok(Ok(snapshot)) => snapshot,
            Ok(Err(e)) => return Err(format!("router failed: {e}")),
            Err(_) => return Err("router thread panicked".to_string()),
        };
        if dead > 0 {
            return Err(format!("{dead} processor(s) did not exit cleanly"));
        }
        Ok(snapshot)
    }
}

/// The client's schedule for one run: `queries[..warm + measured]` are
/// offered open-loop at `rate_qps` (the first `warm` of them fill the
/// caches and are not timed), the rest are then submitted in `bursts`
/// equal bursts, each at once and each after the previous one completed.
pub struct Plan<'a> {
    pub queries: &'a [Query],
    pub warm: usize,
    pub measured: usize,
    pub rate_qps: f64,
    pub bursts: usize,
    /// Raised while the measured open-loop phase and the bursts run (the
    /// churn writer's go signal); lowered when the last burst completed.
    pub busy: &'a AtomicBool,
}

impl Plan<'_> {
    fn open_loop(&self) -> usize {
        self.warm + self.measured
    }
}

/// What the client saw, indexed by `seq`.
pub struct ClientRun {
    pub results: Vec<Option<QueryResult>>,
    /// Due time (open-loop queries) or send time (burst), monotonic ns.
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    /// Queries sent but not answered when the last measured query was due.
    pub backlog_end: usize,
    /// Per burst: queries answered, and first send → last completion.
    pub bursts: Vec<(usize, u64)>,
    /// The router's final trace snapshot (traced runs only).
    pub trace: Option<TraceSnapshot>,
}

impl ClientRun {
    pub fn answered(&self, range: std::ops::Range<usize>) -> usize {
        self.results[range].iter().filter(|r| r.is_some()).count()
    }
}

struct Client {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
    fd: Option<i32>,
    run: ClientRun,
    completed: usize,
    closed: bool,
    last_progress: Instant,
}

impl Client {
    fn submit(&mut self, seq: usize, query: Query) -> Result<(), String> {
        self.sink
            .send(&Frame::Submit {
                seq: seq as u64,
                query,
                submitted_ns: None,
            })
            .map_err(|e| format!("submit {seq}: {e}"))?;
        self.run.sent_ns[seq] = now_ns();
        Ok(())
    }

    /// Takes every frame already readable, without blocking.
    fn drain(&mut self) -> Result<(), String> {
        while !self.closed {
            match self.stream.try_recv() {
                Ok(Some(frame)) => self.accept(frame)?,
                Ok(None) => break,
                Err(WireError::Closed) => self.closed = true,
                Err(e) => return Err(format!("client receive: {e}")),
            }
        }
        Ok(())
    }

    fn accept(&mut self, frame: Frame) -> Result<(), String> {
        self.last_progress = Instant::now();
        match frame {
            Frame::Completion(c) => {
                let seq = c.seq as usize;
                match self.run.results.get_mut(seq) {
                    Some(slot @ None) => *slot = Some(c.result),
                    _ => return Err(format!("unexpected completion for seq {seq}")),
                }
                self.run.recv_ns[seq] = now_ns();
                self.completed += 1;
            }
            Frame::Metrics { trace, .. } => self.run.trace = trace.map(|t| *t),
            Frame::Shutdown => self.closed = true,
            other => return Err(format!("client got {}", other.kind())),
        }
        Ok(())
    }

    /// Waits until `done` holds, the connection closes, or nothing has
    /// arrived for [`STALL_LIMIT`].
    fn wait_until(&mut self, done: impl Fn(&Self) -> bool) -> Result<(), String> {
        loop {
            self.drain()?;
            if done(self) || self.closed {
                return Ok(());
            }
            if self.last_progress.elapsed() > STALL_LIMIT {
                return Err("cluster stalled: no frame for 60 s".to_string());
            }
            wait_readable(self.fd, 50_000_000);
        }
    }
}

/// Drives one run over a fresh client connection. Unanswered queries are
/// left as `None` (the caller counts them as failed); a protocol violation
/// is an error.
pub fn drive(dep: &Deployment, plan: &Plan<'_>) -> Result<ClientRun, String> {
    let n = plan.queries.len();
    let conn = dep
        .base
        .dial(&dep.router_addr)
        .map_err(|e| format!("dial router: {e}"))?;
    let fd = conn.raw_fd();
    let (mut sink, stream) = conn.split();
    sink.send(&Frame::Hello {
        role: Role::Client,
        id: 0,
    })
    .map_err(|e| format!("client hello: {e}"))?;
    let mut c = Client {
        sink,
        stream,
        fd,
        run: ClientRun {
            results: vec![None; n],
            due_ns: vec![0; n],
            sent_ns: vec![0; n],
            recv_ns: vec![0; n],
            backlog_end: 0,
            bursts: Vec::new(),
            trace: None,
        },
        completed: 0,
        closed: false,
        last_progress: Instant::now(),
    };

    // Open loop: each query goes out when it is due, whatever is still
    // outstanding; between due times the client parks on its socket.
    let open = plan.open_loop();
    let sched = Schedule {
        start_ns: now_ns() + 1_000_000,
        rate_qps: plan.rate_qps,
    };
    let mut next = 0;
    while next < open && !c.closed {
        let now = now_ns();
        while next < open && sched.due_ns(next) <= now {
            if next == plan.warm {
                plan.busy.store(true, Ordering::SeqCst);
            }
            c.run.due_ns[next] = sched.due_ns(next);
            c.submit(next, plan.queries[next])?;
            next += 1;
        }
        if next == open {
            c.drain()?;
            c.run.backlog_end = open - c.completed;
            break;
        }
        c.drain()?;
        wait_readable(fd, sched.due_ns(next).saturating_sub(now_ns()));
    }
    c.wait_until(|c| c.completed == open)?;

    // Bursts: each one's queries at once, timed from the first send to
    // the last answer.
    let bursts = plan.bursts;
    for b in 0..bursts {
        let range = open + b * (n - open) / bursts..open + (b + 1) * (n - open) / bursts;
        let start = now_ns();
        for seq in range.clone() {
            if c.closed {
                break;
            }
            c.run.due_ns[seq] = now_ns();
            c.submit(seq, plan.queries[seq])?;
            if (seq - range.start) % BURST_DRAIN_EVERY == BURST_DRAIN_EVERY - 1 {
                c.drain()?;
            }
        }
        c.wait_until(|c| c.completed == range.end)?;
        let last = c.run.recv_ns[range.clone()]
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        c.run
            .bursts
            .push((c.run.answered(range), last.saturating_sub(start)));
    }
    plan.busy.store(false, Ordering::SeqCst);

    if !c.closed {
        c.sink
            .send(&Frame::SubmitEnd)
            .map_err(|e| format!("submit end: {e}"))?;
        c.wait_until(|_| false)?;
    }
    Ok(c.run)
}
