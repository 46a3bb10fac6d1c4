//! Chaos harness: a wire cluster that survives scripted node deaths.
//!
//! [`run_chaos_cluster`] deploys the same topology as
//! [`crate::cluster::launch_cluster`], but drives the workload in *waves*
//! and executes [`ChaosAction`]s at the wave boundaries — killing and
//! restarting processors and storage endpoints mid-run while the client
//! keeps collecting answers. Every kill is a real death: a storage
//! endpoint's reactor stops and its listener closes (subsequent dials are
//! refused, live connections drop); a processor exits its loop and its
//! router connection closes, exactly as a crash would look from the wire.
//!
//! Determinism contract: a wave fully drains before its actions run, so
//! processor kills happen with an empty outstanding window, and a killed
//! processor is only declared restarted once the router has acknowledged
//! its re-join (a [`Frame::MetricsRequest`] pipelined behind the hello on
//! the same connection — frames on one connection are handled in order).
//! Storage kills surface at the next wave's fetches, which fail over along
//! the tier's replica chain and return byte-identical payloads. Under a
//! deterministic routing scheme (hash, no stealing) a chaos run therefore
//! reproduces the fault-free run's answers and demand statistics exactly —
//! pinned by `tests/tests/chaos.rs` — while the failover counters in the
//! final [`RunSnapshot`] account for every recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_engine::EngineAssets;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::{RunSnapshot, Timeline};
use grouting_query::{Query, QueryResult};
use grouting_storage::NetworkModel;

use crate::cluster::{validate_config, ClusterConfig, ClusterRun};
use crate::error::{WireError, WireResult};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::flow::FetchMode;
use crate::frame::{Frame, Role};
use crate::service::{now_ns, run_router, ProcessorOptions, ProcessorService, RouterOptions};
use crate::service::{ServiceHandle, StorageOptions, StorageService};
use crate::transport::{Connection, Transport};

/// How long the harness waits for a restarted processor's re-join to be
/// acknowledged before declaring the restart failed.
const REJOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One scripted failure or recovery, executed between waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Stop processor `id` and join its thread: its router connection
    /// closes, the router marks it down. Killing a processor that is
    /// already down is a script error.
    KillProcessor(usize),
    /// Respawn processor `id` (same id, cold cache) and block until the
    /// router has acknowledged the re-join — the next wave is routed with
    /// the processor back in rotation.
    RestartProcessor(usize),
    /// Shut storage endpoint `server` down: its listener closes and every
    /// connection to it drops. Fetches homed there fail over along the
    /// replica chain (fatal if the tier has no replication).
    KillStorage(usize),
    /// Respawn storage endpoint `server` at the address it announced at
    /// launch — peers recover it with the addresses they already hold.
    RestartStorage(usize),
}

/// One wave of a chaos script: queries to submit and fully drain, then
/// actions to execute before the next wave.
#[derive(Debug, Clone, Default)]
pub struct ChaosWave {
    /// Queries submitted (and completed) before `after` runs.
    pub queries: Vec<Query>,
    /// Actions executed once every query of this wave has completed.
    pub after: Vec<ChaosAction>,
}

/// A scripted kill/restart schedule interleaved with a workload.
#[derive(Debug, Clone, Default)]
pub struct ChaosScript {
    /// The waves, in submission order.
    pub waves: Vec<ChaosWave>,
}

impl ChaosScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a wave of queries (no actions yet).
    #[must_use]
    pub fn wave(mut self, queries: Vec<Query>) -> Self {
        self.waves.push(ChaosWave {
            queries,
            after: Vec::new(),
        });
        self
    }

    /// Appends an action to the most recent wave.
    ///
    /// # Panics
    ///
    /// Panics if no wave has been added yet.
    #[must_use]
    pub fn then(mut self, action: ChaosAction) -> Self {
        self.waves
            .last_mut()
            .expect("ChaosScript::then needs a wave first")
            .after
            .push(action);
        self
    }

    /// Total number of queries across all waves.
    pub fn query_count(&self) -> usize {
        self.waves.iter().map(|w| w.queries.len()).sum()
    }

    /// The same waves with every action stripped — the fault-free
    /// comparison run a chaos run must agree with.
    #[must_use]
    pub fn fault_free(&self) -> Self {
        Self {
            waves: self
                .waves
                .iter()
                .map(|w| ChaosWave {
                    queries: w.queries.clone(),
                    after: Vec::new(),
                })
                .collect(),
        }
    }
}

/// A spawned processor the harness can kill and account for.
struct ProcSlot {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<WireResult<()>>,
}

/// Launches the full cluster topology and runs `script` through it:
/// submit a wave, drain its completions, execute its actions, repeat —
/// then `SubmitEnd` and the normal teardown. Results, timeline, and the
/// final snapshot come back as a [`ClusterRun`], with the snapshot's
/// failover counters reflecting every recovery the script forced.
///
/// # Errors
///
/// Propagates transport failures and protocol violations; a script that
/// kills an already-dead node (or restarts a live one) fails with an
/// error naming the action, as does a restarted processor whose re-join
/// the router never acknowledges.
pub fn launch_chaos_cluster(
    assets: &EngineAssets,
    script: &ChaosScript,
    config: &ClusterConfig,
) -> WireResult<ClusterRun> {
    validate_config(assets, config)?;
    let transport = config.transport.build();
    let net = NetworkModel::from(config.net);
    let p = config.engine.processors;

    // Storage endpoints, one per tier server, each restartable at the
    // address it announces here.
    let spawn_storage = |addr: &str| {
        StorageService::spawn_opts(
            Arc::clone(&transport),
            addr,
            Arc::clone(&assets.tier),
            StorageOptions {
                net,
                poller: config.reactor,
                ..StorageOptions::default()
            },
        )
    };
    let mut storage: Vec<Option<ServiceHandle>> = Vec::new();
    for _ in 0..assets.tier.server_count() {
        storage.push(Some(spawn_storage(&transport.any_addr())?));
    }
    let storage_addrs: Vec<String> = storage
        .iter()
        .map(|h| h.as_ref().expect("just spawned").addr().to_string())
        .collect();

    // The router node.
    let router_listener = transport.listen(&transport.any_addr())?;
    let router_addr = router_listener.addr();
    let router_assets = assets.clone();
    let router_config = config.engine;
    let router_opts = RouterOptions {
        snapshot_every: config.snapshot_every,
        poller: config.reactor,
        trace: config.trace,
        telemetry: None,
        obs: config.obs.clone(),
    };
    let router = std::thread::spawn(move || {
        run_router(
            router_listener,
            &router_assets,
            &router_config,
            &router_opts,
        )
    });

    // The processor fleet — every processor carries a kill switch. Faults
    // arm on the processors' transport exactly as in `launch_cluster`.
    let fault_plan = if config.faults.is_empty() {
        FaultPlan::from_env()
    } else {
        config.faults.clone()
    };
    let proc_transport = FaultyTransport::wrap(Arc::clone(&transport), fault_plan);
    let partitioner = assets.tier.partitioner();
    let spawn_proc = |id: usize, ready: Option<Arc<AtomicBool>>| -> ProcSlot {
        let stop = Arc::new(AtomicBool::new(false));
        let join = ProcessorService::spawn_opts(
            Arc::clone(&proc_transport),
            id,
            router_addr.clone(),
            storage_addrs.clone(),
            Arc::clone(&partitioner),
            config.engine,
            FetchMode::Batched,
            ProcessorOptions {
                poller: config.reactor,
                telemetry: None,
                replication: assets.tier.replication(),
                retry: config.retry,
                stop: Some(Arc::clone(&stop)),
                ready,
                obs: config.obs.clone(),
            },
        );
        ProcSlot { stop, join }
    };
    let mut procs: Vec<Option<ProcSlot>> = (0..p).map(|id| Some(spawn_proc(id, None))).collect();

    // The client: waves, actions, SubmitEnd, final drain.
    let started = now_ns();
    let run = drive_chaos_client(
        &*transport,
        &router_addr,
        script,
        &mut procs,
        &mut storage,
        &storage_addrs,
        &spawn_proc,
        |server| spawn_storage(&storage_addrs[server]),
    );
    if run.is_err() {
        // Abort a half-started run so the joins below cannot hang.
        if let Ok(mut abort) = transport.dial(&router_addr) {
            let _ = abort.send(&Frame::Shutdown);
        }
    }
    let wall_ns = now_ns().saturating_sub(started);

    let router_result = router
        .join()
        .map_err(|_| WireError::Protocol("router thread panicked".to_string()))?;
    // Live processors exit on the router's Shutdown; a kill switch only
    // short-circuits the ones the script left dead. Joins cannot hang:
    // every surviving processor's router connection is closed by now.
    for slot in procs.into_iter().flatten() {
        let _ = slot.join.join();
    }
    for handle in storage.into_iter().flatten() {
        handle.shutdown();
    }

    let snapshot = match router_result {
        Ok(snapshot) => snapshot,
        // The router's Closed is the client's own hangup after it bailed,
        // and "run aborted" echoes the abort we sent above — in both
        // cases the client error is the root cause.
        Err(WireError::Closed) | Err(WireError::Protocol(_)) if run.is_err() => {
            return Err(run.unwrap_err())
        }
        Err(router_err) => return Err(router_err),
    };
    let (results, timeline, mid_snapshots) = run?;
    Ok(ClusterRun {
        results,
        timeline,
        snapshot,
        mid_snapshots,
        trace: None,
        wall_ns,
    })
}

type ChaosClientRun = (Vec<QueryResult>, Timeline, Vec<RunSnapshot>);

/// Streams the script through the router connection, executing actions at
/// wave boundaries. Returns results (sequence order), the timeline, and
/// any mid-run snapshots (the final snapshot is popped by the caller from
/// this list's tail).
#[allow(clippy::too_many_arguments)]
fn drive_chaos_client(
    transport: &dyn Transport,
    router_addr: &str,
    script: &ChaosScript,
    procs: &mut [Option<ProcSlot>],
    storage: &mut [Option<ServiceHandle>],
    storage_addrs: &[String],
    spawn_proc: &dyn Fn(usize, Option<Arc<AtomicBool>>) -> ProcSlot,
    respawn_storage: impl Fn(usize) -> WireResult<ServiceHandle>,
) -> WireResult<ChaosClientRun> {
    let total = script.query_count();
    let mut conn = transport.dial(router_addr)?;
    conn.send(&Frame::Hello {
        role: Role::Client,
        id: 0,
    })?;

    let mut results: Vec<Option<QueryResult>> = vec![None; total];
    let mut timeline = Timeline::new();
    let mut snapshots: Vec<RunSnapshot> = Vec::new();
    let mut seq = 0u64;
    for wave in &script.waves {
        let mut pending = wave.queries.len();
        for query in &wave.queries {
            conn.send(&Frame::Submit {
                seq,
                query: *query,
                submitted_ns: None,
            })?;
            seq += 1;
        }
        while pending > 0 {
            match conn.recv()? {
                Frame::Completion(c) => {
                    record_completion(&mut results, &mut timeline, c)?;
                    pending -= 1;
                }
                Frame::Metrics { snapshot, .. } => snapshots.push(snapshot),
                Frame::Shutdown => {
                    return Err(WireError::Protocol("router shut down mid-wave".to_string()))
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "chaos client got {}",
                        other.kind()
                    )))
                }
            }
        }
        for action in &wave.after {
            apply_action(
                *action,
                &mut conn,
                procs,
                storage,
                storage_addrs,
                spawn_proc,
                &respawn_storage,
                &mut snapshots,
            )?;
        }
    }
    conn.send(&Frame::SubmitEnd)?;
    loop {
        match conn.recv() {
            Ok(Frame::Completion(c)) => record_completion(&mut results, &mut timeline, c)?,
            Ok(Frame::Metrics { snapshot, .. }) => snapshots.push(snapshot),
            Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
            Ok(other) => {
                return Err(WireError::Protocol(format!(
                    "chaos client got {}",
                    other.kind()
                )))
            }
            Err(e) => return Err(e),
        }
    }

    let results: Option<Vec<QueryResult>> = results.into_iter().collect();
    let results = results
        .ok_or_else(|| WireError::Protocol("run ended with incomplete results".to_string()))?;
    if snapshots.is_empty() {
        return Err(WireError::Protocol(
            "run ended without a snapshot".to_string(),
        ));
    }
    Ok((results, timeline, snapshots))
}

fn record_completion(
    results: &mut [Option<QueryResult>],
    timeline: &mut Timeline,
    c: crate::frame::Completion,
) -> WireResult<()> {
    let seq = c.seq as usize;
    if seq >= results.len() || results[seq].is_some() {
        return Err(WireError::Protocol(format!(
            "unexpected completion for seq {seq}"
        )));
    }
    results[seq] = Some(c.result);
    timeline.push(QueryRecord {
        seq: c.seq,
        arrived: c.arrived_ns,
        started: c.started_ns,
        completed: c.completed_ns,
        processor: c.processor as usize,
    });
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_action(
    action: ChaosAction,
    conn: &mut Connection,
    procs: &mut [Option<ProcSlot>],
    storage: &mut [Option<ServiceHandle>],
    storage_addrs: &[String],
    spawn_proc: &dyn Fn(usize, Option<Arc<AtomicBool>>) -> ProcSlot,
    respawn_storage: &impl Fn(usize) -> WireResult<ServiceHandle>,
    snapshots: &mut Vec<RunSnapshot>,
) -> WireResult<()> {
    let script_err = |what: String| Err(WireError::Protocol(format!("chaos script: {what}")));
    match action {
        ChaosAction::KillProcessor(id) => {
            let Some(slot) = procs.get_mut(id).and_then(Option::take) else {
                return script_err(format!("processor {id} is not running"));
            };
            slot.stop.store(true, Ordering::SeqCst);
            // A processor stopped between frames exits cleanly; one caught
            // mid-exchange may surface an error — either way it is dead.
            let _ = slot.join.join();
            // Barrier: one metrics round trip guarantees the router has
            // polled (and fully processed) the dead peer's closed stream
            // before any restart can re-dial under the same id. The poll
            // that delivered our request had the closure ready too, and
            // the router drains a poll batch completely before polling
            // again.
            conn.send(&Frame::MetricsRequest)?;
            match conn.recv()? {
                Frame::Metrics { snapshot, .. } => snapshots.push(snapshot),
                other => {
                    return Err(WireError::Protocol(format!(
                        "chaos client got {} awaiting the kill barrier",
                        other.kind()
                    )))
                }
            }
            Ok(())
        }
        ChaosAction::RestartProcessor(id) => {
            if procs.get(id).is_none_or(Option::is_some) {
                return script_err(format!("processor {id} is not down"));
            }
            let ready = Arc::new(AtomicBool::new(false));
            let slot = spawn_proc(id, Some(Arc::clone(&ready)));
            let deadline = Instant::now() + REJOIN_TIMEOUT;
            while !ready.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err(WireError::Protocol(format!(
                        "restarted processor {id} never re-joined"
                    )));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            procs[id] = Some(slot);
            Ok(())
        }
        ChaosAction::KillStorage(server) => {
            let Some(handle) = storage.get_mut(server).and_then(Option::take) else {
                return script_err(format!("storage {server} is not running"));
            };
            handle.shutdown();
            Ok(())
        }
        ChaosAction::RestartStorage(server) => {
            if storage.get(server).is_none_or(Option::is_some) {
                return script_err(format!("storage {server} is not down"));
            }
            debug_assert!(server < storage_addrs.len());
            storage[server] = Some(respawn_storage(server)?);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TransportKind;
    use crate::transport::RetryPolicy;
    use grouting_engine::EngineConfig;
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_partition::HashPartitioner;
    use grouting_route::RoutingKind;
    use grouting_storage::StorageTier;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Disjoint 5-node star components: queries anchored in different
    /// components share no adjacency records, so demand statistics are
    /// invariant to cache restarts and query placement.
    fn disjoint_tier(components: u32, servers: usize, replication: usize) -> Arc<StorageTier> {
        let mut b = GraphBuilder::new();
        for c in 0..components {
            let base = c * 8;
            for leaf in 1..5 {
                b.add_edge(n(base), n(base + leaf));
            }
        }
        let g = b.build().unwrap();
        let tier = Arc::new(StorageTier::with_replication(
            Arc::new(HashPartitioner::new(servers)),
            grouting_storage::log::DEFAULT_SEGMENT_BYTES,
            replication,
        ));
        tier.load_graph(&g).unwrap();
        tier
    }

    fn wave(range: std::ops::Range<u32>) -> Vec<Query> {
        range
            .map(|c| Query::NeighborAggregation {
                node: n(c * 8),
                hops: 1,
                label: None,
            })
            .collect()
    }

    fn chaos_config() -> ClusterConfig {
        let engine = EngineConfig {
            stealing: false,
            cache_capacity: 4 << 20,
            ..EngineConfig::paper_default(2, RoutingKind::Hash)
        };
        ClusterConfig::new(engine, TransportKind::InProc)
            .with_retry(RetryPolicy::new(2, Duration::from_millis(1)))
    }

    #[test]
    fn kill_everything_once_batched() {
        let tier = disjoint_tier(24, 2, 2);
        let assets = EngineAssets::new(tier);
        let script = ChaosScript::new()
            .wave(wave(0..8))
            .then(ChaosAction::KillStorage(0))
            .wave(wave(8..16))
            .then(ChaosAction::RestartStorage(0))
            .then(ChaosAction::KillProcessor(1))
            .then(ChaosAction::RestartProcessor(1))
            .wave(wave(16..24));
        let config = chaos_config();
        let chaos = launch_chaos_cluster(&assets, &script, &config).unwrap();
        let calm = launch_chaos_cluster(&assets, &script.fault_free(), &config).unwrap();
        assert_eq!(chaos.results, calm.results);
        assert_eq!(chaos.snapshot.cache_hits, calm.snapshot.cache_hits);
        assert_eq!(chaos.snapshot.cache_misses, calm.snapshot.cache_misses);
        assert_eq!(chaos.snapshot.per_processor, calm.snapshot.per_processor);
        assert!(
            chaos.snapshot.replica_failovers > 0,
            "storage kill must fail over"
        );
        assert_eq!(calm.snapshot.replica_failovers, 0);
        assert_eq!(calm.snapshot.windows_resubmitted, 0);
        // Clean kills: the processor died with an empty dispatch window.
        assert_eq!(chaos.snapshot.windows_resubmitted, 0);
    }

    #[test]
    fn script_errors_name_the_bad_action() {
        let tier = disjoint_tier(4, 2, 2);
        let assets = EngineAssets::new(tier);
        let script = ChaosScript::new()
            .wave(wave(0..4))
            .then(ChaosAction::RestartStorage(0));
        let err = launch_chaos_cluster(&assets, &script, &chaos_config()).unwrap_err();
        assert!(
            err.to_string().contains("storage 0 is not down"),
            "got {err}"
        );
    }
}
