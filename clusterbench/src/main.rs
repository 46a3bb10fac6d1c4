//! Open-loop benchmark of the gRouting cluster over TCP loopback.
//!
//! ```text
//! cargo run --release --offline --manifest-path clusterbench/Cargo.toml -- \
//!     --workload locality --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process deploys 1 router, 4 processors and 2 storage endpoints on
//! loopback, ten times in turn. Against each deployment one client thread
//! on one connection offers the workload's queries open-loop at a fixed
//! rate (each timed from when it was due), then submits bursts for
//! saturation throughput; every answer is checked against an in-process
//! oracle. `--trace 0` prints the end-to-end metrics of the untraced runs;
//! `--trace 1` adds one traced run (recording transport,
//! `TraceLevel::Stats`, reactor telemetry) and prints the per-layer
//! metrics. The last stdout line is one JSON object;
//! a readable report goes to stderr. See README.md for the workloads and
//! the metric definitions.

mod churn;
mod cluster;
mod poll;
mod spans;
mod stats;
mod tap;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_core::cache::Policy;
use grouting_core::embed::{Embedding, EmbeddingConfig, LandmarkConfig, Landmarks};
use grouting_core::engine::{EngineAssets, EngineConfig, Worker};
use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::graph::CsrGraph;
use grouting_core::partition::HashPartitioner;
use grouting_core::query::{Query, QueryResult};
use grouting_core::route::{EmbedRouter, RoutingKind, Strategy};
use grouting_core::storage::StorageTier;
use grouting_core::trace::Stage;
use grouting_core::workload::{hotspot_workload, QueryMix, WorkloadConfig};

use cluster::{ClientRun, Deployment, Plan};
use stats::{lateness_ms, max_over_mean, median, ratio, summarise, Summary};

const PROCESSORS: usize = 4;
const STORAGE_SERVERS: usize = 2;
/// Open-loop seconds before timing starts (cache warm-up).
const WARM_S: f64 = 0.5;
/// Set-up repetitions whose median is `setup_s` (untraced invocations): at
/// least `SETUP_MIN_REPS`, and more, up to `SETUP_MAX_REPS`, while they
/// have taken less than `SETUP_BUDGET_S` in all, so a quick set-up is
/// sampled over a few seconds of host time too.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 4.0;
/// Fresh node ids each writer run draws its edges between.
const FRESH_NODES: u32 = 10_000;
/// Updates the writer applies back to back on the idle tier after each run
/// of a workload without a concurrent writer.
const IDLE_UPDATES: usize = 1_000;
/// Samples per window for the p99s of the latencies and the update
/// timings: each window's p99 has ten samples beyond it, and the reported
/// p99 is the median over the windows ([`stats::summarise`]).
const WINDOW_SAMPLES: usize = 1_000;
/// Bursts the saturation phase is split into, per run; throughput is the
/// median over every burst of every run.
const BURSTS: usize = 2;
/// Fresh deployments an untraced measurement is spread over: a
/// deployment tends to keep one performance regime for its lifetime (how
/// its threads share the cores), so the windows are pooled across several.
const DEPLOYMENTS: usize = 10;
/// Cache of each oracle thread.
const ORACLE_CACHE_BYTES: usize = 16 << 20;
/// The generator fell behind its schedule when its median lateness exceeds
/// this (a stall that delays a few sends is charged to their latencies, not
/// a reason to discard the run) …
const LATE_LIMIT_MS: f64 = 5.0;
/// … or more than this many seconds of offered load were outstanding
/// when the offered phase ended.
const BACKLOG_LIMIT_S: f64 = 0.25;

/// One workload: graph size, cluster shape, and load.
struct Spec {
    name: &'static str,
    /// WebGraph profile scale (1.0 = 105,897 nodes).
    scale: f64,
    cache_bytes: usize,
    routing: RoutingKind,
    /// Fixed open-loop offered rate: about a sixth of the lowest burst
    /// throughput seen when this benchmark was defined (README.md), so the
    /// cluster stays clear of saturation when the host runs slow.
    rate_qps: f64,
    /// Queries per run submitted in bursts after the open-loop phase.
    burst: usize,
    /// `AddEdge` updates per second applied beside the queries; `None`:
    /// the writer runs alone on the idle tier after each run, back to back.
    writes_per_s: Option<f64>,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "locality",
        scale: 1.0,
        cache_bytes: 4 << 20,
        routing: RoutingKind::Embed,
        rate_qps: 400.0,
        burst: 2400,
        writes_per_s: None,
    },
    Spec {
        name: "churn",
        scale: 1.0,
        cache_bytes: 4 << 20,
        routing: RoutingKind::NoCache,
        rate_qps: 400.0,
        burst: 2000,
        writes_per_s: Some(1000.0),
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = f64::from(value.parse::<u32>().map_err(|_| bad)?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// One timed set-up: graph generation, preprocessing, and a deployment
/// whose processors have all joined.
struct Setup {
    graph: Arc<CsrGraph>,
    assets: EngineAssets,
    graph_s: f64,
    preprocess_s: f64,
    spawn_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.graph_s + self.preprocess_s + self.spawn_s
    }
}

fn engine_config(spec: &Spec) -> EngineConfig {
    EngineConfig {
        cache_capacity: spec.cache_bytes,
        ..EngineConfig::paper_default(PROCESSORS, spec.routing)
    }
}

/// Builds the graph and exactly the preprocessing the workload's routing
/// needs (the tier always; landmarks and embedding for embed routing),
/// then deploys.
fn set_up(spec: &Spec) -> Result<(Setup, Deployment), String> {
    let t = Instant::now();
    let graph = Arc::new(DatasetProfile::at_scale(ProfileName::WebGraph, spec.scale).generate());
    let graph_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(
        STORAGE_SERVERS,
    ))));
    tier.load_graph(&graph)
        .map_err(|e| format!("loading the tier: {e}"))?;
    let mut assets = EngineAssets::new(tier);
    if spec.routing == RoutingKind::Embed {
        let n = graph.node_count();
        let landmarks = Landmarks::build(
            &graph,
            &LandmarkConfig {
                count: 96.min(((n as f64).sqrt() as usize).max(4)),
                min_separation: 3,
            },
        );
        let embedding = Embedding::build(&landmarks, &EmbeddingConfig::default());
        assets = assets
            .with_landmarks(Some(Arc::new(landmarks)))
            .with_embedding(Some(Arc::new(embedding)));
    }
    let preprocess_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let dep = cluster::deploy(&assets, engine_config(spec), None)?;
    let spawn_s = t.elapsed().as_secs_f64();
    Ok((
        Setup {
            graph,
            assets,
            graph_s,
            preprocess_s,
            spawn_s,
        },
        dep,
    ))
}

/// The seeded query stream: the hotspot mix (radius 2, 2 hops, uniform
/// aggregation / random walk / reachability), 10 queries per hotspot.
fn make_queries(graph: &CsrGraph, count: usize, seed: u64) -> Vec<Query> {
    let mut queries = hotspot_workload(
        graph,
        &WorkloadConfig {
            hotspots: count.div_ceil(10),
            per_hotspot: 10,
            radius: 2,
            hops: 2,
            mix: QueryMix::uniform(),
            restart_prob: 0.15,
            seed,
        },
    )
    .queries;
    queries.truncate(count);
    queries
}

/// The oracle: every query executed in-process over the same tier, on two
/// threads with a private LRU each (answers do not depend on the cache).
/// Also returns each query's record accesses, which every correct
/// execution makes exactly (cache hits + misses).
fn oracle(tier: &Arc<StorageTier>, queries: &[Query]) -> (Vec<QueryResult>, Vec<u64>) {
    let half = queries.len() / 2;
    std::thread::scope(|s| {
        let parts: Vec<_> = [&queries[..half], &queries[half..]]
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let cache = Policy::Lru.build(ORACLE_CACHE_BYTES);
                    let mut worker = Worker::from_parts(0, Box::new(Arc::clone(tier)), cache);
                    part.iter()
                        .map(|q| {
                            let (outcome, _) = worker.run(q);
                            let accesses = outcome.stats.cache_hits + outcome.stats.cache_misses;
                            (outcome.result, accesses)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut answers = Vec::with_capacity(queries.len());
        let mut accesses = Vec::with_capacity(queries.len());
        for part in parts {
            for (a, n) in part.join().expect("oracle thread panicked") {
                answers.push(a);
                accesses.push(n);
            }
        }
        (answers, accesses)
    })
}

/// Mean nanoseconds of one `Strategy::preferred` call over the queries.
fn decide_ns(spec: &Spec, assets: &EngineAssets, queries: &[Query]) -> f64 {
    let strategy = match spec.routing {
        RoutingKind::Embed => Strategy::Embed(EmbedRouter::new(
            Arc::clone(assets.embedding.as_ref().expect("embed assets")),
            PROCESSORS,
            0.9,
            0x5EED,
        )),
        RoutingKind::Hash => Strategy::Hash,
        _ => Strategy::NextReady { no_cache: true },
    };
    let loads = vec![0usize; PROCESSORS];
    let up = vec![true; PROCESSORS];
    let rounds = 20;
    let t = Instant::now();
    for _ in 0..rounds {
        for q in queries {
            std::hint::black_box(strategy.preferred(std::hint::black_box(q), &loads, &up, 20.0));
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * queries.len()) as f64
}

/// Everything one cluster run produced.
struct Run {
    client: ClientRun,
    snapshot: grouting_core::metrics::RunSnapshot,
    /// The writer's updates: beside the queries, or after them.
    writes: churn::Writes,
    gets: u64,
    reactor_busy: Option<f64>,
    events: Vec<tap::Event>,
}

/// Queries per deployment: the first `warm` fill the caches untimed, the
/// next `measured` are timed, the last `burst` go out in bursts.
struct Phases {
    warm: usize,
    measured: usize,
    burst: usize,
}

impl Phases {
    fn measured(&self) -> std::ops::Range<usize> {
        self.warm..self.warm + self.measured
    }

    /// The slice of the query stream deployment `k` replays: every
    /// deployment gets queries of its own, so an invocation measures
    /// `DEPLOYMENTS` times as many distinct queries (hotspots) as one
    /// deployment sees, and the mix varies less from seed to seed.
    fn slice(&self, k: usize) -> std::ops::Range<usize> {
        let per = self.warm + self.measured + self.burst;
        k * per..(k + 1) * per
    }
}

/// One run on a fresh deployment: open loop, bursts, teardown, with the
/// writer beside the queries on workloads that have one.
#[allow(clippy::too_many_arguments)]
fn run(
    spec: &Spec,
    dep: Deployment,
    tier: &Arc<StorageTier>,
    queries: &[Query],
    phases: &Phases,
    fresh: std::ops::Range<u32>,
    seed: u64,
    rec: Option<Arc<tap::Recorder>>,
) -> Result<Run, String> {
    let gets_before = tier.total_gets();
    let busy = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let plan = Plan {
        queries,
        warm: phases.warm,
        measured: phases.measured,
        rate_qps: spec.rate_qps,
        bursts: BURSTS,
        busy: &busy,
    };
    let (client, writes) = std::thread::scope(|s| {
        let (busy, done, writer_fresh) = (&busy, &done, fresh.clone());
        let writer = spec.writes_per_s.map(|rate| {
            s.spawn(move || {
                while !busy.load(Ordering::SeqCst) {
                    if done.load(Ordering::SeqCst) {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(churn::write(tier, writer_fresh, rate, seed, |_| {
                    !busy.load(Ordering::SeqCst)
                }))
            })
        });
        let client = cluster::drive(&dep, &plan);
        busy.store(false, Ordering::SeqCst);
        done.store(true, Ordering::SeqCst);
        let writes = writer.and_then(|w| w.join().expect("writer thread panicked"));
        (client, writes)
    });
    let gets = tier.total_gets() - gets_before;
    let reactor_busy = dep.telemetry.as_ref().map(|t| t.snapshot().busy_ratio());
    let client = match client {
        Ok(c) => c,
        Err(e) => {
            dep.abort();
            return Err(e);
        }
    };
    let snapshot = dep.finish()?;
    let writes = match (spec.writes_per_s, writes) {
        (Some(_), Some(w)) => w,
        (Some(_), None) => return Err("the writer never started".to_string()),
        // A pass alone on the now idle tier. One short pass per run, each
        // with its own fresh nodes, spreads the timings over the whole
        // invocation: a single pass read bimodally from one process to the
        // next.
        (None, _) => churn::write(tier, fresh, f64::INFINITY, seed, |i| i >= IDLE_UPDATES),
    };
    Ok(Run {
        client,
        snapshot,
        writes,
        gets,
        reactor_busy,
        events: rec.map(|r| r.take()).unwrap_or_default(),
    })
}

/// What the checks of one run found.
#[derive(Default)]
struct Checked {
    wrong: usize,
    missing: usize,
    /// The run's demand counters disagree with the oracle's.
    demand_differs: bool,
    fresh_nodes: usize,
}

/// Checks every answer against the oracle, the run's total record
/// accesses against the oracle's (hits + misses are the same however the
/// caches and routing behaved), and reads back the writer's fresh nodes.
fn check(
    run: &Run,
    expected: &[QueryResult],
    accesses: &[u64],
    tier: &StorageTier,
) -> Result<Checked, String> {
    let mut c = Checked::default();
    for (got, want) in run.client.results.iter().zip(expected) {
        match got {
            Some(r) if r == want => {}
            Some(_) => c.wrong += 1,
            None => c.missing += 1,
        }
    }
    let s = &run.snapshot;
    c.demand_differs = c.missing == 0
        && (s.queries != expected.len() as u64
            || s.cache_hits + s.cache_misses != accesses.iter().sum::<u64>());
    c.fresh_nodes = run.writes.verify(tier)?;
    Ok(c)
}

/// End-to-end figures pooled over the untraced runs of one invocation.
struct EndToEnd {
    /// Due-time latency ([`stats::summarise`]); `samples` is the total
    /// count.
    latency: Summary,
    samples: usize,
    late: Summary,
    throughput_qps: f64,
    /// Largest backlog any run had when its offered phase ended.
    backlog_end: usize,
}

fn end_to_end(spec: &Spec, runs: &[Run], phases: &Phases) -> Result<EndToEnd, String> {
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut burst_qps = Vec::new();
    for run in runs {
        let c = &run.client;
        for i in phases.measured() {
            lateness.push(lateness_ms(c.due_ns[i], c.sent_ns[i]));
            if c.results[i].is_some() {
                latencies.push(stats::due_latency_ms(c.due_ns[i], c.recv_ns[i]));
            }
        }
        burst_qps.extend(
            c.bursts
                .iter()
                .map(|&(answered, wall_ns)| ratio(answered as f64, wall_ns as f64 / 1e9)),
        );
    }
    let latency = summarise(&latencies, WINDOW_SAMPLES.min(latencies.len()).max(1))
        .ok_or("no measured query was answered")?;
    let late = Summary::of(&lateness).ok_or("no measured query was sent")?;
    if burst_qps.is_empty() {
        return Err("no burst completed".to_string());
    }
    let e2e = EndToEnd {
        latency,
        samples: latencies.len(),
        late,
        throughput_qps: median(&mut burst_qps),
        backlog_end: runs.iter().map(|r| r.client.backlog_end).max().unwrap_or(0),
    };
    // Generator health: a run whose generator fell behind its schedule
    // did not offer the load it claims, so its latencies are not valid.
    let backlog_limit = (spec.rate_qps * BACKLOG_LIMIT_S).max(64.0) as usize;
    if e2e.late.p50 > LATE_LIMIT_MS || e2e.backlog_end > backlog_limit {
        return Err(format!(
            "invalid run: the generator fell behind (median lateness {:.3} ms, limit \
             {LATE_LIMIT_MS}; backlog at end {} queries, limit {backlog_limit})",
            e2e.late.p50, e2e.backlog_end
        ));
    }
    Ok(e2e)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `(name, value, unit)` in print order.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let code = match bench() {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("  {name:<34} {value:>14.4} {unit}");
            }
            println!("{}", report.json());
            if report.correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("clusterbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn bench() -> Result<Report, String> {
    let args = parse_args()?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let phases = Phases {
        warm: (WARM_S * spec.rate_qps).round() as usize,
        measured: (args.seconds * spec.rate_qps / DEPLOYMENTS as f64).round() as usize,
        burst: spec.burst,
    };

    // Set-up: repeated for the median in untraced invocations; the last
    // repetition's graph, assets and deployment are kept.
    let (min_reps, max_reps) = if args.trace {
        (1, 1)
    } else {
        (SETUP_MIN_REPS, SETUP_MAX_REPS)
    };
    let mut setup_times: Vec<f64> = Vec::new();
    let mut kept = None;
    while setup_times.len() < min_reps
        || (setup_times.len() < max_reps && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some((_, dep)) = kept.take() {
            Deployment::shut_down_idle(dep)?;
        }
        let (setup, dep) = set_up(spec)?;
        setup_times.push(setup.total_s());
        kept = Some((setup, dep));
    }
    let (setup, dep) = kept.expect("at least one set-up");
    let tier = Arc::clone(&setup.assets.tier);
    let n = setup.graph.node_count() as u32;
    // Each writer run gets its own range of fresh node ids.
    let fresh = |k: usize| n + k as u32 * FRESH_NODES..n + (k as u32 + 1) * FRESH_NODES;
    eprintln!(
        "clusterbench {}: WebGraph scale {} ({} nodes, {} edges, {:.1} MiB stored), \
         {PROCESSORS} processors x {} MiB, {} routing, {} qps offered, seed {}",
        spec.name,
        spec.scale,
        setup.graph.node_count(),
        setup.graph.edge_count(),
        tier.bytes_per_server().iter().sum::<usize>() as f64 / (1 << 20) as f64,
        spec.cache_bytes >> 20,
        spec.routing,
        spec.rate_qps,
        args.seed
    );

    // Inputs and the oracle (outside the timed set-up).
    let queries = make_queries(&setup.graph, phases.slice(DEPLOYMENTS - 1).end, args.seed);
    let t = Instant::now();
    let (expected, accesses) = oracle(&tier, &queries);
    eprintln!(
        "  oracle: {} queries in {:.2} s",
        queries.len(),
        t.elapsed().as_secs_f64()
    );

    // The untraced runs, each on a fresh deployment (the first is the
    // set-up's) with its own slice of the queries.
    let mut runs = Vec::new();
    let mut first = Some(dep);
    for k in 0..DEPLOYMENTS {
        let dep = match first.take() {
            Some(dep) => dep,
            None => cluster::deploy(&setup.assets, engine_config(spec), None)?,
        };
        let r = run(
            spec,
            dep,
            &tier,
            &queries[phases.slice(k)],
            &phases,
            fresh(k),
            args.seed + k as u64,
            None,
        )?;
        let one = end_to_end(spec, std::slice::from_ref(&r), &phases)?;
        let bursts: Vec<String> = r
            .client
            .bursts
            .iter()
            .map(|&(answered, wall_ns)| {
                format!("{:.0}", ratio(answered as f64, wall_ns as f64 / 1e9))
            })
            .collect();
        eprintln!(
            "  run {k}: p50 {:.4} ms, p99 {:.4} ms, bursts {} qps, hit rate {:.3}, stolen {:.3}",
            one.latency.p50,
            one.latency.p99,
            bursts.join(" "),
            r.snapshot.hit_rate(),
            r.snapshot.stolen as f64 / r.snapshot.queries.max(1) as f64
        );
        runs.push(r);
    }
    let e2e = end_to_end(spec, &runs, &phases)?;
    if !e2e.latency.p99_supported() {
        return Err(format!(
            "too few latency samples per window: {}",
            e2e.latency.n
        ));
    }

    // Correctness: every answer, every run's demand counters, every
    // fresh node written.
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let tally = |r: &Run, k: usize, report: &mut Report| -> Result<usize, String> {
        let slice = phases.slice(k);
        let c = check(r, &expected[slice.clone()], &accesses[slice.clone()], &tier)?;
        report.attempted += slice.len() as u64;
        report.failed += c.missing as u64;
        if c.wrong > 0 || c.demand_differs {
            eprintln!(
                "  WRONG: {} answers differ from the oracle; demand {} + {} vs oracle {}",
                c.wrong,
                r.snapshot.cache_hits,
                r.snapshot.cache_misses,
                accesses[slice].iter().sum::<u64>()
            );
            report.correct = false;
        }
        Ok(c.fresh_nodes)
    };
    let mut fresh_nodes = 0;
    for (k, r) in runs.iter().enumerate() {
        fresh_nodes += tally(r, k, &mut report)?;
    }
    let mut update_us = Vec::new();
    for w in runs.iter().map(|r| &r.writes) {
        report.attempted += w.attempted;
        report.failed += w.failed;
        update_us.extend_from_slice(&w.update_us);
    }
    let updates = summarise(&update_us, WINDOW_SAMPLES)
        .filter(Summary::p99_supported)
        .ok_or("too few updates for a windowed p99")?;
    eprintln!(
        "  checked {} answers over {DEPLOYMENTS} runs and {fresh_nodes} fresh nodes; \
         {} latency samples, {} updates, {} burst queries per run",
        queries.len(),
        e2e.samples,
        update_us.len(),
        spec.burst
    );

    if !args.trace {
        report.put("setup_s", median(&mut setup_times), "s");
        report.put("throughput_qps", e2e.throughput_qps, "1/s");
        report.put("p50_ms", e2e.latency.p50, "ms");
        report.put("p90_ms", e2e.latency.p90, "ms");
        report.put("update_p50_us", updates.p50, "us");
        report.put("update_p90_us", updates.p90, "us");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(report);
    }

    // The traced run: the first run's queries, fresh deployment, every
    // peer's transport wrapped, program tracing at Stats.
    let rec = tap::Recorder::new();
    let dep = cluster::deploy(&setup.assets, engine_config(spec), Some(&rec))?;
    let mut traced = run(
        spec,
        dep,
        &tier,
        &queries[phases.slice(0)],
        &phases,
        fresh(DEPLOYMENTS),
        args.seed,
        Some(rec),
    )?;
    let traced_e2e = end_to_end(spec, std::slice::from_ref(&traced), &phases)?;
    // Tracing must observe, not change: the traced run passes the same
    // checks, and with no cache its per-partition demand equals the
    // untraced runs'.
    tally(&traced, 0, &mut report)?;
    report.attempted += traced.writes.attempted;
    report.failed += traced.writes.failed;
    let heat = |r: &Run| -> Vec<u64> {
        r.snapshot
            .partition_heat
            .cells()
            .iter()
            .map(|c| c.demand)
            .collect()
    };
    if !spec.routing.uses_cache() && heat(&traced) != heat(&runs[0]) {
        eprintln!("  WRONG: the traced run's partition demand differs from the untraced run's");
        report.correct = false;
    }

    let c = &traced.client;
    let measured = phases.measured();
    let window = (
        c.due_ns[measured.start],
        c.recv_ns[measured.clone()]
            .iter()
            .copied()
            .max()
            .unwrap_or(0),
    );
    let l = spans::analyse(&mut traced.events, c, measured, window);
    // The raw spans, for looking at one slow query by hand.
    let path = std::path::Path::new("target/clusterbench-spans")
        .join(format!("{}-seed{}.tsv", spec.name, args.seed));
    match spans::write_tsv(&traced.events, &path) {
        Ok(()) => eprintln!(
            "  spans: {} frame events in {}",
            traced.events.len(),
            path.display()
        ),
        Err(e) => eprintln!("  spans not written to {}: {e}", path.display()),
    }
    let s = &traced.snapshot;
    let queries_done = s.queries.max(1) as f64;
    let records = (s.cache_hits + s.cache_misses) as f64;
    let dispatch_rtt = c
        .trace
        .as_ref()
        .and_then(|t| t.stages.stage(Stage::DispatchRtt).p50())
        .map_or(0.0, |ns| ns as f64 / 1e6);
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    let p = |s: Option<Summary>, pick: fn(&Summary) -> f64| s.as_ref().map_or(0.0, pick);
    let p50 = |s: &Summary| s.p50;
    let p99 = |s: &Summary| s.p99;
    let r = &mut report;
    r.put("route.queue_ms.p50", p(l.route_queue_ms, p50), "ms");
    r.put("route.queue_ms.p99", p(l.route_queue_ms, p99), "ms");
    r.put("route.stolen_frac", s.stolen as f64 / queries_done, "ratio");
    r.put("route.imbalance", max_over_mean(&s.per_processor), "ratio");
    r.put(
        "route.decide_ns",
        decide_ns(spec, &setup.assets, &queries[phases.slice(0)]),
        "ns",
    );
    r.put("cache.hit_rate", s.hit_rate(), "ratio");
    r.put(
        "cache.evictions_per_query",
        s.evictions as f64 / queries_done,
        "count",
    );
    r.put("query.service_ms.p50", p(l.service_ms, p50), "ms");
    r.put("query.service_ms.p99", p(l.service_ms, p99), "ms");
    r.put("query.self_ms.p50", p(l.self_ms, p50), "ms");
    r.put("query.records_per_query", records / queries_done, "count");
    r.put(
        "storage.round_trips_per_query",
        l.fetch_batches as f64 / queries_done,
        "count",
    );
    r.put(
        "storage.nodes_per_batch",
        ratio(l.fetch_nodes as f64, l.fetch_batches as f64),
        "count",
    );
    r.put("storage.fetch_us.p50", p(l.fetch_us, p50), "us");
    r.put("storage.fetch_us.p99", p(l.fetch_us, p99), "us");
    r.put("storage.service_us.p50", p(l.storage_us, p50), "us");
    r.put("storage.service_us.p99", p(l.storage_us, p99), "us");
    r.put(
        "storage.gets_per_query",
        traced.gets as f64 / queries_done,
        "count",
    );
    r.put(
        "storage.partition_skew",
        max_over_mean(&heat(&traced)),
        "ratio",
    );
    r.put(
        "wire.frames_per_query",
        l.frames as f64 / queries_done,
        "count",
    );
    r.put(
        "wire.bytes_per_query.dispatch",
        l.dispatch_bytes as f64 / queries_done,
        "B",
    );
    r.put(
        "wire.bytes_per_query.completion",
        l.completion_bytes as f64 / queries_done,
        "B",
    );
    r.put(
        "wire.bytes_per_query.fetch_req",
        l.fetch_req_bytes as f64 / queries_done,
        "B",
    );
    r.put(
        "wire.bytes_per_query.fetch_resp",
        l.fetch_resp_bytes as f64 / queries_done,
        "B",
    );
    r.put("wire.send_us.p50", p(l.send_us, p50), "us");
    r.put(
        "wire.reactor_busy_frac",
        traced.reactor_busy.unwrap_or(0.0),
        "ratio",
    );
    r.put("wire.dispatch_rtt_ms.p50", dispatch_rtt, "ms");
    r.put("p99_ms", e2e.latency.p99, "ms");
    r.put("update_p99_us", updates.p99, "us");
    r.put("load.late_ms.p99", e2e.late.p99, "ms");
    r.put("load.backlog_end", e2e.backlog_end as f64, "count");
    r.put("load.latency_samples", e2e.samples as f64, "count");
    r.put("failed_frac", failed_frac, "ratio");
    r.put("setup.graph_s", setup.graph_s, "s");
    r.put("setup.preprocess_s", setup.preprocess_s, "s");
    r.put("setup.spawn_s", setup.spawn_s, "s");
    r.put("trace.unexplained_frac", l.unexplained_frac, "ratio");
    r.put(
        "trace.overhead_frac",
        traced_e2e.latency.p50 / e2e.latency.p50 - 1.0,
        "ratio",
    );
    Ok(report)
}
