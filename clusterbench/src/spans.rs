//! Turning the traced run's frame events into per-layer spans.
//!
//! Spans are correlated at frame boundaries: a query's router queue span
//! runs from its `Submit` arriving at the router to its `Dispatch` leaving
//! it, its processor service span from the `Dispatch` arriving at a
//! processor to the `Completion` leaving it, keyed by `seq`. A fetch span
//! runs from a processor sending a `FetchBatchRequest` to the last chunk
//! of its response arriving, a storage span from the request arriving at
//! a storage endpoint to the last response chunk leaving it, keyed by
//! `(connection, req_id)`. Fetch spans are the children of the service
//! spans of their processor that they overlap.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use crate::cluster::ClientRun;
use crate::stats::{self_time_ns, Summary};
use crate::tap::{Event, Kind, Peer};

/// Per-layer figures of one traced run.
pub struct Layers {
    pub route_queue_ms: Option<Summary>,
    pub service_ms: Option<Summary>,
    pub self_ms: Option<Summary>,
    pub fetch_us: Option<Summary>,
    pub storage_us: Option<Summary>,
    pub send_us: Option<Summary>,
    /// Share of the measured queries' client latency outside the
    /// generator-lateness, router-queue and processor-service spans.
    pub unexplained_frac: f64,
    /// Frames sent by all cluster peers over the whole run.
    pub frames: u64,
    pub dispatch_bytes: u64,
    pub completion_bytes: u64,
    pub fetch_req_bytes: u64,
    pub fetch_resp_bytes: u64,
    /// `FetchBatchRequest`s sent by processors, and the nodes they asked for.
    pub fetch_batches: u64,
    pub fetch_nodes: u64,
}

/// Request → last-response-chunk spans keyed by `(peer, conn, req_id)`.
#[derive(Default)]
struct Exchanges {
    open: HashMap<(Peer, u64, u64), (u64, u32, u32)>,
    done: Vec<(Peer, u64, u64)>,
}

impl Exchanges {
    fn request(&mut self, e: &Event) {
        self.open
            .insert((e.peer, e.conn, e.key), (e.t_ns, e.items, 0));
    }

    fn response(&mut self, e: &Event) {
        let key = (e.peer, e.conn, e.key);
        if let Some((start, want, got)) = self.open.get_mut(&key) {
            *got += e.items;
            if *got >= *want {
                self.done.push((e.peer, *start, e.t_ns));
                self.open.remove(&key);
            }
        }
    }
}

fn summary(values: impl Iterator<Item = f64>) -> Option<Summary> {
    Summary::of(&values.collect::<Vec<_>>())
}

/// Analyses `events` for the queries in `measured`; time-based spans that
/// are not tied to a query (fetches, storage service, sends) count when
/// they start inside `window`.
pub fn analyse(
    events: &mut [Event],
    run: &ClientRun,
    measured: Range<usize>,
    window: (u64, u64),
) -> Layers {
    events.sort_by_key(|e| e.t_ns);
    let in_window = |t: u64| t >= window.0 && t <= window.1;
    let mut submit_in = HashMap::new();
    let mut dispatch_out = HashMap::new();
    let mut dispatch_in = HashMap::new();
    let mut completion_out = HashMap::new();
    let mut fetches = Exchanges::default();
    let mut storage = Exchanges::default();
    let mut send_us = Vec::new();
    let mut layers = Layers {
        route_queue_ms: None,
        service_ms: None,
        self_ms: None,
        fetch_us: None,
        storage_us: None,
        send_us: None,
        unexplained_frac: 0.0,
        frames: 0,
        dispatch_bytes: 0,
        completion_bytes: 0,
        fetch_req_bytes: 0,
        fetch_resp_bytes: 0,
        fetch_batches: 0,
        fetch_nodes: 0,
    };
    for e in events.iter() {
        if e.out {
            layers.frames += 1;
            if in_window(e.t_ns) {
                send_us.push(e.send_ns as f64 / 1e3);
            }
        }
        let bytes = u64::from(e.bytes);
        match (e.peer, e.out, e.kind) {
            (Peer::Router, false, Kind::Submit) => {
                submit_in.insert(e.key, e.t_ns);
            }
            (Peer::Router, true, Kind::Dispatch) => {
                dispatch_out.insert(e.key, e.t_ns);
                layers.dispatch_bytes += bytes;
            }
            (Peer::Processor(p), false, Kind::Dispatch) => {
                dispatch_in.insert(e.key, (p, e.t_ns));
            }
            (Peer::Processor(_), true, Kind::Completion) => {
                completion_out.insert(e.key, e.t_ns);
                layers.completion_bytes += bytes;
            }
            (Peer::Processor(_), true, Kind::FetchReq) => {
                layers.fetch_req_bytes += bytes;
                layers.fetch_batches += 1;
                layers.fetch_nodes += u64::from(e.items);
                fetches.request(e);
            }
            (Peer::Processor(_), false, Kind::FetchResp) => fetches.response(e),
            (Peer::Storage(_), false, Kind::FetchReq) => storage.request(e),
            (Peer::Storage(_), true, Kind::FetchResp) => {
                layers.fetch_resp_bytes += bytes;
                storage.response(e);
            }
            _ => {}
        }
    }

    // Fetch spans per processor, sorted by start, for the self-time pass.
    let mut children: HashMap<u16, Vec<(u64, u64)>> = HashMap::new();
    for &(peer, s, e) in &fetches.done {
        if let Peer::Processor(p) = peer {
            children.entry(p).or_default().push((s, e));
        }
    }
    let longest: u64 = fetches
        .done
        .iter()
        .map(|&(_, s, e)| e - s)
        .max()
        .unwrap_or(0);
    for spans in children.values_mut() {
        spans.sort_unstable();
    }

    let (mut queue, mut service, mut selfs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latency_sum, mut explained_sum) = (0u64, 0u64);
    for seq in measured {
        let key = seq as u64;
        let (Some(&sub), Some(&disp), Some(&(p, start)), Some(&done)) = (
            submit_in.get(&key),
            dispatch_out.get(&key),
            dispatch_in.get(&key),
            completion_out.get(&key),
        ) else {
            continue;
        };
        if run.results[seq].is_none() {
            continue;
        }
        let q = disp.saturating_sub(sub);
        let s = done.saturating_sub(start);
        queue.push(q as f64 / 1e6);
        service.push(s as f64 / 1e6);
        let own = children.get(&p).map_or(&[][..], |v| v.as_slice());
        let lo = own.partition_point(|c| c.0 < start.saturating_sub(longest));
        let hi = own.partition_point(|c| c.0 < done);
        selfs.push(self_time_ns((start, done), &own[lo..hi]) as f64 / 1e6);
        let late = run.sent_ns[seq].saturating_sub(run.due_ns[seq]);
        latency_sum += run.recv_ns[seq].saturating_sub(run.due_ns[seq]);
        explained_sum += late + q + s;
    }
    layers.route_queue_ms = Summary::of(&queue);
    layers.service_ms = Summary::of(&service);
    layers.self_ms = Summary::of(&selfs);
    layers.fetch_us = summary(
        fetches
            .done
            .iter()
            .filter(|d| in_window(d.1))
            .map(|&(_, s, e)| (e - s) as f64 / 1e3),
    );
    layers.storage_us = summary(
        storage
            .done
            .iter()
            .filter(|d| in_window(d.1))
            .map(|&(_, s, e)| (e - s) as f64 / 1e3),
    );
    layers.send_us = Summary::of(&send_us);
    layers.unexplained_frac = if latency_sum == 0 {
        0.0
    } else {
        latency_sum.saturating_sub(explained_sum) as f64 / latency_sum as f64
    };
    layers
}

/// Writes the events as tab-separated lines (one span boundary each) under
/// a header, creating the parent directory.
pub fn write_tsv(events: &[Event], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(
        out,
        "peer\tconn\tdir\tkind\tkey\titems\tbytes\tt_ns\tsend_ns"
    )?;
    for e in events {
        let peer = match e.peer {
            Peer::Router => "router".to_string(),
            Peer::Processor(i) => format!("proc-{i}"),
            Peer::Storage(i) => format!("storage-{i}"),
        };
        writeln!(
            out,
            "{peer}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}",
            e.conn,
            if e.out { "out" } else { "in" },
            e.kind,
            e.key,
            e.items,
            e.bytes,
            e.t_ns,
            e.send_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(peer: Peer, out: bool, kind: Kind, key: u64, items: u32, t_ns: u64) -> Event {
        Event {
            peer,
            conn: 1,
            out,
            kind,
            key,
            items,
            bytes: 10,
            t_ns,
            send_ns: 500,
        }
    }

    #[test]
    fn correlates_one_query_and_its_fetches() {
        let p = Peer::Processor(0);
        let s = Peer::Storage(0);
        // Client: due 0, sent 100, answered 10_000.
        let run = ClientRun {
            results: vec![Some(grouting_core::query::QueryResult::Count(1))],
            due_ns: vec![0],
            sent_ns: vec![100],
            recv_ns: vec![10_000],
            backlog_end: 0,
            bursts: Vec::new(),
            trace: None,
        };
        let mut events = vec![
            ev(Peer::Router, false, Kind::Submit, 0, 0, 200),
            ev(Peer::Router, true, Kind::Dispatch, 0, 0, 1_200),
            ev(p, false, Kind::Dispatch, 0, 0, 1_500),
            // Two overlapping fetches inside the service span, the second
            // answered in two chunks.
            ev(p, true, Kind::FetchReq, 7, 4, 2_000),
            ev(s, false, Kind::FetchReq, 7, 4, 2_100),
            ev(s, true, Kind::FetchResp, 7, 4, 2_900),
            ev(p, false, Kind::FetchResp, 7, 4, 3_000),
            ev(p, true, Kind::FetchReq, 8, 3, 2_500),
            ev(p, false, Kind::FetchResp, 8, 1, 3_500),
            ev(p, false, Kind::FetchResp, 8, 2, 4_000),
            ev(p, true, Kind::Completion, 0, 0, 8_500),
        ];
        let l = analyse(&mut events, &run, 0..1, (0, 20_000));
        assert_eq!(l.route_queue_ms.unwrap().p50, 1_000.0 / 1e6);
        assert_eq!(l.service_ms.unwrap().p50, 7_000.0 / 1e6);
        // Children cover [2000, 4000): self = 7000 - 2000.
        assert_eq!(l.self_ms.unwrap().p50, 5_000.0 / 1e6);
        let fetch = l.fetch_us.unwrap();
        assert_eq!(fetch.n, 2);
        assert_eq!(fetch.p99, 1.5);
        assert_eq!(l.storage_us.unwrap().p50, 0.8);
        assert_eq!((l.fetch_batches, l.fetch_nodes), (2, 7));
        assert_eq!(l.frames, 5);
        // Latency 10_000 = late 100 + queue 1_000 + service 7_000 + 1_900
        // of transit the spans do not cover.
        assert!((l.unexplained_frac - 0.19).abs() < 1e-12);

        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("spans-test-{}.tsv", std::process::id()));
        write_tsv(&events, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + events.len());
        assert!(text.contains("\nrouter\t1\tin\tSubmit\t0\t0\t10\t200\t500\n"));
    }
}
