//! The update writer: `GraphUpdate::AddEdge` between fresh nodes (ids at
//! or above the graph's node count), applied at a fixed rate through
//! `StorageTier::apply_update`, each call timed. Queries never reach a
//! fresh node, so the query oracle still holds; the writer keeps the
//! expected adjacency and every fresh node is read back afterwards.

use std::ops::Range;
use std::time::{Duration, Instant};

use grouting_core::graph::dynamic::{DynamicGraph, GraphUpdate};
use grouting_core::graph::NodeId;
use grouting_core::storage::StorageTier;

/// A small deterministic generator (SplitMix64), seeded from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `range` (the modulo bias is negligible for small ranges).
    pub fn below(&mut self, range: &Range<u32>) -> u32 {
        range.start + (self.next_u64() % u64::from(range.end - range.start)) as u32
    }
}

/// What one writer run did.
pub struct Writes {
    /// Duration of each `apply_update` call, in microseconds.
    pub update_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The expected adjacency of every fresh node written.
    expected: DynamicGraph,
    fresh: Range<u32>,
}

/// Applies edges between nodes of `fresh` at `rate` per second (an
/// infinite rate applies them back to back) until `stop(i)` holds before
/// the `i`-th update.
pub fn write(
    tier: &StorageTier,
    fresh: Range<u32>,
    rate: f64,
    seed: u64,
    stop: impl Fn(usize) -> bool,
) -> Writes {
    let mut rng = SplitMix::new(seed);
    let mut expected = DynamicGraph::new();
    let mut update_us = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let mut i = 0;
    while !stop(i) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let src = NodeId(rng.below(&fresh));
        let mut dst = NodeId(rng.below(&fresh));
        if dst == src {
            dst = NodeId(if src.0 + 1 < fresh.end {
                src.0 + 1
            } else {
                fresh.start
            });
        }
        expected.add_edge(src, dst);
        // The writer needs the adjacency, not the update history.
        expected.take_log();
        let t = Instant::now();
        let applied = tier.apply_update(&expected, GraphUpdate::AddEdge(src, dst));
        update_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if applied.is_err() {
            failed += 1;
        }
        i += 1;
    }
    Writes {
        update_us,
        attempted: i as u64,
        failed,
        expected,
        fresh,
    }
}

impl Writes {
    /// Reads every fresh node back from the tier and compares it with the
    /// writer's expected adjacency; returns the number of nodes checked.
    pub fn verify(&self, tier: &StorageTier) -> Result<usize, String> {
        let mut checked = 0;
        for id in self.fresh.clone() {
            let node = NodeId(id);
            let stored = tier.get_record(node).map(|(_, rec)| (rec.out, rec.inc));
            let want = self.expected.contains(node).then(|| {
                (
                    self.expected.out_neighbors(node).collect::<Vec<_>>(),
                    self.expected.in_neighbors(node).collect::<Vec<_>>(),
                )
            });
            let sorted = |v: Option<(Vec<NodeId>, Vec<NodeId>)>| {
                v.map(|(mut out, mut inc)| {
                    out.sort_unstable();
                    inc.sort_unstable();
                    (out, inc)
                })
            };
            if sorted(stored) != sorted(want) {
                return Err(format!(
                    "fresh node {id}: stored adjacency differs from the writer's"
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_core::partition::HashPartitioner;
    use std::sync::Arc;

    #[test]
    fn writes_read_back_and_corruption_is_caught() {
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(2)));
        let writes = write(&tier, 100..120, 1e6, 7, |i| i >= 200);
        assert_eq!((writes.attempted, writes.failed), (200, 0));
        assert_eq!(writes.update_us.len(), 200);
        assert_eq!(writes.verify(&tier).unwrap(), 20);

        // A record the writer did not produce must fail the read-back.
        let victim = (100..120)
            .map(NodeId)
            .find(|&n| writes.expected.contains(n))
            .unwrap();
        tier.delete(victim);
        assert!(writes.verify(&tier).is_err());
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix::new(1);
        let mut b = SplitMix::new(1);
        for _ in 0..1000 {
            let x = a.below(&(10..20));
            assert_eq!(x, b.below(&(10..20)));
            assert!((10..20).contains(&x));
        }
    }
}
