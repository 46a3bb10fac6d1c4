//! The benchmark's own arithmetic: percentiles with their sample counts,
//! the open-loop schedule (due times, due-time latency, lateness), and
//! span self time. Kept free of I/O so the unit tests below pin it.

/// Nearest-rank percentiles of one sample set, with the count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: sorted.len(),
            p50: rank(&sorted, 0.50),
            p90: rank(&sorted, 0.90),
            p99: rank(&sorted, 0.99),
        })
    }

    /// Whether the p99 has at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.n >= 1000
    }
}

/// Splits time-ordered `samples` into `windows` consecutive chunks of
/// (nearly) equal size and returns, per percentile, the median over the
/// chunks of that chunk's percentile. A single stall then moves one chunk,
/// not the result. `n` is the smallest chunk's sample count, so
/// [`Summary::p99_supported`] speaks for every chunk.
pub fn windowed(samples: &[f64], windows: usize) -> Option<Summary> {
    if windows == 0 || samples.len() < windows {
        return None;
    }
    let chunks: Vec<Summary> = (0..windows)
        .map(|w| {
            let lo = w * samples.len() / windows;
            let hi = (w + 1) * samples.len() / windows;
            Summary::of(&samples[lo..hi]).expect("non-empty chunk")
        })
        .collect();
    let med = |pick: fn(&Summary) -> f64| median(&mut chunks.iter().map(pick).collect::<Vec<_>>());
    Some(Summary {
        n: chunks
            .iter()
            .map(|c| c.n)
            .min()
            .expect("at least one chunk"),
        p50: med(|c| c.p50),
        p90: med(|c| c.p90),
        p99: med(|c| c.p99),
    })
}

/// The reported summary of a time-ordered sample set: p50 and p90 pooled
/// over all samples (a pooled quantile moves smoothly with the share of
/// slow stretches, where a median of window medians jumps), and the p99 as
/// the median over windows of `window` samples ([`windowed`]), so one stall
/// moves one window. `n` is the smallest window's count; `None` below one
/// window.
pub fn summarise(samples: &[f64], window: usize) -> Option<Summary> {
    let tail = windowed(samples, samples.len() / window)?;
    let pooled = Summary::of(samples)?;
    Some(Summary {
        n: tail.n,
        p99: tail.p99,
        ..pooled
    })
}

/// Nearest-rank median (the lower middle value for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    rank(values, 0.5)
}

/// Nearest-rank quantile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it.
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// A fixed-rate arrival schedule: query `i` is due `i / rate` seconds
/// after `start_ns`. Computed from `i` each time, so rounding never
/// accumulates into drift.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of the first query (monotonic nanoseconds).
    pub start_ns: u64,
    /// Offered rate in queries per second.
    pub rate_qps: f64,
}

impl Schedule {
    /// When query `i` of this schedule is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * 1e9 / self.rate_qps).round() as u64
    }
}

/// Due-time latency in milliseconds: from when the query was due (not
/// when the generator got round to sending it) to when its answer arrived.
/// A stalled generator therefore charges its stall to every query it
/// delayed, instead of hiding it.
pub fn due_latency_ms(due_ns: u64, received_ns: u64) -> f64 {
    received_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// How late the generator sent a query, in milliseconds (0 when on time).
pub fn lateness_ms(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    e.saturating_sub(s) - covered_ns(s, e, children)
}

/// `max / mean` of a set of loads (1.0 is perfect balance; 0 when empty
/// or all zero).
pub fn max_over_mean(values: &[u64]) -> f64 {
    let sum: u64 = values.iter().sum();
    if values.is_empty() || sum == 0 {
        return 0.0;
    }
    let mean = sum as f64 / values.len() as f64;
    *values.iter().max().expect("non-empty") as f64 / mean
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert!(!s.p99_supported());
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.n, one.p50, one.p90, one.p99), (1, 7.0, 7.0, 7.0));
        assert!(Summary::of(&[]).is_none());
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert!(s.p99_supported());
        // 990 of the 1000 samples (0..=989) are at or below the p99.
        assert_eq!(s.p99, 989.0);
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_stalled_window() {
        // Five windows of 1000 samples; the third holds a stall.
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..1000 {
                let stall = if w == 2 && i % 10 == 0 { 500.0 } else { 0.0 };
                samples.push(f64::from(i % 100) + stall);
            }
        }
        let s = windowed(&samples, 5).unwrap();
        assert_eq!(s.n, 1000);
        assert!(s.p99_supported());
        assert_eq!((s.p50, s.p90, s.p99), (49.0, 89.0, 98.0));
        // Pooled, the stall reaches the p99.
        assert!(Summary::of(&samples).unwrap().p99 > 500.0);
        // Uneven split: the smallest chunk sets n.
        assert_eq!(windowed(&[1.0, 2.0, 3.0, 4.0, 5.0], 2).unwrap().n, 2);
        assert!(windowed(&[1.0], 2).is_none());
        // Reported: pooled p50/p90 (the stalled window's 100 samples of
        // 500+ shift them up slightly), windowed p99 (unmoved; pooled it
        // would be 540).
        let r = summarise(&samples, 1000).unwrap();
        assert_eq!((r.n, r.p50, r.p90, r.p99), (1000, 51.0, 91.0, 98.0));
        assert!(summarise(&samples[..999], 1000).is_none());
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.0);
    }

    #[test]
    fn schedule_has_no_drift() {
        let sched = Schedule {
            start_ns: 1_000,
            rate_qps: 3.0,
        };
        assert_eq!(sched.due_ns(0), 1_000);
        assert_eq!(sched.due_ns(1), 1_000 + 333_333_333);
        assert_eq!(sched.due_ns(3), 1_000 + 1_000_000_000);
        assert_eq!(sched.due_ns(3_000), 1_000 + 1_000_000_000_000);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_clamped() {
        // Due at 1 ms, sent 3 ms late, answered 2 ms after the send: the
        // client sees 5 ms, not the 2 ms the cluster spent.
        let due = 1_000_000;
        let sent = 4_000_000;
        let received = 6_000_000;
        assert_eq!(due_latency_ms(due, received), 5.0);
        assert_eq!(lateness_ms(due, sent), 3.0);
        // Early sends are on time, not negative.
        assert_eq!(lateness_ms(due, 500_000), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Span [0, 100); children overlap each other and stick out of it.
        let children = [(10, 30), (20, 40), (90, 120), (200, 300)];
        assert_eq!(covered_ns(0, 100, &children), 30 + 10);
        assert_eq!(self_time_ns((0, 100), &children), 60);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        // Fully covered.
        assert_eq!(self_time_ns((5, 10), &[(0, 50)]), 0);
        // Disjoint children.
        assert_eq!(covered_ns(0, 100, &[(0, 10), (50, 60)]), 20);
    }

    #[test]
    fn balance_and_ratios() {
        assert_eq!(max_over_mean(&[10, 10, 10, 10]), 1.0);
        assert_eq!(max_over_mean(&[40, 0, 0, 0]), 4.0);
        assert_eq!(max_over_mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
