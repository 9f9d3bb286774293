//! Estimators: wall-clock slices and their latency percentiles, the
//! third-best-of-eight rule, and the quartile spread the noise check
//! reports.
//!
//! Interference on a shared box only ever slows a slice down, so each
//! timing metric is the third-best of the per-slice values: two slices
//! were better, the rest were worse. Only slices in which every
//! periodic background job of the workload (snapshots, retention runs)
//! completed at least one cycle take part — the run counts the cycles
//! per slice — so the estimator can discard a noisy neighbour but
//! never a stall the program causes itself.

use std::time::{Duration, Instant};

/// Slices a measured phase is cut into.
pub const SLICES: usize = 8;

/// The third-best of `values`: third-largest when higher is better,
/// third-smallest otherwise. With fewer than three values, the worst
/// of what there is; 0 for none.
pub fn third_best(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if higher_is_better {
        v.reverse();
    }
    v[2.min(v.len().saturating_sub(1))]
}

/// The median of `values` (mean of the middle two for even counts;
/// 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance check compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// The wall-clock window of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// When slice 0 starts.
    pub start: Instant,
    /// Length of one slice.
    pub slice: Duration,
}

impl Phase {
    /// A phase of `seconds` starting at `start`.
    pub fn new(start: Instant, seconds: f64) -> Phase {
        Phase {
            start,
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
        }
    }

    /// When the last slice ends.
    pub fn end(&self) -> Instant {
        self.start + self.slice * SLICES as u32
    }

    /// The slice an instant falls in: `None` before the start (warm-up)
    /// and after the last full slice (the partial tail is dropped).
    pub fn slice_of(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.start)?;
        let i = (since.as_nanos() / self.slice.as_nanos()) as usize;
        (i < SLICES).then_some(i)
    }
}

/// What one load thread saw in one slice.
#[derive(Debug, Clone, Default)]
pub struct SliceSamples {
    /// Operations completed.
    pub ops: u64,
    /// `(window latency in ns, operations in the window)`.
    pub windows: Vec<(u64, u32)>,
}

/// One thread's per-slice accounting.
#[derive(Debug, Clone)]
pub struct SliceLog {
    /// One entry per slice.
    pub slices: Vec<SliceSamples>,
}

impl Default for SliceLog {
    fn default() -> Self {
        SliceLog {
            slices: vec![SliceSamples::default(); SLICES],
        }
    }
}

impl SliceLog {
    /// Record a window of `ops` operations that completed at `done`
    /// after `latency`; ignored outside the phase.
    pub fn record(&mut self, phase: &Phase, done: Instant, latency: Duration, ops: u32) {
        if let Some(i) = phase.slice_of(done) {
            self.slices[i].ops += ops as u64;
            self.slices[i]
                .windows
                .push((latency.as_nanos() as u64, ops));
        }
    }
}

/// One slice's figures, merged over the load threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceStats {
    /// Operations completed.
    pub ops: u64,
    /// Operations per second.
    pub throughput: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

/// Merge the threads' logs into per-slice figures. An operation's
/// latency is its window's, so a window of `n` operations weighs `n`.
pub fn merge_slices(logs: &[SliceLog], slice: Duration) -> Vec<SliceStats> {
    (0..SLICES)
        .map(|i| {
            let mut windows: Vec<(u64, u32)> = logs
                .iter()
                .flat_map(|l| l.slices[i].windows.iter().copied())
                .collect();
            windows.sort_unstable();
            let ops: u64 = logs.iter().map(|l| l.slices[i].ops).sum();
            let at = |p: f64| -> f64 {
                // Weighted nearest-rank: walk the sorted windows until
                // the rank's operation is covered.
                let rank = (p / 100.0 * ops.saturating_sub(1) as f64).round() as u64;
                let mut seen = 0u64;
                for &(ns, n) in &windows {
                    seen += n as u64;
                    if seen > rank {
                        return ns as f64 / 1e6;
                    }
                }
                0.0
            };
            SliceStats {
                ops,
                throughput: ops as f64 / slice.as_secs_f64(),
                p50_ms: at(50.0),
                p90_ms: at(90.0),
                p99_ms: at(99.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_best_of_eight() {
        let v = [5.0, 1.0, 8.0, 3.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(third_best(&v, true), 6.0);
        assert_eq!(third_best(&v, false), 3.0);
        assert_eq!(third_best(&[2.0, 9.0], true), 2.0);
        assert_eq!(third_best(&[2.0, 9.0], false), 9.0);
        assert_eq!(third_best(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slices_drop_warm_up_and_the_partial_tail() {
        let start = Instant::now();
        let phase = Phase::new(start, 8.0);
        assert_eq!(phase.slice, Duration::from_secs(1));
        assert_eq!(phase.slice_of(start), Some(0));
        assert_eq!(phase.slice_of(start + Duration::from_millis(999)), Some(0));
        assert_eq!(phase.slice_of(start + Duration::from_millis(1000)), Some(1));
        assert_eq!(phase.slice_of(start + Duration::from_millis(7999)), Some(7));
        assert_eq!(phase.slice_of(start + Duration::from_millis(8000)), None);
        assert_eq!(phase.end(), start + Duration::from_secs(8));
        if let Some(before) = start.checked_sub(Duration::from_millis(1)) {
            assert_eq!(phase.slice_of(before), None);
        }
    }

    #[test]
    fn merged_latency_weighs_windows_by_their_operations() {
        let start = Instant::now();
        let phase = Phase::new(start, 8.0);
        let mut a = SliceLog::default();
        let mut b = SliceLog::default();
        let at = start + Duration::from_millis(10);
        a.record(&phase, at, Duration::from_millis(1), 9);
        b.record(&phase, at, Duration::from_millis(5), 1);
        b.record(
            &phase,
            start + Duration::from_secs(9),
            Duration::from_millis(7),
            4,
        );
        let merged = merge_slices(&[a, b], phase.slice);
        assert_eq!(merged[0].ops, 10);
        assert_eq!(merged[0].throughput, 10.0);
        assert_eq!(merged[0].p50_ms, 1.0);
        assert_eq!(merged[0].p99_ms, 5.0);
        assert_eq!(merged[1].ops, 0);
    }

    #[test]
    fn slice_percentiles_are_order_statistics() {
        let start = Instant::now();
        let phase = Phase::new(start, 8.0);
        let mut log = SliceLog::default();
        for ms in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            log.record(&phase, start, Duration::from_millis(ms), 1);
        }
        let s = merge_slices(&[log], phase.slice)[0];
        assert_eq!(s.p50_ms, 60.0); // rank 4.5 rounds to 5
        assert_eq!(s.p90_ms, 90.0);
        assert_eq!(s.p99_ms, 100.0);
    }
}
