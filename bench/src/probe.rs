//! The host-speed probe: how fast is the program's CPU running right
//! now, against the speed the ledger's numbers are stated for?
//!
//! The reference container is a two-vCPU guest on a shared host whose
//! speed moves between regimes lasting minutes: the same binary on the
//! same inputs runs 40% slower while the neighbours are busy and 15%
//! faster when the host clocks up, in CPU time as much as in wall time,
//! and no estimator inside a run of half a minute can average that
//! away. So the harness measures it. A thread pinned to the program's
//! CPU runs a frozen arithmetic kernel of a few tens of microseconds
//! once a millisecond for the whole run (about 3% of that CPU, the
//! same on every run). A window's *slowdown* is the mean kernel time
//! in the window over [`REFERENCE_NS`], the time the kernel takes on
//! the reference container at its usual full speed. Every timing
//! metric is reported in quiet-host time: the measured value divided
//! by the slowdown of the window it was measured in — the time the
//! work would have taken on a host that runs the kernel in
//! `REFERENCE_NS`. `bench/README.md` ("Noise") has the data behind
//! this.

use crate::procfs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between two kernels.
const PAUSE: Duration = Duration::from_millis(1);
/// Words in the kernel's table: 64 KiB, resident in the first-level
/// caches, so the kernel times the core and not the memory system.
const TABLE_WORDS: usize = 8192;
/// Table reads per kernel.
const KERNEL_STEPS: usize = 1 << 14;
/// What one kernel takes on the reference container when nothing
/// disturbs it, ns: the speed quiet-host time is stated for. On other
/// hardware every timing metric is scaled by one constant, which no
/// comparison of two commits on that hardware sees.
pub const REFERENCE_NS: f64 = 34_000.0;

/// Four independent multiply-xorshift chains over a small table: pure
/// integer work with enough parallelism to fill the core's ports, so
/// anything that shares the core or lowers its clock shows.
fn kernel(table: &[u64; TABLE_WORDS]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..KERNEL_STEPS {
        let x = table[i % TABLE_WORDS];
        a = (a ^ x).wrapping_mul(0x2545_f491_4f6c_dd1d);
        a ^= a >> 29;
        b = b.wrapping_add(x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        b ^= b >> 31;
        c = (c ^ (x >> 7)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        c ^= c >> 33;
        d = d.wrapping_add(x << 3).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        d ^= d >> 27;
    }
    a ^ b ^ c ^ d
}

/// A running probe thread.
pub struct Probe {
    stop: Arc<AtomicBool>,
    /// `None` once joined.
    thread: Option<JoinHandle<Vec<(Instant, u64)>>>,
}

impl Probe {
    /// Start probing on `cpu` (the program's; `None` leaves the thread
    /// wherever the scheduler puts it, on a one-CPU box).
    pub fn start(cpu: Option<usize>) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            if let Some(cpu) = cpu {
                procfs::pin_to_cpu(cpu);
            }
            let mut table = [0u64; TABLE_WORDS];
            for (i, word) in table.iter_mut().enumerate() {
                *word = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            let mut samples = Vec::new();
            // Relaxed: the flag publishes nothing but itself.
            while !stopped.load(Ordering::Relaxed) {
                let start = Instant::now();
                std::hint::black_box(kernel(std::hint::black_box(&table)));
                let end = Instant::now();
                samples.push((end, (end - start).as_nanos() as u64));
                std::thread::sleep(PAUSE);
            }
            samples
        });
        Probe {
            stop,
            thread: Some(thread),
        }
    }

    fn join(&mut self) -> Vec<(Instant, u64)> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(thread) => thread.join().expect("probe thread panicked"),
            None => Vec::new(),
        }
    }

    /// Stop the thread and hand its samples over.
    pub fn finish(mut self) -> HostSpeed {
        HostSpeed::new(self.join())
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // An abandoned probe (an error path) must not outlive its run.
        if self.thread.is_some() && !std::thread::panicking() {
            self.join();
        }
    }
}

/// What the probe saw over one run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    /// `(when the kernel ended, how long it took in ns)`, in time order.
    samples: Vec<(Instant, u64)>,
}

impl HostSpeed {
    /// Speed record over `samples` (in time order).
    pub fn new(samples: Vec<(Instant, u64)>) -> HostSpeed {
        HostSpeed { samples }
    }

    /// How much slower than the reference the CPU ran between `from`
    /// and `to`: the mean kernel of the window over [`REFERENCE_NS`]
    /// (below 1 on a host that has clocked up). The mean, outliers and
    /// all: a kernel that took fifty times its usual is the host taking
    /// the CPU away for that long, which the program pays too. A window
    /// without a sample (no probe, or a window shorter than the pause)
    /// reads 1.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let first = self.samples.partition_point(|&(at, _)| at < from);
        let last = self.samples.partition_point(|&(at, _)| at < to);
        let window = &self.samples[first..last];
        if window.is_empty() {
            return 1.0;
        }
        let mean = window.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / window.len() as f64;
        mean / REFERENCE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_windows_mean_kernel_over_the_reference() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // A quiet window (100..104), then a busy one (200..204).
        let mut samples = Vec::new();
        for (i, ns) in [34_000u64, 30_600, 34_000, 37_400].into_iter().enumerate() {
            samples.push((at(100 + i as u64), ns));
        }
        for (i, ns) in [51_000u64, 51_000, 68_000, 374_000].into_iter().enumerate() {
            samples.push((at(200 + i as u64), ns));
        }
        let host = HostSpeed::new(samples);
        assert_eq!(host.slowdown(at(100), at(104)), 1.0);
        assert_eq!(host.slowdown(at(200), at(204)), 4.0);
        assert_eq!(host.slowdown(at(0), at(1000)), 2.5);
        // A host that has clocked up reads below 1.
        assert_eq!(host.slowdown(at(101), at(102)), 0.9);
        // No sample in the window, or no probe at all: no correction.
        assert_eq!(host.slowdown(at(300), at(400)), 1.0);
        assert_eq!(HostSpeed::default().slowdown(at(0), at(1000)), 1.0);
    }

    #[test]
    fn the_probe_thread_samples_and_stops() {
        let probe = Probe::start(None);
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(30));
        let host = probe.finish();
        assert!(host.slowdown(from, Instant::now()) > 0.0);
        assert!(host.samples.len() >= 5);
    }
}
