//! Closed-loop load generation: N client threads replay pre-partitioned
//! event streams against a server, each waiting for a whole window of
//! responses before sending the next, and report throughput and
//! latency.
//!
//! Closed-loop (rather than open-loop) because that is what the
//! serving tier's backpressure model assumes: at most
//! [`LoadConfig::pipeline`] requests in flight per connection, so a
//! slow engine slows the offered load instead of growing an unbounded
//! queue. Latency numbers are honest round-trip times under the
//! achieved throughput — per request at depth 1, per pipelined window
//! at depth > 1.
//!
//! The streams must be partitioned so each subject's events live in
//! exactly one stream (per-subject order is what enforcement
//! semantics require; cross-subject interleaving is free —
//! `ltam_sim::TraceWorld::client_streams` produces such partitions).

use ltam_engine::batch::Event;
use ltam_serve::LtamClient;
use std::time::{Duration, Instant};

/// Tunables for [`drive`].
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Events per ingest request.
    pub batch: usize,
    /// Issue a `Status` query every this many batches (0 disables):
    /// exercises the concurrent read path while writes are in flight.
    pub status_every: usize,
    /// Ingest requests sent back-to-back before reading responses
    /// (see [`LtamClient::ingest_pipelined`]). 1 = strict closed loop.
    /// Deeper pipelines give the server's group commit more batches to
    /// coalesce per fsync; latency is then recorded per *window* (the
    /// time from the window's first send to its last response), which
    /// is what each pipelined request actually waited.
    pub pipeline: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            batch: 256,
            status_every: 16,
            pipeline: 1,
        }
    }
}

/// One driver thread's accounting.
#[derive(Debug, Clone, Default)]
struct ThreadReport {
    requests: u64,
    events: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// What a [`drive`] run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Client threads driven.
    pub clients: usize,
    /// Requests sent (ingest batches + status probes).
    pub requests: u64,
    /// Events delivered inside ingest requests.
    pub events: u64,
    /// Calls that returned any error (transport, protocol, server).
    pub errors: u64,
    /// Wall-clock time from first send to last response.
    pub elapsed: Duration,
    /// Every request's round-trip latency in microseconds, sorted.
    pub latencies_us: Vec<u64>,
}

impl LoadReport {
    /// Requests per second over the wall clock.
    pub fn requests_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.requests as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    /// Events per second over the wall clock.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.events as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    /// The `p`-th percentile round-trip latency in microseconds
    /// (`p` in `[0, 100]`; 0 with no samples).
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0 * (self.latencies_us.len() - 1) as f64).round();
        self.latencies_us[rank as usize]
    }
}

/// Drive one stream over one connection; returns the accounting.
fn drive_stream(addr: &str, stream: &[Event], config: LoadConfig) -> ThreadReport {
    let mut report = ThreadReport::default();
    let mut client = match LtamClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };
    let depth = config.pipeline.max(1);
    let batches: Vec<&[Event]> = stream.chunks(config.batch.max(1)).collect();
    let mut sent = 0usize;
    for window in batches.chunks(depth) {
        let start = Instant::now();
        match client.ingest_pipelined(window) {
            Ok(summaries) => {
                for s in &summaries {
                    report.events += s.processed as u64;
                }
            }
            Err(_) => report.errors += 1,
        }
        let elapsed = start.elapsed().as_micros() as u64;
        for _ in window {
            report.latencies_us.push(elapsed);
            report.requests += 1;
        }
        sent += window.len();
        let probe_due = config.status_every > 0
            && sent / config.status_every > (sent - window.len()) / config.status_every;
        if probe_due {
            let start = Instant::now();
            if client.status().is_err() {
                report.errors += 1;
            }
            report.latencies_us.push(start.elapsed().as_micros() as u64);
            report.requests += 1;
        }
    }
    report
}

/// Replay `streams` against the server at `addr`, one client thread
/// per stream, and merge the accounting. Blocks until every stream is
/// fully delivered (or errored through).
pub fn drive(addr: &str, streams: &[Vec<Event>], config: LoadConfig) -> LoadReport {
    let start = Instant::now();
    let reports: Vec<ThreadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(move || drive_stream(addr, stream, config)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut merged = LoadReport {
        clients: streams.len(),
        elapsed,
        ..LoadReport::default()
    };
    for r in reports {
        merged.requests += r.requests;
        merged.events += r.events;
        merged.errors += r.errors;
        merged.latencies_us.extend(r.latencies_us);
    }
    merged.latencies_us.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let report = LoadReport {
            latencies_us: vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            ..LoadReport::default()
        };
        assert_eq!(report.latency_percentile_us(0.0), 10);
        assert_eq!(report.latency_percentile_us(50.0), 60); // rank 4.5 → 5
        assert_eq!(report.latency_percentile_us(100.0), 100);
        assert_eq!(LoadReport::default().latency_percentile_us(50.0), 0);
    }
}
