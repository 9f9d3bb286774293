//! The ledger's fixed points: the four workloads and their parameters,
//! the end-to-end metrics with their regression bounds, and the store
//! and server settings every run uses.
//!
//! Settings stated once, identical on both sides of any comparison:
//! `fsync: false` (see `child.rs`), 8 MiB WAL segments, 2 shards,
//! `poll_threads: 1`, the default `max_group_events`; the program runs
//! on one CPU and the load generator — this process, two threads over
//! two connections — on another.
//!
//! Cadences are stated in operations and sized so that, at the
//! workload's usual rate on the reference container, every periodic
//! background job completes a cycle well inside one slice of the
//! measured phase (`run_seconds` / 8 = 2.5 s). A run counts the cycles
//! per slice and leaves a slice without one out of its estimators.

/// Client connections (and load threads) of every wire workload.
pub const CONNECTIONS: usize = 2;
/// Times set-up (and restart) is repeated inside one run; the median
/// is reported.
pub const REPEATS: usize = 3;

/// Which system shape a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64-event `Ingest` frames over the wire.
    StreamIngest,
    /// One-event `Check` / `Ingest` frames over an authenticated wire.
    DoorSwipe,
    /// History queries beside a write trickle.
    HistoryQuery,
    /// `ShardedEngine::ingest` in the child's own thread; no wire.
    DecideInproc,
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// The system shape.
    pub kind: Kind,
    /// Population size.
    pub subjects: usize,
    /// Approximate events in the base lap.
    pub lap_events: usize,
    /// Events per ingest frame.
    pub batch: usize,
    /// Requests in flight per connection.
    pub depth: usize,
    /// Automatic snapshot cadence, in events.
    pub snapshot_every: u64,
    /// History kept live, in laps (the lap's span is seed-dependent,
    /// so retention is stated relative to it).
    pub retention_laps: f64,
    /// How far the watermark advances per retention run, in laps.
    pub min_advance_laps: f64,
    /// Whole laps ingested before the server listens.
    pub preload_laps: u64,
    /// Is a capability token required on the wire?
    pub auth: bool,
    /// Every `stride`-th subject is checked against the reference.
    pub stride: u32,
    /// Untimed warm-up before the measured phase, seconds.
    pub warm_seconds: f64,
}

/// The workloads, in ledger order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stream_ingest",
        why: "sensor gateways: 64-event Ingest frames, 4000 subjects (state far beyond cache); per-event \
              costs (decode, codec, commit queue, WAL, shards) dominate; snapshots and retention cycle inside",
        kind: Kind::StreamIngest,
        subjects: 4_000,
        lap_events: 200_000,
        batch: 64,
        depth: 48,
        snapshot_every: 500_000,
        retention_laps: 1.0,
        min_advance_laps: 0.1,
        preload_laps: 0,
        auth: false,
        stride: 8,
        warm_seconds: 2.5,
    },
    Workload {
        name: "door_swipe",
        why: "a bank of doors: one-event authenticated frames, 2000 subjects (fits in cache); per-request \
              costs (frame, capability gate, queue hop, reply, poll wake-ups) dominate, batching cannot hide them",
        kind: Kind::DoorSwipe,
        subjects: 2_000,
        lap_events: 100_000,
        batch: 1,
        depth: 128,
        snapshot_every: 50_000,
        retention_laps: 0.5,
        min_advance_laps: 0.1,
        preload_laps: 0,
        auth: true,
        stride: 1,
        warm_seconds: 2.0,
    },
    Workload {
        name: "history_query",
        why: "the security desk: four query kinds over live and archived history beside a fixed-rate write \
              trickle; query codec, ReadView, tier merge and archive reloads do the work, the WAL almost none",
        kind: Kind::HistoryQuery,
        subjects: 500,
        lap_events: 25_000,
        batch: 64,
        depth: 16,
        snapshot_every: 5_000,
        retention_laps: 10.0,
        min_advance_laps: 0.25,
        preload_laps: 20,
        auth: false,
        stride: 1,
        warm_seconds: 1.5,
    },
    Workload {
        name: "decide_inproc",
        why: "the embedded library: 1024-event batches into ShardedEngine under two workflow constraints, \
              no wire, no store; Definition 7 does all the work, so wire or WAL changes must leave it flat",
        kind: Kind::DecideInproc,
        subjects: 2_000,
        lap_events: 200_000,
        batch: 1024,
        depth: 1,
        snapshot_every: 0,
        retention_laps: 1.0,
        min_advance_laps: 0.25,
        preload_laps: 0,
        auth: false,
        stride: 64,
        warm_seconds: 1.5,
    },
];

impl Workload {
    /// Chronons of history kept live when a lap spans `span` chronons.
    pub fn retention(&self, span: u64) -> u64 {
        ((self.retention_laps * span as f64) as u64).max(1)
    }

    /// Chronons per retention run when a lap spans `span` chronons.
    pub fn min_advance(&self, span: u64) -> u64 {
        ((self.min_advance_laps * span as f64) as u64).max(1)
    }
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a larger value better?
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload; every time
/// among them is in quiet-host time (`probe.rs`). The 99th percentile
/// is not among them: it is reported per layer (`client.rtt_p99_ms`)
/// until in-program tracing can tell a neighbour's jitter from the
/// program's own stalls.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "restart_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}
