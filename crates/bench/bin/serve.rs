//! `repro serve`: the closed-loop serving drill.

use crate::{
    banner, final_tick, match_mismatch, print_json, reference_run, served_whereabouts_match,
    Verdict,
};
use ltam_bench::args::Command;
use ltam_bench::loadgen::{drive, LoadConfig};
use ltam_bench::violation_multiset;
use ltam_serve::{LtamClient, Server, ServerConfig};
use ltam_sim::multi_shard_trace;
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
use ltam_time::Interval;

const HELP: &str = "\
usage: repro serve [--json] [--events N] [--subjects N] [--shards N]
                   [--clients N] [--batch N] [--pipeline N] [--no-metrics]

Closed-loop drill for the ltam-serve network tier. Generates the
canonical multi-shard trace WITHOUT interleaved clock ticks (a network
deployment has no global event order, so tick-driven overstay scans
would fire at interleaving-dependent times; one final tick after every
stream drains restores overstay coverage deterministically), starts a
TCP server over a fresh durable store on a loopback ephemeral port,
partitions the trace into per-subject client streams, and replays them
from N concurrent client threads, up to --pipeline requests in flight
per connection (the server's group commit coalesces concurrent and
pipelined batches into shared fsyncs). Reports request/event
throughput, p50/p90/p99 round-trip latency and the fsync rate, then
verifies OVER THE WIRE that the served violation multiset and sampled
whereabouts equal an in-process run of the same trace. The drill also
scrapes the server's metric registry through the KIND_METRICS frame
and checks the exposition: grammar-valid, duplicate-free, core series
present, and the scraped WAL-fsync counter exactly equal to the
engine's own count. Exits non-zero on any client-side error, any
server-counted protocol error, any divergence, or a bad scrape.

options:
  --json           emit one machine-readable JSON object
  --events N       trace length in events                 [default 20000]
  --subjects N     simulated population size              [default 256]
  --shards N       engine shard count                     [default 4]
  --clients N      concurrent client connections          [default 4]
  --batch N        events per ingest request              [default 64]
  --pipeline N     ingest requests in flight per client   [default 4]
  --no-metrics     disable timing spans (the overhead A/B knob;
                   counters still record, histogram checks are skipped)
  --help           this text
";

/// The `repro serve --json` report.
#[derive(serde::Serialize)]
struct ServeReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    clients: usize,
    batch: usize,
    pipeline: usize,
    requests: u64,
    requests_per_sec: u64,
    events_per_sec: u64,
    latency_p50_us: u64,
    latency_p90_us: u64,
    latency_p99_us: u64,
    wal_fsyncs: u64,
    fsyncs_per_sec: u64,
    client_errors: u64,
    server_protocol_errors: u64,
    violations: usize,
    violations_match: bool,
    whereabouts_match: bool,
    metrics: ServeMetricsBlock,
}

/// The registry-sourced `metrics` block of [`ServeReport`]. Times are
/// raw histogram units (microseconds); `-1` marks a value whose series
/// never recorded (e.g. under `--no-metrics`).
#[derive(serde::Serialize)]
struct ServeMetricsBlock {
    scrape_valid: bool,
    fsync_count_exact: bool,
    series: usize,
    fsync_p50_us: i64,
    fsync_p99_us: i64,
    mean_group_events: f64,
    backpressure_activations: u64,
}

const COMMAND: Command = Command {
    name: "serve",
    help: HELP,
    flags: &["--json", "--no-metrics"],
    values: &[
        "--events",
        "--subjects",
        "--shards",
        "--clients",
        "--batch",
        "--pipeline",
    ],
};

/// Extension: the network serving tier under concurrent clients.
pub fn run(args: &[String]) {
    // Default window = pipeline * batch = 256 events per client: deep
    // enough that group commit amortizes fsyncs ~10x, small enough
    // that a whole window round-trips in low single-digit
    // milliseconds. Doubling batch or pipeline roughly doubles
    // throughput again at the cost of tail latency — the knobs to turn
    // when raw events/s is the goal.
    let (json, no_metrics, events, subjects, shards, clients, batch, pipeline) =
        COMMAND.options(args, |a| {
            Ok((
                a.flag("--json"),
                a.flag("--no-metrics"),
                a.at_least("--events", 20_000usize, 1)?,
                a.at_least("--subjects", 256usize, 1)?,
                a.at_least("--shards", 4usize, 1)?,
                a.at_least("--clients", 4usize, 1)?,
                a.at_least("--batch", 64usize, 1)?,
                a.at_least("--pipeline", 4usize, 1)?,
            ))
        });

    let trace = multi_shard_trace(&ltam_bench::serve_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time();
    // One deterministic overstay scan once every stream has drained
    // (see HELP); both runs ingest it as their final event.
    let final_tick = final_tick(&trace);

    // The in-process reference: the same trace + final tick through the
    // proven-equivalent single-threaded engine.
    let (reference, expected) = reference_run(&trace, &[final_tick]);

    let dir = ScratchDir::new("repro-serve");
    let store_config = StoreConfig {
        // Large segments on purpose: at several hundred thousand
        // events/s the WAL grows ~1 MiB per drill, and 256 KiB segments
        // would roll over mid-drill — each rollover is a file create +
        // directory fsync that serializes with the group-commit fsyncs
        // on the filesystem journal and shows up directly in tail
        // latency. Snapshot rotation still bounds segment count.
        segment_bytes: 8 * 1024 * 1024,
        snapshot_every: (n_events as u64 / 4).max(1), // exercised mid-drill
        fsync: true,
        retention: None,
    };
    // The overhead A/B knob: `--no-metrics` turns off timing spans
    // process-wide before the drill. Counters still record (they are a
    // handful of relaxed atomic adds), so the fsync-exactness check
    // below stays meaningful either way.
    ltam_obs::set_disabled(no_metrics);
    // The registry is process-global and `repro all` runs WAL-touching
    // drills earlier in this same process, so exactness is a DELTA
    // against the counter's value before this store exists.
    let fsyncs_base =
        ltam_obs::counter_value(ltam_obs::registry(), "store_wal_fsyncs_total", &[]).unwrap_or(0);
    let (engine, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, store_config)
            .expect("create store");
    let server_config = ServerConfig {
        max_connections: clients + 8,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", server_config).expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Drive the partitioned streams from N concurrent closed-loop clients.
    let streams = trace.client_streams(clients);
    let load = drive(
        &addr,
        &streams,
        LoadConfig {
            batch,
            status_every: 16,
            pipeline,
        },
    );

    // Control connection: final tick, then verification over the wire.
    let mut control = LtamClient::connect(&addr).expect("control client");
    control.ingest(&[final_tick]).expect("final tick");
    let got = violation_multiset(
        control
            .violations_in(Interval::ALL)
            .expect("served violation report"),
    );
    let violations_match = got == expected;
    let whereabouts_match = served_whereabouts_match(&mut control, &reference, subjects, span);
    let status = control.status().expect("served status");
    let drained = status.events_ingested == n_events as u64 + 1;

    // Scrape the registry over the wire (KIND_METRICS) while every
    // ingested batch is already durable: the fsync counter's delta
    // since before this store existed must equal the status report's
    // figure EXACTLY — the check that the instrumentation sits on the
    // real fsync path rather than alongside it.
    let scrape = control.metrics().expect("metrics scrape");
    let expo = match ltam_obs::validate(&scrape) {
        Ok(expo) => Some(expo),
        Err(e) => {
            eprintln!("metrics scrape rejected by validator: {e}");
            None
        }
    };
    let scrape_valid = expo.is_some();
    let scraped_fsyncs = expo
        .as_ref()
        .and_then(|e| e.value("store_wal_fsyncs_total", &[]))
        .unwrap_or(-1.0);
    let fsync_count_exact = scraped_fsyncs >= 0.0
        && (scraped_fsyncs as u64).saturating_sub(fsyncs_base) == status.wal_fsyncs;
    // Core-series liveness: a drill that ingested tens of thousands of
    // events must have left tracks in each tier's headline series.
    let mut missing_series: Vec<&str> = Vec::new();
    if let Some(expo) = &expo {
        for name in [
            "store_wal_records_total",
            "store_group_commits_total",
            "engine_decisions_total",
            "serve_connections_total",
        ] {
            if expo.family_sum(name) <= 0.0 {
                missing_series.push(name);
            }
        }
        if !no_metrics {
            for name in ["store_fsync_seconds", "serve_request_seconds"] {
                if expo.family_sum(&format!("{name}_count")) <= 0.0 {
                    missing_series.push(name);
                }
            }
        }
    }
    let registry = ltam_obs::registry();
    let fsync_hist = ltam_obs::histogram_snapshot(registry, "store_fsync_seconds", &[]);
    let group_hist = ltam_obs::histogram_snapshot(registry, "store_group_events", &[]);
    let metrics_block = ServeMetricsBlock {
        scrape_valid,
        fsync_count_exact,
        series: expo.as_ref().map_or(0, |e| e.samples.len()),
        fsync_p50_us: fsync_hist
            .as_ref()
            .filter(|h| h.count > 0)
            .map_or(-1, |h| h.percentile(50.0) as i64),
        fsync_p99_us: fsync_hist
            .as_ref()
            .filter(|h| h.count > 0)
            .map_or(-1, |h| h.percentile(99.0) as i64),
        mean_group_events: group_hist
            .as_ref()
            .filter(|h| h.count > 0)
            .map_or(-1.0, |h| h.mean()),
        backpressure_activations: ltam_obs::counter_family_sum(
            registry,
            "serve_backpressure_total",
        ),
    };

    // Stop without the parting snapshot: the store is scratch (deleted
    // on exit), so imaging + durably writing megabytes at teardown only
    // adds disk churn between back-to-back drills. The WAL alone makes
    // the store re-servable — tests/serve_recovery.rs proves exactly
    // that crash-shaped recovery, and graceful-shutdown snapshots are
    // covered by the server's own tests.
    let engine = server.abort().expect("server stop");
    let applied = engine.applied();
    drop(engine);

    let p50 = load.latency_percentile_us(50.0);
    let p90 = load.latency_percentile_us(90.0);
    let p99 = load.latency_percentile_us(99.0);
    let fsyncs_per_sec = if load.elapsed.as_secs_f64() > 0.0 {
        (status.wal_fsyncs as f64 / load.elapsed.as_secs_f64()).round() as u64
    } else {
        0
    };
    if json {
        let report = ServeReport {
            experiment: "serve",
            events: n_events,
            subjects,
            shards,
            clients,
            batch,
            pipeline,
            requests: load.requests,
            requests_per_sec: load.requests_per_sec().round() as u64,
            events_per_sec: load.events_per_sec().round() as u64,
            latency_p50_us: p50,
            latency_p90_us: p90,
            latency_p99_us: p99,
            wal_fsyncs: status.wal_fsyncs,
            fsyncs_per_sec,
            client_errors: load.errors,
            server_protocol_errors: status.protocol_errors,
            violations: got.len(),
            violations_match,
            whereabouts_match,
            metrics: metrics_block,
        };
        print_json(&report);
    } else {
        banner("Extension: network serving tier — closed-loop drill");
        println!(
            "{n_events} events, {subjects} subjects, {shards} shards, {clients} clients, batch {batch}, pipeline {pipeline}"
        );
        println!(
            "load: {} requests at {:.0} req/s ({:.0} events/s); latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms",
            load.requests,
            load.requests_per_sec(),
            load.events_per_sec(),
            p50 as f64 / 1000.0,
            p90 as f64 / 1000.0,
            p99 as f64 / 1000.0
        );
        println!(
            "group commit: {} WAL fsyncs ({} fsync/s) for {} ingest batches",
            status.wal_fsyncs, fsyncs_per_sec, load.requests
        );
        println!(
            "errors: {} client, {} server-counted protocol; WAL position {} (snapshot @ {})",
            load.errors, status.protocol_errors, applied, status.snapshot_seq
        );
        println!(
            "served violation multiset vs in-process run: {} ({} violations); whereabouts sample: {}",
            match_mismatch(violations_match),
            got.len(),
            match_mismatch(whereabouts_match)
        );
        println!(
            "metrics: scrape {} ({} series); fsync count {}; fsync p50 {} us, p99 {} us; mean group {:.1} events; backpressure {}",
            if metrics_block.scrape_valid { "VALID" } else { "INVALID" },
            metrics_block.series,
            if metrics_block.fsync_count_exact { "EXACT" } else { "MISMATCH" },
            metrics_block.fsync_p50_us,
            metrics_block.fsync_p99_us,
            metrics_block.mean_group_events,
            metrics_block.backpressure_activations
        );
    }
    let mut verdict = Verdict::of("serve");
    verdict.require(
        load.errors == 0 && status.protocol_errors == 0,
        format_args!(
            "{} client errors, {} protocol errors",
            load.errors, status.protocol_errors
        ),
    );
    verdict.require(
        drained,
        format_args!(
            "server ingested {} of {} events",
            status.events_ingested,
            n_events + 1
        ),
    );
    verdict.require(
        violations_match && whereabouts_match,
        "served answers diverge from the in-process run",
    );
    verdict.require(scrape_valid, "wire-scraped exposition is malformed");
    verdict.require(
        fsync_count_exact,
        format_args!(
            "scraped store_wal_fsyncs_total delta {} != status wal_fsyncs {}",
            if scraped_fsyncs >= 0.0 {
                (scraped_fsyncs as u64)
                    .saturating_sub(fsyncs_base)
                    .to_string()
            } else {
                "absent".to_string()
            },
            status.wal_fsyncs
        ),
    );
    verdict.require(
        missing_series.is_empty(),
        format_args!("core series silent or absent: {missing_series:?}"),
    );
    // Leave the process-global knob as we found it for `repro all`.
    ltam_obs::set_disabled(false);
    verdict.exit_if_failed();
}
