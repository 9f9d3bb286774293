//! `repro retention`: the bounded-live-state drill.

use crate::{banner, match_mismatch, print_json, reference_run, yes_no, Verdict};
use ltam_bench::args::Command;
use ltam_bench::{contact_multiset, live_history_records, violation_multiset};
use ltam_core::retention::RetentionPolicy;
use ltam_core::subject::SubjectId;
use ltam_sim::multi_shard_trace;
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
use ltam_time::{Interval, Time};

const HELP: &str = "\
usage: repro retention [--json] [--events N] [--subjects N] [--shards N]
                       [--horizon H] [--checkpoints K]

Bounded-live-state drill for the retention/tiering subsystem. Ingests
the canonical multi-shard trace through a DurableEngine whose retention
policy keeps the last H chronons live (older history is archived, then
pruned), sampling live history size and snapshot size at K checkpoints.
Afterwards, historical queries spanning the WHOLE trace — whereabouts,
contact tracing (the paper's SARS scenario, across the horizon
boundary), and the violation report — run through the tier-aware API
and every answer is compared against an unpruned volatile reference
run. Exits non-zero if live state is not bounded at steady state or any
answer diverges.

options:
  --json          emit one machine-readable JSON object
  --events N      trace length in events                 [default 20000]
  --subjects N    simulated population size              [default 256]
  --shards N      engine shard count                     [default 4]
  --horizon H     retention horizon in chronons          [default 100]
  --checkpoints K live-size samples across the trace     [default 8]
  --help          this text
";

/// One live-size sample of the `repro retention` drill.
#[derive(serde::Serialize)]
struct RetentionSample {
    ingested: usize,
    live_records: usize,
    snapshot_bytes: u64,
}

/// The `repro retention --json` report.
#[derive(serde::Serialize)]
struct RetentionReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    horizon_chronons: u64,
    trace_span_chronons: u64,
    watermark: u64,
    total_records: usize,
    live_final_records: usize,
    live_peak_records: usize,
    snapshot_bytes_final: u64,
    state_bytes_final: u64,
    state_bytes_unpruned: u64,
    archive_bytes: u64,
    live_bounded: bool,
    queries_match: bool,
    samples: Vec<RetentionSample>,
}

/// Size of the newest snapshot file in a store directory.
fn newest_snapshot_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map(|m| m.len())
        .unwrap_or(0)
}

const COMMAND: Command = Command {
    name: "retention",
    help: HELP,
    flags: &["--json"],
    values: &[
        "--events",
        "--subjects",
        "--shards",
        "--horizon",
        "--checkpoints",
    ],
};

/// Extension: bounded live state under history retention + tiering.
pub fn run(args: &[String]) {
    let (json, events, subjects, shards, horizon, checkpoints) = COMMAND.options(args, |a| {
        Ok((
            a.flag("--json"),
            a.at_least("--events", 20_000usize, 1)?,
            a.at_least("--subjects", 256usize, 1)?,
            a.at_least("--shards", 4usize, 1)?,
            a.at_least("--horizon", 100u64, 1)?,
            a.at_least("--checkpoints", 8usize, 1)?,
        ))
    });

    let trace = multi_shard_trace(&ltam_bench::throughput_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time().get();

    // The unpruned reference: the whole trace through a single volatile
    // engine (the proven-equivalent semantics).
    let (reference, expected_violations) = reference_run(&trace, &[]);
    let total_records =
        reference.movements().len() + reference.audit().len() + reference.violations().len();

    // What the UNPRUNED per-shard state weighs in a snapshot (a
    // volatile sharded run's images in binval, the encoding snapshots use).
    // The policy image is deliberately excluded from the bound: it is
    // invariant under retention and, on authorization-heavy workloads,
    // dominates whole-file snapshot size.
    let state_bytes_unpruned = {
        let (unpruned, _rx) = trace.build_sharded(shards);
        unpruned.ingest(&trace.events);
        ltam_store::binval::encode(&unpruned.export_images()).len() as u64
    };

    let dir = ScratchDir::new("repro-retention");
    let policy = RetentionPolicy::keep_last(horizon);
    let config = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0, // the drill snapshots at its own checkpoints
        fsync: true,
        retention: Some(policy),
    };
    let (mut durable, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, config)
            .expect("create store");

    let chunk = n_events.div_ceil(checkpoints).max(1);
    let mut samples = Vec::new();
    let mut live_peak = 0usize;
    let mut ingested = 0usize;
    for batch in trace.events.chunks(chunk) {
        durable.ingest(batch).expect("durable ingest");
        ingested += batch.len();
        durable.snapshot().expect("checkpoint snapshot");
        let live = live_history_records(durable.engine());
        live_peak = live_peak.max(live);
        samples.push(RetentionSample {
            ingested,
            live_records: live,
            snapshot_bytes: newest_snapshot_bytes(dir.path()),
        });
    }
    if let Some(e) = durable.take_retention_error() {
        eprintln!("retention drill FAILED: maintenance run error: {e}");
        std::process::exit(1);
    }
    let watermark = durable.retention_watermark().get();
    let live_final = samples.last().map(|s| s.live_records).unwrap_or(0);
    let snapshot_bytes_final = samples.last().map(|s| s.snapshot_bytes).unwrap_or(0);
    let state_bytes_final =
        ltam_store::binval::encode(&durable.engine().export_images()).len() as u64;
    let archive_bytes: u64 = std::fs::read_dir(dir.path())
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".arch"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();

    // Bounded: at steady state the live tier holds a horizon's worth of
    // history, not the whole trace. (The horizon is a fraction of the
    // trace span, so half the total is a generous ceiling.)
    let live_bounded = watermark > 0
        && live_final * 2 <= total_records
        && state_bytes_final * 2 <= state_bytes_unpruned;

    // Query equivalence across the horizon boundary, vs the unpruned run.
    let all = Interval::ALL;
    let mut queries_match = true;
    let mut mismatch = String::new();
    let got_violations = violation_multiset(
        durable
            .read_view()
            .violations_in(all)
            .expect("tier-aware violations"),
    );
    if got_violations != expected_violations {
        queries_match = false;
        mismatch = format!(
            "violation multiset diverged ({} vs {})",
            got_violations.len(),
            expected_violations.len()
        );
    }
    let sample_subjects: Vec<SubjectId> =
        (0..subjects.min(16)).map(|i| SubjectId(i as u32)).collect();
    let sample_times: Vec<Time> = (0..=8).map(|i| Time(span * i / 8)).collect();
    for &s in &sample_subjects {
        for &t in &sample_times {
            let got = durable
                .read_view()
                .whereabouts(s, t)
                .expect("tier-aware whereabouts");
            let want = reference.movements().whereabouts(s, t);
            if got != want {
                queries_match = false;
                mismatch = format!("whereabouts({s}, {t}): {got:?} != {want:?}");
            }
        }
        let got = contact_multiset(
            durable
                .read_view()
                .contacts(s, all)
                .expect("tier-aware contacts"),
        );
        let want = contact_multiset(reference.movements().contacts(s, all));
        if got != want {
            queries_match = false;
            mismatch = format!("contacts({s}): {} rows != {} rows", got.len(), want.len());
        }
    }

    if json {
        let report = RetentionReport {
            experiment: "retention",
            events: n_events,
            subjects,
            shards,
            horizon_chronons: horizon,
            trace_span_chronons: span,
            watermark,
            total_records,
            live_final_records: live_final,
            live_peak_records: live_peak,
            snapshot_bytes_final,
            state_bytes_final,
            state_bytes_unpruned,
            archive_bytes,
            live_bounded,
            queries_match,
            samples,
        };
        print_json(&report);
    } else {
        banner("Extension: history retention — bounded live state + archive tier");
        println!(
            "{n_events} events over {span} chronons, {subjects} subjects, {shards} shards, horizon {horizon} chronons"
        );
        println!(
            "{:>10} {:>14} {:>16}",
            "ingested", "live records", "snapshot bytes"
        );
        for s in &samples {
            println!(
                "{:>10} {:>14} {:>16}",
                s.ingested, s.live_records, s.snapshot_bytes
            );
        }
        println!(
            "watermark: t={watermark}; live {live_final}/{total_records} records at end (peak {live_peak}); archive {archive_bytes} bytes"
        );
        println!(
            "shard-state image: {state_bytes_final} bytes pruned vs {state_bytes_unpruned} bytes \
             unpruned (full snapshot file: {snapshot_bytes_final} bytes incl. the invariant policy)"
        );
        println!(
            "live state bounded: {}; whole-trace queries vs unpruned run: {}",
            yes_no(live_bounded),
            match_mismatch(queries_match)
        );
    }
    let mut verdict = Verdict::of("retention");
    verdict.require(
        live_bounded,
        format_args!("live state/snapshot not bounded (watermark {watermark}, live {live_final}/{total_records}, state bytes {state_bytes_final}/{state_bytes_unpruned})"),
    );
    verdict.require(
        queries_match,
        format_args!("tier-merged answers diverge from the unpruned run: {mismatch}"),
    );
    verdict.exit_if_failed();
}
