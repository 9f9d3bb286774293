//! `repro durability`: the crash-recovery drill.

use crate::{banner, match_mismatch, print_json, reference_run, Verdict};
use ltam_bench::args::Command;
use ltam_bench::violation_multiset;
use ltam_sim::multi_shard_trace;
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};

const HELP: &str = "\
usage: repro durability [--json] [--events N] [--subjects N] [--shards N]
                        [--crash-after N] [--segment-kib N]

Crash-recovery drill for the WAL-backed DurableEngine. Generates the
canonical multi-shard trace, ingests it durably (WAL-append + fsync
before enforcement, one snapshot mid-stream), simulates a crash after
--crash-after events by dropping the engine and TEARING the last WAL
record (a partial write), recovers (snapshot + WAL-tail replay,
truncating the torn record), ingests the rest of the trace, and compares
the final violation multiset against an uninterrupted in-memory run.
Exits non-zero if the multisets diverge.

options:
  --json            emit one machine-readable JSON object
  --events N        trace length in events                 [default 20000]
  --subjects N      simulated population size              [default 256]
  --shards N        engine shard count                     [default 4]
  --crash-after N   events ingested before the crash       [default events/2]
  --segment-kib N   WAL segment rotation threshold (KiB)   [default 256]
  --help            this text
";

/// The `repro durability --json` report.
#[derive(serde::Serialize)]
struct DurabilityReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    crash_after: u64,
    snapshot_seq: u64,
    replayed: usize,
    torn_record_lost: u64,
    truncated_bytes: u64,
    append_events_per_sec: u64,
    recovery_micros: u64,
    violations: usize,
    violations_match: bool,
}

const COMMAND: Command = Command {
    name: "durability",
    help: HELP,
    flags: &["--json"],
    values: &[
        "--events",
        "--subjects",
        "--shards",
        "--crash-after",
        "--segment-kib",
    ],
};

/// Extension: crash recovery of the durable (WAL + snapshot) engine.
pub fn run(args: &[String]) {
    let (json, events, subjects, shards, crash_after, segment_kib) = COMMAND.options(args, |a| {
        Ok((
            a.flag("--json"),
            a.at_least("--events", 20_000usize, 2)?,
            a.at_least("--subjects", 256usize, 1)?,
            a.at_least("--shards", 4usize, 1)?,
            a.value::<u64>("--crash-after")?,
            a.at_least("--segment-kib", 256u64, 1)?,
        ))
    });

    let trace = multi_shard_trace(&ltam_bench::throughput_workload(subjects, events));
    let n_events = trace.events.len();
    let crash_after = crash_after
        .unwrap_or(n_events as u64 / 2)
        .min(n_events as u64);

    // The uninterrupted reference: the whole trace through one engine.
    let (_, expected) = reference_run(&trace, &[]);

    let dir = ScratchDir::new("repro-durability");
    let config = StoreConfig {
        segment_bytes: segment_kib * 1024,
        snapshot_every: 0, // the drill controls its own snapshot point
        fsync: true,
        retention: None,
    };

    // Phase 1: durable ingest up to the crash point, snapshotting midway
    // so recovery exercises snapshot + WAL-tail replay, not just replay.
    let (mut durable, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, config)
            .expect("create store");
    let append_start = std::time::Instant::now();
    let mut snapshotted = false;
    for chunk in trace.events[..crash_after as usize].chunks(512) {
        durable.ingest(chunk).expect("durable ingest");
        if !snapshotted && durable.applied() >= crash_after / 2 {
            durable.snapshot().expect("mid-stream snapshot");
            snapshotted = true;
        }
    }
    let append_secs = append_start.elapsed().as_secs_f64();
    let append_eps = if append_secs > 0.0 {
        (crash_after as f64 / append_secs).round() as u64
    } else {
        0
    };
    drop(durable); // the crash

    // Tear the last WAL record: chop 3 bytes off the newest segment, as a
    // power cut mid-write would.
    let wal_segments = ltam_store::Wal::segment_files(dir.path()).expect("list store dir");
    let last = wal_segments.last().expect("at least one segment");
    let len = std::fs::metadata(last).expect("segment metadata").len();
    let torn = crash_after > 0 && len > 3;
    if torn {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(last)
            .expect("open segment");
        f.set_len(len - 3).expect("tear segment");
    }

    // Phase 2: recover, then finish the trace. The torn record's event is
    // no longer in the log, so it is re-ingested with the remainder.
    let recovery_start = std::time::Instant::now();
    let (mut durable, _alerts, report) =
        DurableEngine::open(dir.path(), config).expect("recover store");
    let recovery_micros = recovery_start.elapsed().as_micros() as u64;
    let resumed_at = durable.applied() as usize;
    assert!(
        resumed_at as u64 >= report.snapshot_seq,
        "recovery resumed before its own snapshot"
    );
    durable
        .ingest(&trace.events[resumed_at..])
        .expect("post-recovery ingest");
    let got = violation_multiset(durable.engine().violations());
    let violations_match = got == expected;

    if json {
        let report = DurabilityReport {
            experiment: "durability",
            events: n_events,
            subjects,
            shards,
            crash_after,
            snapshot_seq: report.snapshot_seq,
            replayed: report.replayed,
            torn_record_lost: crash_after - resumed_at as u64,
            truncated_bytes: report.truncated_bytes,
            append_events_per_sec: append_eps,
            recovery_micros,
            violations: got.len(),
            violations_match,
        };
        print_json(&report);
    } else {
        banner("Extension: durable enforcement — crash recovery drill");
        println!("{n_events} events, {subjects} subjects, {shards} shards, crash after {crash_after} events");
        println!(
            "append (WAL fsync-per-batch + enforcement): {append_eps} events/sec over {crash_after} events"
        );
        println!(
            "crash: last WAL record torn ({} event(s) lost from the log, re-ingested after recovery)",
            crash_after - resumed_at as u64
        );
        println!(
            "recovery: snapshot @ {} + {} replayed events, {} bytes truncated, {:.2} ms",
            report.snapshot_seq,
            report.replayed,
            report.truncated_bytes,
            recovery_micros as f64 / 1000.0
        );
        println!(
            "violation multiset vs uninterrupted run: {} ({} violations)",
            match_mismatch(violations_match),
            got.len()
        );
    }
    let mut verdict = Verdict::of("durability");
    verdict.require(
        violations_match,
        "recovered violations diverge from the reference run",
    );
    verdict.exit_if_failed();
}
