//! The retention acceptance contract: a 100k-event trace under
//! aggressive pruning — **with a crash and recovery in the middle** —
//! answers every historical query exactly like an unpruned volatile
//! run, as long as the answer is reachable through the live tier or the
//! archive; and the live tier stays bounded instead of growing with the
//! trace.
//!
//! Query-by-query this covers the paper's history workloads:
//! `whereabouts` (§5's "where was s at t"), presence windows, contact
//! tracing across the horizon boundary (§1's SARS scenario), and the
//! violation report. Each sampled answer is also held to the paper's
//! specification of these questions ([`ltam_bench::spec`]), which scans
//! the trace's movements and shares no code with either engine. The
//! refusal half of the contract is asserted too:
//! destroy the archive and queries below the watermark return
//! [`HistoryError::Unarchived`] rather than silently under-reporting.

use ltam::core::retention::RetentionPolicy;
use ltam::core::subject::SubjectId;
use ltam::engine::batch::apply_to_engine;
use ltam::engine::Violation;
use ltam::graph::LocationId;
use ltam::time::{Interval, Time};
use ltam_bench::spec::{self, History};
use ltam_bench::{contact_multiset, live_history_records, violation_multiset};
use ltam_sim::{multi_shard_trace, TraceConfig};
use ltam_store::{DurableEngine, HistoryError, ScratchDir, StoreConfig};

const EVENTS: usize = 100_000;
const SUBJECTS: usize = 256;
const SHARDS: usize = 4;
const HORIZON: u64 = 150; // aggressive: a small slice of the ~16k-chronon span

fn config() -> StoreConfig {
    StoreConfig {
        segment_bytes: 512 * 1024,
        snapshot_every: 10_000,
        fsync: false, // semantics under test, not device flushes
        retention: Some(RetentionPolicy::keep_last(HORIZON)),
    }
}

#[test]
fn pruned_crashed_recovered_store_answers_like_an_unpruned_run() {
    let trace = multi_shard_trace(&TraceConfig {
        subjects: SUBJECTS,
        events: EVENTS,
        grid: 8,
        tick_every: 256,
        tailgater_fraction: 0.1,
        overstayer_fraction: 0.1,
        seed: 42,
    });
    let span = trace.max_time();
    assert!(
        span.get() > HORIZON * 10,
        "horizon must be aggressive relative to the span ({span})"
    );

    // The unpruned, volatile, uninterrupted reference.
    let mut reference = trace.build_engine();
    for e in &trace.events {
        apply_to_engine(&mut reference, e);
    }
    let total_records =
        reference.movements().len() + reference.audit().len() + reference.violations().len();
    // The specification, and the movements it rejects: the reference
    // reported each as an inconsistent movement.
    let spec = History::fold(&trace.events);
    let inconsistent = reference
        .violations()
        .iter()
        .filter(|v| matches!(v, Violation::InconsistentMovement { .. }))
        .count();
    assert_eq!(inconsistent, spec.rejected(), "rejected movements");

    // The pruned durable run, crashed at ~60% and recovered. The crash
    // point deliberately avoids the snapshot cadence (10k), so the
    // crash window contains retention runs whose prunes were archived
    // but never snapshotted — recovery resurrects those records into
    // live state *alongside* their stranded archive segments, which is
    // exactly the double-count hazard the watermark-clipped merges
    // exist for.
    let dir = ScratchDir::new("retention-equivalence");
    let crash_at = EVENTS * 6 / 10 + 1_500;
    {
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), trace.build_policy_core(), SHARDS, config())
                .expect("create store");
        for chunk in trace.events[..crash_at].chunks(1_000) {
            durable.ingest(chunk).expect("durable ingest");
        }
        assert!(durable.retention_watermark() > Time::ZERO, "pruning ran");
    } // crash: drop without a final snapshot
    let (mut durable, _alerts, report) =
        DurableEngine::open(dir.path(), config()).expect("recover store");
    assert!(
        report.archive_covered_to >= report.retention_watermark,
        "archive must reach the recovered watermark"
    );
    let resumed = durable.applied() as usize;
    durable
        .ingest(&trace.events[resumed..])
        .expect("post-recovery ingest");
    assert!(durable.take_retention_error().is_none());

    let watermark = durable.retention_watermark();
    assert!(
        watermark > Time(span.get() - HORIZON * 3),
        "watermark {watermark} should track the trace span {span}"
    );

    // Live state is bounded by the horizon, not the trace length.
    let live = live_history_records(durable.engine());
    assert!(
        live * 10 <= total_records,
        "live tier not bounded: {live} of {total_records} records"
    );

    // 1. Violation report over all time: exact multiset equivalence.
    let all = Interval::ALL;
    let got = violation_multiset(
        durable
            .read_view()
            .violations_in(all)
            .expect("tiered violations"),
    );
    let want = violation_multiset(reference.violations().to_vec());
    assert_eq!(got.len(), want.len());
    assert_eq!(got, want, "violation multisets diverge");
    let want = violation_multiset(spec::violations_in(reference.violations(), all));
    assert_eq!(got, want, "violations diverge from the specification");

    // 2. Whereabouts at sampled (subject, time) points across the whole
    // span — inside the horizon AND deep below the watermark.
    for i in (0..SUBJECTS as u32).step_by(17) {
        let s = SubjectId(i);
        for q in 0..=16 {
            let t = Time(span.get() * q / 16);
            let got = durable
                .read_view()
                .whereabouts(s, t)
                .expect("tiered whereabouts");
            let want = reference.movements().whereabouts(s, t);
            assert_eq!(got, want, "whereabouts({s}, {t})");
            assert_eq!(got, spec.whereabouts(s, t), "spec whereabouts({s}, {t})");
        }
    }

    // 3. Contact tracing over the whole span, crossing the boundary.
    for i in (0..SUBJECTS as u32).step_by(41) {
        let s = SubjectId(i);
        let got = contact_multiset(
            durable
                .read_view()
                .contacts(s, all)
                .expect("tiered contacts"),
        );
        let want = contact_multiset(reference.movements().contacts(s, all));
        assert_eq!(got, want, "contacts({s}) diverge");
        let mut got = got;
        got.sort_by_key(spec::contact_key);
        assert_eq!(
            got,
            spec.contacts(s, all),
            "contacts({s}) diverge from the specification"
        );
        assert!(
            i != 41 || !got.is_empty(),
            "sampled subject should have contacts in a dense trace"
        );
    }

    // 4. Presence windows straddling the watermark.
    let boundary = Interval::lit(watermark.get().saturating_sub(200), watermark.get() + 200);
    for l in [LocationId(1), LocationId(9), LocationId(30)] {
        let mut got = durable
            .read_view()
            .present_during(l, boundary)
            .expect("tiered presence");
        let mut want = reference.movements().present_during(l, boundary);
        let key = |r: &(SubjectId, Interval)| (r.0, r.1.start(), r.1.end());
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want, "presence in {l} diverges");
        assert_eq!(
            got,
            spec.present_during(l, boundary),
            "presence in {l} diverges from the specification"
        );
    }

    // 5. The refusal half: with the archive destroyed, queries below
    // the watermark refuse loudly instead of under-reporting...
    for entry in std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
    {
        if entry.file_name().to_string_lossy().ends_with(".arch") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let (durable, _alerts, _) = {
        drop(durable);
        DurableEngine::open(dir.path(), config()).expect("reopen store")
    };
    let err = durable.read_view().contacts(SubjectId(0), all).unwrap_err();
    assert!(matches!(err, HistoryError::Unarchived { .. }), "{err}");
    // ...while queries wholly inside the live window still answer.
    let recent = Interval::new(durable.retention_watermark(), ltam::time::Bound::Unbounded)
        .expect("valid interval");
    assert!(durable.read_view().contacts(SubjectId(0), recent).is_ok());
}

/// A reader hammering a below-watermark query while retention runs
/// must never be told `Unarchived`: the archive segment covering a new
/// watermark is durable *and visible* before the watermark advances.
/// (The ledger's `history_query` workload counted hundreds of these
/// refusals per run when the archive cache was invalidated only after
/// the live prune.) Nor does a run cost that reader the archive it has
/// already loaded.
#[test]
fn a_concurrent_reader_never_sees_unarchived_across_retention_runs() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const RUNS: u64 = 40;
    let trace = multi_shard_trace(&TraceConfig {
        subjects: SUBJECTS,
        events: 20_000,
        grid: 8,
        tick_every: 0,
        tailgater_fraction: 0.1,
        overstayer_fraction: 0.1,
        seed: 7,
    });
    let dir = ScratchDir::new("retention-reader-race");
    let store = StoreConfig {
        retention: None, // retention runs are driven explicitly below
        snapshot_every: 0,
        ..config()
    };
    let (mut engine, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), SHARDS, store).unwrap();
    let view = engine.read_view();
    let policy = RetentionPolicy::keep_last(HORIZON);
    let done = AtomicBool::new(false);
    let per_run = trace.events.len() / RUNS as usize;

    let (queries, runs) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut queries = 0u64;
            while !done.load(Ordering::Acquire) {
                // Chronon 0 is below the watermark from the first run on.
                match view.contacts(SubjectId(queries as u32 % 16), Interval::lit(0, 40)) {
                    Ok(_) => queries += 1,
                    Err(e) => panic!("query {queries} refused mid-retention: {e}"),
                }
            }
            queries
        });
        let mut runs = 0u64;
        for chunk in trace.events.chunks(per_run) {
            engine.ingest(chunk).unwrap();
            // A run keeps the payloads a queried store has loaded. The
            // query here makes "queried since the last run" certain
            // whatever the reader thread's scheduling.
            view.contacts(SubjectId(0), Interval::lit(0, 40)).unwrap();
            let loaded = engine.archive_segments_loaded();
            let outcome = engine.run_retention_with(&policy, engine.clock()).unwrap();
            runs += u64::from(outcome.pruned > 0);
            assert!(
                engine.archive_segments_loaded() >= loaded,
                "run {runs} dropped {loaded} loaded archive segments"
            );
        }
        done.store(true, Ordering::Release);
        (reader.join().unwrap(), runs)
    });
    assert!(runs >= 20, "only {runs} retention runs pruned anything");
    assert!(queries > runs, "the reader barely ran ({queries} queries)");
    assert!(engine.retention_watermark() > Time(40));
    // Every segment but the last run's was loaded by a query before it.
    assert!(engine.archive_segments_loaded() as u64 >= runs - 1);
}
