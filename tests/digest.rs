//! One state equality: `ltam_store::digest` hashes what a snapshot
//! writes — the policy image, the canonical shard image
//! (`ltam_engine::batch::canonical`) and the quarantine ledger. So two
//! engines digest equal exactly when those are equal, one history
//! digests alike at any shard count, and a history missing any one
//! item digests differently.

use ltam_bench::violation_multiset;
use ltam_core::capability::AdminOp;
use ltam_core::prohibition::Prohibition;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyOp, ShardedEngine};
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_sim::{multi_shard_trace, TraceConfig, TraceWorld};
use ltam_situate::{SituationMode, SituationOp};
use ltam_store::digest;
use ltam_time::Interval;
use proptest::prelude::*;

/// One item of a history.
#[derive(Debug, Clone)]
enum Item {
    Event(Event),
    /// A batch from a sensor below the trust threshold.
    Quarantined(Vec<Event>),
    Policy(PolicyOp),
}

/// Apply `items` in order to a fresh `shards`-shard engine over the
/// trace's policy; runs of events go in as one batch.
fn run(trace: &TraceWorld, items: &[Item], shards: usize) -> ShardedEngine {
    let (engine, _alerts) = trace.build_sharded(shards);
    let mut batch = Vec::new();
    for item in items {
        match item {
            Item::Event(e) => batch.push(*e),
            Item::Quarantined(events) => engine.ingest_quarantined(SubjectId(9_999), 1, events),
            Item::Policy(op) => {
                engine.ingest(&std::mem::take(&mut batch));
                engine.apply_policy_op(op);
            }
        }
    }
    engine.ingest(&batch);
    engine
}

fn trace() -> TraceWorld {
    multi_shard_trace(&TraceConfig {
        subjects: 64,
        events: 4_000,
        tick_every: 32,
        overstayer_fraction: 0.2,
        ..TraceConfig::default()
    })
}

#[test]
fn one_history_digests_alike_at_one_and_four_shards() {
    let trace = trace();
    let (one, _alerts) = trace.build_sharded(1);
    let (four, _alerts) = trace.build_sharded(4);
    one.ingest(&trace.events);
    for chunk in trace.events.chunks(97) {
        four.ingest(chunk);
    }
    assert!(one.canonical_image() == four.canonical_image());
    assert_eq!(digest(&one), digest(&four));
}

/// The trace's last tick that raised an overstay and whose chronon no
/// later tick repeats: a repeat would raise the same overstay at the
/// same chronon if this one were dropped.
fn last_overstay_tick(trace: &TraceWorld) -> usize {
    let (probe, _alerts) = trace.build_sharded(1);
    let mut last = None;
    for (i, e) in trace.events.iter().enumerate() {
        let raised = probe.ingest(std::slice::from_ref(e)).violations;
        if matches!(e, Event::Tick { .. })
            && !trace.events[i + 1..].contains(e)
            && raised
                .iter()
                .any(|v| matches!(v, Violation::Overstay { .. }))
        {
            last = Some(i);
        }
    }
    last.expect("the trace has overstays")
}

/// The trace's last event of `kind` whose drop leaves the violations as
/// they were, so only the rest of the state can show it.
fn last_quiet(trace: &TraceWorld, kind: fn(&Event) -> bool) -> usize {
    let violations = |events: &[Event]| {
        let (engine, _alerts) = trace.build_sharded(4);
        engine.ingest(events);
        violation_multiset(engine.violations())
    };
    let want = violations(&trace.events);
    (0..trace.events.len())
        .rev()
        .filter(|&i| kind(&trace.events[i]))
        .find(|&i| {
            let mut events = trace.events.clone();
            events.remove(i);
            violations(&events) == want
        })
        .expect("the trace has one")
}

#[test]
fn dropping_any_one_item_changes_the_digest() {
    let trace = trace();
    let mut items: Vec<Item> = trace.events.iter().copied().map(Item::Event).collect();
    let last_enter = trace
        .events
        .iter()
        .rposition(|e| matches!(e, Event::Enter { .. }))
        .expect("the trace has one");
    let mut dropped = vec![
        (
            "Request",
            last_quiet(&trace, |e| matches!(e, Event::Request { .. })),
        ),
        ("Enter", last_enter),
        (
            "Exit",
            last_quiet(&trace, |e| matches!(e, Event::Exit { .. })),
        ),
        ("overstay Tick", last_overstay_tick(&trace)),
    ];
    // The policy the trace ends under, with one more prohibition: an
    // `Install` that changes nothing would rightly digest alike. It
    // goes first, since it replaces whatever policy edits precede it.
    let mut installed = trace.build_policy_core();
    installed.add_prohibition(Prohibition {
        subject: SubjectId(0),
        location: LocationId(1),
        window: Interval::lit(0, 10),
    });
    let tail = [
        (
            "quarantined batch",
            Item::Quarantined(trace.events[..3].to_vec()),
        ),
        (
            "Install",
            Item::Policy(PolicyOp::Install(Box::new(installed.image()))),
        ),
        (
            "Admin",
            Item::Policy(PolicyOp::Admin(AdminOp::SetTrust {
                subject: SubjectId(9_999),
                level: 3,
            })),
        ),
        (
            "Situation",
            Item::Policy(PolicyOp::Situation(SituationOp::Declare(
                SituationMode::Lockdown,
            ))),
        ),
    ];
    for (name, item) in tail {
        dropped.push((name, items.len()));
        items.push(item);
    }

    let whole = digest(&run(&trace, &items, 4));
    for (name, at) in dropped {
        let mut short = items.clone();
        short.remove(at);
        assert_ne!(
            digest(&run(&trace, &short, 4)),
            whole,
            "dropping the {name} at item {at} went unseen"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For a pair of histories — one trace at two shard counts, the
    /// second copy perhaps missing one event, or two different traces —
    /// the digests are equal exactly when the states they hash are, and
    /// one history digests alike at any two shard counts.
    #[test]
    fn digests_are_equal_exactly_when_states_are(
        subjects in 1usize..12,
        events in 10usize..200,
        seeds in (0u64..1_000, 0u64..1_000),
        shards in (1usize..5, 1usize..5),
        pair in 0u8..3,
        at in any::<usize>(),
    ) {
        let cfg = TraceConfig { subjects, events, grid: 4, tick_every: 16, seed: seeds.0, ..TraceConfig::default() };
        let a = multi_shard_trace(&cfg);
        let b = if pair == 2 { multi_shard_trace(&TraceConfig { seed: seeds.1, ..cfg }) } else { a.clone() };
        let mut b_events = b.events.clone();
        if pair == 1 {
            b_events.remove(at % b_events.len());
        }
        let (x, _alerts) = a.build_sharded(shards.0);
        let (y, _alerts) = b.build_sharded(shards.1);
        x.ingest(&a.events);
        y.ingest(&b_events);
        let state = |e: &ShardedEngine| (e.policy().image(), e.canonical_image(), e.export_quarantine());
        prop_assert_eq!(digest(&x) == digest(&y), state(&x) == state(&y));
        if pair == 0 {
            prop_assert_eq!(digest(&x), digest(&y));
        }
    }
}
