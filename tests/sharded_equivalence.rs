//! Sharded enforcement is *semantically invisible*: on the same event
//! trace, `ShardedEngine` (N shards, batch ingestion, worker threads)
//! must detect exactly the violation multiset the single-threaded
//! `AccessControlEngine` — the reference semantics — detects.
//!
//! This holds because every per-subject invariant lives entirely on one
//! shard (see `ltam_engine::shard`); these tests are the executable
//! proof obligation behind that claim. Beside the violation multisets
//! they compare whole states: the canonical images
//! (`ltam_engine::batch::canonical`) of stays, entry counts, pending
//! grants, audit records and violations.

use ltam_bench::violation_multiset as as_multiset;
use ltam_engine::batch::apply_to_engine;
use ltam_engine::shard::ShardStateImage;
use ltam_engine::violation::Violation;
use ltam_sim::{multi_shard_trace, TraceConfig};
use proptest::prelude::*;

/// One engine's run: its violation multiset and its canonical image.
type Run = (Vec<Violation>, ShardStateImage);

/// Replay `cfg`'s trace through the reference engine and through a
/// sharded engine, returning both runs.
fn run_both(cfg: &TraceConfig, shards: usize) -> (Run, Run) {
    let trace = multi_shard_trace(cfg);

    let mut reference = trace.build_engine();
    for e in &trace.events {
        apply_to_engine(&mut reference, e);
    }

    let (sharded, _alerts) = trace.build_sharded(shards);
    let outcome = sharded.ingest(&trace.events);
    assert_eq!(outcome.processed, trace.events.len());

    (
        (
            as_multiset(reference.violations().to_vec()),
            reference.canonical_image(),
        ),
        (as_multiset(sharded.violations()), sharded.canonical_image()),
    )
}

/// The acceptance trace: 100k events, 4 shards, identical multisets.
#[test]
fn sharded_matches_single_engine_on_100k_events() {
    let cfg = TraceConfig {
        subjects: 256,
        events: 100_000,
        grid: 8,
        tick_every: 128,
        tailgater_fraction: 0.1,
        overstayer_fraction: 0.1,
        seed: 42,
    };
    let ((reference, reference_state), (sharded, sharded_state)) = run_both(&cfg, 4);
    assert!(
        !reference.is_empty(),
        "trace should exercise the violation taxonomy"
    );
    assert_eq!(
        reference.len(),
        sharded.len(),
        "violation counts diverge between single and sharded enforcement"
    );
    assert_eq!(reference, sharded);
    assert!(!reference_state.audit.is_empty());
    assert!(reference_state == sharded_state, "the states diverge");
}

/// The same equivalence across batch boundaries: splitting one trace
/// into many ingest calls must not change what is detected.
#[test]
fn batch_boundaries_are_invisible() {
    let cfg = TraceConfig {
        subjects: 64,
        events: 10_000,
        ..TraceConfig::default()
    };
    let trace = multi_shard_trace(&cfg);

    let (one_batch, _rx) = trace.build_sharded(4);
    one_batch.ingest(&trace.events);

    let (chunked, _rx) = trace.build_sharded(4);
    for chunk in trace.events.chunks(97) {
        chunked.ingest(chunk);
    }

    assert_eq!(
        as_multiset(one_batch.violations()),
        as_multiset(chunked.violations())
    );
    assert!(one_batch.canonical_image() == chunked.canonical_image());
}

/// A policy loaded from its image is the policy it was imaged from, as
/// far as enforcement can tell: the same trace draws the same decision —
/// the granting authorization's id included — and the same violations,
/// event for event. (A restart, a follower and a policy install all
/// enforce against a loaded policy.)
#[test]
fn a_policy_loaded_from_its_image_decides_identically() {
    use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};

    let trace = multi_shard_trace(&TraceConfig::default());
    // Every pair gets a second, equally admitting authorization, so which
    // candidate comes first decides the id in the grant; revoking every
    // third row leaves the id gaps an image of a lived-in policy has.
    let mut core = trace.build_policy_core();
    for auth in &trace.authorizations {
        core.add_authorization(*auth);
    }
    for id in (0..core.db().next_id()).step_by(3) {
        core.revoke_authorization(ltam_core::AuthId(id));
    }
    let loaded = PolicyCore::from_image(core.image());
    let stream = |core: PolicyCore| -> Vec<String> {
        let (engine, _alerts) = ShardedEngine::new(core, 2);
        let step = |e: &Event| match *e {
            Event::Request {
                time,
                subject,
                location,
            } => format!("{:?}", engine.request_enter(time, subject, location)),
            Event::Enter {
                time,
                subject,
                location,
            } => format!("{:?}", engine.observe_enter(time, subject, location)),
            Event::Exit {
                time,
                subject,
                location,
            } => format!("{:?}", engine.observe_exit(time, subject, location)),
            Event::Tick { now } => format!("{:?}", engine.tick(now)),
        };
        trace.events.iter().map(step).collect()
    };
    let original = stream(core);
    assert!(original.iter().any(|line| line.starts_with("Granted")));
    assert!(original.iter().any(|line| line.starts_with("Some(")));
    assert_eq!(original, stream(loaded));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Channel-ordering property: for arbitrary populations, trace
    /// lengths, shard counts and seeds, the multiset of violations is
    /// independent of the sharding — whatever order the worker threads
    /// interleave in.
    #[test]
    fn sharding_never_changes_the_violation_multiset(
        subjects in 1usize..24,
        events in 50usize..600,
        shards in 1usize..6,
        tailgaters in 0u8..4,
        seed in 0u64..1_000,
    ) {
        let cfg = TraceConfig {
            subjects,
            events,
            grid: 4,
            tick_every: 32,
            tailgater_fraction: f64::from(tailgaters) / 8.0,
            overstayer_fraction: 0.2,
            seed,
        };
        let ((reference, reference_state), (sharded, sharded_state)) = run_both(&cfg, shards);
        prop_assert_eq!(reference, sharded);
        prop_assert!(reference_state == sharded_state, "the states diverge");
    }
}
