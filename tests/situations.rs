//! The situation-enforcement battery: emergency overrides are audited
//! and die on the event clock, lockdown voids unpinned grants at the
//! door, workflow constraints bind in every mode, declarations are
//! durable across a crash, mode swaps are atomic with respect to
//! in-flight batches, and followers refuse situation frames.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::Duration;

use ltam::core::decision::{Decision, DenyReason};
use ltam::core::model::{Authorization, EntryLimit};
use ltam::core::subject::SubjectId;
use ltam::engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam::graph::examples::ntu_campus;
use ltam::serve::{
    bootstrap_follower, ClientError, ErrorCode, LtamClient, ReplicaConfig, Server, ServerConfig,
};
use ltam::situate::{IncidentId, SituationMode, SituationOp, WorkflowConstraint};
use ltam::store::{DurableEngine, ScratchDir, StoreConfig};
use ltam::time::{Interval, Time};

const MEDIC: SubjectId = SubjectId(1);
const ALICE: SubjectId = SubjectId(2);
const GUARD: SubjectId = SubjectId(3);

fn emergency(incident: u64, until: u64) -> SituationOp {
    SituationOp::Declare(SituationMode::Emergency {
        incident: IncidentId(incident),
        until: Time(until),
    })
}

fn all_access(subject: SubjectId, location: ltam::graph::LocationId) -> Authorization {
    Authorization::new(
        Interval::ALL,
        Interval::ALL,
        subject,
        location,
        EntryLimit::Unbounded,
    )
    .unwrap()
}

/// A responder with no authorization of their own is overridden into
/// the lab while the emergency is live; the override is flagged with
/// the incident in the audit trail, and both the decision and the
/// issued grant die when the declaration auto-expires on event time.
#[test]
fn emergency_overrides_are_audited_and_expire_on_event_time() {
    let ntu = ntu_campus();
    let lab = ntu.cais;
    let core = PolicyCore::new(ntu.model);
    let (engine, _alerts) = ShardedEngine::new(core, 2);
    engine.update_policy(|p| {
        p.apply_situation(&SituationOp::AddResponder(MEDIC));
        p.apply_situation(&emergency(9, 100));
    });

    // Live emergency: the responder's denial is rewritten into an
    // override grant carrying the incident; a bystander stays denied.
    let d = engine.request_enter(Time(50), MEDIC, lab);
    assert_eq!(d, Decision::GrantedOverride { incident: 9 });
    let outcome = engine.ingest(&[Event::Enter {
        time: Time(50),
        subject: MEDIC,
        location: lab,
    }]);
    assert!(
        outcome.violations.is_empty(),
        "the override grant admits the responder at the door: {:?}",
        outcome.violations
    );
    assert!(!engine.request_enter(Time(50), ALICE, lab).is_granted());

    // The audit trail carries the rewritten decision, not the base one.
    let shard = engine.shard_for(MEDIC);
    let audited = engine.read_shard(shard, |s| {
        s.audit()
            .iter()
            .filter(|r| r.request.subject == MEDIC)
            .map(|r| r.decision)
            .collect::<Vec<_>>()
    });
    assert!(
        audited.contains(&Decision::GrantedOverride { incident: 9 }),
        "override missing from the audit trail: {audited:?}"
    );

    // Past `until` the declaration has lapsed on its own: fresh
    // requests are denied again without anyone editing the policy.
    assert!(!engine.request_enter(Time(101), MEDIC, lab).is_granted());

    // An override grant issued just before expiry is void at the door
    // just after it — overrides die with their emergency.
    assert_eq!(
        engine.request_enter(Time(99), MEDIC, lab),
        Decision::GrantedOverride { incident: 9 }
    );
    let outcome = engine.ingest(&[
        Event::Exit {
            time: Time(60),
            subject: MEDIC,
            location: lab,
        },
        Event::Enter {
            time: Time(102),
            subject: MEDIC,
            location: lab,
        },
    ]);
    assert_eq!(
        outcome.violations.len(),
        1,
        "an expired override must not admit entry: {:?}",
        outcome.violations
    );
}

/// Lockdown default-denies: grants issued *before* the declaration are
/// void at the door unless their authorization is pinned, and fresh
/// requests are refused with the lockdown reason.
#[test]
fn lockdown_voids_unpinned_grants_at_the_door_and_pins_survive() {
    let ntu = ntu_campus();
    let lab = ntu.cais;
    let office = ntu.sce_go;
    let mut core = PolicyCore::new(ntu.model);
    core.add_authorization(all_access(ALICE, lab));
    let guard_auth = core.add_authorization(all_access(GUARD, office));
    let (engine, _alerts) = ShardedEngine::new(core, 2);

    // Both swipes succeed under normal mode.
    assert!(engine.request_enter(Time(10), ALICE, lab).is_granted());
    assert!(engine.request_enter(Time(10), GUARD, office).is_granted());

    engine.update_policy(|p| {
        p.apply_situation(&SituationOp::Declare(SituationMode::Lockdown));
        p.apply_situation(&SituationOp::Pin(guard_auth));
    });

    // The pre-lockdown grants: Alice's is void, the pinned one holds.
    let outcome = engine.ingest(&[
        Event::Enter {
            time: Time(11),
            subject: ALICE,
            location: lab,
        },
        Event::Enter {
            time: Time(11),
            subject: GUARD,
            location: office,
        },
    ]);
    assert_eq!(
        outcome.violations.len(),
        1,
        "exactly the unpinned grant is void: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.violations[0].subject(), ALICE);

    // Fresh requests under lockdown: refused with the lockdown reason
    // unless pinned.
    assert_eq!(
        engine.request_enter(Time(12), ALICE, lab),
        Decision::Denied {
            reason: DenyReason::Lockdown
        }
    );
    assert!(engine.request_enter(Time(12), GUARD, office).is_granted());

    // Clearing the lockdown restores the base decision.
    engine.update_policy(|p| {
        p.apply_situation(&SituationOp::Declare(SituationMode::Normal));
    });
    assert!(engine.request_enter(Time(13), ALICE, lab).is_granted());
}

/// Workflow constraints bind in every mode: a registered responder
/// under a live emergency still cannot break separation-of-duty, while
/// an untainted responder is overridden through.
#[test]
fn constraints_bind_even_for_responders_under_a_live_emergency() {
    let ntu = ntu_campus();
    let office = ntu.sce_go;
    let lab = ntu.cais;
    let medic2 = SubjectId(5);
    let mut core = PolicyCore::new(ntu.model);
    core.add_authorization(all_access(MEDIC, office));
    let (engine, _alerts) = ShardedEngine::new(core, 2);
    engine.update_policy(|p| {
        p.apply_situation(&SituationOp::AddResponder(MEDIC));
        p.apply_situation(&SituationOp::AddResponder(medic2));
        p.apply_situation(&emergency(1, 1_000));
        p.apply_situation(&SituationOp::AddConstraint(
            WorkflowConstraint::SeparationOfDuty {
                first: office,
                second: lab,
                window: 100,
            },
        ));
    });

    // MEDIC performs the tainting first step.
    let outcome = engine.ingest(&[
        Event::Request {
            time: Time(5),
            subject: MEDIC,
            location: office,
        },
        Event::Enter {
            time: Time(5),
            subject: MEDIC,
            location: office,
        },
        Event::Exit {
            time: Time(6),
            subject: MEDIC,
            location: office,
        },
    ]);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);

    // Inside the window the emergency cannot override the constraint…
    assert_eq!(
        engine.request_enter(Time(50), MEDIC, lab),
        Decision::Denied {
            reason: DenyReason::WorkflowConstraint
        }
    );
    // …while the untainted responder is overridden through…
    assert_eq!(
        engine.request_enter(Time(50), medic2, lab),
        Decision::GrantedOverride { incident: 1 }
    );
    // …and past the window MEDIC's own denial is overridden again
    // (window 100, taint at t=5: t=106 looks back to 6).
    assert_eq!(
        engine.request_enter(Time(106), MEDIC, lab),
        Decision::GrantedOverride { incident: 1 }
    );
}

fn situations_store() -> StoreConfig {
    StoreConfig {
        segment_bytes: 64 * 1024,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    }
}

/// Declarations are durable: a crash (drop without shutdown is
/// crash-equivalent) loses neither the declared mode, the responder
/// set, nor the constraint table, and WAL-tail events replay under the
/// same declaration they were judged under live. Losing every
/// post-declaration snapshot recovers the same state from the WAL;
/// losing the WAL records of an acked declaration is refused, never
/// silently reverted.
#[test]
fn declarations_survive_a_crash_and_acked_edits_never_revert() {
    let ntu = ntu_campus();
    let lab = ntu.cais;
    let dir = ScratchDir::new("situations-crash");
    let core = PolicyCore::new(ntu.model);
    let (mut durable, _alerts) =
        DurableEngine::create(dir.path(), core, 2, situations_store()).unwrap();

    // Judged under Normal: denied.
    let outcome = durable
        .ingest(&[Event::Request {
            time: Time(10),
            subject: MEDIC,
            location: lab,
        }])
        .unwrap();
    assert_eq!(outcome.denied, 1);

    durable
        .apply_situation(&SituationOp::AddResponder(MEDIC))
        .unwrap();
    durable.apply_situation(&emergency(3, 500)).unwrap();
    durable
        .apply_situation(&SituationOp::AddConstraint(
            WorkflowConstraint::SeparationOfDuty {
                first: ntu.sce_go,
                second: ntu.sce_a,
                window: 10,
            },
        ))
        .unwrap();
    let epoch = durable.policy_epoch();

    // Judged under the emergency: overridden. This batch lands in the
    // WAL *after* the declaration's record, so recovery replays it
    // under the recovered declaration.
    let outcome = durable
        .ingest(&[Event::Request {
            time: Time(20),
            subject: MEDIC,
            location: lab,
        }])
        .unwrap();
    assert_eq!(outcome.granted, 1);
    drop(durable); // crash

    // What every recovery below must reach: the declared state, and the
    // audit trail of an uninterrupted run — one denial (pre-declare)
    // and one override (post-declare) for the responder.
    let assert_recovered = |durable: &DurableEngine| {
        let policy = durable.engine().policy();
        assert_eq!(
            policy.situation().mode(),
            SituationMode::Emergency {
                incident: IncidentId(3),
                until: Time(500)
            }
        );
        assert!(policy.situation().is_responder(MEDIC));
        assert_eq!(policy.situation().constraints().count(), 1);
        assert_eq!(durable.policy_epoch(), epoch);
        let shard = durable.engine().shard_for(MEDIC);
        let decisions = durable.engine().read_shard(shard, |s| {
            s.audit().iter().map(|r| r.decision).collect::<Vec<_>>()
        });
        assert_eq!(
            decisions,
            vec![
                Decision::Denied {
                    reason: DenyReason::NoAuthorization
                },
                Decision::GrantedOverride { incident: 3 },
            ]
        );
    };

    let (mut durable, _alerts, report) =
        DurableEngine::open_with_shards(dir.path(), situations_store(), 2).unwrap();
    assert_eq!(report.replayed_policy_ops, 3, "no snapshot follows an op");
    assert!(report.replayed >= 1, "the post-declaration batch replays");
    assert_recovered(&durable);
    durable.snapshot().unwrap(); // a post-declaration image now exists
    drop(durable);

    // Destroy every snapshot taken after the situation edits, leaving
    // only the pre-declaration image: the ops are still in the WAL, so
    // the fallback recovers the acknowledged emergency instead of
    // clearing it.
    let mut snaps: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "retained snapshots: {snaps:?}");
    for newer in &snaps[1..] {
        std::fs::remove_file(newer).unwrap();
    }
    let (durable, _alerts, report) =
        DurableEngine::open_with_shards(dir.path(), situations_store(), 2).unwrap();
    assert_eq!((report.snapshot_seq, report.replayed_policy_ops), (0, 3));
    assert_recovered(&durable);
    drop(durable);

    // Lose the log as well: nothing left on disk carries the acked
    // declarations, and coming up without them would silently clear an
    // emergency — the store must refuse instead.
    for segment in ltam::store::Wal::segment_files(dir.path()).unwrap() {
        std::fs::remove_file(segment).unwrap();
    }
    let err = match DurableEngine::open_with_shards(dir.path(), situations_store(), 2) {
        Ok(_) => panic!("recovering over an acked declaration must refuse"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("policy revert"), "{err}");
}

/// Mode swaps are atomic with respect to in-flight batches: while one
/// thread flips Normal <-> Emergency as fast as it can, every batch of
/// identical responder requests lands entirely under one declaration —
/// all overridden or all denied, never a torn mix.
#[test]
fn mode_swaps_are_atomic_with_respect_to_in_flight_batches() {
    let ntu = ntu_campus();
    let lab = ntu.cais;
    let responders: Vec<SubjectId> = (1..=8).map(SubjectId).collect();
    let mut core = PolicyCore::new(ntu.model);
    for &r in &responders {
        core.apply_situation(&SituationOp::AddResponder(r));
    }
    let (engine, _alerts) = ShardedEngine::new(core, 4);

    // Two requests per responder, spread across all four shards, all
    // judged in one ingest call.
    let batch: Vec<Event> = responders
        .iter()
        .flat_map(|&r| {
            std::iter::repeat_n(
                Event::Request {
                    time: Time(50),
                    subject: r,
                    location: lab,
                },
                2,
            )
        })
        .collect();

    let done = AtomicBool::new(false);
    // Which uniform outcomes the ingester has seen (1 = granted,
    // 2 = denied): the flipper keeps going until both have happened, so
    // the race materializes however the scheduler interleaves the two.
    let seen = AtomicU8::new(0);
    let (mixed, granted_batches, denied_batches) = std::thread::scope(|scope| {
        let flipper = scope.spawn(|| {
            for i in 0..200_000 {
                if i >= 400 && seen.load(Ordering::Acquire) == 3 {
                    break;
                }
                engine.update_policy(|p| {
                    p.apply_situation(&if i % 2 == 0 {
                        emergency(1, 1_000_000)
                    } else {
                        SituationOp::Declare(SituationMode::Normal)
                    });
                });
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        let mut mixed = 0u64;
        let mut granted_batches = 0u64;
        let mut denied_batches = 0u64;
        while !done.load(Ordering::Acquire) {
            let outcome = engine.ingest(&batch);
            match outcome.granted {
                0 => {
                    denied_batches += 1;
                    seen.fetch_or(2, Ordering::Release);
                }
                g if g == batch.len() => {
                    granted_batches += 1;
                    seen.fetch_or(1, Ordering::Release);
                }
                _ => mixed += 1,
            }
        }
        flipper.join().unwrap();
        (mixed, granted_batches, denied_batches)
    });

    assert_eq!(
        mixed, 0,
        "a batch saw two declarations ({granted_batches} uniform grants, \
         {denied_batches} uniform denials)"
    );
    assert!(
        granted_batches > 0 && denied_batches > 0,
        "the race never materialized ({granted_batches} granted, {denied_batches} denied \
         batches) — the flipper must interleave with ingest"
    );
}

/// Situation ops are primary-only on the wire: a follower refuses the
/// frame with `NotPrimary`, naming the primary, instead of forking its
/// replicated declaration state.
#[test]
fn a_follower_refuses_situation_frames() {
    const ROOT: &str = "situations-root";
    let ntu = ntu_campus();
    let p_dir = ScratchDir::new("situations-notprimary-p");
    let f_dir = ScratchDir::new("situations-notprimary-f");
    let config = ServerConfig {
        root_token: Some(ROOT.to_string()),
        ..ServerConfig::default()
    };
    let (engine, _alerts) = DurableEngine::create(
        p_dir.path(),
        PolicyCore::new(ntu.model),
        2,
        situations_store(),
    )
    .unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", config.clone()).unwrap();
    let p_addr = primary.local_addr().to_string();

    let f_engine = bootstrap_follower(f_dir.path(), &p_addr, situations_store()).unwrap();
    let follower =
        Server::start_follower(f_engine, "127.0.0.1:0", config, ReplicaConfig::new(&p_addr))
            .unwrap();

    // Even a fully privileged admin is refused on a follower: the
    // refusal is about *role*, not capability.
    let mut client = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
    client.hello(ROOT).unwrap();
    match client.situation(SituationOp::Declare(SituationMode::Lockdown)) {
        Err(ClientError::Server { code, message, .. }) => {
            assert_eq!(code, ErrorCode::NotPrimary);
            assert!(
                message.contains(&p_addr),
                "the refusal names the primary: {message}"
            );
        }
        other => panic!("follower accepted a situation frame: {other:?}"),
    }

    // The primary takes the same op, and the follower replicates it
    // rather than originating it.
    let mut root = LtamClient::connect(&p_addr).unwrap();
    root.hello(ROOT).unwrap();
    root.situation(SituationOp::Declare(SituationMode::Lockdown))
        .unwrap();
    let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
    probe
        .wait_for_watermark(1, Duration::from_secs(20))
        .expect("the situation record reaches the follower in-stream");

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}
