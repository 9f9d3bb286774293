//! Property-based tests for the enforcement engine and the query language.

use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam_engine::engine::AccessControlEngine;
use ltam_engine::query::{parse, Query};
use ltam_engine::report::security_report;
use ltam_engine::violation::Violation;
use ltam_graph::LocationModel;
use ltam_time::{Bound, Interval, Time};
use proptest::prelude::*;

/// A line-of-rooms world with one subject holding limited authorizations.
fn line_world(rooms: usize) -> (AccessControlEngine, Vec<ltam_graph::LocationId>) {
    let mut model = LocationModel::new("W");
    let ids: Vec<_> = (0..rooms)
        .map(|i| model.add_primitive(model.root(), format!("r{i}")).unwrap())
        .collect();
    for w in ids.windows(2) {
        model.add_edge(w[0], w[1]).unwrap();
    }
    model.set_entry(ids[0]).unwrap();
    let engine = AccessControlEngine::new(model);
    (engine, ids)
}

/// Random engine operations.
#[derive(Debug, Clone)]
enum Op {
    Request(u8, u64),
    Enter(u8, u64),
    Exit(u8, u64),
    Tick(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u64..100).prop_map(|(l, t)| Op::Request(l, t)),
        (0u8..4, 0u64..100).prop_map(|(l, t)| Op::Enter(l, t)),
        (0u8..4, 0u64..100).prop_map(|(l, t)| Op::Exit(l, t)),
        (0u64..100).prop_map(Op::Tick),
    ]
}

/// Subjects the sharded-engine property spreads over the shards.
const GROUP_SUBJECTS: u32 = 6;

/// A sharded engine over four rooms: every subject may enter every room
/// twice, up to time 50 (so later requests are denied), and must leave
/// by time 60 (so later ticks raise overstays).
fn sharded_world(
    shards: usize,
) -> (
    ShardedEngine,
    std::sync::mpsc::Receiver<ltam_engine::violation::Alert>,
    Vec<ltam_graph::LocationId>,
) {
    let mut model = LocationModel::new("W");
    let ids: Vec<_> = (0..4)
        .map(|i| model.add_primitive(model.root(), format!("r{i}")).unwrap())
        .collect();
    let mut core = PolicyCore::new(model);
    for s in 0..GROUP_SUBJECTS {
        for &l in &ids {
            core.add_authorization(
                Authorization::new(
                    Interval::lit(0, 50),
                    Interval::lit(0, 60),
                    SubjectId(s),
                    l,
                    EntryLimit::Finite(2),
                )
                .unwrap(),
            );
        }
    }
    let (engine, alerts) = ShardedEngine::new(core, shards);
    (engine, alerts, ids)
}

/// One random sharded-engine event: `(kind, subject, room, time)`.
fn arb_event() -> impl Strategy<Value = (u8, u32, u8, u64)> {
    (0u8..7, 0..GROUP_SUBJECTS, 0u8..4, 0u64..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A commit group is applied through one shard dispatch
    /// (`ingest_group`); nothing observable may tell it from ingesting
    /// its batches one after another: every `BatchOutcome` field, the
    /// alert stream with its sequence numbers, and the shard state.
    #[test]
    fn ingest_group_equals_sequential_ingest(
        group in prop::collection::vec(prop::collection::vec(arb_event(), 0..=40usize), 0..=12usize),
        shards in 1usize..=4,
    ) {
        let (grouped, grouped_alerts, ids) = sharded_world(shards);
        let (sequential, sequential_alerts, _) = sharded_world(shards);
        let batches: Vec<Vec<Event>> = group
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&(kind, subject, room, t)| {
                        let (time, subject, location) =
                            (Time(t), SubjectId(subject), ids[room as usize]);
                        match kind {
                            0 | 1 => Event::Request { time, subject, location },
                            2 | 3 => Event::Enter { time, subject, location },
                            4 | 5 => Event::Exit { time, subject, location },
                            _ => Event::Tick { now: time },
                        }
                    })
                    .collect()
            })
            .collect();
        let slices: Vec<&[Event]> = batches.iter().map(Vec::as_slice).collect();
        let together = grouped.ingest_group(&slices);
        let one_by_one: Vec<_> = slices.iter().map(|b| sequential.ingest(b)).collect();
        prop_assert_eq!(together, one_by_one);
        // `(violation, seq)` pairs, in the order the security desk sees them.
        prop_assert_eq!(
            grouped_alerts.try_iter().collect::<Vec<_>>(),
            sequential_alerts.try_iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(grouped.export_images(), sequential.export_images());
    }

    /// However requests, entries, exits and ticks interleave (including
    /// physically impossible ones), the ledger never exceeds the limit,
    /// the engine never panics, and the audit log matches request count.
    #[test]
    fn engine_invariants_under_random_ops(
        ops in prop::collection::vec(arb_op(), 1..60),
        limit in 1u32..4,
    ) {
        let (mut engine, ids) = line_world(4);
        let s = engine.profiles_mut().add_user("S", "sim");
        let mut auth_ids = Vec::new();
        for &l in &ids {
            auth_ids.push(engine.add_authorization(
                Authorization::new(
                    Interval::lit(0, 1000),
                    Interval::lit(0, 2000),
                    s,
                    l,
                    EntryLimit::Finite(limit),
                )
                .unwrap(),
            ));
        }
        let mut requests = 0usize;
        // Times must be monotone per subject for the movements DB; feed the
        // raw times and let the engine flag regressions as violations.
        for op in &ops {
            match *op {
                Op::Request(l, t) => {
                    engine.request_enter(Time(t), s, ids[l as usize % ids.len()]);
                    requests += 1;
                }
                Op::Enter(l, t) => {
                    engine.observe_enter(Time(t), s, ids[l as usize % ids.len()]);
                }
                Op::Exit(l, t) => {
                    engine.observe_exit(Time(t), s, ids[l as usize % ids.len()]);
                }
                Op::Tick(t) => {
                    engine.tick(Time(t));
                }
            }
        }
        prop_assert_eq!(engine.audit().len(), requests);
        for id in auth_ids {
            prop_assert!(
                engine.ledger().used(id) <= limit,
                "ledger exceeded limit for {}", id
            );
        }
        // The report is internally consistent.
        let report = security_report(&engine);
        prop_assert_eq!(report.total_requests, requests);
        prop_assert_eq!(report.grants + report.denials, requests);
        let by_kind_total: usize = report.violations_by_kind.values().sum();
        prop_assert_eq!(by_kind_total, engine.violations().len());
    }

    /// Movement-log derived state stays consistent: at most one open stay
    /// per subject, occupancy matches open stays.
    #[test]
    fn movement_state_consistency(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let (mut engine, ids) = line_world(4);
        let s = engine.profiles_mut().add_user("S", "sim");
        for &l in &ids {
            engine.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
        let mut t_mono = 0u64;
        for op in &ops {
            t_mono += 1;
            match *op {
                Op::Request(l, _) => {
                    engine.request_enter(Time(t_mono), s, ids[l as usize % ids.len()]);
                }
                Op::Enter(l, _) => {
                    engine.observe_enter(Time(t_mono), s, ids[l as usize % ids.len()]);
                }
                Op::Exit(l, _) => {
                    engine.observe_exit(Time(t_mono), s, ids[l as usize % ids.len()]);
                }
                Op::Tick(_) => {
                    engine.tick(Time(t_mono));
                }
            }
        }
        let open: Vec<_> = engine.movements().inside_now();
        prop_assert!(open.len() <= 1);
        match engine.movements().current_location(s) {
            Some(l) => {
                prop_assert_eq!(open.len(), 1);
                prop_assert!(engine.movements().occupants(l).contains(&s));
            }
            None => prop_assert!(open.is_empty()),
        }
        // Timeline stays are well-formed: exit >= enter, non-overlapping.
        let mut prev_end: Option<Time> = None;
        for stay in engine.movements().timeline(s) {
            if let Some(e) = stay.exit {
                prop_assert!(e >= stay.enter);
            }
            if let Some(p) = prev_end {
                prop_assert!(stay.enter >= p);
            }
            prev_end = stay.exit;
        }
    }

    /// The query printer and parser are inverse: `parse(q.to_string()) == q`.
    #[test]
    fn query_print_parse_round_trip(
        subject in "[A-Za-z][A-Za-z0-9_]{0,8}",
        location in "[A-Za-z][A-Za-z0-9_.]{0,8}",
        t in 0u64..1000,
        a in 0u64..100,
        len in 0u64..100,
        unbounded in any::<bool>(),
        pick in 0u8..8,
    ) {
        let window = if unbounded {
            Interval::new(Time(a), Bound::Unbounded).unwrap()
        } else {
            Interval::lit(a, a + len)
        };
        let q = match pick {
            0 => Query::Accessible { subject: subject.clone() },
            1 => Query::Inaccessible { subject: subject.clone() },
            2 => Query::CanEnter { subject: subject.clone(), location: location.clone(), at: Time(t) },
            3 => Query::WhereIs { subject: subject.clone(), at: Time(t) },
            4 => Query::WhoIn { location: location.clone(), window },
            5 => Query::Contacts { subject: subject.clone(), window },
            6 => Query::Violations {
                subject: if unbounded { Some(subject.clone()) } else { None },
                window: Some(window),
            },
            _ => Query::Earliest { subject: subject.clone(), location: location.clone(), from: Time(t) },
        };
        let printed = q.to_string();
        let back = parse(&printed);
        prop_assert_eq!(back.as_ref(), Ok(&q), "printed form: {}", printed);
    }

    /// The planner and Algorithm 1 agree through the engine facade on
    /// random authorization windows over a line of rooms.
    #[test]
    fn planner_matches_algorithm1_through_engine(
        windows in prop::collection::vec((0u64..50, 0u64..30, 0u64..20), 4),
    ) {
        let (mut engine, ids) = line_world(4);
        let s = engine.profiles_mut().add_user("S", "sim");
        for (&l, &(start, elen, slack)) in ids.iter().zip(&windows) {
            engine.add_authorization(
                Authorization::new(
                    Interval::lit(start, start + elen),
                    Interval::lit(start, start + elen + slack),
                    s,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let report = engine.inaccessible_for(s);
        for &l in &ids {
            let via_planner = engine.earliest_visit_for(s, l, Time(0)).is_some();
            prop_assert_eq!(
                via_planner,
                !report.is_inaccessible(l),
                "planner/Algorithm 1 disagreement at {}", l
            );
        }
    }

    /// Tailgating detection is complete through the engine: every entry
    /// without a grant raises exactly one violation.
    #[test]
    fn every_ungranted_entry_is_flagged(
        entries in prop::collection::vec((0u8..4, any::<bool>()), 1..20),
    ) {
        let (mut engine, ids) = line_world(4);
        let s = engine.profiles_mut().add_user("S", "sim");
        for &l in &ids {
            engine.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
        let mut t = 0u64;
        let mut expected_flags = 0usize;
        let mut inside: Option<ltam_graph::LocationId> = None;
        for (l, request_first) in entries {
            t += 1;
            let target = ids[l as usize % ids.len()];
            // Leave first to keep the stream physically consistent.
            if let Some(cur) = inside.take() {
                engine.observe_exit(Time(t), s, cur);
                t += 1;
            }
            if request_first {
                engine.request_enter(Time(t), s, target);
            } else {
                expected_flags += 1;
            }
            engine.observe_enter(Time(t), s, target);
            inside = Some(target);
        }
        let flagged = engine
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::UnauthorizedEntry { .. }))
            .count();
        prop_assert_eq!(flagged, expected_flags);
    }
}
