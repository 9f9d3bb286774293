//! Cross-crate integration: simulation driving enforcement, the RFID
//! pipeline, differential comparisons against the card-reader baseline,
//! persistence, and the query language over live state.

use ltam::core::model::{Authorization, EntryLimit};
use ltam::core::subject::SubjectId;
use ltam::core::AuthorizationDb;
use ltam::engine::baseline::{CardReaderEngine, Enforcement};
use ltam::engine::engine::AccessControlEngine;
use ltam::engine::query::QueryResult;
use ltam::engine::violation::Violation;
use ltam::sim::rfid::{grid_floor_plan, noisy_walk, TrackingPipeline};
use ltam::sim::{
    grid_building, rng, run_population, sars_contact_tracing, tailgating_differential, Behavior,
    Walker,
};
use ltam::time::{Interval, Time};

/// The §1 differential at several group sizes: LTAM catches every
/// tailgater entry, the card-reader baseline none.
#[test]
fn tailgating_differential_shapes() {
    let mut last = 0;
    for k in [1usize, 3, 6] {
        let out = tailgating_differential(k, 60, 5);
        assert!(out.ltam_detected > 0);
        assert_eq!(out.baseline_detected, 0);
        assert!(
            out.ltam_detected >= last,
            "detections should grow with group size"
        );
        last = out.ltam_detected;
    }
}

/// RFID pipeline + engine: a tailgater tracked by positioning hardware is
/// flagged on every room change, with zero false positives for the
/// authorized subject.
#[test]
fn rfid_pipeline_flags_tailgater() {
    let world = grid_building(3, 3);
    let plan = grid_floor_plan(&world, 3, 3, 10.0);
    let mut engine = AccessControlEngine::new(world.model.clone());
    let staff = engine.profiles_mut().add_user("Staff", "staff");
    let intruder = engine.profiles_mut().add_user("Intruder", "?");
    for l in world.graph.locations() {
        engine.add_authorization(
            Authorization::new(
                Interval::ALL,
                Interval::ALL,
                staff,
                l,
                EntryLimit::Unbounded,
            )
            .unwrap(),
        );
    }
    // Staff member requests properly at each room; the intruder just walks.
    let path = [(0usize, 0usize), (1, 0), (2, 0)];
    let mut pipe = TrackingPipeline::new(&plan, 8);
    let mut r = rng(11);
    // Pre-grant staff entries (the pipeline emits enters; requests go first).
    for (i, &(x, y)) in path.iter().enumerate() {
        let l = world.model.id(&format!("R{x}_{y}")).unwrap();
        let t = Time((i * 4) as u64);
        assert!(engine.request_enter(t, staff, l).is_granted());
        for reading in noisy_walk(staff, &[(x, y)], 10.0, 4, 0.0, t, &mut r) {
            pipe.feed(reading, &mut engine);
        }
    }
    for reading in noisy_walk(intruder, &path, 10.0, 4, 0.0, Time(1), &mut r) {
        pipe.feed(reading, &mut engine);
    }
    let unauthorized: Vec<&Violation> = engine
        .violations()
        .iter()
        .filter(|v| matches!(v, Violation::UnauthorizedEntry { .. }))
        .collect();
    assert_eq!(unauthorized.len(), 3, "{:?}", engine.violations());
    assert!(unauthorized.iter().all(|v| v.subject() == intruder));
}

/// Authorization databases survive a JSON round trip with decisions intact.
#[test]
fn authorization_db_persistence() {
    let world = grid_building(4, 4);
    let mut db = AuthorizationDb::new();
    for (i, l) in world.graph.locations().enumerate() {
        db.insert(
            Authorization::new(
                Interval::lit(i as u64, i as u64 + 10),
                Interval::lit(i as u64, i as u64 + 20),
                SubjectId((i % 3) as u32),
                l,
                EntryLimit::Finite(2),
            )
            .unwrap(),
        );
    }
    let bytes = ltam::store::binval::encode(&db.export());
    let rows: Vec<(Authorization, ltam::core::Provenance)> =
        ltam::store::binval::decode(&bytes).unwrap();
    let back = AuthorizationDb::import(rows);
    assert_eq!(back.len(), db.len());
    for t in [0u64, 5, 12, 25] {
        assert_eq!(
            back.enterable_at(Time(t)).len(),
            db.enterable_at(Time(t)).len(),
            "stabbing diverged at t={t}"
        );
    }
}

/// A mixed population runs against both engines fed identical streams; the
/// baseline's movement history matches LTAM's (same physics), while only LTAM
/// reports violations.
#[test]
fn identical_streams_differential_visibility() {
    let world = grid_building(4, 4);
    let compliant: Vec<SubjectId> = (0..3u32).map(SubjectId).collect();
    let rogue = SubjectId(3);

    let mut ltam = AccessControlEngine::new(world.model.clone());
    let mut reader = CardReaderEngine::new(world.model.clone());
    for (i, &s) in compliant.iter().enumerate() {
        ltam.profiles_mut().add_user(format!("u{i}"), "staff");
        for l in world.graph.locations() {
            let a = Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                .unwrap();
            ltam.add_authorization(a);
            reader.add_authorization(a);
        }
    }
    ltam.profiles_mut().add_user("rogue", "?");

    let drive = |engine: &mut dyn Enforcement| {
        let mut walkers: Vec<Walker> = compliant
            .iter()
            .map(|&s| Walker::new(s, Behavior::Compliant { max_stay: 3 }))
            .collect();
        walkers.push(Walker::new(rogue, Behavior::Tailgater));
        let mut r = rng(21);
        run_population(&mut walkers, &world.graph, engine, 80, &mut r);
    };
    drive(&mut ltam);
    drive(&mut reader);

    assert!(!ltam.violations().is_empty());
    assert!(reader.detected_violations().is_empty());
    assert!(
        ltam.violations().iter().all(|v| v.subject() == rogue),
        "only the rogue violates"
    );
}

/// Contact tracing results are consistent between the scenario API and the
/// query language.
#[test]
fn contact_tracing_query_agrees_with_scenario() {
    let out = sars_contact_tracing(5, 100, 31);
    assert!(!out.quarantine.is_empty());

    // Rebuild the same world through the engine and compare the query
    // answer with the movements-db API.
    let world = grid_building(4, 4);
    let mut engine = AccessControlEngine::new(world.model.clone());
    let a = engine.profiles_mut().add_user("A", "staff");
    let b = engine.profiles_mut().add_user("B", "staff");
    for l in world.graph.locations() {
        for s in [a, b] {
            engine.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
    }
    let entry = world.graph.global_entries()[0];
    engine.request_enter(Time(1), a, entry);
    engine.observe_enter(Time(1), a, entry);
    engine.request_enter(Time(3), b, entry);
    engine.observe_enter(Time(3), b, entry);
    engine.observe_exit(Time(5), a, entry);

    let api = engine.movements().contacts(a, Interval::lit(0, 10));
    let QueryResult::Contacts(rows) = engine.query("CONTACTS OF A DURING [0, 10]").unwrap() else {
        panic!("wrong result kind");
    };
    assert_eq!(rows.len(), api.len());
    assert_eq!(rows[0].0, "B");
    assert_eq!(rows[0].2, Interval::lit(3, 5));
}

/// Rule revocation mid-flight: a pending grant dies with its authorization
/// even when revocation happens through rule re-derivation.
#[test]
fn rule_rederivation_kills_pending_grant() {
    use ltam::core::rules::{OpTuple, Rule, SubjectOp};
    let world = grid_building(2, 2);
    let entry = world.graph.global_entries()[0];
    let mut engine = AccessControlEngine::new(world.model.clone());
    let alice = engine.profiles_mut().add_user("Alice", "staff");
    let bob = engine.profiles_mut().add_user("Bob", "boss");
    engine.profiles_mut().set_supervisor(alice, bob);
    let base = engine.add_authorization(
        Authorization::new(
            Interval::ALL,
            Interval::ALL,
            alice,
            entry,
            EntryLimit::Unbounded,
        )
        .unwrap(),
    );
    engine.add_rule(Rule {
        valid_from: Time(0),
        base,
        ops: OpTuple {
            subject_op: SubjectOp::SupervisorOf,
            ..OpTuple::default()
        },
    });
    engine.apply_rules();
    // Bob gets granted via the derived authorization...
    assert!(engine.request_enter(Time(5), bob, entry).is_granted());
    // ... but Alice's supervisor changes before Bob walks through.
    engine.profiles_mut().set_supervisor(alice, alice);
    engine.apply_rules();
    let v = engine.observe_enter(Time(6), bob, entry);
    assert!(matches!(v, Some(Violation::UnauthorizedEntry { .. })));
}
