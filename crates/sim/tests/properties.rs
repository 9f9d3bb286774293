//! Property-based tests for the simulation substrate.

use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::baseline::Enforcement;
use ltam_engine::engine::AccessControlEngine;
use ltam_engine::violation::Violation;
use ltam_sim::{
    grid_building, random_graph, rng, run_population, scaling_instance, AuthWorkload, Behavior,
    Walker,
};
use ltam_time::Interval;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated worlds are always structurally valid and fully reachable
    /// from their entries.
    #[test]
    fn generated_worlds_are_connected(n in 1usize..40, d in 2usize..8, seed in any::<u64>()) {
        let mut r = rng(seed);
        let world = random_graph(n, d, &mut r);
        prop_assert!(world.model.validate().is_ok());
        let entry = world.graph.global_entries()[0];
        let mut seen = vec![entry];
        let mut stack = vec![entry];
        while let Some(l) = stack.pop() {
            for &nb in world.graph.neighbors(l) {
                if !seen.contains(&nb) {
                    seen.push(nb);
                    stack.push(nb);
                }
            }
        }
        prop_assert_eq!(seen.len(), world.graph.len());
    }

    /// Workload generation is deterministic in the seed and produces only
    /// Definition-4-valid windows (validated at construction).
    #[test]
    fn workloads_are_deterministic(seed in any::<u64>(), a in 1usize..4) {
        let (w1, auths1) = scaling_instance(20, 3, a, seed);
        let (w2, auths2) = scaling_instance(20, 3, a, seed);
        prop_assert_eq!(w1.graph, w2.graph);
        prop_assert_eq!(auths1, auths2);
    }

    /// Whatever the seed, compliant walkers with open authorizations never
    /// produce violations.
    #[test]
    fn compliant_populations_are_clean(seed in any::<u64>(), walkers in 1usize..5) {
        let world = grid_building(3, 3);
        let mut engine = AccessControlEngine::new(world.model.clone());
        let subjects: Vec<SubjectId> = (0..walkers as u32).map(SubjectId).collect();
        for (i, &s) in subjects.iter().enumerate() {
            engine.profiles_mut().add_user(format!("u{i}"), "sim");
            for l in world.graph.locations() {
                engine.add_authorization(
                    Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                        .unwrap(),
                );
            }
        }
        let mut pop: Vec<Walker> = subjects
            .iter()
            .map(|&s| Walker::new(s, Behavior::Compliant { max_stay: 3 }))
            .collect();
        let mut r = rng(seed);
        run_population(&mut pop, &world.graph, &mut engine, 120, &mut r);
        prop_assert!(
            engine.violations().is_empty(),
            "violations: {:?}",
            engine.violations()
        );
    }

    /// Tailgaters are flagged on every entry, whatever the seed; flagged
    /// entries equal physical entries exactly.
    #[test]
    fn tailgater_detection_is_exact(seed in any::<u64>()) {
        let world = grid_building(3, 3);
        let mallory = SubjectId(0);
        let mut engine = AccessControlEngine::new(world.model.clone());
        engine.profiles_mut().add_user("Mallory", "?");
        let mut pop = vec![Walker::new(mallory, Behavior::Tailgater)];
        let mut r = rng(seed);
        run_population(&mut pop, &world.graph, &mut engine, 80, &mut r);
        // One stay per entry.
        let entries = engine.movements().timeline(mallory).len();
        let flagged = engine
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::UnauthorizedEntry { .. }))
            .count();
        prop_assert_eq!(entries, flagged);
    }

    /// The workload honors its coverage and count parameters.
    #[test]
    fn workload_shape(seed in any::<u64>(), per in 1usize..5) {
        let world = grid_building(4, 4);
        let mut r = rng(seed);
        let wl = AuthWorkload {
            coverage: 1.0,
            auths_per_location: per,
            ..AuthWorkload::default()
        };
        let auths = wl.generate(&world, SubjectId(0), &mut r);
        prop_assert_eq!(auths.len(), world.graph.len());
        prop_assert!(auths.values().all(|v| v.len() == per));
    }

    /// The card-reader baseline and LTAM agree on pure request decisions
    /// (the §1 difference is movement visibility, not Definition 7).
    #[test]
    fn baseline_agrees_on_request_decisions(seed in any::<u64>()) {
        use ltam_engine::baseline::CardReaderEngine;
        use ltam_time::Time;
        let world = grid_building(3, 3);
        let s = SubjectId(0);
        let mut ltam = AccessControlEngine::new(world.model.clone());
        ltam.profiles_mut().add_user("S", "sim");
        let mut reader = CardReaderEngine::new(world.model.clone());
        let mut r = rng(seed);
        use rand::Rng;
        let locs: Vec<_> = world.graph.locations().collect();
        for &l in &locs {
            if r.gen_bool(0.6) {
                let a = Authorization::new(
                    Interval::lit(0, 50),
                    Interval::lit(0, 80),
                    s,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap();
                ltam.add_authorization(a);
                reader.add_authorization(a);
            }
        }
        for t in 0..60u64 {
            let l = locs[(t as usize) % locs.len()];
            let a = Enforcement::request_enter(&mut ltam, Time(t), s, l);
            let b = Enforcement::request_enter(&mut reader, Time(t), s, l);
            prop_assert_eq!(a.is_granted(), b.is_granted(), "divergence at t={}", t);
        }
    }
}
