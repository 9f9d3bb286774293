//! Movement simulation against an enforcement engine.
//!
//! Walkers move along effective-graph edges one step per tick, producing
//! the access requests and enter/exit events the enforcement engine
//! consumes. Behaviours model the populations the paper cares about:
//!
//! * [`Behavior::Compliant`] — requests access, enters only when granted,
//!   leaves promptly;
//! * [`Behavior::Tailgater`] — never requests, walks wherever the graph
//!   allows (§1's group-following threat);
//! * [`Behavior::Overstayer`] — requests and enters properly but ignores
//!   exit windows, triggering overstay alerts.

use ltam_core::subject::SubjectId;
use ltam_engine::baseline::Enforcement;
use ltam_graph::{EffectiveGraph, LocationId};
use ltam_time::Time;
use rand::rngs::StdRng;
use rand::Rng;

/// How a simulated person behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Requests before entering; leaves after at most `max_stay` ticks.
    Compliant {
        /// Longest voluntary stay.
        max_stay: u64,
    },
    /// Enters without requesting (following someone through the door).
    Tailgater,
    /// Requests and enters, then stays forever.
    Overstayer,
}

/// A simulated person.
#[derive(Debug, Clone)]
pub struct Walker {
    /// The subject.
    pub subject: SubjectId,
    /// Behaviour.
    pub behavior: Behavior,
    at: Option<(LocationId, Time)>,
    denied_streak: u32,
}

impl Walker {
    /// A walker starting outside the infrastructure.
    pub fn new(subject: SubjectId, behavior: Behavior) -> Walker {
        Walker {
            subject,
            behavior,
            at: None,
            denied_streak: 0,
        }
    }

    /// Current location, if inside.
    pub fn location(&self) -> Option<LocationId> {
        self.at.map(|(l, _)| l)
    }

    /// Consecutive denials experienced (compliant walkers back off).
    pub fn denied_streak(&self) -> u32 {
        self.denied_streak
    }

    /// Advance one tick: maybe move, emitting events into `engine`.
    pub fn step(
        &mut self,
        now: Time,
        graph: &EffectiveGraph,
        engine: &mut dyn Enforcement,
        rng: &mut StdRng,
    ) {
        match self.at {
            None => {
                // Outside: try one of the global entries.
                let entries = graph.global_entries();
                if entries.is_empty() {
                    return;
                }
                let target = entries[rng.gen_range(0..entries.len())];
                self.try_enter(now, target, engine);
            }
            Some((here, since)) => {
                let must_move = match self.behavior {
                    Behavior::Compliant { max_stay } => {
                        now.get().saturating_sub(since.get()) >= max_stay
                    }
                    Behavior::Tailgater => rng.gen_bool(0.5),
                    Behavior::Overstayer => false,
                };
                if !must_move && rng.gen_bool(0.5) {
                    return; // linger
                }
                if matches!(self.behavior, Behavior::Overstayer) {
                    return; // never leaves
                }
                // Leave, then try a neighbor (or exit the site entirely).
                engine.observe_exit(now, self.subject, here);
                self.at = None;
                let nbs = graph.neighbors(here);
                if nbs.is_empty() || rng.gen_bool(0.2) {
                    return; // walked out of the building
                }
                let target = nbs[rng.gen_range(0..nbs.len())];
                self.try_enter(now, target, engine);
            }
        }
    }

    fn try_enter(&mut self, now: Time, target: LocationId, engine: &mut dyn Enforcement) {
        match self.behavior {
            Behavior::Compliant { .. } | Behavior::Overstayer => {
                if engine.request_enter(now, self.subject, target).is_granted() {
                    engine.observe_enter(now, self.subject, target);
                    self.at = Some((target, now));
                    self.denied_streak = 0;
                } else {
                    self.denied_streak += 1;
                }
            }
            Behavior::Tailgater => {
                engine.observe_enter(now, self.subject, target);
                self.at = Some((target, now));
            }
        }
    }
}

/// Drive a population of walkers for `ticks` steps.
pub fn run_population(
    walkers: &mut [Walker],
    graph: &EffectiveGraph,
    engine: &mut dyn Enforcement,
    ticks: u64,
    rng: &mut StdRng,
) {
    for t in 0..ticks {
        let now = Time(t);
        for w in walkers.iter_mut() {
            w.step(now, graph, engine, rng);
        }
        engine.tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_building, rng};
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_engine::engine::AccessControlEngine;
    use ltam_engine::violation::Violation;
    use ltam_time::Interval;

    fn open_engine(world: &crate::gen::World, subjects: &[SubjectId]) -> AccessControlEngine {
        let mut e = AccessControlEngine::new(world.model.clone());
        for (i, &s) in subjects.iter().enumerate() {
            e.profiles_mut().add_user(format!("u{i}"), "sim");
            for l in world.graph.locations() {
                e.add_authorization(
                    Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                        .unwrap(),
                );
            }
        }
        e
    }

    #[test]
    fn compliant_walker_never_violates() {
        let world = grid_building(4, 4);
        let alice = SubjectId(0);
        let mut engine = open_engine(&world, &[alice]);
        let mut walkers = vec![Walker::new(alice, Behavior::Compliant { max_stay: 3 })];
        let mut r = rng(1);
        run_population(&mut walkers, &world.graph, &mut engine, 200, &mut r);
        assert!(
            engine.violations().is_empty(),
            "compliant walker violated: {:?}",
            engine.violations()
        );
        assert!(!engine.movements().is_empty());
    }

    #[test]
    fn tailgater_is_flagged_every_entry() {
        let world = grid_building(3, 3);
        let mallory = SubjectId(0);
        // No authorizations at all.
        let mut engine = AccessControlEngine::new(world.model.clone());
        engine.profiles_mut().add_user("Mallory", "?");
        let mut walkers = vec![Walker::new(mallory, Behavior::Tailgater)];
        let mut r = rng(2);
        run_population(&mut walkers, &world.graph, &mut engine, 100, &mut r);
        // One stay per entry.
        let entries = engine.movements().timeline(mallory).len();
        let unauthorized = engine
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::UnauthorizedEntry { .. }))
            .count();
        assert!(entries > 0);
        assert_eq!(entries, unauthorized);
    }

    #[test]
    fn overstayer_triggers_overstay_alert() {
        let world = grid_building(2, 2);
        let bob = SubjectId(0);
        let mut engine = AccessControlEngine::new(world.model.clone());
        engine.profiles_mut().add_user("Bob", "sim");
        // Tight exit windows: must leave by t=10.
        for l in world.graph.locations() {
            engine.add_authorization(
                Authorization::new(
                    Interval::lit(0, 10),
                    Interval::lit(0, 10),
                    bob,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let mut walkers = vec![Walker::new(bob, Behavior::Overstayer)];
        let mut r = rng(3);
        run_population(&mut walkers, &world.graph, &mut engine, 50, &mut r);
        assert!(engine
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::Overstay { .. })));
    }

    #[test]
    fn denied_walker_backs_off_counter() {
        let world = grid_building(2, 2);
        let alice = SubjectId(0);
        let mut engine = AccessControlEngine::new(world.model.clone()); // no auths
        engine.profiles_mut().add_user("Alice", "sim");
        let mut w = Walker::new(alice, Behavior::Compliant { max_stay: 3 });
        let mut r = rng(4);
        for t in 0..10 {
            w.step(Time(t), &world.graph, &mut engine, &mut r);
        }
        assert!(w.denied_streak() > 0);
        assert_eq!(w.location(), None);
    }
}
