//! Prohibitions: negative location-temporal authorizations.
//!
//! The paper's future work plans "more access constraints"; the temporal
//! literature it builds on (TAM) pairs positive grants with *negative*
//! authorizations that override them. A [`Prohibition`] blocks a subject
//! from entering a location during a window regardless of any grant —
//! lockdowns, quarantines, suspension of a badge.
//!
//! Prohibitions compose with the rest of the model through
//! [`restrict_authorizations`]: each authorization's entry window is
//! fragmented around the blocked chronons, producing an equivalent
//! authorization set that Algorithm 1, the planner and route checks consume
//! unchanged (denial-takes-precedence everywhere, not just at the reader).

use crate::inaccessible::AuthsByLocation;
use crate::model::Authorization;
use crate::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::{Interval, IntervalSet, Time};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A negative authorization: `subject` may not enter `location` during
/// `window`, overriding any grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prohibition {
    /// The blocked subject.
    pub subject: SubjectId,
    /// The blocked location.
    pub location: LocationId,
    /// When the block applies.
    pub window: Interval,
}

/// The prohibition store, merged per `(subject, location)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProhibitionDb {
    blocked: HashMap<(SubjectId, LocationId), IntervalSet>,
    count: usize,
}

impl ProhibitionDb {
    /// An empty store.
    pub fn new() -> ProhibitionDb {
        ProhibitionDb::default()
    }

    /// Number of inserted prohibitions (pre-merge).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if nothing is blocked.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Add a prohibition.
    pub fn insert(&mut self, p: Prohibition) {
        self.blocked
            .entry((p.subject, p.location))
            .or_default()
            .insert(p.window);
        self.count += 1;
    }

    /// The blocked chronons for a `(subject, location)` pair.
    pub fn blocked_set(&self, subject: SubjectId, location: LocationId) -> Option<&IntervalSet> {
        self.blocked.get(&(subject, location))
    }

    /// True if entering `location` at `t` is prohibited for `subject`.
    pub fn blocks(&self, subject: SubjectId, location: LocationId, t: Time) -> bool {
        self.blocked
            .get(&(subject, location))
            .is_some_and(|s| s.contains(t))
    }
}

/// Rewrite a subject's per-location authorizations so every entry window
/// avoids the blocked chronons.
///
/// Entry windows are fragmented around the blocked set; each fragment's
/// exit window start is clamped to the fragment start (one cannot be
/// obliged to leave before one could have arrived), keeping Definition 4's
/// constraints intact. Fully-blocked authorizations disappear.
pub fn restrict_authorizations(
    auths: &AuthsByLocation,
    subject: SubjectId,
    prohibitions: &ProhibitionDb,
) -> AuthsByLocation {
    let mut out = AuthsByLocation::new();
    for (&location, list) in auths {
        let Some(blocked) = prohibitions.blocked_set(subject, location) else {
            out.insert(location, list.clone());
            continue;
        };
        let mut rewritten = Vec::new();
        for a in list {
            let allowed = IntervalSet::of(a.entry_window()).subtract(blocked);
            for fragment in allowed.iter() {
                let exit = a
                    .exit_window()
                    .clamp_start(fragment.start())
                    .expect("exit end >= entry end >= fragment start");
                rewritten.push(
                    Authorization::new(fragment, exit, a.subject(), a.location(), a.limit())
                        .expect("fragment satisfies Definition 4"),
                );
            }
        }
        if !rewritten.is_empty() {
            out.insert(location, rewritten);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inaccessible::find_inaccessible;
    use crate::model::EntryLimit;
    use ltam_graph::examples::fig4_cycle;
    use ltam_graph::EffectiveGraph;

    const ALICE: SubjectId = SubjectId(0);
    const CAIS: LocationId = LocationId(9);

    fn auth(l: LocationId, e: (u64, u64), x: (u64, u64)) -> Authorization {
        Authorization::new(
            Interval::lit(e.0, e.1),
            Interval::lit(x.0, x.1),
            ALICE,
            l,
            EntryLimit::Unbounded,
        )
        .unwrap()
    }

    #[test]
    fn blocks_answers_point_queries() {
        let mut db = ProhibitionDb::new();
        db.insert(Prohibition {
            subject: ALICE,
            location: CAIS,
            window: Interval::lit(10, 20),
        });
        assert!(db.blocks(ALICE, CAIS, Time(10)));
        assert!(db.blocks(ALICE, CAIS, Time(20)));
        assert!(!db.blocks(ALICE, CAIS, Time(21)));
        assert!(!db.blocks(SubjectId(1), CAIS, Time(15)));
        assert!(!db.blocks(ALICE, LocationId(8), Time(15)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn overlapping_prohibitions_merge() {
        let mut db = ProhibitionDb::new();
        for w in [Interval::lit(10, 20), Interval::lit(15, 30)] {
            db.insert(Prohibition {
                subject: ALICE,
                location: CAIS,
                window: w,
            });
        }
        assert_eq!(
            db.blocked_set(ALICE, CAIS).unwrap(),
            &IntervalSet::of(Interval::lit(10, 30))
        );
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn restriction_fragments_entry_windows() {
        let mut auths = AuthsByLocation::new();
        auths.insert(CAIS, vec![auth(CAIS, (0, 100), (0, 150))]);
        let mut db = ProhibitionDb::new();
        db.insert(Prohibition {
            subject: ALICE,
            location: CAIS,
            window: Interval::lit(40, 60),
        });
        let restricted = restrict_authorizations(&auths, ALICE, &db);
        let list = &restricted[&CAIS];
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].entry_window(), Interval::lit(0, 39));
        assert_eq!(list[1].entry_window(), Interval::lit(61, 100));
        // Exit clamped to the late fragment's start.
        assert_eq!(list[1].exit_window(), Interval::lit(61, 150));
        assert_eq!(list[0].exit_window(), Interval::lit(0, 150));
    }

    #[test]
    fn full_block_removes_the_authorization() {
        let mut auths = AuthsByLocation::new();
        auths.insert(CAIS, vec![auth(CAIS, (10, 20), (10, 30))]);
        let mut db = ProhibitionDb::new();
        db.insert(Prohibition {
            subject: ALICE,
            location: CAIS,
            window: Interval::lit(0, 50),
        });
        let restricted = restrict_authorizations(&auths, ALICE, &db);
        assert!(restricted.is_empty());
    }

    #[test]
    fn other_subjects_unaffected() {
        let mut auths = AuthsByLocation::new();
        auths.insert(CAIS, vec![auth(CAIS, (0, 100), (0, 150))]);
        let mut db = ProhibitionDb::new();
        db.insert(Prohibition {
            subject: SubjectId(7),
            location: CAIS,
            window: Interval::lit(0, 200),
        });
        let restricted = restrict_authorizations(&auths, ALICE, &db);
        assert_eq!(restricted[&CAIS], auths[&CAIS]);
    }

    #[test]
    fn lockdown_makes_locations_inaccessible_via_algorithm1() {
        // Fig. 4 with open windows; then a lockdown on D's only window to B
        // and the direct A–B hop — wait, the cycle gives two ways around, so
        // block B entirely: C must become unreachable through B but stays
        // reachable through D.
        let f = fig4_cycle();
        let g = EffectiveGraph::build(&f.model);
        let mut auths = AuthsByLocation::new();
        for l in [f.a, f.b, f.c, f.d] {
            auths.insert(l, vec![auth(l, (0, 1000), (0, 1000))]);
        }
        let mut db = ProhibitionDb::new();
        db.insert(Prohibition {
            subject: ALICE,
            location: f.b,
            window: Interval::lit(0, 1000),
        });
        let restricted = restrict_authorizations(&auths, ALICE, &db);
        let report = find_inaccessible(&g, &restricted);
        // B is locked down; C and D still reachable the other way round.
        assert_eq!(report.inaccessible, vec![f.b]);
        // Locking D too cuts the ring: C unreachable.
        db.insert(Prohibition {
            subject: ALICE,
            location: f.d,
            window: Interval::lit(0, 1000),
        });
        let restricted = restrict_authorizations(&auths, ALICE, &db);
        let report = find_inaccessible(&g, &restricted);
        assert_eq!(report.inaccessible, vec![f.b, f.c, f.d]);
    }
}
