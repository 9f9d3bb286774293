//! Authorization rules — §4, Definition 5.
//!
//! A rule `⟨tr : (a, OP)⟩` derives new authorizations from a *base
//! authorization* `a` once the rule becomes valid at `tr`. The operator
//! tuple `OP = (op_entry, op_exit, op_subject, op_location, exp_n)`
//! transforms each component:
//!
//! * temporal operators ([`ltam_time::TemporalOp`]) rewrite the entry/exit
//!   durations (`WHENEVER`, `WHENEVERNOT`, `UNION`, `INTERSECTION`),
//! * [`SubjectOp`] maps the base subject to derived subjects via the user
//!   profile database (`Supervisor_Of` in Example 1),
//! * [`LocationOp`] maps the base location to derived locations
//!   (`all_route_from` in Example 3),
//! * [`CountExpr`] rewrites the entry count.
//!
//! Unspecified elements default to copying from the base (`Same` /
//! `WHENEVER`). Derived authorizations carry provenance so that profile
//! changes revoke and re-derive them ("the system is able to automatically
//! derive the authorizations for the new supervisor while the authorization
//! for Bob will be revoked").

use crate::db::{AuthId, AuthorizationDb, Provenance, RuleId};
use crate::model::{Authorization, EntryLimit};
use crate::subject::SubjectId;
use ltam_graph::{route, EffectiveGraph, LocationId};
use ltam_time::{TemporalOp, Time};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Supplies the subject relationships rule operators query — backed by the
/// user profile database of Figure 3.
pub trait ProfileProvider {
    /// The supervisor of `s`, if any (Example 1's `Supervisor_Of`).
    fn supervisor_of(&self, s: SubjectId) -> Option<SubjectId>;
    /// Everyone whose supervisor is `s`.
    fn subordinates_of(&self, s: SubjectId) -> Vec<SubjectId>;
    /// Members of a named group.
    fn members_of(&self, group: &str) -> Vec<SubjectId>;
}

/// Derives the subjects of derived authorizations from the base subject.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SubjectOp {
    /// Copy the base subject (the default).
    #[default]
    Same,
    /// The base subject's supervisor (Example 1).
    SupervisorOf,
    /// Everyone supervised by the base subject.
    Subordinates,
    /// All members of a named group, independent of the base subject.
    MembersOfGroup(String),
    /// A custom operator registered on the [`RuleEngine`] ("customized
    /// operators can be defined as well", §4).
    Custom(String),
}

/// Derives the locations of derived authorizations from the base location.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LocationOp {
    /// Copy the base location (the default).
    #[default]
    Same,
    /// All locations on any route from `source` to the base location
    /// (Example 3's `all_route_from`).
    AllRouteFrom {
        /// Route source.
        source: LocationId,
    },
    /// The base location's neighbors in the effective graph.
    Neighbors,
    /// A fixed location, regardless of the base.
    Fixed(LocationId),
    /// A custom operator registered on the [`RuleEngine`].
    Custom(String),
}

/// Numeric expression on the entry count (`exp_n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CountExpr {
    /// Copy the base limit (the default).
    #[default]
    Same,
    /// A fixed limit.
    Const(u32),
    /// Remove the limit.
    Unbounded,
    /// Base plus `k` (unbounded stays unbounded).
    Add(u32),
    /// Base minus `k`, floored at 1 (unbounded stays unbounded).
    SaturatingSub(u32),
    /// Cap the base at `k`.
    AtMost(u32),
}

impl CountExpr {
    /// Evaluate against the base limit.
    pub fn eval(self, base: EntryLimit) -> EntryLimit {
        match (self, base) {
            (CountExpr::Same, b) => b,
            (CountExpr::Const(n), _) => EntryLimit::Finite(n),
            (CountExpr::Unbounded, _) => EntryLimit::Unbounded,
            (CountExpr::Add(k), EntryLimit::Finite(n)) => EntryLimit::Finite(n.saturating_add(k)),
            (CountExpr::Add(_), EntryLimit::Unbounded) => EntryLimit::Unbounded,
            (CountExpr::SaturatingSub(k), EntryLimit::Finite(n)) => {
                EntryLimit::Finite(n.saturating_sub(k).max(1))
            }
            (CountExpr::SaturatingSub(_), EntryLimit::Unbounded) => EntryLimit::Unbounded,
            (CountExpr::AtMost(k), EntryLimit::Finite(n)) => EntryLimit::Finite(n.min(k)),
            (CountExpr::AtMost(k), EntryLimit::Unbounded) => EntryLimit::Finite(k),
        }
    }
}

/// The operator tuple `OP` of Definition 5.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct OpTuple {
    /// Rewrites the entry duration.
    pub entry_op: TemporalOp,
    /// Rewrites the exit duration.
    pub exit_op: TemporalOp,
    /// Derives the subjects.
    pub subject_op: SubjectOp,
    /// Derives the locations.
    pub location_op: LocationOp,
    /// Rewrites the entry count.
    pub count: CountExpr,
}

/// An authorization rule `⟨tr : (a, OP)⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// `tr` — the time from which the rule is valid (feeds `WHENEVERNOT`).
    pub valid_from: Time,
    /// The base authorization `a`.
    pub base: AuthId,
    /// The operator tuple.
    pub ops: OpTuple,
}

/// Errors from rule evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// The base authorization is not (or no longer) in the database.
    UnknownBase(AuthId),
    /// A custom operator name has not been registered.
    UnknownCustomOp(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::UnknownBase(id) => write!(f, "unknown base authorization {id}"),
            RuleError::UnknownCustomOp(name) => write!(f, "unknown custom operator {name:?}"),
        }
    }
}

impl std::error::Error for RuleError {}

/// Outcome of a derivation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerivationReport {
    /// Authorizations inserted this pass.
    pub created: Vec<AuthId>,
    /// Previously derived authorizations revoked this pass (stale).
    pub revoked: Vec<AuthId>,
    /// Rules that failed to evaluate, with their errors.
    pub errors: Vec<(RuleId, RuleError)>,
    /// Fixpoint rounds executed (1 for a single pass).
    pub rounds: usize,
}

impl DerivationReport {
    /// True if nothing changed.
    pub fn is_quiescent(&self) -> bool {
        self.created.is_empty() && self.revoked.is_empty()
    }
}

type SubjectOpFn = Box<dyn Fn(SubjectId) -> Vec<SubjectId> + Send + Sync>;
type LocationOpFn = Box<dyn Fn(LocationId, &EffectiveGraph) -> Vec<LocationId> + Send + Sync>;

/// Evaluates rules and maintains derived authorizations in the database.
#[derive(Default)]
pub struct RuleEngine {
    rules: BTreeMap<RuleId, Rule>,
    next: u32,
    custom_subject_ops: HashMap<String, SubjectOpFn>,
    custom_location_ops: HashMap<String, LocationOpFn>,
    /// Bound on route length for `AllRouteFrom` (locations per route).
    pub max_route_len: usize,
    /// Bound on enumerated routes for `AllRouteFrom`.
    pub max_routes: usize,
}

impl fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleEngine")
            .field("rules", &self.rules.len())
            .field("custom_subject_ops", &self.custom_subject_ops.len())
            .field("custom_location_ops", &self.custom_location_ops.len())
            .finish()
    }
}

impl RuleEngine {
    /// An engine with default route-enumeration bounds.
    pub fn new() -> RuleEngine {
        RuleEngine {
            max_route_len: 64,
            max_routes: 4096,
            ..RuleEngine::default()
        }
    }

    /// Register a rule; returns its id.
    pub fn add_rule(&mut self, rule: Rule) -> RuleId {
        let id = RuleId(self.next);
        self.next += 1;
        self.rules.insert(id, rule);
        id
    }

    /// Remove a rule (its derived authorizations are revoked on the next
    /// [`RuleEngine::apply_all`] pass).
    pub fn remove_rule(&mut self, id: RuleId) -> Option<Rule> {
        self.rules.remove(&id)
    }

    /// Look up a rule.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id)
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Register a custom subject operator under `name`.
    pub fn register_subject_op(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(SubjectId) -> Vec<SubjectId> + Send + Sync + 'static,
    ) {
        self.custom_subject_ops.insert(name.into(), Box::new(f));
    }

    /// Register a custom location operator under `name`.
    pub fn register_location_op(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(LocationId, &EffectiveGraph) -> Vec<LocationId> + Send + Sync + 'static,
    ) {
        self.custom_location_ops.insert(name.into(), Box::new(f));
    }

    fn subjects_for(
        &self,
        op: &SubjectOp,
        base: SubjectId,
        profiles: &dyn ProfileProvider,
    ) -> Result<Vec<SubjectId>, RuleError> {
        Ok(match op {
            SubjectOp::Same => vec![base],
            SubjectOp::SupervisorOf => profiles.supervisor_of(base).into_iter().collect(),
            SubjectOp::Subordinates => profiles.subordinates_of(base),
            SubjectOp::MembersOfGroup(g) => profiles.members_of(g),
            SubjectOp::Custom(name) => {
                let f = self
                    .custom_subject_ops
                    .get(name)
                    .ok_or_else(|| RuleError::UnknownCustomOp(name.clone()))?;
                f(base)
            }
        })
    }

    fn locations_for(
        &self,
        op: &LocationOp,
        base: LocationId,
        graph: &EffectiveGraph,
    ) -> Result<Vec<LocationId>, RuleError> {
        Ok(match op {
            LocationOp::Same => vec![base],
            LocationOp::Fixed(l) => vec![*l],
            LocationOp::Neighbors => graph.neighbors(base).to_vec(),
            LocationOp::AllRouteFrom { source } => route::locations_on_routes(
                graph,
                *source,
                base,
                self.max_route_len,
                self.max_routes,
            ),
            LocationOp::Custom(name) => {
                let f = self
                    .custom_location_ops
                    .get(name)
                    .ok_or_else(|| RuleError::UnknownCustomOp(name.clone()))?;
                f(base, graph)
            }
        })
    }

    /// Evaluate one rule against the database, returning the authorizations
    /// it currently derives (without mutating the database).
    ///
    /// Entry/exit duration sets are paired cartesianly; pairs violating
    /// Definition 4 (`tos ≥ tis`, `toe ≥ tie`) are dropped, as are limits
    /// evaluating to zero.
    pub fn derive(
        &self,
        rule: &Rule,
        db: &AuthorizationDb,
        profiles: &dyn ProfileProvider,
        graph: &EffectiveGraph,
    ) -> Result<Vec<Authorization>, RuleError> {
        let base = db.get(rule.base).ok_or(RuleError::UnknownBase(rule.base))?;
        let tr = rule.valid_from;
        let entry_set = rule.ops.entry_op.apply(base.entry_window(), tr);
        let exit_set = rule.ops.exit_op.apply(base.exit_window(), tr);
        let subjects = self.subjects_for(&rule.ops.subject_op, base.subject(), profiles)?;
        let locations = self.locations_for(&rule.ops.location_op, base.location(), graph)?;
        let limit = rule.ops.count.eval(base.limit());
        let mut out = Vec::new();
        for entry in entry_set.iter() {
            for exit in exit_set.iter() {
                for &s in &subjects {
                    for &l in &locations {
                        if let Ok(a) = Authorization::new(entry, exit, s, l, limit) {
                            out.push(a);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// One derivation pass: for every rule, reconcile the database's derived
    /// authorizations with the rule's current output (insert new, revoke
    /// stale). Usage counters for revoked authorizations should be cleared
    /// by the caller via the returned report.
    pub fn apply_all(
        &self,
        db: &mut AuthorizationDb,
        profiles: &dyn ProfileProvider,
        graph: &EffectiveGraph,
    ) -> DerivationReport {
        let mut report = DerivationReport {
            rounds: 1,
            ..DerivationReport::default()
        };
        for (&rule_id, rule) in &self.rules {
            let target: BTreeSet<Authorization> = match self.derive(rule, db, profiles, graph) {
                Ok(v) => v.into_iter().collect(),
                Err(RuleError::UnknownBase(_)) => BTreeSet::new(), // base gone: revoke all
                Err(e) => {
                    report.errors.push((rule_id, e));
                    continue;
                }
            };
            let existing: Vec<(AuthId, Authorization)> = db
                .derived_by_rule(rule_id)
                .into_iter()
                .map(|id| (id, *db.get(id).expect("derived id is live")))
                .collect();
            let existing_set: BTreeSet<Authorization> = existing.iter().map(|&(_, a)| a).collect();
            for (id, a) in &existing {
                if !target.contains(a) {
                    db.revoke(*id);
                    report.revoked.push(*id);
                }
            }
            for a in target {
                if !existing_set.contains(&a) {
                    let id = db.insert_with_provenance(
                        a,
                        Provenance::Derived {
                            rule: rule_id,
                            base: rule.base,
                        },
                    );
                    report.created.push(id);
                }
            }
        }
        // Rules whose ids were removed from the engine: revoke leftovers.
        let live: BTreeSet<RuleId> = self.rules.keys().copied().collect();
        let stale: Vec<AuthId> = db
            .iter()
            .filter_map(|(id, _, p)| match p {
                Provenance::Derived { rule, .. } if !live.contains(&rule) => Some(id),
                _ => None,
            })
            .collect();
        for id in stale {
            db.revoke(id);
            report.revoked.push(id);
        }
        report
    }

    /// Apply rules repeatedly until quiescent (derived authorizations can be
    /// bases of later rules), bounded by `max_rounds`.
    pub fn apply_to_fixpoint(
        &self,
        db: &mut AuthorizationDb,
        profiles: &dyn ProfileProvider,
        graph: &EffectiveGraph,
        max_rounds: usize,
    ) -> DerivationReport {
        let mut total = DerivationReport::default();
        for round in 0..max_rounds {
            let r = self.apply_all(db, profiles, graph);
            total.created.extend(r.created.iter().copied());
            total.revoked.extend(r.revoked.iter().copied());
            total.errors.extend(r.errors.iter().cloned());
            total.rounds = round + 1;
            if r.is_quiescent() {
                break;
            }
        }
        total
    }
}

/// A simple in-memory [`ProfileProvider`] for tests and examples; the
/// enforcement engine provides the production implementation.
#[derive(Debug, Clone, Default)]
pub struct StaticProfiles {
    /// subject → supervisor.
    pub supervisors: HashMap<SubjectId, SubjectId>,
    /// group name → members.
    pub groups: HashMap<String, Vec<SubjectId>>,
}

impl ProfileProvider for StaticProfiles {
    fn supervisor_of(&self, s: SubjectId) -> Option<SubjectId> {
        self.supervisors.get(&s).copied()
    }
    fn subordinates_of(&self, s: SubjectId) -> Vec<SubjectId> {
        let mut v: Vec<SubjectId> = self
            .supervisors
            .iter()
            .filter(|&(_, &sup)| sup == s)
            .map(|(&sub, _)| sub)
            .collect();
        v.sort_unstable();
        v
    }
    fn members_of(&self, group: &str) -> Vec<SubjectId> {
        self.groups.get(group).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_graph::examples::ntu_campus;
    use ltam_time::Interval;

    const ALICE: SubjectId = SubjectId(0);
    const BOB: SubjectId = SubjectId(1);

    struct Fixture {
        db: AuthorizationDb,
        graph: EffectiveGraph,
        profiles: StaticProfiles,
        a1: AuthId,
        cais: LocationId,
        sce_go: LocationId,
    }

    /// §4's running example: a1 = ([5,20],[15,50],(Alice,CAIS),2);
    /// Bob is Alice's supervisor.
    fn fixture() -> Fixture {
        let ntu = ntu_campus();
        let graph = EffectiveGraph::build(&ntu.model);
        let mut db = AuthorizationDb::new();
        let a1 = db.insert(
            Authorization::new(
                Interval::lit(5, 20),
                Interval::lit(15, 50),
                ALICE,
                ntu.cais,
                EntryLimit::Finite(2),
            )
            .unwrap(),
        );
        let mut profiles = StaticProfiles::default();
        profiles.supervisors.insert(ALICE, BOB);
        Fixture {
            db,
            graph,
            profiles,
            a1,
            cais: ntu.cais,
            sce_go: ntu.sce_go,
        }
    }

    #[test]
    fn example1_supervisor_rule_derives_a2() {
        let f = fixture();
        let mut engine = RuleEngine::new();
        let rule = Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::SupervisorOf,
                count: CountExpr::Const(2),
                ..OpTuple::default()
            },
        };
        engine.add_rule(rule.clone());
        let derived = engine.derive(&rule, &f.db, &f.profiles, &f.graph).unwrap();
        // a2: ([5,20],[15,50],(Bob,CAIS),2).
        assert_eq!(derived.len(), 1);
        let a2 = derived[0];
        assert_eq!(a2.subject(), BOB);
        assert_eq!(a2.location(), f.cais);
        assert_eq!(a2.entry_window(), Interval::lit(5, 20));
        assert_eq!(a2.exit_window(), Interval::lit(15, 50));
        assert_eq!(a2.limit(), EntryLimit::Finite(2));
    }

    #[test]
    fn example2_intersection_rule_derives_a3() {
        let f = fixture();
        let engine = RuleEngine::new();
        let rule = Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                entry_op: TemporalOp::Intersection(Interval::lit(10, 30)),
                subject_op: SubjectOp::SupervisorOf,
                count: CountExpr::Const(2),
                ..OpTuple::default()
            },
        };
        let derived = engine.derive(&rule, &f.db, &f.profiles, &f.graph).unwrap();
        // a3: ([10,20],[15,50],(Bob,CAIS),2).
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].entry_window(), Interval::lit(10, 20));
        assert_eq!(derived[0].exit_window(), Interval::lit(15, 50));
        assert_eq!(derived[0].subject(), BOB);
    }

    #[test]
    fn example3_all_route_from_covers_route_locations() {
        let f = fixture();
        let engine = RuleEngine::new();
        let rule = Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                location_op: LocationOp::AllRouteFrom { source: f.sce_go },
                count: CountExpr::Const(2),
                ..OpTuple::default()
            },
        };
        let derived = engine.derive(&rule, &f.db, &f.profiles, &f.graph).unwrap();
        // One authorization per location on the SCE.GO → CAIS routes, all
        // for Alice with a1's windows.
        let locs: BTreeSet<LocationId> = derived.iter().map(|a| a.location()).collect();
        assert!(locs.contains(&f.sce_go));
        assert!(locs.contains(&f.cais));
        assert!(derived.len() >= 4);
        assert!(derived.iter().all(|a| a.subject() == ALICE));
        assert!(derived
            .iter()
            .all(|a| a.entry_window() == Interval::lit(5, 20)));
    }

    #[test]
    fn apply_all_inserts_with_provenance_and_revokes_on_profile_change() {
        let mut f = fixture();
        let mut engine = RuleEngine::new();
        let rule_id = engine.add_rule(Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::SupervisorOf,
                ..OpTuple::default()
            },
        });
        let r1 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        assert_eq!(r1.created.len(), 1);
        let bob_auth = r1.created[0];
        assert_eq!(
            f.db.provenance(bob_auth),
            Some(Provenance::Derived {
                rule: rule_id,
                base: f.a1
            })
        );
        // Re-applying is quiescent.
        let r2 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        assert!(r2.is_quiescent());
        // Alice gets a new supervisor: Bob's derived authorization is
        // revoked, Carol's is created.
        let carol = SubjectId(2);
        f.profiles.supervisors.insert(ALICE, carol);
        let r3 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        assert_eq!(r3.revoked, vec![bob_auth]);
        assert_eq!(r3.created.len(), 1);
        assert_eq!(f.db.get(r3.created[0]).unwrap().subject(), carol);
        assert!(f.db.get(bob_auth).is_none());
    }

    #[test]
    fn revoking_base_revokes_derived() {
        let mut f = fixture();
        let mut engine = RuleEngine::new();
        engine.add_rule(Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::SupervisorOf,
                ..OpTuple::default()
            },
        });
        let r1 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        assert_eq!(r1.created.len(), 1);
        f.db.revoke(f.a1);
        let r2 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        assert_eq!(r2.revoked, r1.created);
        assert_eq!(f.db.len(), 0);
    }

    #[test]
    fn removed_rule_revokes_its_output() {
        let mut f = fixture();
        let mut engine = RuleEngine::new();
        let rid = engine.add_rule(Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::SupervisorOf,
                ..OpTuple::default()
            },
        });
        let r1 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        engine.remove_rule(rid);
        let r2 = engine.apply_all(&mut f.db, &f.profiles, &f.graph);
        assert_eq!(r2.revoked, r1.created);
    }

    #[test]
    fn derived_auth_can_be_base_for_chained_rule() {
        let mut f = fixture();
        let mut engine = RuleEngine::new();
        engine.add_rule(Rule {
            valid_from: Time(7),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::SupervisorOf,
                ..OpTuple::default()
            },
        });
        let pass1 = engine.apply_to_fixpoint(&mut f.db, &f.profiles, &f.graph, 8);
        let bob_auth = pass1.created[0];
        // Chain: Bob's supervisor (Dave) gets it too.
        f.profiles.supervisors.insert(BOB, SubjectId(3));
        engine.add_rule(Rule {
            valid_from: Time(8),
            base: bob_auth,
            ops: OpTuple {
                subject_op: SubjectOp::SupervisorOf,
                ..OpTuple::default()
            },
        });
        let pass2 = engine.apply_to_fixpoint(&mut f.db, &f.profiles, &f.graph, 8);
        assert!(pass2
            .created
            .iter()
            .any(|&id| f.db.get(id).unwrap().subject() == SubjectId(3)));
        assert!(pass2.rounds >= 1);
    }

    #[test]
    fn custom_operators_are_dispatched() {
        let f = fixture();
        let mut engine = RuleEngine::new();
        engine.register_subject_op("everyone_in_audit", |_| vec![SubjectId(7), SubjectId(8)]);
        engine.register_location_op("self_and_neighbors", |l, g| {
            let mut v = vec![l];
            v.extend_from_slice(g.neighbors(l));
            v
        });
        let rule = Rule {
            valid_from: Time(0),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::Custom("everyone_in_audit".into()),
                location_op: LocationOp::Custom("self_and_neighbors".into()),
                ..OpTuple::default()
            },
        };
        let derived = engine.derive(&rule, &f.db, &f.profiles, &f.graph).unwrap();
        let subjects: BTreeSet<SubjectId> = derived.iter().map(|a| a.subject()).collect();
        assert_eq!(subjects.len(), 2);
        assert!(derived.len() >= 4); // 2 subjects × (CAIS + ≥1 neighbor)
    }

    #[test]
    fn unknown_custom_op_is_an_error() {
        let f = fixture();
        let engine = RuleEngine::new();
        let rule = Rule {
            valid_from: Time(0),
            base: f.a1,
            ops: OpTuple {
                subject_op: SubjectOp::Custom("nope".into()),
                ..OpTuple::default()
            },
        };
        assert_eq!(
            engine
                .derive(&rule, &f.db, &f.profiles, &f.graph)
                .unwrap_err(),
            RuleError::UnknownCustomOp("nope".into())
        );
    }

    #[test]
    fn whenevernot_pairs_are_validated() {
        // WHENEVERNOT on the entry duration yields windows before and after
        // the base window; pairing with the base exit duration drops pairs
        // violating Definition 4 instead of storing invalid authorizations.
        let f = fixture();
        let engine = RuleEngine::new();
        let rule = Rule {
            valid_from: Time(0),
            base: f.a1,
            ops: OpTuple {
                entry_op: TemporalOp::WheneverNot,
                exit_op: TemporalOp::WheneverNot,
                ..OpTuple::default()
            },
        };
        let derived = engine.derive(&rule, &f.db, &f.profiles, &f.graph).unwrap();
        for a in &derived {
            assert!(a.exit_window().start() >= a.entry_window().start());
            assert!(a.exit_window().end() >= a.entry_window().end());
        }
        assert!(!derived.is_empty());
    }

    #[test]
    fn count_expr_evaluation() {
        use EntryLimit::*;
        assert_eq!(CountExpr::Same.eval(Finite(2)), Finite(2));
        assert_eq!(CountExpr::Const(5).eval(Finite(2)), Finite(5));
        assert_eq!(CountExpr::Unbounded.eval(Finite(2)), Unbounded);
        assert_eq!(CountExpr::Add(3).eval(Finite(2)), Finite(5));
        assert_eq!(CountExpr::Add(3).eval(Unbounded), Unbounded);
        assert_eq!(CountExpr::SaturatingSub(5).eval(Finite(2)), Finite(1));
        assert_eq!(CountExpr::AtMost(1).eval(Finite(2)), Finite(1));
        assert_eq!(CountExpr::AtMost(4).eval(Unbounded), Finite(4));
    }

    #[test]
    fn static_profiles_subordinates() {
        let mut p = StaticProfiles::default();
        p.supervisors.insert(SubjectId(1), SubjectId(0));
        p.supervisors.insert(SubjectId(2), SubjectId(0));
        assert_eq!(
            p.subordinates_of(SubjectId(0)),
            vec![SubjectId(1), SubjectId(2)]
        );
        assert!(p.subordinates_of(SubjectId(1)).is_empty());
    }
}
