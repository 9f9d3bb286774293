//! The access control engine (Figure 3's core component).
//!
//! The engine owns the four databases of the architecture — authorizations,
//! location & movements, user profiles, and the location layout — and
//! implements the enforcement loop:
//!
//! 1. **Access requests** (Definition 6) are checked against the
//!    authorization database (Definition 7); grants are remembered as
//!    *pending* until the subject physically enters.
//! 2. **Movements** are monitored continuously: an entry without a pending
//!    grant is an [`Violation::UnauthorizedEntry`] (this is what catches a
//!    group tailgating through one person's authorization), an exit outside
//!    the authorization's exit duration is a
//!    [`Violation::ExitOutsideWindow`].
//! 3. **Clock ticks** scan for subjects still inside after their exit
//!    window closed ([`Violation::Overstay`]) — the paper's "warning signal
//!    to the security guards".
//! 4. **Rules** are re-derived on demand; revoked derived authorizations
//!    drop their usage counters.

use crate::batch::PolicyCore;
use crate::movement::MovementsDb;
use crate::profile::UserProfileDb;
use crate::shard::{ShardState, ShardStateImage};
use crate::violation::{Alert, Violation};
use ltam_core::db::{AuthId, AuthorizationDb};
use ltam_core::decision::{AccessRequest, Decision};
use ltam_core::inaccessible::{find_inaccessible, InaccessibleReport};
use ltam_core::ledger::UsageLedger;
use ltam_core::model::Authorization;
use ltam_core::planner::{earliest_visit, Itinerary};
use ltam_core::prohibition::{restrict_authorizations, Prohibition, ProhibitionDb};
use ltam_core::recurring::{expand_recurring, RecurringAuthorization, RecurringError};
use ltam_core::rules::{Rule, RuleEngine};
use ltam_core::subject::SubjectId;
use ltam_graph::{EffectiveGraph, LocationId, LocationModel};
use ltam_time::{Interval, Time};
use serde::{Deserialize, Serialize};
use std::sync::mpsc::Sender;

/// Default [`EngineConfig::grant_ttl`], in **chronons** (the paper's
/// smallest indivisible time unit — see `ltam-time`).
///
/// A granted access request is a promise that the door will recognize the
/// subject's physical entry; this is how long that promise lasts. Five
/// chronons matches the paper's worked examples, where requests and
/// entries happen within a few time units of each other (e.g. the §5
/// walkthrough requests at `t = 16` and enters before `t = 20`).
pub const DEFAULT_GRANT_TTL: u64 = 5;

/// Tunables for the enforcement loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Chronons a granted request stays usable before the subject must
    /// physically enter; after that the grant lapses and the entry would be
    /// unauthorized. An entry at `t` is honored iff
    /// `granted_at <= t <= granted_at + grant_ttl` (and the grant is still
    /// valid). Defaults to [`DEFAULT_GRANT_TTL`].
    pub grant_ttl: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            grant_ttl: DEFAULT_GRANT_TTL,
        }
    }
}

/// One audited request decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// The request.
    pub request: AccessRequest,
    /// The decision taken.
    pub decision: Decision,
}

/// The LTAM enforcement engine.
///
/// Internally this is one [`ShardState`] (the per-subject mutable half)
/// over one [`PolicyCore`] (the read-mostly half) — the same two pieces
/// the concurrent [`ShardedEngine`](crate::batch::ShardedEngine)
/// partitions across threads, so both run identical enforcement code.
#[derive(Debug)]
pub struct AccessControlEngine {
    core: PolicyCore,
    profiles: UserProfileDb,
    rules: RuleEngine,
    state: ShardState,
    alert_seq: u64,
    alert_tx: Option<Sender<Alert>>,
}

impl AccessControlEngine {
    /// Build an engine for a location layout.
    pub fn new(model: LocationModel) -> AccessControlEngine {
        AccessControlEngine {
            core: PolicyCore::new(model),
            profiles: UserProfileDb::new(),
            rules: RuleEngine::new(),
            state: ShardState::new(),
            alert_seq: 0,
            alert_tx: None,
        }
    }

    /// Override the enforcement tunables.
    pub fn set_config(&mut self, config: EngineConfig) {
        self.core.set_config(config);
    }

    /// Route alerts to a channel (the security desk).
    pub fn set_alert_channel(&mut self, tx: Sender<Alert>) {
        self.alert_tx = Some(tx);
    }

    // --- component access ---------------------------------------------------

    /// The location layout.
    pub fn model(&self) -> &LocationModel {
        self.core.model()
    }

    /// The flattened location graph.
    pub fn graph(&self) -> &EffectiveGraph {
        self.core.graph()
    }

    /// The authorization database (read-only; mutate via
    /// [`AccessControlEngine::add_authorization`] /
    /// [`AccessControlEngine::revoke_authorization`]).
    pub fn db(&self) -> &AuthorizationDb {
        self.core.db()
    }

    /// The movements database.
    pub fn movements(&self) -> &MovementsDb {
        self.state.movements()
    }

    /// The user profile database.
    pub fn profiles(&self) -> &UserProfileDb {
        &self.profiles
    }

    /// Mutable profile access (administration).
    pub fn profiles_mut(&mut self) -> &mut UserProfileDb {
        &mut self.profiles
    }

    /// The usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        self.state.ledger()
    }

    /// Violations detected so far, in detection order. This engine is
    /// never pruned: the list is complete from the epoch.
    pub fn violations(&self) -> &[Violation] {
        self.state.violations()
    }

    /// The audited request decisions.
    pub fn audit(&self) -> &[AuditRecord] {
        self.state.audit()
    }

    /// The [canonical](crate::batch::canonical) image of this engine's
    /// one shard: what a sharded engine with the same history has.
    pub fn canonical_image(&self) -> ShardStateImage {
        crate::batch::canonical(vec![self.state.image()], self.db())
    }

    // --- administration -----------------------------------------------------

    /// Insert an explicitly created authorization.
    pub fn add_authorization(&mut self, auth: Authorization) -> AuthId {
        self.core.add_authorization(auth)
    }

    /// Add a prohibition: denial takes precedence over every grant in the
    /// blocked window (lockdowns, quarantines, badge suspensions).
    pub fn add_prohibition(&mut self, prohibition: Prohibition) {
        self.core.add_prohibition(prohibition);
    }

    /// The prohibition store.
    pub fn prohibitions(&self) -> &ProhibitionDb {
        self.core.prohibitions()
    }

    /// Expand a recurring grant over `horizon` and insert every occurrence.
    pub fn add_recurring_authorization(
        &mut self,
        recurring: &RecurringAuthorization,
        horizon: Interval,
    ) -> Result<Vec<AuthId>, RecurringError> {
        let auths = expand_recurring(recurring, horizon)?;
        Ok(auths
            .into_iter()
            .map(|a| self.core.add_authorization(a))
            .collect())
    }

    /// Revoke an authorization and drop its usage counters.
    pub fn revoke_authorization(&mut self, id: AuthId) -> Option<Authorization> {
        // Usage counters and any pending grant on a revoked authorization
        // lapse with it.
        self.state.invalidate_auth(id);
        self.core.revoke_authorization(id)
    }

    /// The situation overlay governing this engine's decisions.
    pub fn situation(&self) -> &ltam_situate::SituationPolicy {
        self.core.situation()
    }

    /// Apply a situation edit (declare a mode, register responders,
    /// pin authorizations, install workflow constraints) — the
    /// single-threaded counterpart of the sharded engine's
    /// epoch-swapped situation updates.
    pub fn apply_situation(
        &mut self,
        op: &ltam_situate::SituationOp,
    ) -> ltam_situate::SituationOutcome {
        self.core.apply_situation(op)
    }

    /// Register an authorization rule (§4).
    pub fn add_rule(&mut self, rule: Rule) -> ltam_core::db::RuleId {
        self.rules.add_rule(rule)
    }

    /// Remove a rule; its derived authorizations are revoked on the next
    /// [`AccessControlEngine::apply_rules`].
    pub fn remove_rule(&mut self, id: ltam_core::db::RuleId) -> Option<Rule> {
        self.rules.remove_rule(id)
    }

    /// Detect authorization conflicts (§4: overlapping/adjacent entry
    /// windows for the same subject and location).
    pub fn conflicts(&self) -> Vec<ltam_core::Conflict> {
        ltam_core::detect_conflicts(self.core.db())
    }

    /// Resolve all conflicts with `strategy`; usage counters and pending
    /// grants of removed authorizations are dropped.
    pub fn resolve_conflicts(
        &mut self,
        strategy: ltam_core::ResolutionStrategy,
    ) -> ltam_core::conflict::ResolutionReport {
        let report = ltam_core::resolve_conflicts(self.core.db_mut().0, strategy);
        for &(_, removed) in &report.resolved {
            self.state.invalidate_auth(removed);
        }
        report
    }

    /// Re-derive all rules to a fixpoint, clearing counters of anything
    /// revoked. Returns the derivation report.
    pub fn apply_rules(&mut self) -> ltam_core::rules::DerivationReport {
        let (db, graph) = self.core.db_mut();
        let report = self.rules.apply_to_fixpoint(db, &self.profiles, graph, 8);
        for &id in &report.revoked {
            self.state.invalidate_auth(id);
        }
        report
    }

    // --- enforcement ---------------------------------------------------------

    /// Process an access request (Definition 6). A grant is remembered so
    /// the subsequent physical entry is recognized as authorized.
    pub fn request_enter(&mut self, t: Time, subject: SubjectId, location: LocationId) -> Decision {
        self.state
            .request_enter(&self.core.view(), t, subject, location)
    }

    /// Forward a freshly recorded violation to the security desk.
    fn alert(&mut self, violation: Violation) {
        let alert = Alert {
            violation,
            seq: self.alert_seq,
        };
        self.alert_seq += 1;
        if let Some(tx) = &self.alert_tx {
            let _ = tx.send(alert);
        }
    }

    /// Process an observed entry (from the tracking infrastructure).
    ///
    /// Returns the violation raised, if any.
    pub fn observe_enter(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        let raised = self
            .state
            .observe_enter(&self.core.view(), t, subject, location);
        if let Some(v) = raised {
            self.alert(v);
        }
        raised
    }

    /// Process an observed exit. Returns the violation raised, if any.
    pub fn observe_exit(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        let raised = self
            .state
            .observe_exit(&self.core.view(), t, subject, location);
        if let Some(v) = raised {
            self.alert(v);
        }
        raised
    }

    /// Advance the monitoring clock: raise an overstay alert (once per
    /// stay) for every subject still inside after their exit window closed.
    pub fn tick(&mut self, now: Time) -> Vec<Violation> {
        let raised = self.state.tick(&self.core.view(), now);
        for &v in &raised {
            self.alert(v);
        }
        raised
    }

    // --- analysis -------------------------------------------------------------

    /// A read-only view for the query engine.
    pub fn query_context(&self) -> crate::query::QueryContext<'_> {
        crate::query::QueryContext {
            model: self.core.model(),
            graph: self.core.graph(),
            policy: self.core.view(),
            state: &self.state,
            profiles: &self.profiles,
        }
    }

    /// Parse and evaluate a query-language string against this engine.
    pub fn query(
        &self,
        input: &str,
    ) -> Result<crate::query::QueryResult, crate::query::QueryError> {
        crate::query::run(input, &self.query_context())
    }

    /// Run Algorithm 1 for a subject over the current database, with
    /// prohibitions applied (blocked windows cannot carry a route).
    pub fn inaccessible_for(&self, subject: SubjectId) -> InaccessibleReport {
        let auths = restrict_authorizations(
            &self.core.db().per_location_for_subject(subject),
            subject,
            self.core.prohibitions(),
        );
        find_inaccessible(self.core.graph(), &auths)
    }

    /// Earliest authorized visit to `target` starting outside at `from`
    /// (temporal route planning over the restricted authorizations).
    pub fn earliest_visit_for(
        &self,
        subject: SubjectId,
        target: LocationId,
        from: Time,
    ) -> Option<Itinerary> {
        let auths = restrict_authorizations(
            &self.core.db().per_location_for_subject(subject),
            subject,
            self.core.prohibitions(),
        );
        earliest_visit(self.core.graph(), &auths, target, from)
    }

    /// The complement: locations the subject can reach.
    pub fn accessible_for(&self, subject: SubjectId) -> Vec<LocationId> {
        let report = self.inaccessible_for(subject);
        self.graph()
            .locations()
            .filter(|l| !report.is_inaccessible(*l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_core::decision::DenyReason;
    use ltam_core::model::EntryLimit;
    use ltam_graph::examples::ntu_campus;
    use ltam_time::Interval;

    fn engine_with_alice() -> (AccessControlEngine, SubjectId, LocationId) {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut e = AccessControlEngine::new(ntu.model);
        let alice = e.profiles_mut().add_user("Alice", "researcher");
        // ([5, 40], [20, 100], (Alice, CAIS), 1) — the §3.2 example.
        e.add_authorization(
            Authorization::new(
                Interval::lit(5, 40),
                Interval::lit(20, 100),
                alice,
                cais,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        (e, alice, cais)
    }

    #[test]
    fn grant_then_enter_consumes_budget() {
        let (mut e, alice, cais) = engine_with_alice();
        assert!(e.request_enter(Time(10), alice, cais).is_granted());
        assert_eq!(e.observe_enter(Time(11), alice, cais), None);
        assert_eq!(e.movements().current_location(alice), Some(cais));
        // The single entry is used up.
        e.observe_exit(Time(25), alice, cais);
        let d = e.request_enter(Time(30), alice, cais);
        assert_eq!(
            d,
            Decision::Denied {
                reason: DenyReason::EntriesExhausted
            }
        );
        assert!(e.violations().is_empty());
        assert_eq!(e.audit().len(), 2);
    }

    #[test]
    fn entry_without_grant_is_tailgating() {
        let (mut e, _, cais) = engine_with_alice();
        let mallory = e.profiles_mut().add_user("Mallory", "visitor");
        let v = e.observe_enter(Time(12), mallory, cais).unwrap();
        assert_eq!(
            v,
            Violation::UnauthorizedEntry {
                time: Time(12),
                subject: mallory,
                location: cais
            }
        );
        assert_eq!(e.violations().len(), 1);
        // The movement itself is still tracked (physical reality).
        assert_eq!(e.movements().current_location(mallory), Some(cais));
    }

    #[test]
    fn stale_grant_lapses_after_ttl() {
        let (mut e, alice, cais) = engine_with_alice();
        assert!(e.request_enter(Time(10), alice, cais).is_granted());
        // Default TTL is 5; entering at 16 is too late.
        let v = e.observe_enter(Time(16), alice, cais);
        assert!(matches!(v, Some(Violation::UnauthorizedEntry { .. })));
    }

    #[test]
    fn default_grant_ttl_is_five_chronons() {
        // The grant TTL is measured in chronons (the paper's smallest time
        // unit): a grant at chronon t admits entries in [t, t + ttl].
        assert_eq!(DEFAULT_GRANT_TTL, 5);
        assert_eq!(EngineConfig::default().grant_ttl, DEFAULT_GRANT_TTL);
        // Boundary: entry exactly at granted_at + ttl is still honored.
        let (mut e, alice, cais) = engine_with_alice();
        assert!(e.request_enter(Time(10), alice, cais).is_granted());
        assert_eq!(e.observe_enter(Time(15), alice, cais), None);
    }

    #[test]
    fn grant_for_one_location_does_not_open_another() {
        let (mut e, alice, cais) = engine_with_alice();
        let ntu = ntu_campus();
        assert!(e.request_enter(Time(10), alice, cais).is_granted());
        let v = e.observe_enter(Time(11), alice, ntu.sce_go);
        assert!(matches!(v, Some(Violation::UnauthorizedEntry { .. })));
    }

    #[test]
    fn early_exit_raises_violation() {
        let (mut e, alice, cais) = engine_with_alice();
        e.request_enter(Time(10), alice, cais);
        e.observe_enter(Time(10), alice, cais);
        // Exit window is [20, 100]; leaving at 15 is early.
        let v = e.observe_exit(Time(15), alice, cais).unwrap();
        assert!(matches!(v, Violation::ExitOutsideWindow { .. }));
    }

    #[test]
    fn overstay_detected_once_per_stay() {
        let (mut e, alice, cais) = engine_with_alice();
        e.request_enter(Time(10), alice, cais);
        e.observe_enter(Time(10), alice, cais);
        assert!(e.tick(Time(50)).is_empty()); // exit window still open
        let raised = e.tick(Time(101));
        assert_eq!(raised.len(), 1);
        assert!(matches!(raised[0], Violation::Overstay { .. }));
        // No duplicate alert on the next tick.
        assert!(e.tick(Time(102)).is_empty());
    }

    #[test]
    fn inconsistent_movement_is_flagged() {
        let (mut e, alice, cais) = engine_with_alice();
        // Exit without ever entering.
        let v = e.observe_exit(Time(5), alice, cais).unwrap();
        assert!(matches!(v, Violation::InconsistentMovement { .. }));
    }

    #[test]
    fn alerts_flow_through_channel() {
        let (mut e, _, cais) = engine_with_alice();
        let (tx, rx) = std::sync::mpsc::channel();
        e.set_alert_channel(tx);
        let mallory = e.profiles_mut().add_user("Mallory", "visitor");
        e.observe_enter(Time(12), mallory, cais);
        let alert = rx.try_recv().unwrap();
        assert_eq!(alert.seq, 0);
        assert!(matches!(
            alert.violation,
            Violation::UnauthorizedEntry { .. }
        ));
    }

    #[test]
    fn revocation_invalidates_pending_grant() {
        let (mut e, alice, cais) = engine_with_alice();
        let id = {
            let d = e.request_enter(Time(10), alice, cais);
            match d {
                Decision::Granted { auth } => auth,
                _ => panic!("expected grant"),
            }
        };
        e.revoke_authorization(id);
        let v = e.observe_enter(Time(11), alice, cais);
        assert!(matches!(v, Some(Violation::UnauthorizedEntry { .. })));
    }

    #[test]
    fn prohibition_overrides_grant() {
        use ltam_core::decision::DenyReason;
        use ltam_core::prohibition::Prohibition;
        let (mut e, alice, cais) = engine_with_alice();
        e.add_prohibition(Prohibition {
            subject: alice,
            location: cais,
            window: Interval::lit(8, 15),
        });
        assert_eq!(
            e.request_enter(Time(10), alice, cais),
            Decision::Denied {
                reason: DenyReason::Prohibited
            }
        );
        // Outside the blocked window the grant works again.
        assert!(e.request_enter(Time(20), alice, cais).is_granted());
    }

    #[test]
    fn prohibition_issued_after_grant_voids_pending_entry() {
        use ltam_core::prohibition::Prohibition;
        let (mut e, alice, cais) = engine_with_alice();
        assert!(e.request_enter(Time(10), alice, cais).is_granted());
        // Lockdown lands between the swipe and the door.
        e.add_prohibition(Prohibition {
            subject: alice,
            location: cais,
            window: Interval::lit(11, 30),
        });
        let v = e.observe_enter(Time(11), alice, cais);
        assert!(matches!(v, Some(Violation::UnauthorizedEntry { .. })));
    }

    #[test]
    fn prohibitions_shrink_accessibility() {
        use ltam_core::prohibition::Prohibition;
        let ntu = ntu_campus();
        let (sce_go, sce_a) = (ntu.sce_go, ntu.sce_a);
        let mut e = AccessControlEngine::new(ntu.model);
        let alice = e.profiles_mut().add_user("Alice", "researcher");
        for l in [sce_go, sce_a] {
            e.add_authorization(
                Authorization::new(
                    Interval::ALL,
                    Interval::ALL,
                    alice,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        assert_eq!(e.accessible_for(alice), vec![sce_go, sce_a]);
        e.add_prohibition(Prohibition {
            subject: alice,
            location: sce_go,
            window: Interval::ALL,
        });
        // The only entry is blocked forever: nothing is reachable.
        assert!(e.accessible_for(alice).is_empty());
    }

    #[test]
    fn earliest_visit_for_plans_a_timed_route() {
        let ntu = ntu_campus();
        let (sce_go, sce_a, sce_b, cais) = (ntu.sce_go, ntu.sce_a, ntu.sce_b, ntu.cais);
        let mut e = AccessControlEngine::new(ntu.model);
        let alice = e.profiles_mut().add_user("Alice", "researcher");
        let windows = [
            (sce_go, (0u64, 100u64)),
            (sce_a, (10, 100)),
            (sce_b, (20, 100)),
            (cais, (30, 100)),
        ];
        for (l, (a, b)) in windows {
            e.add_authorization(
                Authorization::new(
                    Interval::lit(a, b),
                    Interval::lit(a, b + 50),
                    alice,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let it = e.earliest_visit_for(alice, cais, Time(0)).unwrap();
        assert_eq!(it.arrival, Time(30));
        assert_eq!(it.route(), vec![sce_go, sce_a, sce_b, cais]);
        // No route at all for an unauthorized target.
        assert!(e.earliest_visit_for(alice, ntu.lab1, Time(0)).is_none());
    }

    #[test]
    fn recurring_grant_expands_and_enforces() {
        use ltam_core::recurring::RecurringAuthorization;
        use ltam_time::Periodic;
        let (mut e, alice, cais) = engine_with_alice();
        let ids = e
            .add_recurring_authorization(
                &RecurringAuthorization {
                    subject: alice,
                    location: cais,
                    pattern: Periodic::new(Time(200), 24, [(9, 8)]).unwrap(),
                    exit_slack: 4,
                    limit: EntryLimit::Unbounded,
                },
                Interval::lit(200, 272),
            )
            .unwrap();
        assert_eq!(ids.len(), 3);
        // Inside the second occurrence (chronon 233..240 relative pattern).
        assert!(e.request_enter(Time(235), alice, cais).is_granted());
        // In the gap between occurrences.
        assert!(!e.request_enter(Time(230), alice, cais).is_granted());
    }

    #[test]
    fn earliest_query_form_end_to_end() {
        let ntu = ntu_campus();
        let (sce_go, sce_a) = (ntu.sce_go, ntu.sce_a);
        let mut e = AccessControlEngine::new(ntu.model);
        let alice = e.profiles_mut().add_user("Alice", "researcher");
        for (l, start) in [(sce_go, 5u64), (sce_a, 12)] {
            e.add_authorization(
                Authorization::new(
                    Interval::lit(start, 100),
                    Interval::lit(start, 150),
                    alice,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let r = e.query("EARLIEST Alice TO SCE.SectionA FROM 0").unwrap();
        let crate::query::QueryResult::Itinerary(Some(hops)) = r else {
            panic!("expected an itinerary, got {r:?}");
        };
        assert_eq!(
            hops,
            vec![
                ("SCE.GO".to_string(), Time(5)),
                ("SCE.SectionA".to_string(), Time(12)),
            ]
        );
        let r = e.query("EARLIEST Alice TO CAIS").unwrap();
        assert_eq!(r, crate::query::QueryResult::Itinerary(None));
    }

    #[test]
    fn accessible_for_uses_algorithm1() {
        let ntu = ntu_campus();
        let sce_go = ntu.sce_go;
        let mut e = AccessControlEngine::new(ntu.model);
        let alice = e.profiles_mut().add_user("Alice", "researcher");
        // Only the SCE general office is authorized.
        e.add_authorization(
            Authorization::new(
                Interval::ALL,
                Interval::ALL,
                alice,
                sce_go,
                EntryLimit::Unbounded,
            )
            .unwrap(),
        );
        let acc = e.accessible_for(alice);
        assert_eq!(acc, vec![sce_go]);
        let report = e.inaccessible_for(alice);
        assert!(report.inaccessible.len() == e.graph().len() - 1);
    }
}
