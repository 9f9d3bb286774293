//! Per-subject enforcement state, factored out of the engine so it can be
//! sharded.
//!
//! LTAM's data model splits cleanly in two:
//!
//! * **read-mostly policy** — the location model, effective graph,
//!   authorization database and prohibitions. Admins change these rarely;
//!   every card swipe reads them.
//! * **per-subject mutable state** — pending grants, active stays, usage
//!   counters, movement timelines and violation logs. Every sensor event
//!   writes these, but only ever for *one* subject.
//!
//! [`ShardState`] owns the second half. The single-threaded
//! [`AccessControlEngine`](crate::engine::AccessControlEngine) holds
//! exactly one `ShardState`; the concurrent
//! [`ShardedEngine`](crate::batch::ShardedEngine) holds `N` of them,
//! partitioned by `SubjectId` hash over one shared policy core. Both run
//! the *same* enforcement code below, so the sharded deployment detects
//! exactly the violations the paper's single engine would.
//!
//! Enforcement methods take a [`PolicyView`] — immutable borrows of the
//! policy stores plus the engine tunables — and return the violations
//! they raise; the caller is responsible for turning those into
//! security-desk alerts.

use crate::engine::{AuditRecord, EngineConfig};
use crate::index::ByTime;
use crate::movement::MovementsDb;
use crate::retention::PrunedHistory;
use crate::violation::Violation;
use ltam_core::db::{AuthId, AuthorizationDb};
use ltam_core::decision::{AccessRequest, Decision, DecisionContext};
use ltam_core::ledger::UsageLedger;
use ltam_core::prohibition::ProhibitionDb;
use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_obs::locked;
use ltam_situate::{judge, IncidentId, SituationEffect, SituationPolicy};
use ltam_time::{Bound, Interval, Time};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// Immutable borrows of everything a shard needs to decide and monitor:
/// the read-mostly policy stores plus the enforcement tunables.
///
/// Build one per event batch (or per call) from whatever owns the policy —
/// the single engine's fields, or an epoch of the sharded engine's policy
/// core.
#[derive(Debug, Clone, Copy)]
pub struct PolicyView<'a> {
    /// The authorization database.
    pub db: &'a AuthorizationDb,
    /// Denial-takes-precedence prohibitions.
    pub prohibitions: &'a ProhibitionDb,
    /// Enforcement tunables (grant TTL).
    pub config: EngineConfig,
    /// The situation overlay (mode, responders, pins, workflow
    /// constraints) the decision path judges under.
    pub situation: &'a SituationPolicy,
}

impl<'a> PolicyView<'a> {
    /// The core decision context this view wraps.
    pub fn decision_context(&self) -> DecisionContext<'a> {
        DecisionContext {
            db: self.db,
            prohibitions: self.prohibitions,
        }
    }
}

/// What authorized a pending grant: a database authorization, or an
/// emergency override attributable to an incident declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GrantKind {
    /// Granted by this database authorization (Definition 7).
    Auth(AuthId),
    /// Granted by the emergency declared under this incident; valid at
    /// the door only while that emergency is still live.
    Override(IncidentId),
}

/// A granted access request waiting for the physical entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingGrant {
    pub(crate) location: LocationId,
    pub(crate) grant: GrantKind,
    pub(crate) granted_at: Time,
}

/// The per-subject mutable half of the enforcement engine.
///
/// All state here is keyed by subject (pending grants, active stays,
/// overstay flags, movement timelines) or owned by exactly one subject's
/// authorizations (ledger counters — an [`AuthId`] belongs to one
/// subject), so partitioning subjects across `ShardState`s never splits
/// an invariant across shards.
#[derive(Debug, Default)]
pub struct ShardState {
    pub(crate) ledger: UsageLedger,
    pub(crate) movements: MovementsDb,
    pub(crate) pending: HashMap<SubjectId, PendingGrant>,
    pub(crate) active_auth: HashMap<SubjectId, (LocationId, AuthId)>,
    pub(crate) overstay_alerted: HashSet<SubjectId>,
    pub(crate) violations: Vec<Violation>,
    pub(crate) audit: Vec<AuditRecord>,
    /// Audit records dropped by retention.
    pub(crate) audit_pruned: u64,
    /// Violations dropped by retention — still counted toward the alert
    /// sequence, so restart alerts stay monotone after pruning.
    pub(crate) violations_pruned: u64,
    /// `violations` by time: derived state ([`crate::index`]), built by
    /// the first [`ShardState::violations_in`], so a shard nobody
    /// queries pays one branch per detection and no memory.
    by_time: Mutex<Option<ByTime>>,
}

impl ShardState {
    /// An empty shard.
    pub fn new() -> ShardState {
        ShardState::default()
    }

    // --- read access ------------------------------------------------------

    /// This shard's slice of the usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// This shard's movements database.
    pub fn movements(&self) -> &MovementsDb {
        &self.movements
    }

    /// Violations detected by this shard, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The violations detected in `window`, by time — ties in detection
    /// order — each one read added to `examined`.
    pub fn violations_in(&self, window: Interval, examined: &mut u64) -> Vec<Violation> {
        let mut view = locked(self.by_time.lock(), "violation view");
        let view =
            view.get_or_insert_with(|| ByTime::of(self.violations.iter().map(Violation::time)));
        view.sort_in();
        view.pick(&self.violations, window, examined)
            .copied()
            .collect()
    }

    /// The audited request decisions taken by this shard.
    pub fn audit(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// The authorizations currently governing open stays on this shard.
    pub fn active_stays(&self) -> Vec<(SubjectId, LocationId, AuthId)> {
        self.active_auth
            .iter()
            .map(|(&s, &(l, a))| (s, l, a))
            .collect()
    }

    /// From which chronon this shard's history — movements, audit
    /// records and violations alike — is complete in live state.
    pub fn watermark(&self) -> Time {
        self.movements.watermark()
    }

    /// Violations dropped by retention (the live list plus this is the
    /// total ever detected; the alert sequence counts both).
    pub fn violations_pruned(&self) -> u64 {
        self.violations_pruned
    }

    /// Audit records dropped by retention.
    pub fn audit_pruned(&self) -> u64 {
        self.audit_pruned
    }

    // --- retention ----------------------------------------------------------

    /// The records a retention run at `horizon` would remove, without
    /// mutating anything (a durable deployment archives these first).
    pub fn collect_prunable(&self, horizon: Time) -> PrunedHistory {
        PrunedHistory {
            stays: self.movements.collect_prunable(horizon),
            audit: self
                .audit
                .iter()
                .filter(|r| r.request.time < horizon)
                .copied()
                .collect(),
            violations: self
                .violations
                .iter()
                .filter(|v| v.time() < horizon)
                .copied()
                .collect(),
        }
    }

    /// Drop every history record older than `horizon` and advance the
    /// watermark to at least `horizon`. Enforcement state — ledger, pending grants,
    /// active stays, overstay flags, the movement time-regression
    /// guard — is untouched, so pruning never changes which violations
    /// future events raise.
    pub fn apply_retention(&mut self, horizon: Time) {
        self.movements.apply_prune(horizon);
        let before = self.audit.len();
        self.audit.retain(|r| r.request.time >= horizon);
        self.audit_pruned += (before - self.audit.len()) as u64;
        let before = self.violations.len();
        self.violations.retain(|v| v.time() >= horizon);
        self.violations_pruned += (before - self.violations.len()) as u64;
        // The positions moved: the next reader rebuilds the view.
        *locked(self.by_time.get_mut(), "violation view") = None;
    }

    /// Collect-then-drop in one call (the volatile path; the caller
    /// decides whether the returned records are archived or discarded).
    pub fn prune(&mut self, horizon: Time) -> PrunedHistory {
        let pruned = self.collect_prunable(horizon);
        self.apply_retention(horizon);
        pruned
    }

    // --- enforcement ------------------------------------------------------

    /// The decision an access request by `subject` for `location` at
    /// `t` would get (Definition 7, judged under the situation overlay),
    /// without any side effect: no pending grant, no audit record, no
    /// overlay counter. The door's [`ShardState::request_enter`] and the
    /// query language's `CAN … ENTER` both decide through this.
    pub fn decide(
        &self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> (Decision, SituationEffect) {
        let request = AccessRequest {
            time: t,
            subject,
            location,
        };
        let base = policy.decision_context().decide(&self.ledger, &request);
        if policy.situation.is_inert() {
            return (base, SituationEffect::None);
        }
        // "Entered `l` in `[since, t]`" against this subject's own
        // timeline — all the history a workflow constraint may consult,
        // and all of it lives on this shard. The timeline is in entry
        // order, so only the stays entered inside the window are read.
        let entered = |l: LocationId, since: Time| {
            let stays = self.movements.timeline(subject);
            stays[stays.partition_point(|s| s.enter < since)..]
                .iter()
                .take_while(|s| s.enter <= t)
                .any(|s| s.location == l)
        };
        judge(policy.situation, subject, location, t, base, &entered)
    }

    /// Process an access request (Definition 6), judged under the
    /// situation overlay. A grant is remembered so the subsequent
    /// physical entry is recognized as authorized.
    pub fn request_enter(
        &mut self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Decision {
        let (decision, effect) = self.decide(policy, t, subject, location);
        count_effect(effect);
        let grant = match decision {
            Decision::Granted { auth } => Some(GrantKind::Auth(auth)),
            Decision::GrantedOverride { incident } => {
                Some(GrantKind::Override(IncidentId(incident)))
            }
            Decision::Denied { .. } => None,
        };
        if let Some(grant) = grant {
            let pending = PendingGrant {
                location,
                grant,
                granted_at: t,
            };
            self.pending.insert(subject, pending);
        }
        let request = AccessRequest {
            time: t,
            subject,
            location,
        };
        self.audit.push(AuditRecord { request, decision });
        decision
    }

    fn record(&mut self, violation: Violation) -> Violation {
        if let Some(view) = locked(self.by_time.get_mut(), "violation view") {
            view.push((violation.time(), self.violations.len()));
        }
        self.violations.push(violation);
        violation
    }

    fn valid_pending(
        &self,
        policy: &PolicyView<'_>,
        subject: SubjectId,
        location: LocationId,
        t: Time,
    ) -> Option<GrantKind> {
        let g = self.pending.get(&subject)?;
        if g.location != location {
            return None;
        }
        if t < g.granted_at || t.get() - g.granted_at.get() > policy.config.grant_ttl {
            return None;
        }
        match g.grant {
            GrantKind::Auth(auth_id) => {
                let auth = policy.db.get(auth_id)?;
                if !auth.admits_entry_at(t) {
                    return None;
                }
                // A prohibition issued between the grant and the physical
                // entry voids the grant.
                if policy.decision_context().blocked(subject, location, t) {
                    return None;
                }
                // A lockdown declared between the grant and the entry
                // voids unpinned grants at the door.
                if !policy.situation.admits_entry_under(auth_id, t) {
                    return None;
                }
                Some(g.grant)
            }
            // An override grant dies with its emergency: if the
            // declaration expired (or was replaced) before the subject
            // reached the door, the entry is unauthorized again.
            GrantKind::Override(incident) => policy
                .situation
                .override_live(incident, t)
                .then_some(g.grant),
        }
    }

    /// Process an observed entry (from the tracking infrastructure).
    ///
    /// Returns the violation raised, if any; the violation is already
    /// recorded in [`ShardState::violations`] — the caller only needs to
    /// forward it as an alert.
    pub fn observe_enter(
        &mut self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        if self.movements.record_enter(t, subject, location).is_err() {
            return Some(self.record(Violation::InconsistentMovement {
                time: t,
                subject,
                location,
            }));
        }
        match self.valid_pending(policy, subject, location, t) {
            Some(GrantKind::Auth(auth)) => {
                // Definition 7's count: the subject "has entered l" once more.
                self.ledger.record_entry(auth);
                self.pending.remove(&subject);
                self.active_auth.insert(subject, (location, auth));
                self.overstay_alerted.remove(&subject);
                None
            }
            Some(GrantKind::Override(_)) => {
                // An override entry consumes no authorization budget and
                // has no exit window to monitor: the stay is recorded in
                // the movement history (above) but not tracked as an
                // authorized stay.
                self.pending.remove(&subject);
                self.overstay_alerted.remove(&subject);
                None
            }
            None => Some(self.record(Violation::UnauthorizedEntry {
                time: t,
                subject,
                location,
            })),
        }
    }

    /// Process an observed exit. Returns the violation raised, if any.
    pub fn observe_exit(
        &mut self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        if self.movements.record_exit(t, subject, location).is_err() {
            return Some(self.record(Violation::InconsistentMovement {
                time: t,
                subject,
                location,
            }));
        }
        let mut raised = None;
        if let Some((l, auth_id)) = self.active_auth.remove(&subject) {
            if l == location {
                if let Some(auth) = policy.db.get(auth_id) {
                    if !auth.admits_exit_at(t) {
                        raised = Some(self.record(Violation::ExitOutsideWindow {
                            time: t,
                            subject,
                            location,
                            auth: auth_id,
                        }));
                    }
                }
            }
        }
        self.overstay_alerted.remove(&subject);
        raised
    }

    /// Advance the monitoring clock: raise an overstay alert (once per
    /// stay) for every subject on this shard still inside after their exit
    /// window closed.
    pub fn tick(&mut self, policy: &PolicyView<'_>, now: Time) -> Vec<Violation> {
        let mut raised = Vec::new();
        let candidates: Vec<(SubjectId, LocationId, AuthId)> = self
            .active_auth
            .iter()
            .filter(|(s, _)| !self.overstay_alerted.contains(*s))
            .map(|(&s, &(l, a))| (s, l, a))
            .collect();
        for (subject, location, auth_id) in candidates {
            let Some(auth) = policy.db.get(auth_id) else {
                continue;
            };
            if let Bound::At(end) = auth.exit_window().end() {
                if now > end {
                    raised.push(self.record(Violation::Overstay {
                        detected_at: now,
                        subject,
                        location,
                        auth: auth_id,
                    }));
                    self.overstay_alerted.insert(subject);
                }
            }
        }
        raised
    }

    // --- administration hooks ---------------------------------------------

    /// An authorization was revoked: forget its usage counters, lapse any
    /// pending grant issued under it, and release active stays it was
    /// governing. (Stays under a revoked id were already unmonitorable —
    /// exit/overstay checks skip ids absent from the database — but the
    /// reference must not survive into a persistence image, where a later
    /// reuse of the id would make it resolve to the wrong authorization.)
    pub fn invalidate_auth(&mut self, id: AuthId) {
        self.ledger.clear(id);
        self.pending.retain(|_, g| g.grant != GrantKind::Auth(id));
        self.active_auth.retain(|_, &mut (_, a)| a != id);
    }

    // --- persistence hooks --------------------------------------------------

    /// Export the complete mutable state as a serializable image.
    ///
    /// The image is **exhaustive** — pending grants included: crash
    /// recovery must reproduce the exact enforcement state, or replaying
    /// the WAL tail after a restart would raise violations an
    /// uninterrupted run never saw. Collections are sorted so equal
    /// states export byte-identical images.
    pub fn image(&self) -> ShardStateImage {
        let mut pending: Vec<PendingImage> = self
            .pending
            .iter()
            .map(|(&subject, g)| {
                let (auth, incident) = match g.grant {
                    GrantKind::Auth(a) => (a, None),
                    // Override grants have no authorization; the auth
                    // field is a placeholder old readers would dangle
                    // on harmlessly (no live id is ever u64::MAX).
                    GrantKind::Override(i) => (AuthId(u64::MAX), Some(i.0)),
                };
                PendingImage {
                    subject,
                    location: g.location,
                    auth,
                    incident,
                    granted_at: g.granted_at,
                }
            })
            .collect();
        pending.sort_by_key(|p| p.subject);
        let mut active: Vec<(SubjectId, LocationId, AuthId)> = self
            .active_auth
            .iter()
            .map(|(&s, &(l, a))| (s, l, a))
            .collect();
        active.sort_by_key(|&(s, _, _)| s);
        let mut overstay_alerted: Vec<SubjectId> = self.overstay_alerted.iter().copied().collect();
        overstay_alerted.sort();
        ShardStateImage {
            ledger: self.ledger.clone(),
            movements: self.movements.clone(),
            pending,
            active,
            overstay_alerted,
            violations: self.violations.clone(),
            audit: self.audit.clone(),
            audit_pruned: self.audit_pruned,
            violations_pruned: self.violations_pruned,
        }
    }

    /// Rebuild a shard from an exported image (inverse of
    /// [`ShardState::image`]).
    pub fn from_image(image: ShardStateImage) -> ShardState {
        ShardState {
            ledger: image.ledger,
            movements: image.movements,
            pending: image
                .pending
                .into_iter()
                .map(|p| {
                    let grant = match p.incident {
                        Some(i) => GrantKind::Override(IncidentId(i)),
                        None => GrantKind::Auth(p.auth),
                    };
                    (
                        p.subject,
                        PendingGrant {
                            location: p.location,
                            grant,
                            granted_at: p.granted_at,
                        },
                    )
                })
                .collect(),
            active_auth: image
                .active
                .into_iter()
                .map(|(s, l, a)| (s, (l, a)))
                .collect(),
            overstay_alerted: image.overstay_alerted.into_iter().collect(),
            violations: image.violations,
            audit: image.audit,
            audit_pruned: image.audit_pruned,
            violations_pruned: image.violations_pruned,
            by_time: Mutex::default(),
        }
    }
}

/// Count what the situation overlay did to a decision (the audit trail
/// carries the rewritten decision itself; these series make the rates
/// scrapeable).
fn count_effect(effect: SituationEffect) {
    match effect {
        SituationEffect::None => {}
        SituationEffect::Overridden(_) => ltam_obs::counter!(
            "situate_overrides_total",
            "Denials rewritten into emergency override grants"
        )
        .inc(),
        SituationEffect::OverrideExpired => ltam_obs::counter!(
            "situate_override_expired_total",
            "Responder denials that stood because the declared emergency had auto-expired"
        )
        .inc(),
        SituationEffect::LockdownRefused => ltam_obs::counter!(
            "situate_lockdown_refusals_total",
            "Grants refused by lockdown default-deny (authorization not pinned)"
        )
        .inc(),
        SituationEffect::ConstraintRefused(_) => ltam_obs::counter!(
            "situate_constraint_refusals_total",
            "Entries refused by a workflow constraint (SoD, BoD, ordered steps)"
        )
        .inc(),
    }
}

/// A pending grant, flattened for serialization (see
/// [`ShardStateImage::pending`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingImage {
    /// The granted subject.
    pub subject: SubjectId,
    /// The location the grant admits them to.
    pub location: LocationId,
    /// The authorization the grant was issued under (a placeholder
    /// `u64::MAX` id for emergency-override grants — see `incident`).
    pub auth: AuthId,
    /// `Some(incident)` for an emergency-override grant: the grant was
    /// issued under this incident's declaration, not an authorization.
    /// `None` in pre-situation images and for ordinary grants.
    pub incident: Option<u64>,
    /// When the request was granted (the grant lapses `grant_ttl`
    /// chronons later).
    pub granted_at: Time,
}

/// Serializable image of one shard's complete mutable state.
///
/// Produced by [`ShardState::image`], consumed by
/// [`ShardState::from_image`]; `ltam-store` persists a vector of these
/// (one per shard) inside every engine snapshot. All fields are public so
/// [`redistribute`](crate::batch::redistribute) can re-deal subject-keyed
/// state onto another shard count (recovery, and the canonical image).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStateImage {
    /// Per-authorization entry counters.
    pub ledger: UsageLedger,
    /// The shard's movements database (timelines, occupancy).
    pub movements: MovementsDb,
    /// Grants issued but not yet used, sorted by subject.
    pub pending: Vec<PendingImage>,
    /// Authorizations governing open stays, sorted by subject.
    pub active: Vec<(SubjectId, LocationId, AuthId)>,
    /// Subjects already alerted for their current overstay, sorted.
    pub overstay_alerted: Vec<SubjectId>,
    /// Violations detected by this shard, in detection order.
    pub violations: Vec<Violation>,
    /// Audited request decisions, in decision order.
    pub audit: Vec<AuditRecord>,
    /// Audit records dropped by retention.
    pub audit_pruned: u64,
    /// Violations dropped by retention; carried so the alert sequence
    /// resumes past pruned violations after recovery.
    pub violations_pruned: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::Stay;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_situate::{SituationOp, WorkflowConstraint};
    use ltam_time::Interval;

    const ALICE: SubjectId = SubjectId(0);
    const CAIS: LocationId = LocationId(3);

    fn policy_db() -> (AuthorizationDb, ProhibitionDb) {
        let mut db = AuthorizationDb::new();
        db.insert(
            Authorization::new(
                Interval::lit(5, 40),
                Interval::lit(20, 100),
                ALICE,
                CAIS,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        (db, ProhibitionDb::new())
    }

    #[test]
    fn shard_state_runs_the_full_cycle() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        assert_eq!(s.active_stays().len(), 1);
        // Exit at 25 is inside [20, 100]: clean.
        assert_eq!(s.observe_exit(&policy, Time(25), ALICE, CAIS), None);
        assert!(s.violations().is_empty());
        assert_eq!(s.audit().len(), 1);
        assert_eq!(s.ledger().used(ltam_core::db::AuthId(0)), 1);
    }

    #[test]
    fn shard_state_raises_the_taxonomy() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // Tailgate: enter without a grant.
        assert!(matches!(
            s.observe_enter(&policy, Time(6), ALICE, CAIS),
            Some(Violation::UnauthorizedEntry { .. })
        ));
        // Exiting the unauthorized stay breaches nothing: there is no
        // active authorization whose window could be violated.
        assert!(s.observe_exit(&policy, Time(7), ALICE, CAIS).is_none());
        // Inconsistent: exit again while outside.
        assert!(matches!(
            s.observe_exit(&policy, Time(8), ALICE, CAIS),
            Some(Violation::InconsistentMovement { .. })
        ));
        assert_eq!(s.violations().len(), 2);
    }

    #[test]
    fn the_violation_view_follows_detection_and_prunes() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // Tailgates detected out of time order across subjects.
        for (t, who) in [(30, 1), (10, 2), (20, 3), (10, 4)] {
            s.observe_enter(&policy, Time(t), SubjectId(who), CAIS);
        }
        let times = |s: &ShardState, window| {
            let found = s.violations_in(window, &mut 0);
            found.iter().map(|v| v.time().get()).collect::<Vec<_>>()
        };
        assert_eq!(times(&s, Interval::ALL), [10, 10, 20, 30]);
        assert!(
            locked(s.by_time.lock(), "violation view").is_some(),
            "the first query built the view"
        );
        // Detection after the build is appended; a prune moves every
        // position, so the view goes and the next query rebuilds it.
        s.observe_enter(&policy, Time(15), SubjectId(5), CAIS);
        assert_eq!(times(&s, Interval::lit(10, 20)), [10, 10, 15, 20]);
        s.apply_retention(Time(12));
        assert!(locked(s.by_time.lock(), "violation view").is_none());
        assert_eq!(times(&s, Interval::ALL), [15, 20, 30]);
        // A restored shard starts without one.
        let back = ShardState::from_image(s.image());
        assert!(locked(back.by_time.lock(), "violation view").is_none());
        assert_eq!(times(&back, Interval::lit(16, 30)), [20, 30]);
    }

    #[test]
    fn image_round_trip_preserves_every_field() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // Exercise every piece of state: a used grant, an open stay, a
        // pending grant for a second subject, and a violation.
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        s.observe_enter(&policy, Time(6), SubjectId(7), CAIS); // tailgate
        let image = s.image();
        let restored = ShardState::from_image(image.clone());
        assert_eq!(restored.image(), image);
        assert_eq!(restored.violations(), s.violations());
        assert_eq!(restored.audit(), s.audit());
        assert_eq!(restored.active_stays(), s.active_stays());
        assert_eq!(restored.ledger().total_entries(), 1);
        // Pending grants survive an image: crash recovery must not turn
        // a granted entry into a violation.
        let mut pending = ShardState::new();
        assert!(pending
            .request_enter(&policy, Time(10), ALICE, CAIS)
            .is_granted());
        let mut back = ShardState::from_image(pending.image());
        assert_eq!(back.observe_enter(&policy, Time(11), ALICE, CAIS), None);
    }

    #[test]
    fn image_serde_round_trips() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        s.tick(&policy, Time(200));
        let image = s.image();
        let back = ShardStateImage::from_value(&image.to_value()).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn retention_prunes_history_but_not_enforcement_state() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // A full early cycle (audit + movements + ledger) and a tailgate
        // violation, then a later open stay.
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        assert_eq!(s.observe_exit(&policy, Time(25), ALICE, CAIS), None);
        s.observe_enter(&policy, Time(12), SubjectId(7), CAIS); // tailgate
        s.observe_exit(&policy, Time(13), SubjectId(7), CAIS);
        let pruned = s.prune(Time(30));
        assert_eq!(pruned.stays.len(), 2, "{pruned:?}");
        assert_eq!(pruned.audit.len(), 1);
        assert_eq!(pruned.violations.len(), 1);
        assert!(s.violations().is_empty());
        assert!(s.audit().is_empty());
        assert_eq!(s.violations_pruned(), 1);
        assert_eq!(s.audit_pruned(), 1);
        assert_eq!(s.watermark(), Time(30));
        // The ledger survived: Alice's single entry stays spent.
        assert_eq!(s.ledger().used(AuthId(0)), 1);
        assert!(!s.request_enter(&policy, Time(31), ALICE, CAIS).is_granted());
        // Images round-trip the watermark and counters.
        let restored = ShardState::from_image(s.image());
        assert_eq!(restored.watermark(), Time(30));
        assert_eq!(restored.violations_pruned(), 1);
        assert_eq!(restored.image(), s.image());
    }

    #[test]
    fn one_horizon_prunes_every_class_at_the_same_chronon() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let h = Time(50);
        let (before, at) = (SubjectId(7), SubjectId(8));
        let mut s = ShardState::new();
        // Each subject asks (an audit record), tailgates (a violation)
        // and leaves (a closed stay), all in one chronon: h−1 for one,
        // exactly h for the other.
        for (subject, t) in [(before, Time(h.get() - 1)), (at, h)] {
            s.request_enter(&policy, t, subject, CAIS);
            s.observe_enter(&policy, t, subject, CAIS);
            s.observe_exit(&policy, t, subject, CAIS);
        }
        let pruned = s.prune(h);
        let stay = |t| Stay {
            location: CAIS,
            enter: t,
            exit: Some(t),
        };
        let early = Time(h.get() - 1);
        assert_eq!(pruned.stays, vec![(before, stay(early))]);
        assert_eq!(pruned.audit.len(), 1);
        assert_eq!(pruned.audit[0].request.time, early);
        assert_eq!(pruned.violations.len(), 1);
        assert_eq!(pruned.violations[0].time(), early);
        // The same three at exactly h are kept.
        assert_eq!(s.movements().timeline(at), [stay(h)]);
        assert_eq!(s.audit().len(), 1);
        assert_eq!(s.audit()[0].request.time, h);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].time(), h);
        assert_eq!(s.watermark(), h);
        let restored = ShardState::from_image(s.image());
        assert_eq!(restored.watermark(), h);
        assert_eq!(restored.image(), s.image());
    }

    #[test]
    fn invalidate_auth_lapses_pending_and_counters() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        let Decision::Granted { auth } = s.request_enter(&policy, Time(10), ALICE, CAIS) else {
            panic!("expected grant");
        };
        s.invalidate_auth(auth);
        assert!(matches!(
            s.observe_enter(&policy, Time(11), ALICE, CAIS),
            Some(Violation::UnauthorizedEntry { .. })
        ));
    }

    const PHARMACY: LocationId = LocationId(4);
    const STOCKROOM: LocationId = LocationId(5);

    /// Whether Alice, who entered the pharmacy at `enter` and left at
    /// `exit`, is granted the stockroom at `t`. She holds an unbounded
    /// authorization for both rooms over `[0, 1000]`, so `constraint` is
    /// the only thing that can refuse her.
    fn stockroom_after_pharmacy(
        constraint: &WorkflowConstraint,
        enter: u64,
        exit: u64,
        t: u64,
    ) -> bool {
        let mut db = AuthorizationDb::new();
        for location in [PHARMACY, STOCKROOM] {
            let window = Interval::lit(0, 1000);
            let auth = Authorization::new(window, window, ALICE, location, EntryLimit::Unbounded);
            db.insert(auth.unwrap());
        }
        let mut situation = SituationPolicy::new();
        situation.apply(&SituationOp::AddConstraint(constraint.clone()));
        let prohibitions = ProhibitionDb::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        assert!(s
            .request_enter(&policy, Time(enter), ALICE, PHARMACY)
            .is_granted());
        assert_eq!(s.observe_enter(&policy, Time(enter), ALICE, PHARMACY), None);
        assert_eq!(s.observe_exit(&policy, Time(exit), ALICE, PHARMACY), None);
        s.request_enter(&policy, Time(t), ALICE, STOCKROOM)
            .is_granted()
    }

    // A workflow constraint's window of `w` at request time `t` is the
    // closed `[t - w, t]`: an entry at either end is inside it.

    #[test]
    fn a_separation_of_duty_window_binds_at_both_ends() {
        let sod = WorkflowConstraint::SeparationOfDuty {
            first: PHARMACY,
            second: STOCKROOM,
            window: 20,
        };
        // Entered at exactly t - 20: still tainted; a chronon later, not.
        assert!(!stockroom_after_pharmacy(&sod, 10, 12, 30));
        assert!(stockroom_after_pharmacy(&sod, 10, 12, 31));
        // Entered and left at the request's own chronon: tainted.
        assert!(!stockroom_after_pharmacy(&sod, 30, 30, 30));
    }

    #[test]
    fn an_ordered_steps_window_binds_at_both_ends() {
        let steps = WorkflowConstraint::OrderedSteps {
            steps: vec![PHARMACY, STOCKROOM],
            window: 20,
        };
        // The previous step entered at exactly t - 20 still counts; a
        // chronon later it has lapsed.
        assert!(stockroom_after_pharmacy(&steps, 10, 12, 30));
        assert!(!stockroom_after_pharmacy(&steps, 10, 12, 31));
        // Entered and left at the request's own chronon: it counts.
        assert!(stockroom_after_pharmacy(&steps, 30, 30, 30));
    }
}
