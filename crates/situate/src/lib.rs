//! # ltam-situate — the situation overlay on LTAM enforcement
//!
//! LTAM's authorizations (Yu & Lim, SDM 2004) are static
//! `(subject, location, interval)` tuples, but the paper's own hospital
//! and campus scenarios change wholesale when an incident is declared:
//! who may go where under a fire alarm or an active lockdown is not the
//! same question as on a quiet Tuesday. This crate supplies the
//! *situation axis* the paper leaves open, following the temporal
//! framework's 6-tuple situation model (NORMAL / EMERGENCY / LOCKDOWN
//! with audited, ticket-bound emergency overrides) and the workflow
//! constraints of *Security Constraints in Temporal Role-Based
//! Access-Controlled Workflows*:
//!
//! * [`SituationMode`] — the declared mode. `Normal` leaves the base
//!   decision untouched; `Emergency` lets registered *responders*
//!   bypass denials (every override is flagged with the authorizing
//!   [`IncidentId`] and auto-expires on the monitoring clock);
//!   `Lockdown` inverts default-allow into default-deny except for
//!   explicitly *pinned* authorizations.
//! * [`WorkflowConstraint`] — temporal separation-of-duty,
//!   binding-of-duty and ordered-step constraints evaluated inline on
//!   the enforcement path against the subject's own movement history.
//!   Constraints bind in **every** mode: an emergency override can
//!   bypass a missing authorization, never a safety constraint.
//! * [`SituationPolicy`] — the epoch-swappable overlay state an
//!   enforcement policy core carries, edited by durable
//!   [`SituationOp`]s exactly like the serving tier's admin records.
//! * [`judge`] — the pure decision rewrite: base decision in, situated
//!   decision out, plus a [`SituationEffect`] the caller can count.
//!
//! Everything here is deterministic in the event time `t` — never the
//! wall clock — so a replica replaying the same event stream under the
//! same declared situation reaches byte-identical decisions.

#![warn(missing_docs)]

use ltam_core::db::AuthId;
use ltam_core::decision::{Decision, DenyReason};
use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::Time;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The incident ticket authorizing an emergency declaration. Every
/// override decision taken under the emergency carries this id into the
/// audit trail, so each bypass is attributable to the declaration that
/// allowed it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct IncidentId(pub u64);

impl fmt::Display for IncidentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// Identifier of an installed [`WorkflowConstraint`] (dense, assigned
/// by [`SituationPolicy::apply`], never reissued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConstraintId(pub u32);

impl fmt::Display for ConstraintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// The declared situation. Declarations replace each other wholesale —
/// declaring `Normal` clears an emergency or lockdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SituationMode {
    /// No situation: base LTAM decisions stand untouched.
    #[default]
    Normal,
    /// A declared emergency: responders' denials are rewritten into
    /// override grants flagged with `incident`, until the monitoring
    /// clock passes `until` (the declaration then lapses on its own —
    /// an operator who forgets to clear it cannot leave the bypass
    /// open forever).
    Emergency {
        /// The authorizing incident ticket, stamped on every override.
        incident: IncidentId,
        /// Last chronon (inclusive) the declaration is live on the
        /// monitoring clock.
        until: Time,
    },
    /// Default-deny: every grant is refused unless its authorization
    /// is explicitly pinned. Denials keep their base reason.
    Lockdown,
}

impl fmt::Display for SituationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SituationMode::Normal => write!(f, "normal"),
            SituationMode::Emergency { incident, until } => {
                write!(f, "emergency({incident}, until {until})")
            }
            SituationMode::Lockdown => write!(f, "lockdown"),
        }
    }
}

/// The mode actually in force at a given time: a declared
/// [`SituationMode::Emergency`] whose `until` has passed behaves as
/// `Normal` (auto-expiry), without anyone editing the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectiveMode {
    /// Base decisions stand.
    Normal,
    /// Overrides live, attributable to this incident.
    Emergency(IncidentId),
    /// Default-deny in force.
    Lockdown,
}

/// A temporal workflow constraint, evaluated at decision time against
/// the requesting subject's own movement history. `window` is in
/// chronons, looking back from the request time (an entry at `t - w`
/// is still inside a window of `w`).
///
/// All three variants are per-subject by construction — they relate a
/// subject's request to *that subject's* past entries — so a sharded
/// engine can evaluate them entirely shard-locally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkflowConstraint {
    /// The subject who entered `first` may not enter `second` within
    /// `window` chronons — the pharmacist who unlocked the pharmacy
    /// cannot also sign out controlled stock in the same shift.
    /// Directional: entering `second` never blocks `first`.
    SeparationOfDuty {
        /// The tainting step.
        first: LocationId,
        /// The refused step.
        second: LocationId,
        /// Look-back window, in chronons.
        window: u64,
    },
    /// The subject may enter `dependent` only having themselves entered
    /// `prerequisite` within `window` chronons — whoever signs out
    /// stock must be the one who checked in at the duty station first.
    BindingOfDuty {
        /// The step that must have happened.
        prerequisite: LocationId,
        /// The step it unlocks.
        dependent: LocationId,
        /// Look-back window, in chronons.
        window: u64,
    },
    /// Each listed step (after the first) requires the subject to have
    /// entered the previous step within `window` chronons. Locations
    /// not listed are unconstrained.
    OrderedSteps {
        /// The steps, in required order.
        steps: Vec<LocationId>,
        /// Per-step look-back window, in chronons.
        window: u64,
    },
}

fn window_start(t: Time, window: u64) -> Time {
    Time(t.get().saturating_sub(window))
}

impl WorkflowConstraint {
    /// Would entering `location` at `t` satisfy this constraint?
    ///
    /// `entered(l, since)` must answer "did the requesting subject
    /// physically enter `l` at some chronon in `[since, t]`" — the
    /// enforcement layer closes this over its movement timeline.
    pub fn admits(
        &self,
        location: LocationId,
        t: Time,
        entered: &dyn Fn(LocationId, Time) -> bool,
    ) -> bool {
        match self {
            WorkflowConstraint::SeparationOfDuty {
                first,
                second,
                window,
            } => location != *second || !entered(*first, window_start(t, *window)),
            WorkflowConstraint::BindingOfDuty {
                prerequisite,
                dependent,
                window,
            } => location != *dependent || entered(*prerequisite, window_start(t, *window)),
            WorkflowConstraint::OrderedSteps { steps, window } => {
                match steps.iter().position(|&s| s == location) {
                    None | Some(0) => true,
                    Some(i) => entered(steps[i - 1], window_start(t, *window)),
                }
            }
        }
    }
}

/// A durable situation edit — the situation counterpart of the serving
/// tier's `AdminOp`: one WAL record, replayed by recovery and by
/// followers at its stream position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SituationOp {
    /// Replace the declared mode (declaring [`SituationMode::Normal`]
    /// clears an emergency or lockdown).
    Declare(SituationMode),
    /// Register an emergency responder (their denials are overridden
    /// while an emergency is live).
    AddResponder(SubjectId),
    /// Remove a responder.
    RemoveResponder(SubjectId),
    /// Pin an authorization: it keeps granting under lockdown.
    Pin(AuthId),
    /// Unpin an authorization.
    Unpin(AuthId),
    /// Install a workflow constraint; the outcome carries its id.
    AddConstraint(WorkflowConstraint),
    /// Remove an installed constraint by id.
    RemoveConstraint(ConstraintId),
}

/// What a [`SituationOp`] did (returned over the wire to the declaring
/// admin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SituationOutcome {
    /// The mode now in force.
    Declared {
        /// The declared mode.
        mode: SituationMode,
    },
    /// Responder registered (`false`: already registered).
    ResponderAdded {
        /// Whether the set changed.
        added: bool,
    },
    /// Responder removed (`false`: was not registered).
    ResponderRemoved {
        /// Whether the subject was registered.
        existed: bool,
    },
    /// Authorization pinned (`false`: already pinned).
    Pinned {
        /// Whether the set changed.
        added: bool,
    },
    /// Authorization unpinned (`false`: was not pinned).
    Unpinned {
        /// Whether the authorization was pinned.
        existed: bool,
    },
    /// Constraint installed under this id.
    ConstraintAdded {
        /// The new constraint's id.
        id: ConstraintId,
    },
    /// Constraint removed (`false`: id unknown).
    ConstraintRemoved {
        /// Whether the id was installed.
        existed: bool,
    },
}

/// The epoch-swappable situation overlay a policy core carries: the
/// declared mode, the responder and pinned sets, and the installed
/// workflow constraints. All collections are ordered so equal policies
/// serialize byte-identically (snapshot determinism).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SituationPolicy {
    mode: SituationMode,
    responders: BTreeSet<SubjectId>,
    pinned: BTreeSet<AuthId>,
    constraints: BTreeMap<u32, WorkflowConstraint>,
    next_constraint: u32,
}

impl SituationPolicy {
    /// A fresh overlay: mode `Normal`, nothing registered.
    pub fn new() -> SituationPolicy {
        SituationPolicy::default()
    }

    /// The declared (not necessarily effective) mode.
    pub fn mode(&self) -> SituationMode {
        self.mode
    }

    /// The mode in force at `t`: a declared emergency past its `until`
    /// has lapsed and behaves as `Normal`.
    pub fn effective(&self, t: Time) -> EffectiveMode {
        match self.mode {
            SituationMode::Normal => EffectiveMode::Normal,
            SituationMode::Emergency { incident, until } => {
                if t <= until {
                    EffectiveMode::Emergency(incident)
                } else {
                    EffectiveMode::Normal
                }
            }
            SituationMode::Lockdown => EffectiveMode::Lockdown,
        }
    }

    /// True when an emergency is declared but has auto-expired at `t`
    /// (the enforcement layer counts denials that would have been
    /// overridden a chronon earlier).
    pub fn lapsed_emergency(&self, t: Time) -> bool {
        matches!(self.mode, SituationMode::Emergency { until, .. } if t > until)
    }

    /// Is `subject` a registered emergency responder?
    pub fn is_responder(&self, subject: SubjectId) -> bool {
        self.responders.contains(&subject)
    }

    /// Does `auth` keep granting under lockdown?
    pub fn is_pinned(&self, auth: AuthId) -> bool {
        self.pinned.contains(&auth)
    }

    /// The registered responders, ordered.
    pub fn responders(&self) -> impl Iterator<Item = SubjectId> + '_ {
        self.responders.iter().copied()
    }

    /// The pinned authorizations, ordered.
    pub fn pinned(&self) -> impl Iterator<Item = AuthId> + '_ {
        self.pinned.iter().copied()
    }

    /// The installed constraints, ordered by id.
    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &WorkflowConstraint)> + '_ {
        self.constraints
            .iter()
            .map(|(&id, c)| (ConstraintId(id), c))
    }

    /// True when the overlay cannot change any decision: mode `Normal`
    /// (declared, so no expiry bookkeeping either) and no constraints.
    /// The enforcement hot path skips [`judge`] entirely then.
    pub fn is_inert(&self) -> bool {
        self.mode == SituationMode::Normal && self.constraints.is_empty()
    }

    /// The first installed constraint refusing entry to `location` at
    /// `t`, if any (ids are checked in order, so refusals are
    /// deterministic).
    pub fn refused_by_constraint(
        &self,
        location: LocationId,
        t: Time,
        entered: &dyn Fn(LocationId, Time) -> bool,
    ) -> Option<ConstraintId> {
        self.constraints
            .iter()
            .find(|(_, c)| !c.admits(location, t, entered))
            .map(|(&id, _)| ConstraintId(id))
    }

    /// May a previously issued grant under `auth` still admit entry at
    /// `t`? Lockdown voids unpinned grants — including those issued
    /// *before* the lockdown was declared.
    pub fn admits_entry_under(&self, auth: AuthId, t: Time) -> bool {
        !matches!(self.effective(t), EffectiveMode::Lockdown) || self.is_pinned(auth)
    }

    /// Is an override grant issued under `incident` still live at `t`?
    /// Overrides die with their emergency: expiry or a new declaration
    /// voids them at the door.
    pub fn override_live(&self, incident: IncidentId, t: Time) -> bool {
        matches!(self.effective(t), EffectiveMode::Emergency(i) if i == incident)
    }

    /// Apply a durable situation edit.
    pub fn apply(&mut self, op: &SituationOp) -> SituationOutcome {
        match op {
            SituationOp::Declare(mode) => {
                self.mode = *mode;
                SituationOutcome::Declared { mode: *mode }
            }
            SituationOp::AddResponder(s) => SituationOutcome::ResponderAdded {
                added: self.responders.insert(*s),
            },
            SituationOp::RemoveResponder(s) => SituationOutcome::ResponderRemoved {
                existed: self.responders.remove(s),
            },
            SituationOp::Pin(a) => SituationOutcome::Pinned {
                added: self.pinned.insert(*a),
            },
            SituationOp::Unpin(a) => SituationOutcome::Unpinned {
                existed: self.pinned.remove(a),
            },
            SituationOp::AddConstraint(c) => {
                let id = self.next_constraint;
                self.next_constraint += 1;
                self.constraints.insert(id, c.clone());
                SituationOutcome::ConstraintAdded {
                    id: ConstraintId(id),
                }
            }
            SituationOp::RemoveConstraint(id) => SituationOutcome::ConstraintRemoved {
                existed: self.constraints.remove(&id.0).is_some(),
            },
        }
    }

    /// The declared mode as a metrics gauge value: 0 normal,
    /// 1 emergency, 2 lockdown.
    pub fn mode_gauge(&self) -> i64 {
        match self.mode {
            SituationMode::Normal => 0,
            SituationMode::Emergency { .. } => 1,
            SituationMode::Lockdown => 2,
        }
    }
}

/// What [`judge`] did to the base decision — the enforcement layer
/// turns these into metrics counters and the audit trail carries the
/// rewritten decision itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SituationEffect {
    /// Base decision passed through untouched.
    None,
    /// A denial was rewritten into an override grant under this
    /// incident.
    Overridden(IncidentId),
    /// A responder's denial stood because the declared emergency had
    /// auto-expired at the event time.
    OverrideExpired,
    /// A base grant was refused because lockdown default-denies
    /// unpinned authorizations.
    LockdownRefused,
    /// A workflow constraint refused the entry.
    ConstraintRefused(ConstraintId),
}

/// Rewrite a base LTAM decision under the situation overlay.
///
/// Deterministic in `t` (never the wall clock) and pure: the sharded
/// engine calls this per request under one policy epoch, so a batch
/// evaluates entirely under one declared situation.
///
/// The order of business is fixed:
///
/// 1. **Workflow constraints** bind in every mode and for everyone —
///    an emergency override bypasses a missing authorization, never a
///    safety constraint.
/// 2. The **effective mode** (auto-expiry applied) then rewrites the
///    survivors: emergencies override responders' denials, lockdown
///    refuses unpinned grants, normal passes through.
pub fn judge(
    policy: &SituationPolicy,
    subject: SubjectId,
    location: LocationId,
    t: Time,
    base: Decision,
    entered: &dyn Fn(LocationId, Time) -> bool,
) -> (Decision, SituationEffect) {
    if let Some(id) = policy.refused_by_constraint(location, t, entered) {
        return (
            Decision::Denied {
                reason: DenyReason::WorkflowConstraint,
            },
            SituationEffect::ConstraintRefused(id),
        );
    }
    match policy.effective(t) {
        EffectiveMode::Normal => {
            if !base.is_granted() && policy.lapsed_emergency(t) && policy.is_responder(subject) {
                (base, SituationEffect::OverrideExpired)
            } else {
                (base, SituationEffect::None)
            }
        }
        EffectiveMode::Emergency(incident) => {
            if base.is_granted() {
                (base, SituationEffect::None)
            } else if policy.is_responder(subject) {
                (
                    Decision::GrantedOverride {
                        incident: incident.0,
                    },
                    SituationEffect::Overridden(incident),
                )
            } else {
                (base, SituationEffect::None)
            }
        }
        EffectiveMode::Lockdown => match base {
            Decision::Granted { auth } if policy.is_pinned(auth) => (base, SituationEffect::None),
            Decision::Granted { .. } | Decision::GrantedOverride { .. } => (
                Decision::Denied {
                    reason: DenyReason::Lockdown,
                },
                SituationEffect::LockdownRefused,
            ),
            denied => (denied, SituationEffect::None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: SubjectId = SubjectId(0);
    const MEDIC: SubjectId = SubjectId(9);
    const WARD: LocationId = LocationId(1);
    const PHARMACY: LocationId = LocationId(2);
    const STOCKROOM: LocationId = LocationId(3);

    const NO_HISTORY: &dyn Fn(LocationId, Time) -> bool = &|_, _| false;

    fn granted() -> Decision {
        Decision::Granted { auth: AuthId(0) }
    }

    fn denied() -> Decision {
        Decision::Denied {
            reason: DenyReason::NoAuthorization,
        }
    }

    fn emergency(policy: &mut SituationPolicy, incident: u64, until: u64) {
        policy.apply(&SituationOp::Declare(SituationMode::Emergency {
            incident: IncidentId(incident),
            until: Time(until),
        }));
    }

    #[test]
    fn normal_mode_passes_decisions_through() {
        let policy = SituationPolicy::new();
        assert!(policy.is_inert());
        for base in [granted(), denied()] {
            let (d, e) = judge(&policy, ALICE, WARD, Time(10), base, NO_HISTORY);
            assert_eq!(d, base);
            assert_eq!(e, SituationEffect::None);
        }
    }

    #[test]
    fn emergency_overrides_responder_denials_and_flags_the_incident() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::AddResponder(MEDIC));
        emergency(&mut policy, 42, 100);
        // A responder's denial becomes an override carrying incident 42.
        let (d, e) = judge(&policy, MEDIC, WARD, Time(50), denied(), NO_HISTORY);
        assert_eq!(d, Decision::GrantedOverride { incident: 42 });
        assert_eq!(e, SituationEffect::Overridden(IncidentId(42)));
        // Non-responders stay denied; base grants pass untouched.
        let (d, e) = judge(&policy, ALICE, WARD, Time(50), denied(), NO_HISTORY);
        assert_eq!(d, denied());
        assert_eq!(e, SituationEffect::None);
        let (d, _) = judge(&policy, MEDIC, WARD, Time(50), granted(), NO_HISTORY);
        assert_eq!(d, granted());
    }

    #[test]
    fn emergency_auto_expires_on_the_event_clock() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::AddResponder(MEDIC));
        emergency(&mut policy, 7, 100);
        assert_eq!(
            policy.effective(Time(100)),
            EffectiveMode::Emergency(IncidentId(7))
        );
        assert_eq!(policy.effective(Time(101)), EffectiveMode::Normal);
        // Past `until`, the responder's denial stands and the expiry is
        // surfaced for counting.
        let (d, e) = judge(&policy, MEDIC, WARD, Time(101), denied(), NO_HISTORY);
        assert_eq!(d, denied());
        assert_eq!(e, SituationEffect::OverrideExpired);
        // The override grant itself also dies at the door.
        assert!(policy.override_live(IncidentId(7), Time(100)));
        assert!(!policy.override_live(IncidentId(7), Time(101)));
    }

    #[test]
    fn lockdown_default_denies_except_pinned() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::Pin(AuthId(5)));
        policy.apply(&SituationOp::Declare(SituationMode::Lockdown));
        let (d, e) = judge(&policy, ALICE, WARD, Time(10), granted(), NO_HISTORY);
        assert_eq!(
            d,
            Decision::Denied {
                reason: DenyReason::Lockdown
            }
        );
        assert_eq!(e, SituationEffect::LockdownRefused);
        let pinned = Decision::Granted { auth: AuthId(5) };
        let (d, e) = judge(&policy, ALICE, WARD, Time(10), pinned, NO_HISTORY);
        assert_eq!(d, pinned);
        assert_eq!(e, SituationEffect::None);
        // Denials keep their base reason — lockdown only refuses grants.
        let (d, _) = judge(&policy, ALICE, WARD, Time(10), denied(), NO_HISTORY);
        assert_eq!(d, denied());
        // Pre-lockdown grants are voided at the door unless pinned.
        assert!(!policy.admits_entry_under(AuthId(0), Time(10)));
        assert!(policy.admits_entry_under(AuthId(5), Time(10)));
    }

    #[test]
    fn separation_of_duty_refuses_the_second_step() {
        let mut policy = SituationPolicy::new();
        let SituationOutcome::ConstraintAdded { id } = policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::SeparationOfDuty {
                first: PHARMACY,
                second: STOCKROOM,
                window: 20,
            },
        )) else {
            panic!("expected ConstraintAdded");
        };
        // Alice unlocked the pharmacy at t=30.
        let entered = |l: LocationId, since: Time| l == PHARMACY && since <= Time(30);
        let (d, e) = judge(&policy, ALICE, STOCKROOM, Time(40), granted(), &entered);
        assert_eq!(
            d,
            Decision::Denied {
                reason: DenyReason::WorkflowConstraint
            }
        );
        assert_eq!(e, SituationEffect::ConstraintRefused(id));
        // Outside the window (t=51: window start 31 > 30) the grant stands.
        let (d, _) = judge(&policy, ALICE, STOCKROOM, Time(51), granted(), &entered);
        assert_eq!(d, granted());
        // The constraint is directional: pharmacy entry is never blocked.
        let (d, _) = judge(&policy, ALICE, PHARMACY, Time(40), granted(), &entered);
        assert_eq!(d, granted());
    }

    #[test]
    fn constraints_bind_even_during_an_emergency() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::AddResponder(MEDIC));
        emergency(&mut policy, 1, 1000);
        policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::SeparationOfDuty {
                first: PHARMACY,
                second: STOCKROOM,
                window: 20,
            },
        ));
        let entered = |l: LocationId, since: Time| l == PHARMACY && since <= Time(30);
        // Even a responder under a live emergency cannot break SoD.
        let (d, e) = judge(&policy, MEDIC, STOCKROOM, Time(40), denied(), &entered);
        assert!(!d.is_granted());
        assert!(matches!(e, SituationEffect::ConstraintRefused(_)));
    }

    #[test]
    fn binding_of_duty_requires_the_prerequisite() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::BindingOfDuty {
                prerequisite: WARD,
                dependent: PHARMACY,
                window: 50,
            },
        ));
        let (d, _) = judge(&policy, ALICE, PHARMACY, Time(60), granted(), NO_HISTORY);
        assert!(!d.is_granted());
        let entered = |l: LocationId, since: Time| l == WARD && since <= Time(40);
        let (d, _) = judge(&policy, ALICE, PHARMACY, Time(60), granted(), &entered);
        assert_eq!(d, granted());
    }

    #[test]
    fn ordered_steps_enforce_the_chain() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::OrderedSteps {
                steps: vec![WARD, PHARMACY, STOCKROOM],
                window: 100,
            },
        ));
        // Step 0 is always admissible; later steps need their
        // predecessor; unlisted locations are unconstrained.
        let (d, _) = judge(&policy, ALICE, WARD, Time(10), granted(), NO_HISTORY);
        assert_eq!(d, granted());
        let (d, _) = judge(&policy, ALICE, STOCKROOM, Time(10), granted(), NO_HISTORY);
        assert!(!d.is_granted());
        let entered = |l: LocationId, _: Time| l == PHARMACY;
        let (d, _) = judge(&policy, ALICE, STOCKROOM, Time(10), granted(), &entered);
        assert_eq!(d, granted());
        let (d, _) = judge(
            &policy,
            ALICE,
            LocationId(99),
            Time(10),
            granted(),
            NO_HISTORY,
        );
        assert_eq!(d, granted());
    }

    #[test]
    fn ops_round_trip_and_report_outcomes() {
        let mut policy = SituationPolicy::new();
        assert_eq!(
            policy.apply(&SituationOp::AddResponder(MEDIC)),
            SituationOutcome::ResponderAdded { added: true }
        );
        assert_eq!(
            policy.apply(&SituationOp::AddResponder(MEDIC)),
            SituationOutcome::ResponderAdded { added: false }
        );
        assert_eq!(
            policy.apply(&SituationOp::RemoveResponder(ALICE)),
            SituationOutcome::ResponderRemoved { existed: false }
        );
        assert_eq!(
            policy.apply(&SituationOp::Pin(AuthId(3))),
            SituationOutcome::Pinned { added: true }
        );
        assert_eq!(
            policy.apply(&SituationOp::Unpin(AuthId(3))),
            SituationOutcome::Unpinned { existed: true }
        );
        let SituationOutcome::ConstraintAdded { id } = policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::SeparationOfDuty {
                first: WARD,
                second: PHARMACY,
                window: 5,
            },
        )) else {
            panic!("expected ConstraintAdded");
        };
        assert_eq!(id, ConstraintId(0));
        assert_eq!(
            policy.apply(&SituationOp::RemoveConstraint(id)),
            SituationOutcome::ConstraintRemoved { existed: true }
        );
        // Ids are never reissued.
        let SituationOutcome::ConstraintAdded { id } = policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::BindingOfDuty {
                prerequisite: WARD,
                dependent: PHARMACY,
                window: 5,
            },
        )) else {
            panic!("expected ConstraintAdded");
        };
        assert_eq!(id, ConstraintId(1));
    }

    #[test]
    fn policy_serde_round_trips() {
        let mut policy = SituationPolicy::new();
        policy.apply(&SituationOp::AddResponder(MEDIC));
        policy.apply(&SituationOp::Pin(AuthId(2)));
        policy.apply(&SituationOp::AddConstraint(
            WorkflowConstraint::OrderedSteps {
                steps: vec![WARD, PHARMACY],
                window: 10,
            },
        ));
        emergency(&mut policy, 9, 77);
        let back = SituationPolicy::from_value(&policy.to_value()).unwrap();
        assert_eq!(back, policy);
        // Ops serialize too (they ride the WAL and the wire).
        let op = SituationOp::Declare(SituationMode::Lockdown);
        let back = SituationOp::from_value(&op.to_value()).unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn mode_gauge_values() {
        let mut policy = SituationPolicy::new();
        assert_eq!(policy.mode_gauge(), 0);
        emergency(&mut policy, 1, 10);
        assert_eq!(policy.mode_gauge(), 1);
        policy.apply(&SituationOp::Declare(SituationMode::Lockdown));
        assert_eq!(policy.mode_gauge(), 2);
    }
}
