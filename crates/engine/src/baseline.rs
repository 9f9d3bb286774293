//! The card-reader baseline LTAM is contrasted with in §1.
//!
//! "The existing systems only enforce access control upon access requests
//! while LTAM monitors the user movement at all times." The
//! [`CardReaderEngine`] implements exactly that weaker contract:
//!
//! * the check happens at the reader (the access request) and the entry
//!   budget is consumed at swipe time;
//! * physical movement is *not* checked against authorizations — tailgaters
//!   enter unnoticed;
//! * exits are neither restricted nor monitored — no exit-window or
//!   overstay detection.
//!
//! Both engines implement [`Enforcement`], so simulations drive them with
//! the same event stream and compare what each catches.

use crate::engine::AccessControlEngine;
use crate::movement::MovementsDb;
use crate::violation::Violation;
use ltam_core::db::{AuthId, AuthorizationDb};
use ltam_core::decision::{check_access, AccessRequest, Decision};
use ltam_core::ledger::UsageLedger;
use ltam_core::model::Authorization;
use ltam_core::subject::SubjectId;
use ltam_graph::{LocationId, LocationModel};
use ltam_time::Time;

/// A uniform interface over enforcement engines, for comparative runs.
pub trait Enforcement {
    /// Process an access request at a door.
    fn request_enter(&mut self, t: Time, subject: SubjectId, location: LocationId) -> Decision;
    /// Observe a physical entry.
    fn observe_enter(&mut self, t: Time, subject: SubjectId, location: LocationId);
    /// Observe a physical exit.
    fn observe_exit(&mut self, t: Time, subject: SubjectId, location: LocationId);
    /// Advance the monitoring clock.
    fn tick(&mut self, now: Time);
    /// Violations detected so far.
    fn detected_violations(&self) -> &[Violation];
}

impl Enforcement for AccessControlEngine {
    fn request_enter(&mut self, t: Time, subject: SubjectId, location: LocationId) -> Decision {
        AccessControlEngine::request_enter(self, t, subject, location)
    }
    fn observe_enter(&mut self, t: Time, subject: SubjectId, location: LocationId) {
        AccessControlEngine::observe_enter(self, t, subject, location);
    }
    fn observe_exit(&mut self, t: Time, subject: SubjectId, location: LocationId) {
        AccessControlEngine::observe_exit(self, t, subject, location);
    }
    fn tick(&mut self, now: Time) {
        AccessControlEngine::tick(self, now);
    }
    fn detected_violations(&self) -> &[Violation] {
        self.violations()
    }
}

/// A request-time-only engine: checks at the reader, blind afterwards.
#[derive(Debug)]
pub struct CardReaderEngine {
    db: AuthorizationDb,
    ledger: UsageLedger,
    movements: MovementsDb,
    /// Intentionally always empty: this system cannot see violations.
    none: Vec<Violation>,
}

impl CardReaderEngine {
    /// Build a baseline engine (the layout is kept only for parity with the
    /// LTAM engine's constructor signature).
    pub fn new(_model: LocationModel) -> CardReaderEngine {
        CardReaderEngine {
            db: AuthorizationDb::new(),
            ledger: UsageLedger::new(),
            movements: MovementsDb::new(),
            none: Vec::new(),
        }
    }

    /// Insert an authorization.
    pub fn add_authorization(&mut self, auth: Authorization) -> AuthId {
        self.db.insert(auth)
    }

    /// The movements database (the readers record swipes, not violations).
    pub fn movements(&self) -> &MovementsDb {
        &self.movements
    }
}

impl Enforcement for CardReaderEngine {
    fn request_enter(&mut self, t: Time, subject: SubjectId, location: LocationId) -> Decision {
        let request = AccessRequest {
            time: t,
            subject,
            location,
        };
        let decision = check_access(&self.db, &self.ledger, &request);
        if let Decision::Granted { auth } = decision {
            // Swipe consumes the entry immediately; nobody verifies who (or
            // how many) actually walk through.
            self.ledger.record_entry(auth);
        }
        decision
    }

    fn observe_enter(&mut self, t: Time, subject: SubjectId, location: LocationId) {
        let _ = self.movements.record_enter(t, subject, location);
    }

    fn observe_exit(&mut self, t: Time, subject: SubjectId, location: LocationId) {
        let _ = self.movements.record_exit(t, subject, location);
    }

    fn tick(&mut self, _now: Time) {}

    fn detected_violations(&self) -> &[Violation] {
        &self.none
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_core::model::EntryLimit;
    use ltam_graph::examples::ntu_campus;
    use ltam_time::Interval;

    /// One authorized leader, two tailgaters. LTAM flags both intrusions;
    /// the card-reader baseline flags nothing.
    #[test]
    fn tailgating_differential() {
        let ntu = ntu_campus();
        let cais = ntu.cais;

        let mut ltam = AccessControlEngine::new(ntu.model.clone());
        let leader = ltam.profiles_mut().add_user("Leader", "staff");
        let t1 = ltam.profiles_mut().add_user("Tail1", "?");
        let t2 = ltam.profiles_mut().add_user("Tail2", "?");
        let auth = Authorization::new(
            Interval::lit(0, 100),
            Interval::lit(0, 200),
            leader,
            cais,
            EntryLimit::Finite(1),
        )
        .unwrap();
        ltam.add_authorization(auth);

        let mut reader = CardReaderEngine::new(ntu.model.clone());
        reader.add_authorization(auth);

        for engine in [&mut ltam as &mut dyn Enforcement, &mut reader] {
            assert!(engine.request_enter(Time(10), leader, cais).is_granted());
            engine.observe_enter(Time(10), leader, cais);
            // The door is open; two more walk in on the same swipe.
            engine.observe_enter(Time(10), t1, cais);
            engine.observe_enter(Time(11), t2, cais);
            engine.tick(Time(12));
        }

        assert_eq!(ltam.detected_violations().len(), 2);
        assert!(reader.detected_violations().is_empty());
    }

    #[test]
    fn card_reader_still_enforces_requests() {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut reader = CardReaderEngine::new(ntu.model);
        let alice = SubjectId(0);
        reader.add_authorization(
            Authorization::new(
                Interval::lit(0, 50),
                Interval::lit(0, 100),
                alice,
                cais,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        assert!(reader.request_enter(Time(10), alice, cais).is_granted());
        // Budget consumed at swipe time.
        assert!(!reader.request_enter(Time(20), alice, cais).is_granted());
        // Outside the window.
        assert!(!reader.request_enter(Time(60), alice, cais).is_granted());
    }

    #[test]
    fn card_reader_cannot_see_overstay() {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut reader = CardReaderEngine::new(ntu.model);
        let alice = SubjectId(0);
        reader.add_authorization(
            Authorization::new(
                Interval::lit(0, 50),
                Interval::lit(0, 60),
                alice,
                cais,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        reader.request_enter(Time(10), alice, cais);
        reader.observe_enter(Time(10), alice, cais);
        reader.tick(Time(1000)); // way past the exit window
        assert!(reader.detected_violations().is_empty());
        assert_eq!(reader.movements().current_location(alice), Some(cais));
    }
}
