//! Correctness checks: an order-free violation digest over a sample of
//! subjects, and the single-threaded reference engine the program's
//! outputs are compared with.
//!
//! Without ticks, enforcement is per subject (constraints look back at
//! the subject's own history), so a reference that holds only every
//! `stride`-th subject's authorizations and replays only those
//! subjects' events reproduces exactly the violations and decisions the
//! full system must have produced for them — over the *whole* run, at
//! a fraction of its cost.

use ltam::core::model::Authorization;
use ltam::core::subject::SubjectId;
use ltam::engine::batch::Event;
use ltam::engine::engine::AccessControlEngine;
use ltam::engine::Violation;
use ltam::situate::{SituationOp, WorkflowConstraint};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Is `subject` in the verified sample?
pub fn sampled(subject: SubjectId, stride: u32) -> bool {
    subject.0.is_multiple_of(stride.max(1))
}

/// A commutative digest of the violations raised for sampled subjects:
/// the wrapping sum of a fixed-key hash of each. Authorization ids are
/// left out — the reference numbers its (sampled) authorizations
/// differently — kind, time, subject and location are all in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationDigest {
    stride: u32,
    sum: u64,
    count: u64,
}

impl ViolationDigest {
    /// An empty digest over every `stride`-th subject.
    pub fn new(stride: u32) -> ViolationDigest {
        ViolationDigest {
            stride,
            sum: 0,
            count: 0,
        }
    }

    /// Fold one violation in (ignored unless its subject is sampled).
    pub fn add(&mut self, v: &Violation) {
        if !sampled(v.subject(), self.stride) {
            return;
        }
        let kind = match v {
            Violation::UnauthorizedEntry { .. } => 0u8,
            Violation::ExitOutsideWindow { .. } => 1,
            Violation::Overstay { .. } => 2,
            Violation::InconsistentMovement { .. } => 3,
        };
        // `DefaultHasher::new()` uses fixed keys: equal across processes.
        let mut h = DefaultHasher::new();
        (kind, v.time().get(), v.subject().0, v.location().0).hash(&mut h);
        self.sum = self.sum.wrapping_add(h.finish());
        self.count += 1;
    }

    /// The digest value.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Violations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The reference: the repository's single-threaded engine, loaded with
/// the sampled subjects' authorizations only.
pub struct Reference {
    engine: AccessControlEngine,
    stride: u32,
    seen: usize,
}

impl Reference {
    /// Build over every `stride`-th subject of `authorizations`.
    pub fn new(
        authorizations: &[Authorization],
        stride: u32,
        constraints: &[WorkflowConstraint],
    ) -> Reference {
        let mut engine = AccessControlEngine::new(crate::gen::world().model);
        for auth in authorizations {
            if sampled(auth.subject(), stride) {
                engine.add_authorization(*auth);
            }
        }
        for c in constraints {
            engine.apply_situation(&SituationOp::AddConstraint(c.clone()));
        }
        Reference {
            engine,
            stride,
            seen: 0,
        }
    }

    /// Apply `event` if its subject is sampled; for a sampled access
    /// request, returns whether the reference granted it.
    pub fn apply(&mut self, event: &Event) -> Option<bool> {
        if !event.subject().is_some_and(|s| sampled(s, self.stride)) {
            return None;
        }
        match *event {
            Event::Request {
                time,
                subject,
                location,
            } => Some(
                self.engine
                    .request_enter(time, subject, location)
                    .is_granted(),
            ),
            Event::Enter {
                time,
                subject,
                location,
            } => {
                self.engine.observe_enter(time, subject, location);
                None
            }
            Event::Exit {
                time,
                subject,
                location,
            } => {
                self.engine.observe_exit(time, subject, location);
                None
            }
            Event::Tick { .. } => unreachable!("workloads carry no ticks"),
        }
    }

    /// The digest of every violation raised since the last call.
    pub fn drain_digest(&mut self) -> ViolationDigest {
        let mut digest = ViolationDigest::new(self.stride);
        let all = self.engine.violations();
        all[self.seen..].iter().for_each(|v| digest.add(v));
        self.seen = all.len();
        digest
    }

    /// The engine, for history-query comparisons.
    pub fn engine(&self) -> &AccessControlEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use ltam::engine::batch::ShardedEngine;

    #[test]
    fn digest_is_order_free_and_sample_restricted() {
        use ltam::graph::LocationId;
        use ltam::time::Time;
        let v = |t, s| Violation::UnauthorizedEntry {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(1),
        };
        let mut a = ViolationDigest::new(2);
        let mut b = ViolationDigest::new(2);
        for x in [v(1, 0), v(2, 2), v(3, 1)] {
            a.add(&x);
        }
        for x in [v(2, 2), v(1, 0)] {
            b.add(&x);
        }
        assert_eq!(a, b);
        assert_eq!(a.count(), 2);
        b.add(&v(9, 4));
        assert_ne!(a, b);
    }

    #[test]
    fn sampled_reference_matches_the_sharded_engine() {
        let lap = gen::base_lap(21, 60, 3_000);
        let (engine, _alerts) = ShardedEngine::new(gen::policy_core(&lap.authorizations), 2);
        let mut reference = Reference::new(&lap.authorizations, 4, &[]);
        let mut got = ViolationDigest::new(4);
        let mut cursor = gen::LapCursor::new(lap.span);
        let mut batch = Vec::new();
        for _ in 0..3 {
            batch.clear();
            cursor.fill(&lap.events, lap.events.len(), &mut batch);
            engine
                .ingest(&batch)
                .violations
                .iter()
                .for_each(|v| got.add(v));
            for e in &batch {
                reference.apply(e);
            }
        }
        let want = reference.drain_digest();
        assert!(want.count() > 0, "the mix raises violations");
        assert_eq!(got, want);
    }
}
