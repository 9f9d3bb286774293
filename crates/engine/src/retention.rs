//! Retention plumbing for the enforcement layer: the record bundle a
//! prune produces.
//!
//! The policy itself is [`ltam_core::retention::RetentionPolicy`]; this
//! module holds the engine-side half, [`PrunedHistory`] (what a prune
//! removed — the archive tier in `ltam-store` persists exactly this
//! shape). A pruned shard is complete in live state from one chronon
//! on, its movements watermark
//! ([`MovementsDb::watermark`](crate::movement::MovementsDb::watermark)):
//! one horizon prunes every record class, so one watermark covers them.

use crate::engine::AuditRecord;
use crate::movement::Stay;
use crate::violation::Violation;
use ltam_core::subject::SubjectId;
use serde::{Deserialize, Serialize};

/// The records one retention run removed from live state, in stored
/// order per class. In a durable deployment this is written to the
/// archive tier *before* the in-memory drop; in a volatile deployment
/// the caller may keep or discard it, and live state then answers only
/// from the watermark on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrunedHistory {
    /// Pruned closed stays with their subjects, in timeline order per
    /// subject (subjects in id order).
    pub stays: Vec<(SubjectId, Stay)>,
    /// Pruned audited request decisions, in decision order.
    pub audit: Vec<AuditRecord>,
    /// Pruned violations, in detection order.
    pub violations: Vec<Violation>,
}

impl PrunedHistory {
    /// True if the run removed nothing.
    pub fn is_empty(&self) -> bool {
        self.stays.is_empty() && self.audit.is_empty() && self.violations.is_empty()
    }

    /// Total records across all classes (a pruned movement is one
    /// stay).
    pub fn len(&self) -> usize {
        self.stays.len() + self.audit.len() + self.violations.len()
    }

    /// Append another prune's records (used to merge per-shard prunes
    /// into one engine-level bundle).
    pub fn merge(&mut self, other: PrunedHistory) {
        self.stays.extend(other.stays);
        self.audit.extend(other.audit);
        self.violations.extend(other.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_graph::LocationId;
    use ltam_time::Time;

    #[test]
    fn merge_concatenates_every_class() {
        let mut a = PrunedHistory::default();
        assert!(a.is_empty());
        let b = PrunedHistory {
            stays: vec![(
                SubjectId(0),
                Stay {
                    location: LocationId(2),
                    enter: Time(1),
                    exit: Some(Time(2)),
                },
            )],
            audit: vec![],
            violations: vec![Violation::UnauthorizedEntry {
                time: Time(1),
                subject: SubjectId(0),
                location: LocationId(2),
            }],
        };
        a.merge(b.clone());
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }
}
