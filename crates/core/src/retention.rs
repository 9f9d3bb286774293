//! History retention policies — how much of the past stays *live*.
//!
//! LTAM's historical queries (`whereabouts`, contact tracing, violation
//! reports) read append-only history: the movement stays, the audit
//! trail, and the violation list. Left unbounded, that history grows
//! with process lifetime — and so do engine memory and snapshot size.
//! A [`RetentionPolicy`] bounds the *live* tiers: on a maintenance run
//! at monitoring time `now`, every history record older than
//! `now - horizon` chronons is pruned from live state (and, in a
//! durable deployment, spilled to the cold archive tier first). The
//! three record classes are one history (§5's whereabouts questions
//! and §1's contact tracing read them together), so they share one
//! horizon and one watermark.
//!
//! The policy deliberately lives in `ltam-core`, below the enforcement
//! engine: it is *model configuration* ("how far back must history
//! answer?"), not a storage detail. Enforcement state proper — pending
//! grants, active stays, ledger counters — is **never** pruned; it is
//! bounded by the live population, not by time, and pruning it would
//! change enforcement semantics.

use ltam_time::Time;
use serde::{Deserialize, Serialize};

/// A bound on live history: keep the last `horizon` chronons of
/// movements, audit records and violations in memory, prune everything
/// older on maintenance runs.
///
/// The *retention watermark* — the chronon before which live history
/// may be incomplete — advances to `now - horizon` each time a
/// maintenance run fires; [`RetentionPolicy::should_run`] rate-limits
/// runs so the watermark advances by at least `min_advance` chronons
/// per run (pruning is linear in the records scanned, so running it
/// every batch for a one-chronon gain would be waste).
///
/// ```
/// use ltam_core::retention::RetentionPolicy;
/// use ltam_time::Time;
///
/// // Keep the last 1_000 chronons of history live.
/// let policy = RetentionPolicy::keep_last(1_000);
///
/// // At monitoring time 4_000, everything before 3_000 is prunable.
/// assert_eq!(policy.horizon_at(Time(4_000)), Time(3_000));
/// // Early in the trace nothing is old enough to prune.
/// assert_eq!(policy.horizon_at(Time(400)), Time(0));
///
/// // A maintenance run is due once the watermark can advance enough.
/// assert!(policy.should_run(Time(0), Time(4_000)));
/// assert!(!policy.should_run(Time(3_000), Time(4_100))); // only 100 chronons to gain
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Chronons of history kept live. Queries at or after
    /// `now - horizon` are always answerable from live state alone.
    pub horizon: u64,
    /// Minimum chronons the watermark must be able to advance before a
    /// maintenance run is worth firing (see [`RetentionPolicy::should_run`]).
    pub min_advance: u64,
}

impl RetentionPolicy {
    /// Keep the last `horizon` chronons of history live, with a
    /// maintenance cadence of one run per quarter-horizon of progress
    /// (always at least one chronon).
    pub fn keep_last(horizon: u64) -> RetentionPolicy {
        RetentionPolicy {
            horizon,
            min_advance: (horizon / 4).max(1),
        }
    }

    /// The prune horizon at monitoring time `now`: records strictly
    /// before this chronon are outside the retention window. Saturates
    /// at the epoch, so early in a trace nothing is prunable.
    pub fn horizon_at(&self, now: Time) -> Time {
        now.saturating_sub(self.horizon)
    }

    /// True if a maintenance run at `now` would advance the watermark
    /// by at least [`RetentionPolicy::min_advance`] chronons past
    /// `watermark` (the current retention watermark).
    pub fn should_run(&self, watermark: Time, now: Time) -> bool {
        let target = self.horizon_at(now);
        target.get() >= watermark.get().saturating_add(self.min_advance.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_last_enables_every_class() {
        let p = RetentionPolicy::keep_last(100);
        assert_eq!(p.horizon, 100);
        assert_eq!(p.min_advance, 25);
        // Tiny horizons still advance by at least one chronon per run.
        assert_eq!(RetentionPolicy::keep_last(2).min_advance, 1);
    }

    #[test]
    fn horizon_saturates_at_the_epoch() {
        let p = RetentionPolicy::keep_last(1_000);
        assert_eq!(p.horizon_at(Time(500)), Time::ZERO);
        assert_eq!(p.horizon_at(Time(1_000)), Time::ZERO);
        assert_eq!(p.horizon_at(Time(1_001)), Time(1));
    }

    #[test]
    fn should_run_rate_limits_by_min_advance() {
        let p = RetentionPolicy {
            min_advance: 50,
            ..RetentionPolicy::keep_last(100)
        };
        assert!(!p.should_run(Time(0), Time(100))); // horizon still at 0
        assert!(!p.should_run(Time(0), Time(149))); // would gain only 49
        assert!(p.should_run(Time(0), Time(150)));
        assert!(!p.should_run(Time(50), Time(150))); // already there
        assert!(p.should_run(Time(50), Time(200)));
    }

    #[test]
    fn zero_min_advance_still_requires_progress() {
        let p = RetentionPolicy {
            min_advance: 0,
            ..RetentionPolicy::keep_last(10)
        };
        // Guarded to at least 1: a run that cannot move the watermark
        // never fires.
        assert!(!p.should_run(Time(5), Time(15)));
        assert!(p.should_run(Time(5), Time(16)));
    }

    #[test]
    fn serde_round_trip() {
        let p = RetentionPolicy::keep_last(777);
        let back = RetentionPolicy::from_value(&p.to_value()).unwrap();
        assert_eq!(back, p);
    }
}
