//! The authorization model: Definitions 3 and 4.

use crate::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::{Bound, Interval, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A *location authorization* `(s, l)` — Definition 3: subject `s` is
/// authorized to enter primitive location `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LocationAuthorization {
    /// The subject the authorization applies to.
    pub subject: SubjectId,
    /// The primitive location the subject may enter.
    pub location: LocationId,
}

/// Maximum number of entries an authorization permits (Definition 4's
/// `entry`, range `[1, ∞)`; the default is `∞`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum EntryLimit {
    /// At most this many entries within the entry duration (≥ 1).
    Finite(u32),
    /// Unlimited entries (the paper's default).
    #[default]
    Unbounded,
}

impl EntryLimit {
    /// True if `used` entries leave budget for one more.
    #[inline]
    pub fn admits(self, used: u32) -> bool {
        match self {
            EntryLimit::Finite(n) => used < n,
            EntryLimit::Unbounded => true,
        }
    }
}

impl fmt::Display for EntryLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryLimit::Finite(n) => write!(f, "{n}"),
            EntryLimit::Unbounded => write!(f, "∞"),
        }
    }
}

/// Errors from authorization construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// Definition 4 requires `tos ≥ tis`: one cannot be obliged to leave
    /// before one may arrive.
    ExitStartsBeforeEntry {
        /// Entry window start `tis`.
        entry_start: Time,
        /// Exit window start `tos`.
        exit_start: Time,
    },
    /// Definition 4 requires `toe ≥ tie`: the exit window may not close
    /// before the entry window does.
    ExitEndsBeforeEntryEnds {
        /// Entry window end `tie`.
        entry_end: Bound,
        /// Exit window end `toe`.
        exit_end: Bound,
    },
    /// Definition 4 gives `entry` the range `[1, ∞)`.
    ZeroEntryLimit,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::ExitStartsBeforeEntry {
                entry_start,
                exit_start,
            } => write!(
                f,
                "exit window starts at {exit_start}, before entry window start {entry_start}"
            ),
            AuthError::ExitEndsBeforeEntryEnds {
                entry_end,
                exit_end,
            } => write!(
                f,
                "exit window ends at {exit_end}, before entry window end {entry_end}"
            ),
            AuthError::ZeroEntryLimit => write!(f, "entry limit must be at least 1"),
        }
    }
}

impl std::error::Error for AuthError {}

/// A *location-temporal authorization* — Definition 4: the quadruple
/// `(entry duration, exit duration, (s, l), entry)`.
///
/// `([t¹,t²], [t³,t⁴], (Alice, CAIS), 1)` reads: Alice may enter CAIS once
/// during `[t¹,t²]` and must leave during `[t³,t⁴]`; leaving outside the
/// exit window (or staying past `t⁴`) raises a security alert (§3.2).
///
/// Deserialization re-validates, so Definition 4's constraints hold for
/// every value of this type, however it was produced. A useful consequence:
/// whenever a grant duration is non-null, the matching departure duration is
/// non-null too (`toe ≥ tie ≥` any admissible entry time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(try_from = "RawAuthorization", into = "RawAuthorization")]
pub struct Authorization {
    entry_window: Interval,
    exit_window: Interval,
    auth: LocationAuthorization,
    limit: EntryLimit,
}

/// Wire form of [`Authorization`]; conversion re-runs validation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RawAuthorization {
    entry_window: Interval,
    exit_window: Interval,
    subject: SubjectId,
    location: LocationId,
    limit: EntryLimit,
}

impl TryFrom<RawAuthorization> for Authorization {
    type Error = AuthError;
    fn try_from(raw: RawAuthorization) -> Result<Authorization, AuthError> {
        Authorization::new(
            raw.entry_window,
            raw.exit_window,
            raw.subject,
            raw.location,
            raw.limit,
        )
    }
}

impl From<Authorization> for RawAuthorization {
    fn from(a: Authorization) -> RawAuthorization {
        RawAuthorization {
            entry_window: a.entry_window,
            exit_window: a.exit_window,
            subject: a.auth.subject,
            location: a.auth.location,
            limit: a.limit,
        }
    }
}

impl Authorization {
    /// Construct with full validation of Definition 4's constraints
    /// (`tos ≥ tis`, `toe ≥ tie`).
    pub fn new(
        entry_window: Interval,
        exit_window: Interval,
        subject: SubjectId,
        location: LocationId,
        limit: EntryLimit,
    ) -> Result<Authorization, AuthError> {
        if exit_window.start() < entry_window.start() {
            return Err(AuthError::ExitStartsBeforeEntry {
                entry_start: entry_window.start(),
                exit_start: exit_window.start(),
            });
        }
        if exit_window.end() < entry_window.end() {
            return Err(AuthError::ExitEndsBeforeEntryEnds {
                entry_end: entry_window.end(),
                exit_end: exit_window.end(),
            });
        }
        if limit == EntryLimit::Finite(0) {
            return Err(AuthError::ZeroEntryLimit);
        }
        Ok(Authorization {
            entry_window,
            exit_window,
            auth: LocationAuthorization { subject, location },
            limit,
        })
    }

    /// Construct with the paper's defaults: entry duration "any time after
    /// the creation of the authorization" (`[created_at, ∞]`) when absent,
    /// exit duration `[tis, ∞]` when absent, and limit `∞` when absent.
    pub fn with_defaults(
        entry_window: Option<Interval>,
        exit_window: Option<Interval>,
        subject: SubjectId,
        location: LocationId,
        limit: Option<EntryLimit>,
        created_at: Time,
    ) -> Result<Authorization, AuthError> {
        let entry = entry_window.unwrap_or_else(|| Interval::from_start(created_at));
        let exit = exit_window.unwrap_or_else(|| Interval::from_start(entry.start()));
        Authorization::new(entry, exit, subject, location, limit.unwrap_or_default())
    }

    /// The entry duration `[tis, tie]`.
    #[inline]
    pub fn entry_window(&self) -> Interval {
        self.entry_window
    }

    /// The exit duration `[tos, toe]`.
    #[inline]
    pub fn exit_window(&self) -> Interval {
        self.exit_window
    }

    /// The underlying location authorization `(s, l)`.
    #[inline]
    pub fn location_authorization(&self) -> LocationAuthorization {
        self.auth
    }

    /// The subject.
    #[inline]
    pub fn subject(&self) -> SubjectId {
        self.auth.subject
    }

    /// The primitive location.
    #[inline]
    pub fn location(&self) -> LocationId {
        self.auth.location
    }

    /// The entry-count limit `n`.
    #[inline]
    pub fn limit(&self) -> EntryLimit {
        self.limit
    }

    /// True if an entry at time `t` falls inside the entry duration.
    #[inline]
    pub fn admits_entry_at(&self, t: Time) -> bool {
        self.entry_window.contains(t)
    }

    /// True if an exit at time `t` falls inside the exit duration.
    #[inline]
    pub fn admits_exit_at(&self, t: Time) -> bool {
        self.exit_window.contains(t)
    }
}

impl fmt::Display for Authorization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, ({}, {}), {})",
            self.entry_window, self.exit_window, self.auth.subject, self.auth.location, self.limit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: SubjectId = SubjectId(0);
    const CAIS: LocationId = LocationId(7);

    #[test]
    fn paper_section_3_2_example_constructs() {
        // ([5, 40], [20, 100], (Alice, CAIS), 1)
        let a = Authorization::new(
            Interval::lit(5, 40),
            Interval::lit(20, 100),
            ALICE,
            CAIS,
            EntryLimit::Finite(1),
        )
        .unwrap();
        assert!(a.admits_entry_at(Time(5)));
        assert!(a.admits_entry_at(Time(40)));
        assert!(!a.admits_entry_at(Time(41)));
        assert!(a.admits_exit_at(Time(20)));
        assert!(!a.admits_exit_at(Time(101)));
        assert_eq!(a.to_string(), "([5, 40], [20, 100], (S0, L7), 1)");
    }

    #[test]
    fn definition4_constraints_enforced() {
        // tos < tis
        assert_eq!(
            Authorization::new(
                Interval::lit(10, 20),
                Interval::lit(5, 25),
                ALICE,
                CAIS,
                EntryLimit::Unbounded,
            )
            .unwrap_err(),
            AuthError::ExitStartsBeforeEntry {
                entry_start: Time(10),
                exit_start: Time(5)
            }
        );
        // toe < tie
        assert_eq!(
            Authorization::new(
                Interval::lit(10, 20),
                Interval::lit(12, 18),
                ALICE,
                CAIS,
                EntryLimit::Unbounded,
            )
            .unwrap_err(),
            AuthError::ExitEndsBeforeEntryEnds {
                entry_end: Bound::At(Time(20)),
                exit_end: Bound::At(Time(18))
            }
        );
        // unbounded entry end requires unbounded exit end
        assert!(Authorization::new(
            Interval::from_start(10u64),
            Interval::lit(12, 100),
            ALICE,
            CAIS,
            EntryLimit::Unbounded,
        )
        .is_err());
        assert!(Authorization::new(
            Interval::from_start(10u64),
            Interval::from_start(12u64),
            ALICE,
            CAIS,
            EntryLimit::Unbounded,
        )
        .is_ok());
    }

    #[test]
    fn zero_entry_limit_rejected() {
        assert_eq!(
            Authorization::new(
                Interval::lit(0, 10),
                Interval::lit(0, 10),
                ALICE,
                CAIS,
                EntryLimit::Finite(0),
            )
            .unwrap_err(),
            AuthError::ZeroEntryLimit
        );
    }

    #[test]
    fn defaults_follow_definition4() {
        let a = Authorization::with_defaults(None, None, ALICE, CAIS, None, Time(9)).unwrap();
        assert_eq!(a.entry_window(), Interval::from_start(9u64));
        assert_eq!(a.exit_window(), Interval::from_start(9u64));
        assert_eq!(a.limit(), EntryLimit::Unbounded);

        let b = Authorization::with_defaults(
            Some(Interval::lit(5, 40)),
            None,
            ALICE,
            CAIS,
            Some(EntryLimit::Finite(2)),
            Time(0),
        )
        .unwrap();
        // "If the exit duration is not specified, the default value will be
        // [ti1, ∞]".
        assert_eq!(b.exit_window(), Interval::from_start(5u64));
        assert_eq!(b.limit(), EntryLimit::Finite(2));
    }

    #[test]
    fn entry_limit_admits_counts() {
        assert!(EntryLimit::Finite(2).admits(0));
        assert!(EntryLimit::Finite(2).admits(1));
        assert!(!EntryLimit::Finite(2).admits(2));
        assert!(EntryLimit::Unbounded.admits(u32::MAX));
    }

    #[test]
    fn serde_round_trip() {
        let a = Authorization::new(
            Interval::lit(5, 40),
            Interval::lit(20, 100),
            ALICE,
            CAIS,
            EntryLimit::Finite(1),
        )
        .unwrap();
        let back = Authorization::from_value(&a.to_value()).unwrap();
        assert_eq!(a, back);
    }
}
