//! Capability tokens and sensor trust — the wire's own LTAM policy.
//!
//! The serving tier dogfoods the paper's model: what a *connection* may
//! do is itself an authorization decision. A [`CapabilityToken`] binds
//! a shared secret to an LTAM subject, a set of [`Scope`]s (what frame
//! kinds the bearer may send, and for ingest, *which locations* it may
//! report on), and a temporal [`Interval`] of validity — the same
//! entry-window shape as a Definition 4 authorization, applied to the
//! wire. Tokens live inside the policy core ([`WireAuth`]), so minting
//! and revoking are ordinary policy edits: logged in the store's WAL
//! (and so replayed by recovery and by every follower), epoch-stamped,
//! and re-evaluated against the *live* policy on every frame — a
//! revoked or expired token dies on its next request without a
//! restart.
//!
//! [`TrustPolicy`] carries per-sensor trust levels (after *Trust for
//! Location-based Authorisation*): events reported by a source below
//! the threshold are accepted onto a quarantine ledger instead of the
//! trusted movement history, so one compromised reader cannot poison
//! contact-tracing answers.

use crate::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::{Interval, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a capability token (dense, never reissued within a
/// store's lifetime — [`WireAuth::mint`] allocates from a high-water
/// mark exactly like `AuthorizationDb::next_id`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TokenId(pub u64);

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token#{}", self.0)
    }
}

/// One grant a token carries: which frame kinds the bearer may send.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// Send ingest/check frames. `locations: None` covers every
    /// location; `Some(set)` restricts the bearer to reporting events
    /// at those locations only (a door sensor can only speak for its
    /// own doors).
    Ingest {
        /// The locations the bearer may report events at (`None` = all).
        locations: Option<Vec<LocationId>>,
    },
    /// Send history queries, status and metrics scrapes.
    Query,
    /// Fetch the replication manifest and file chunks (followers).
    Replicate,
    /// Send admin RPCs: grant/revoke authorizations, mint/revoke
    /// tokens, set trust levels, flip wire-auth enforcement.
    Admin,
}

/// The frame-kind classes the serving tier gates (each wire request
/// maps to exactly one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Capability {
    /// Ingest and check frames (the write path).
    Ingest,
    /// History queries, status, metrics.
    Query,
    /// Replication manifest/fetch.
    Replicate,
    /// Admin RPCs.
    Admin,
}

impl Scope {
    /// Does this scope grant `cap` (ignoring location restrictions)?
    pub fn grants(&self, cap: Capability) -> bool {
        matches!(
            (self, cap),
            (Scope::Ingest { .. }, Capability::Ingest)
                | (Scope::Query, Capability::Query)
                | (Scope::Replicate, Capability::Replicate)
                | (Scope::Admin, Capability::Admin)
        )
    }
}

/// Why a capability check refused the bearer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuthRefusal {
    /// The token has been revoked.
    Revoked,
    /// The monitoring clock is outside the token's validity interval.
    Expired {
        /// The clock value the check ran at.
        now: Time,
    },
    /// The token carries no scope granting the needed capability.
    MissingScope {
        /// The capability the frame needed.
        needed: Capability,
    },
    /// The token's ingest scope does not cover a location in the batch.
    LocationNotCovered {
        /// The first uncovered location.
        location: LocationId,
    },
}

impl fmt::Display for AuthRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthRefusal::Revoked => write!(f, "token revoked"),
            AuthRefusal::Expired { now } => {
                write!(f, "token not valid at monitoring time {}", now.0)
            }
            AuthRefusal::MissingScope { needed } => {
                write!(f, "token lacks the {needed:?} scope")
            }
            AuthRefusal::LocationNotCovered { location } => {
                write!(f, "ingest scope does not cover location {}", location.0)
            }
        }
    }
}

/// A capability token: a shared secret bound to an LTAM subject, a set
/// of scopes, and a validity window evaluated against the monitoring
/// clock (the same clock overstay detection runs on, so a determinstic
/// trace can expire a token with a `Tick`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapabilityToken {
    /// The token's id (stable across revocation; never reissued).
    pub id: TokenId,
    /// The bearer's shared secret, presented in the `Hello` handshake.
    pub secret: String,
    /// The LTAM subject this token authenticates as.
    pub subject: SubjectId,
    /// The scopes granted.
    pub scopes: Vec<Scope>,
    /// When the token is valid (monitoring-clock chronons).
    pub validity: Interval,
    /// Revoked tokens stay in the registry (their id must never be
    /// reissued) but refuse every check.
    pub revoked: bool,
}

impl CapabilityToken {
    /// Check this token for `cap` at monitoring time `now`.
    pub fn permits(&self, cap: Capability, now: Time) -> Result<(), AuthRefusal> {
        if self.revoked {
            return Err(AuthRefusal::Revoked);
        }
        if !self.validity.contains(now) {
            return Err(AuthRefusal::Expired { now });
        }
        if !self.scopes.iter().any(|s| s.grants(cap)) {
            return Err(AuthRefusal::MissingScope { needed: cap });
        }
        Ok(())
    }

    /// Check this token's ingest scope against every location a batch
    /// touches (call after a passing [`CapabilityToken::permits`] for
    /// [`Capability::Ingest`]).
    pub fn permits_locations<'a>(
        &self,
        locations: impl IntoIterator<Item = &'a LocationId>,
    ) -> Result<(), AuthRefusal> {
        // The *union* of ingest scopes covers the batch: a token with
        // scopes for doors A and B may report on either.
        let restrictions: Vec<&Vec<LocationId>> = self
            .scopes
            .iter()
            .filter_map(|s| match s {
                Scope::Ingest { locations } => Some(locations.as_ref()),
                _ => None,
            })
            .map(|r| match r {
                Some(list) => Ok(list),
                // An unrestricted ingest scope covers everything.
                None => Err(()),
            })
            .collect::<Result<_, ()>>()
            .unwrap_or_default();
        if restrictions.is_empty() {
            return Ok(()); // at least one unrestricted scope (or none at all —
                           // permits() already refused the scopeless case)
        }
        for location in locations {
            if !restrictions.iter().any(|list| list.contains(location)) {
                return Err(AuthRefusal::LocationNotCovered {
                    location: *location,
                });
            }
        }
        Ok(())
    }
}

/// Per-sensor trust levels and the quarantine threshold.
///
/// A source (the authenticated subject a connection ingests *as*) at a
/// level below `threshold` has its events quarantined instead of
/// applied to the trusted movement history. The default — threshold 0,
/// default level 0 — trusts everyone, so an existing deployment that
/// never configures trust behaves exactly as before.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrustPolicy {
    /// Sources below this level are quarantined.
    pub threshold: u8,
    /// The level of a source with no explicit entry.
    pub default_level: u8,
    /// Explicit per-source levels, in source order.
    pub levels: Vec<(SubjectId, u8)>,
}

impl TrustPolicy {
    /// The trust level of `source`.
    pub fn level_of(&self, source: SubjectId) -> u8 {
        self.levels
            .iter()
            .find(|(s, _)| *s == source)
            .map(|&(_, l)| l)
            .unwrap_or(self.default_level)
    }

    /// Set (or overwrite) a source's trust level.
    pub fn set_level(&mut self, source: SubjectId, level: u8) {
        match self.levels.iter_mut().find(|(s, _)| *s == source) {
            Some(entry) => entry.1 = level,
            None => self.levels.push((source, level)),
        }
    }

    /// Is `source` trusted (at or above the threshold)?
    pub fn trusted(&self, source: SubjectId) -> bool {
        self.level_of(source) >= self.threshold
    }
}

/// The wire-facing half of a policy core: token registry, trust
/// policy, and the enforcement switch. Lives inside `PolicyCore` so
/// every edit is an ordinary epoch-swapped, WAL-logged policy edit.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WireAuth {
    /// When `true`, unauthenticated connections are refused everything
    /// except the `Hello` handshake. When `false` (the default), the
    /// wire is open — but a connection that *does* present a token is
    /// still held to its scopes, and admin RPCs always require an
    /// authenticated admin-scoped token.
    pub required: bool,
    /// All tokens ever minted, in id order (revoked ones stay, so ids
    /// are never reissued).
    pub tokens: Vec<CapabilityToken>,
    /// The id-allocator high-water mark.
    pub next_token_id: u64,
    /// Per-sensor trust levels.
    pub trust: TrustPolicy,
}

impl WireAuth {
    /// Mint a token. The caller supplies the secret (the serving tier
    /// generates one if the admin RPC did not), so re-minting a rotated
    /// sensor's *same* secret after a revocation is possible — the
    /// sensor resumes without reconfiguration, under a fresh id.
    pub fn mint(
        &mut self,
        subject: SubjectId,
        scopes: Vec<Scope>,
        validity: Interval,
        secret: String,
    ) -> TokenId {
        let id = TokenId(self.next_token_id);
        self.next_token_id += 1;
        self.tokens.push(CapabilityToken {
            id,
            secret,
            subject,
            scopes,
            validity,
            revoked: false,
        });
        id
    }

    /// Revoke a token by id. Returns whether it existed and was live.
    pub fn revoke(&mut self, id: TokenId) -> bool {
        match self.tokens.iter_mut().find(|t| t.id == id) {
            Some(t) if !t.revoked => {
                t.revoked = true;
                true
            }
            _ => false,
        }
    }

    /// Look a token up by id.
    pub fn token(&self, id: TokenId) -> Option<&CapabilityToken> {
        self.tokens.iter().find(|t| t.id == id)
    }

    /// Resolve a presented secret to its token. Revoked tokens do not
    /// authenticate (their secret may have been re-minted under a new
    /// id — the *newest* live match wins, so rotation is atomic).
    pub fn authenticate(&self, secret: &str) -> Option<&CapabilityToken> {
        self.tokens
            .iter()
            .rev()
            .find(|t| !t.revoked && t.secret == secret)
    }
}

/// One remote-administration operation — the wire's admin RPC body and
/// the unit the durable store persists. Every variant is a
/// deterministic function of (policy state, op), so the store logs the
/// op itself as one WAL record and recovery and followers replay it at
/// its sequence position: an acknowledged admin op survives a crash,
/// and reaches every enforcement point, exactly like a sensor event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdminOp {
    /// Mint a capability token. The secret is caller-supplied so a
    /// rotated sensor can be re-minted under its existing secret (see
    /// [`WireAuth::mint`]).
    MintToken {
        /// The LTAM subject the token acts as.
        subject: SubjectId,
        /// What the bearer may do.
        scopes: Vec<Scope>,
        /// When the token is valid, on the monitoring clock.
        validity: Interval,
        /// The shared secret the bearer will present.
        secret: String,
    },
    /// Revoke a token by id. Takes effect on the bearer's very next
    /// frame — connections re-check the live policy per request.
    RevokeToken {
        /// The token to revoke.
        id: TokenId,
    },
    /// Set a sensor's trust level (events from below-threshold sources
    /// are quarantined, not enforced).
    SetTrust {
        /// The reporting source.
        subject: SubjectId,
        /// Its new level.
        level: u8,
    },
    /// Move the trust threshold itself.
    SetTrustThreshold {
        /// Sources at or above this level are trusted.
        threshold: u8,
    },
    /// Require (or stop requiring) an authenticated handshake on every
    /// connection. Flipping this on without a valid token locks the
    /// admin out of the wire — recovery is the server's root token or a
    /// local open of the store (see `docs/OPERATIONS.md` §10).
    SetAuthRequired {
        /// Whether unauthenticated connections are refused.
        required: bool,
    },
    /// Grant a location-temporal authorization (Definition 4); the id
    /// is drawn from the database's own counter.
    AddAuthorization(crate::model::Authorization),
    /// Durably revoke an authorization and lapse its in-flight grants.
    RevokeAuthorization {
        /// The grant to revoke.
        id: crate::db::AuthId,
    },
}

/// What an applied [`AdminOp`] produced (mirrors the variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdminOutcome {
    /// The minted token's id.
    TokenMinted {
        /// Dense, never-reissued id of the new token.
        id: TokenId,
    },
    /// Whether the token existed and was live.
    TokenRevoked {
        /// False when the id was unknown or already revoked.
        existed: bool,
    },
    /// The trust edit (level or threshold) applied.
    TrustSet,
    /// The handshake requirement flipped.
    AuthRequiredSet,
    /// The granted authorization's id.
    AuthorizationAdded {
        /// Id of the new grant.
        id: crate::db::AuthId,
    },
    /// Whether the authorization existed.
    AuthorizationRevoked {
        /// False when the id was unknown.
        existed: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WireAuth {
        let mut auth = WireAuth::default();
        auth.mint(
            SubjectId(7),
            vec![Scope::Ingest {
                locations: Some(vec![LocationId(1), LocationId(2)]),
            }],
            Interval::lit(10, 100),
            "door-secret".into(),
        );
        auth
    }

    #[test]
    fn mint_allocates_dense_ids_and_authenticates() {
        let mut auth = sample();
        let id = auth.mint(
            SubjectId(8),
            vec![Scope::Query],
            Interval::ALL,
            "query-secret".into(),
        );
        assert_eq!(id, TokenId(1));
        assert_eq!(auth.authenticate("door-secret").unwrap().id, TokenId(0));
        assert!(auth.authenticate("wrong").is_none());
    }

    #[test]
    fn revoked_tokens_refuse_and_never_reauthenticate() {
        let mut auth = sample();
        assert!(auth.revoke(TokenId(0)));
        assert!(!auth.revoke(TokenId(0)), "second revoke is a no-op");
        assert!(auth.authenticate("door-secret").is_none());
        assert_eq!(
            auth.token(TokenId(0))
                .unwrap()
                .permits(Capability::Ingest, Time(50)),
            Err(AuthRefusal::Revoked)
        );
        // Re-minting the same secret resumes under a fresh id.
        let id = auth.mint(
            SubjectId(7),
            vec![Scope::Ingest { locations: None }],
            Interval::ALL,
            "door-secret".into(),
        );
        assert_eq!(auth.authenticate("door-secret").unwrap().id, id);
    }

    #[test]
    fn validity_is_checked_against_the_monitoring_clock() {
        let auth = sample();
        let t = auth.token(TokenId(0)).unwrap();
        assert_eq!(
            t.permits(Capability::Ingest, Time(5)),
            Err(AuthRefusal::Expired { now: Time(5) })
        );
        assert_eq!(t.permits(Capability::Ingest, Time(10)), Ok(()));
        assert_eq!(
            t.permits(Capability::Ingest, Time(101)),
            Err(AuthRefusal::Expired { now: Time(101) })
        );
    }

    #[test]
    fn scopes_gate_capabilities_and_locations() {
        let auth = sample();
        let t = auth.token(TokenId(0)).unwrap();
        assert_eq!(
            t.permits(Capability::Admin, Time(50)),
            Err(AuthRefusal::MissingScope {
                needed: Capability::Admin
            })
        );
        assert_eq!(t.permits_locations(&[LocationId(1), LocationId(2)]), Ok(()));
        assert_eq!(
            t.permits_locations(&[LocationId(3)]),
            Err(AuthRefusal::LocationNotCovered {
                location: LocationId(3)
            })
        );
        // An unrestricted ingest scope covers everything.
        let mut auth = WireAuth::default();
        let id = auth.mint(
            SubjectId(1),
            vec![Scope::Ingest { locations: None }],
            Interval::ALL,
            "s".into(),
        );
        assert_eq!(
            auth.token(id).unwrap().permits_locations(&[LocationId(99)]),
            Ok(())
        );
    }

    #[test]
    fn trust_defaults_trust_everyone() {
        let mut trust = TrustPolicy::default();
        assert!(trust.trusted(SubjectId(0)));
        trust.threshold = 3;
        trust.default_level = 5;
        assert!(trust.trusted(SubjectId(0)));
        trust.set_level(SubjectId(0), 1);
        assert!(!trust.trusted(SubjectId(0)));
        trust.set_level(SubjectId(0), 4);
        assert!(trust.trusted(SubjectId(0)));
        assert_eq!(trust.level_of(SubjectId(1)), 5);
    }

    #[test]
    fn wire_auth_round_trips_through_json() {
        let mut auth = sample();
        auth.required = true;
        auth.trust.threshold = 2;
        auth.trust.set_level(SubjectId(3), 1);
        let back = WireAuth::from_value(&auth.to_value()).unwrap();
        assert_eq!(back, auth);
    }
}
