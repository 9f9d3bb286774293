//! # ltam-engine — LTAM authorization enforcement
//!
//! The enforcement architecture of the paper's Figure 3, built on
//! [`ltam_core`]:
//!
//! * [`profile`] — the **user profile database** (supervisors, groups;
//!   feeds the `Supervisor_Of` rule operator),
//! * [`movement`] — the **location & movements database**: each subject's
//!   movements as a timeline of stays, with occupancy, whereabouts,
//!   presence and contact-tracing queries,
//! * [`index`] — the one history index those queries, the violation
//!   report and the archive tier (`ltam-store`) all read through,
//! * [`engine`] — the **access control engine**: request checking
//!   (Definition 7), continuous movement monitoring, violation detection
//!   (tailgating, exit-window breaches, overstays), rule derivation and
//!   audit — single-threaded, and the reference the sharded engine is
//!   tested against,
//! * [`shard`] — one shard of per-subject mutable enforcement state
//!   ([`ShardState`]) and the immutable [`PolicyView`] it is judged
//!   against,
//! * [`batch`] — the subject-sharded, batch-ingesting
//!   [`ShardedEngine`] over a read-mostly [`PolicyCore`] swapped by
//!   epoch, with the loggable [`PolicyOp`] edits and the alert channel
//!   to the security desk,
//! * [`violation`] — the violation taxonomy and security-desk alerts,
//! * [`baseline`] — the **card-reader baseline** of §1 (request-time-only
//!   checks) behind the same [`baseline::Enforcement`] trait, for
//!   comparative evaluation,
//! * [`query`] — the **query engine** with a small query language
//!   (`ACCESSIBLE FOR`, `CAN … ENTER … AT`, `WHO IN`, `CONTACTS OF`,
//!   `VIOLATIONS …`) over all databases,
//! * [`retention`] — the engine half of history retention: the record
//!   bundle a prune of the sharded engine produces (policies live in
//!   [`ltam_core::retention`]; the archive tier lives in `ltam-store`),
//! * [`report`] — the end-of-shift [`SecurityReport`]: decision
//!   counts, violation breakdowns, hotspots and current occupancy.

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod engine;
pub mod index;
pub mod movement;
pub mod profile;
pub mod query;
pub mod report;
pub mod retention;
pub mod shard;
pub mod violation;

pub use baseline::{CardReaderEngine, Enforcement};
pub use batch::{
    BatchOutcome, EngineStatus, Event, PolicyCore, PolicyImage, PolicyOp, PolicyOutcome,
    ShardStats, ShardStatusRow, ShardedEngine,
};
pub use engine::{AccessControlEngine, AuditRecord, EngineConfig, DEFAULT_GRANT_TTL};
pub use movement::{Contact, MovementsDb, Stay};
pub use profile::{Profile, UserProfileDb};
pub use query::{Query, QueryContext, QueryResult};
pub use report::{security_report, SecurityReport};
pub use retention::PrunedHistory;
pub use shard::{PendingImage, PolicyView, ShardState, ShardStateImage};
pub use violation::{Alert, Violation};
