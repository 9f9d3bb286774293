//! Sharded, batch-ingesting enforcement: scale Figure 3 across threads.
//!
//! One lock around one engine would serialize every card swipe against
//! every admin query. This module splits the engine along the seam
//! LTAM's data model already implies:
//!
//! * a **read-mostly policy core** ([`PolicyCore`]: location model,
//!   effective graph, authorization database, prohibitions, tunables)
//!   shared by all shards and replaced wholesale — an *epoch swap* —
//!   when an administrator changes policy;
//! * **N shards** of per-subject mutable state ([`ShardState`]),
//!   partitioned by `SubjectId` hash, each owned by a dedicated worker
//!   thread.
//!
//! Sensor events arrive in batches ([`ShardedEngine::ingest`]): the
//! batch is grouped by shard, each group is processed on its shard's
//! worker (fed over an `mpsc` channel), and the per-shard results are
//! merged — in shard order, so the outcome is deterministic — into one
//! [`BatchOutcome`] whose violations are forwarded to the security desk
//! with globally monotone alert sequence numbers. Several batches can
//! share one dispatch ([`ShardedEngine::ingest_group`] — what a durable
//! store's commit group is applied through): each shard gets its slices
//! of all of them in one job and reports one result per batch, so the
//! outcomes equal those of ingesting the batches one after another.
//!
//! Because every per-subject invariant (pending grants, active stays,
//! movement timelines, entry counters — an `AuthId` belongs to exactly
//! one subject) lives entirely on that subject's shard, the sharded
//! engine detects **exactly** the violation multiset the
//! single-threaded engine would on the same trace; the workspace's
//! `sharded_equivalence` integration tests assert this on 100k-event
//! traces.

use crate::engine::{AccessControlEngine, EngineConfig};
use crate::retention::PrunedHistory;
use crate::shard::{PolicyView, ShardState, ShardStateImage};
use crate::violation::{Alert, Violation};
use ltam_core::capability::{AdminOp, AdminOutcome, WireAuth};
use ltam_core::db::{AuthId, Provenance};
use ltam_core::decision::Decision;
use ltam_core::model::Authorization;
use ltam_core::prohibition::{Prohibition, ProhibitionDb};
use ltam_core::subject::SubjectId;
use ltam_core::AuthorizationDb;
use ltam_graph::{EffectiveGraph, LocationId, LocationModel};
use ltam_obs::locked;
use ltam_situate::{SituationOp, SituationOutcome, SituationPolicy};
use ltam_time::Time;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// One sensor or clock event, ready for batch ingestion.
///
/// `Request`/`Enter`/`Exit` carry the subject they concern and route to
/// that subject's shard; `Tick` is a monitoring-clock advance and is
/// broadcast to every shard (overstay scans cover all subjects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Event {
    /// An access request at a door (Definition 6).
    Request {
        /// When the request was made.
        time: Time,
        /// The requesting subject.
        subject: SubjectId,
        /// The requested location.
        location: LocationId,
    },
    /// The tracking infrastructure observed a physical entry.
    Enter {
        /// When the entry was observed.
        time: Time,
        /// Who entered.
        subject: SubjectId,
        /// Where.
        location: LocationId,
    },
    /// The tracking infrastructure observed a physical exit.
    Exit {
        /// When the exit was observed.
        time: Time,
        /// Who left.
        subject: SubjectId,
        /// Where.
        location: LocationId,
    },
    /// Advance the monitoring clock (overstay detection).
    Tick {
        /// The new clock value.
        now: Time,
    },
}

impl Event {
    /// The subject the event concerns; `None` for broadcast events
    /// (`Tick`).
    pub fn subject(&self) -> Option<SubjectId> {
        match *self {
            Event::Request { subject, .. }
            | Event::Enter { subject, .. }
            | Event::Exit { subject, .. } => Some(subject),
            Event::Tick { .. } => None,
        }
    }

    /// The event's timestamp.
    pub fn time(&self) -> Time {
        match *self {
            Event::Request { time, .. } | Event::Enter { time, .. } | Event::Exit { time, .. } => {
                time
            }
            Event::Tick { now } => now,
        }
    }
}

/// The read-mostly half of the enforcement engine: everything a shard
/// needs to *decide*, none of what it *mutates* per event.
///
/// Admins never mutate a live `PolicyCore`; they build the next epoch
/// (a clone plus edits) and the [`ShardedEngine`] swaps it in atomically
/// behind its single writer lock. Every batch reads one consistent
/// epoch for its whole duration.
#[derive(Debug, Clone)]
pub struct PolicyCore {
    model: LocationModel,
    graph: EffectiveGraph,
    db: AuthorizationDb,
    prohibitions: ProhibitionDb,
    config: EngineConfig,
    wire: WireAuth,
    situation: SituationPolicy,
}

impl PolicyCore {
    /// Build an empty policy core for a location layout.
    pub fn new(model: LocationModel) -> PolicyCore {
        let graph = EffectiveGraph::build(&model);
        PolicyCore {
            model,
            graph,
            db: AuthorizationDb::new(),
            prohibitions: ProhibitionDb::new(),
            config: EngineConfig::default(),
            wire: WireAuth::default(),
            situation: SituationPolicy::default(),
        }
    }

    /// The location layout.
    pub fn model(&self) -> &LocationModel {
        &self.model
    }

    /// The flattened location graph.
    pub fn graph(&self) -> &EffectiveGraph {
        &self.graph
    }

    /// The authorization database.
    pub fn db(&self) -> &AuthorizationDb {
        &self.db
    }

    /// The authorization database, mutably, beside the graph it is
    /// derived against — for the single-threaded engine's rule
    /// derivation and conflict resolution, which edit the one while
    /// reading the other.
    pub(crate) fn db_mut(&mut self) -> (&mut AuthorizationDb, &EffectiveGraph) {
        (&mut self.db, &self.graph)
    }

    /// The prohibition store.
    pub fn prohibitions(&self) -> &ProhibitionDb {
        &self.prohibitions
    }

    /// The enforcement tunables.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Override the enforcement tunables.
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// Insert an authorization.
    pub fn add_authorization(&mut self, auth: Authorization) -> AuthId {
        self.db.insert(auth)
    }

    /// Insert a prohibition (denial takes precedence).
    pub fn add_prohibition(&mut self, prohibition: Prohibition) {
        self.prohibitions.insert(prohibition);
    }

    /// Revoke an authorization from the database. (The engine-level
    /// [`ShardedEngine::revoke_authorization`] also lapses per-shard
    /// grants and counters.)
    pub fn revoke_authorization(&mut self, id: AuthId) -> Option<Authorization> {
        self.db.revoke(id)
    }

    /// The wire-facing auth policy: capability tokens, trust levels,
    /// and the enforcement switch. Read by the serving tier on every
    /// frame (through the live epoch, so edits bite immediately).
    pub fn wire(&self) -> &WireAuth {
        &self.wire
    }

    /// Mutable access to the wire auth policy (admin edits route
    /// through `ShardedEngine::update_policy`, so every change is an
    /// epoch swap like any other policy edit).
    pub fn wire_mut(&mut self) -> &mut WireAuth {
        &mut self.wire
    }

    /// The situation overlay: declared mode, responders, pins, and
    /// workflow constraints (see `ltam-situate`). Read by every shard
    /// on the decision path through the live epoch.
    pub fn situation(&self) -> &SituationPolicy {
        &self.situation
    }

    /// Apply a durable situation edit (declarations route through
    /// `ShardedEngine::update_policy`, so every change is an epoch
    /// swap — a batch in flight evaluates entirely under one mode).
    pub fn apply_situation(&mut self, op: &SituationOp) -> SituationOutcome {
        self.situation.apply(op)
    }

    /// Apply one [`PolicyOp`] to this core. Every arm is a deterministic
    /// function of (policy state, op) — ids come from the registries'
    /// own counters — so replaying a logged op at its sequence position
    /// reproduces the original edit exactly. (`RevokeAuthorization` only
    /// edits the database here; [`ShardedEngine::apply_policy_op`] also
    /// lapses per-shard grants.)
    pub fn apply_op(&mut self, op: &PolicyOp) -> PolicyOutcome {
        match op {
            PolicyOp::Situation(op) => PolicyOutcome::Situation(self.apply_situation(op)),
            PolicyOp::Admin(op) => PolicyOutcome::Admin(self.apply_admin(op.clone())),
            PolicyOp::Install(image) => {
                *self = PolicyCore::from_image((**image).clone());
                PolicyOutcome::Installed
            }
        }
    }

    fn apply_admin(&mut self, op: AdminOp) -> AdminOutcome {
        match op {
            AdminOp::MintToken {
                subject,
                scopes,
                validity,
                secret,
            } => AdminOutcome::TokenMinted {
                id: self.wire.mint(subject, scopes, validity, secret),
            },
            AdminOp::RevokeToken { id } => AdminOutcome::TokenRevoked {
                existed: self.wire.revoke(id),
            },
            AdminOp::SetTrust { subject, level } => {
                self.wire.trust.set_level(subject, level);
                AdminOutcome::TrustSet
            }
            AdminOp::SetTrustThreshold { threshold } => {
                self.wire.trust.threshold = threshold;
                AdminOutcome::TrustSet
            }
            AdminOp::SetAuthRequired { required } => {
                self.wire.required = required;
                AdminOutcome::AuthRequiredSet
            }
            AdminOp::AddAuthorization(auth) => AdminOutcome::AuthorizationAdded {
                id: self.add_authorization(auth),
            },
            AdminOp::RevokeAuthorization { id } => AdminOutcome::AuthorizationRevoked {
                existed: self.revoke_authorization(id).is_some(),
            },
        }
    }

    /// The immutable view shards enforce against.
    pub fn view(&self) -> PolicyView<'_> {
        PolicyView {
            db: &self.db,
            prohibitions: &self.prohibitions,
            config: self.config,
            situation: &self.situation,
        }
    }

    // --- persistence hooks --------------------------------------------------

    /// Export the policy core as a serializable image. The effective
    /// graph is derived state and is rebuilt on import.
    pub fn image(&self) -> PolicyImage {
        PolicyImage {
            model: self.model.clone(),
            authorizations: self.db.export_rows(),
            next_auth_id: self.db.next_id(),
            prohibitions: self.prohibitions.clone(),
            config: self.config,
            wire: self.wire.clone(),
            situation: self.situation.clone(),
        }
    }

    /// This epoch as its [`PolicyImage`], borrowed: the bytes
    /// [`PolicyCore::image`] serializes to, without copying a row.
    pub fn image_ref(&self) -> PolicyImageRef<'_> {
        PolicyImageRef {
            model: &self.model,
            authorizations: &self.db,
            next_auth_id: self.db.next_id(),
            prohibitions: &self.prohibitions,
            config: self.config,
            wire: &self.wire,
            situation: &self.situation,
        }
    }

    /// Rebuild a policy core from an exported image (inverse of
    /// [`PolicyCore::image`]); authorization ids are preserved, so
    /// external state referencing them (ledgers, pending grants) stays
    /// valid.
    pub fn from_image(image: PolicyImage) -> PolicyCore {
        let graph = EffectiveGraph::build(&image.model);
        let mut db = AuthorizationDb::import_rows(image.authorizations);
        // Never reissue an id that existed before the snapshot: stale
        // per-shard references to a revoked id (an open stay) must keep
        // dangling rather than resolve to a new, unrelated authorization.
        db.reserve_ids_through(image.next_auth_id);
        PolicyCore {
            model: image.model,
            graph,
            db,
            prohibitions: image.prohibitions,
            config: image.config,
            wire: image.wire,
            situation: image.situation,
        }
    }
}

/// One loggable policy edit: the single record shape the durable store
/// appends to its WAL, recovery replays at its sequence position, and
/// followers apply in-stream. An edit with no narrower op form
/// (tunables, prohibitions, bulk loads) is logged as the policy it
/// produced ([`PolicyOp::Install`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyOp {
    /// A token, trust, or authorization edit.
    Admin(AdminOp),
    /// A mode declaration, responder/pin edit, or workflow-constraint
    /// change.
    Situation(SituationOp),
    /// This is the whole policy from this sequence position on — what
    /// `DurableEngine::update_policy` logs for an arbitrary closure
    /// edit. Costs O(policy) where the other variants cost O(record),
    /// and no wire request can carry it. (Boxed: a record is a few
    /// words on the paths that only ever see the other variants.)
    Install(Box<PolicyImage>),
}

/// What an applied [`PolicyOp`] produced (mirrors the variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyOutcome {
    /// The outcome of a [`PolicyOp::Admin`].
    Admin(AdminOutcome),
    /// The outcome of a [`PolicyOp::Situation`].
    Situation(SituationOutcome),
    /// A [`PolicyOp::Install`] replaced the policy.
    Installed,
}

/// Serializable image of a [`PolicyCore`] — the read-mostly half of an
/// engine snapshot. Produced by [`PolicyCore::image`], consumed by
/// [`PolicyCore::from_image`]. The type parameters are its sections,
/// owned by default; [`PolicyImageRef`] borrows them, so the owned image
/// and a live epoch's share one definition and one serialization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyImage<
    Model = LocationModel,
    Rows = Vec<(AuthId, Authorization, Provenance)>,
    Prohibitions = ProhibitionDb,
    Wire = WireAuth,
    Situation = SituationPolicy,
> {
    /// The location layout.
    pub model: Model,
    /// Authorization rows with their ids and provenance, in id order.
    pub authorizations: Rows,
    /// The id-allocator high-water mark (see
    /// [`ltam_core::AuthorizationDb::next_id`]): restoring it prevents
    /// ids of revoked authorizations from being reissued after recovery.
    pub next_auth_id: u64,
    /// Prohibitions (denial takes precedence).
    pub prohibitions: Prohibitions,
    /// Enforcement tunables.
    pub config: EngineConfig,
    /// Wire auth policy (tokens, trust levels, enforcement switch).
    pub wire: Wire,
    /// Situation overlay (mode, responders, pins, workflow
    /// constraints).
    pub situation: Situation,
}

/// A live epoch's [`PolicyImage`], borrowed ([`PolicyCore::image_ref`]):
/// its rows serialize where they are, in id order, with no copy.
pub type PolicyImageRef<'a> = PolicyImage<
    &'a LocationModel,
    &'a AuthorizationDb,
    &'a ProhibitionDb,
    &'a WireAuth,
    &'a SituationPolicy,
>;

/// One event held on the quarantine ledger: accepted from a
/// below-trust-threshold source, recorded verbatim, **never** applied
/// to the trusted movement history or the enforcement state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedEvent {
    /// The authenticated subject that reported the event (the sensor's
    /// wire identity, not the event's own subject).
    pub source: SubjectId,
    /// The source's trust level when the event arrived.
    pub level: u8,
    /// The event as reported.
    pub event: Event,
}

/// Per-shard slice of a [`BatchOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Events routed to this shard (ticks count once per shard).
    pub events: usize,
    /// Violations this shard raised during the batch.
    pub violations: usize,
}

/// The merged result of one [`ShardedEngine::ingest`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Events in the input batch.
    pub processed: usize,
    /// Access requests granted.
    pub granted: usize,
    /// Access requests denied.
    pub denied: usize,
    /// Violations raised by this batch, merged in shard order (within a
    /// shard: detection order).
    pub violations: Vec<Violation>,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardStats>,
}

/// One shard's row of an [`EngineStatus`] report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStatusRow {
    /// The shard index.
    pub shard: usize,
    /// Live movement events on this shard.
    pub movement_events: usize,
    /// Live violations on this shard.
    pub violations: usize,
    /// Live audit records on this shard.
    pub audit_records: usize,
}

/// Engine-level operational counters (see [`ShardedEngine::status`]).
/// Serializable so a serving layer can expose it over the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStatus {
    /// Number of shards.
    pub shards: usize,
    /// Live movement events across all shards.
    pub live_movement_events: usize,
    /// Live violations across all shards.
    pub live_violations: usize,
    /// Live audit records across all shards.
    pub audit_records: usize,
    /// Movement events dropped by retention (archived in a durable
    /// deployment).
    pub events_pruned: u64,
    /// Violations dropped by retention.
    pub violations_pruned: u64,
    /// Audit records dropped by retention.
    pub audit_pruned: u64,
    /// Entries recorded across all shards' usage ledgers.
    pub total_entries: u64,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardStatusRow>,
}

/// What one shard reports back for its slice of one batch.
#[derive(Debug, Default)]
struct ShardOutcome {
    /// Events of the batch routed to this shard (ticks included).
    events: usize,
    granted: usize,
    denied: usize,
    violations: Vec<Violation>,
}

#[derive(Debug)]
enum Job {
    /// One shard's share of a dispatch: the shard's events of every
    /// batch in the group, concatenated in batch order. `cuts[b]` is
    /// the end offset of batch `b`'s slice, so the worker can report
    /// one [`ShardOutcome`] per batch.
    Batch {
        epoch: Arc<PolicyCore>,
        events: Vec<Event>,
        cuts: Vec<usize>,
        done: Sender<(usize, Vec<ShardOutcome>)>,
    },
}

fn apply_event(
    state: &mut ShardState,
    policy: &PolicyView<'_>,
    event: &Event,
    out: &mut ShardOutcome,
) {
    match *event {
        Event::Request {
            time,
            subject,
            location,
        } => match state.request_enter(policy, time, subject, location) {
            Decision::Granted { .. } | Decision::GrantedOverride { .. } => out.granted += 1,
            Decision::Denied { .. } => out.denied += 1,
        },
        Event::Enter {
            time,
            subject,
            location,
        } => {
            if let Some(v) = state.observe_enter(policy, time, subject, location) {
                out.violations.push(v);
            }
        }
        Event::Exit {
            time,
            subject,
            location,
        } => {
            if let Some(v) = state.observe_exit(policy, time, subject, location) {
                out.violations.push(v);
            }
        }
        Event::Tick { now } => out.violations.extend(state.tick(policy, now)),
    }
}

/// Static label values for per-shard series, so worker threads never
/// allocate (or leak) label strings. Shard counts beyond the table
/// share one overflow bucket — per-shard resolution matters most at
/// the small counts the throughput experiments sweep.
const SHARD_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

fn shard_label(shard: usize) -> &'static str {
    SHARD_LABELS.get(shard).copied().unwrap_or("16+")
}

fn worker_loop(shard: usize, state: Arc<Mutex<ShardState>>, jobs: Receiver<Job>) {
    // One registry lookup per worker thread; the loop then records
    // through the cached handle only.
    let batch_seconds = ltam_obs::registry().histogram(
        "engine_shard_batch_seconds",
        &[("shard", shard_label(shard))],
        "Time one shard spent applying one dispatch: its slice of an ingest batch, or of \
         every batch in a commit group",
        ltam_obs::Unit::SecondsFromMicros,
    );
    while let Ok(Job::Batch {
        epoch,
        events,
        cuts,
        done,
    }) = jobs.recv()
    {
        let started = (!ltam_obs::disabled()).then(std::time::Instant::now);
        let policy = epoch.view();
        let mut outs = Vec::with_capacity(cuts.len());
        let mut guard = locked(state.lock(), "shard state");
        let mut start = 0;
        for &end in &cuts {
            let slice = &events[start..end];
            let mut out = ShardOutcome {
                events: slice.len(),
                ..ShardOutcome::default()
            };
            for e in slice {
                apply_event(&mut guard, &policy, e, &mut out);
            }
            outs.push(out);
            start = end;
        }
        drop(guard);
        if let Some(started) = started {
            batch_seconds.observe(started.elapsed().as_micros() as u64);
        }
        // The coordinator may have been dropped mid-batch; nothing to do.
        let _ = done.send((shard, outs));
    }
}

/// Deterministic subject → shard assignment (Fibonacci hashing, so
/// consecutively numbered subjects spread evenly).
pub fn shard_of(subject: SubjectId, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let h = (subject.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) % shards as u64) as usize
}

/// Re-key per-subject state onto a different shard count: every piece of
/// a [`ShardStateImage`] is either keyed by subject (movements, pending
/// grants, active stays, overstay flags, violations, audit) or owned by
/// exactly one subject's authorization (ledger counters), so images can
/// be split and re-dealt without touching enforcement semantics.
pub fn redistribute(
    images: Vec<ShardStateImage>,
    shards: usize,
    db: &AuthorizationDb,
) -> Vec<ShardStateImage> {
    assert!(shards >= 1, "need at least one shard");
    let mut out: Vec<ShardStateImage> = (0..shards).map(|_| ShardStateImage::default()).collect();
    // Retention bookkeeping redistributes too: the watermark joins to
    // the max (sources pruned in lockstep, but a max is always sound —
    // claiming completeness below any source's watermark would not be),
    // and the pruned-record counters are global totals, parked on
    // shard 0 like revoked-authorization ledger counters.
    let watermark = images
        .iter()
        .map(|i| i.movements.watermark())
        .max()
        .unwrap_or(Time::ZERO);
    let events_pruned: u64 = images.iter().map(|i| i.movements.pruned_events()).sum();
    let audit_pruned: u64 = images.iter().map(|i| i.audit_pruned).sum();
    let violations_pruned: u64 = images.iter().map(|i| i.violations_pruned).sum();
    for image in images {
        for (subject, timeline) in image.movements.timelines() {
            let target = &mut out[shard_of(subject, shards)].movements;
            // Each subject's stays replay in order on its new shard —
            // per-subject order is all the physical-consistency checks
            // look at, so they cannot fire.
            for stay in timeline {
                let entered = target.record_enter(stay.enter, subject, stay.location);
                let left = stay
                    .exit
                    .map_or(Ok(()), |t| target.record_exit(t, subject, stay.location));
                debug_assert!(entered.and(left).is_ok(), "a timeline replays cleanly");
            }
        }
        // After the replay (which rebuilds the guard for surviving
        // events), merge the source's latest-time guards so subjects
        // whose history was entirely pruned keep their time-regression
        // protection on the new shard.
        for (s, t) in image.movements.latest_times() {
            out[shard_of(s, shards)].movements.observe_latest(s, t);
        }
        for p in image.pending {
            out[shard_of(p.subject, shards)].pending.push(p);
        }
        for entry in image.active {
            out[shard_of(entry.0, shards)].active.push(entry);
        }
        for s in image.overstay_alerted {
            out[shard_of(s, shards)].overstay_alerted.push(s);
        }
        for v in image.violations {
            out[shard_of(v.subject(), shards)].violations.push(v);
        }
        for record in image.audit {
            out[shard_of(record.request.subject, shards)]
                .audit
                .push(record);
        }
        for (id, count) in image.ledger.counts() {
            // An authorization belongs to exactly one subject; counters
            // for revoked (absent) authorizations land on shard 0, where
            // they are as inert as they were on their old shard.
            let target = db
                .get(id)
                .map(|auth| shard_of(auth.subject(), shards))
                .unwrap_or(0);
            let merged = out[target].ledger.used(id).saturating_add(count);
            out[target].ledger.restore_count(id, merged);
        }
    }
    for image in &mut out {
        image.pending.sort_by_key(|p| p.subject);
        image.active.sort_by_key(|&(s, _, _)| s);
        image.overstay_alerted.sort();
        image.movements.set_watermark(watermark);
    }
    out[0].movements.add_pruned_events(events_pruned);
    out[0].audit_pruned = audit_pruned;
    out[0].violations_pruned = violations_pruned;
    out
}

/// The engine's canonical state, its one definition of state equality:
/// `images` dealt onto one shard by [`redistribute`], violations and audit
/// records stably sorted by `(time, subject)` (a tick raises a shard's
/// overstays in hash-map order). A subject's records keep their detection
/// order, which no shard count changes: one history, one canonical image.
pub fn canonical(images: Vec<ShardStateImage>, db: &AuthorizationDb) -> ShardStateImage {
    let mut image = redistribute(images, 1, db).pop().unwrap_or_default();
    image.violations.sort_by_key(|v| (v.time(), v.subject()));
    image
        .audit
        .sort_by_key(|r| (r.request.time, r.request.subject));
    image
}

/// A subject-sharded, batch-ingesting enforcement engine.
///
/// See the [module docs](crate::batch) for the architecture: `N` worker
/// threads enforce concurrently while admin updates swap policy epochs
/// underneath. Every accessor takes `&self` and synchronizes per shard
/// (brief mutex holds) or on the policy epoch lock, so an
/// `Arc<ShardedEngine>` is read concurrently with its writer: a query
/// locks one shard at a time and interleaves with an in-flight batch
/// rather than waiting for it.
///
/// ```
/// use ltam_core::model::{Authorization, EntryLimit};
/// use ltam_core::subject::SubjectId;
/// use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
/// use ltam_graph::examples::ntu_campus;
/// use ltam_time::{Interval, Time};
///
/// let ntu = ntu_campus();
/// let cais = ntu.cais;
/// let mut core = PolicyCore::new(ntu.model);
/// let alice = SubjectId(0);
/// // The §3.2 authorization: ([5, 40], [20, 100], (Alice, CAIS), 1).
/// core.add_authorization(
///     Authorization::new(
///         Interval::lit(5, 40),
///         Interval::lit(20, 100),
///         alice,
///         cais,
///         EntryLimit::Finite(1),
///     )
///     .unwrap(),
/// );
/// let (engine, alerts) = ShardedEngine::new(core, 4);
///
/// // One batch: swipe, walk in, leave too early, clock tick.
/// let outcome = engine.ingest(&[
///     Event::Request { time: Time(10), subject: alice, location: cais },
///     Event::Enter { time: Time(10), subject: alice, location: cais },
///     Event::Exit { time: Time(15), subject: alice, location: cais }, // before [20, 100]
///     Event::Tick { now: Time(16) },
/// ]);
/// assert_eq!(outcome.granted, 1);
/// assert_eq!(outcome.violations.len(), 1); // the early exit
/// assert_eq!(alerts.try_recv().unwrap().violation, outcome.violations[0]);
/// ```
pub struct ShardedEngine {
    policy: RwLock<Arc<PolicyCore>>,
    shards: Vec<Arc<Mutex<ShardState>>>,
    workers: Vec<Sender<Job>>,
    joins: Vec<JoinHandle<()>>,
    alert_tx: Sender<Alert>,
    alert_seq: AtomicU64,
    /// Events from below-trust-threshold sources, in arrival order.
    /// Deliberately *outside* the shards: quarantined events must never
    /// touch per-subject enforcement state, and the ledger is read
    /// whole (triage, flagged query answers), not by subject hash.
    quarantine: Mutex<Vec<QuarantinedEvent>>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("alert_seq", &self.alert_seq)
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Spin up `shards` worker threads over `core`; returns the engine
    /// and the security desk's alert channel.
    pub fn new(core: PolicyCore, shards: usize) -> (ShardedEngine, Receiver<Alert>) {
        Self::with_states(core, (0..shards).map(|_| ShardState::new()).collect())
    }

    /// Spin up an engine whose shards start from pre-loaded state — the
    /// crash-recovery path: `ltam-store` restores each shard's
    /// [`ShardStateImage`] from the latest snapshot and replays the WAL
    /// tail through [`ShardedEngine::ingest`]. The alert sequence resumes
    /// past the violations already recorded, so restart alerts stay
    /// monotone.
    pub fn with_states(
        core: PolicyCore,
        states: Vec<ShardState>,
    ) -> (ShardedEngine, Receiver<Alert>) {
        let shards = states.len();
        assert!(shards >= 1, "need at least one shard");
        let (alert_tx, alert_rx) = channel();
        // Pruned violations still count: retention must not let alert
        // sequence numbers repeat after a restart.
        let seeded_seq: u64 = states
            .iter()
            .map(|s| s.violations().len() as u64 + s.violations_pruned())
            .sum();
        let states: Vec<Arc<Mutex<ShardState>>> = states
            .into_iter()
            .map(|s| Arc::new(Mutex::new(s)))
            .collect();
        let mut workers = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        for (i, state) in states.iter().enumerate() {
            let (tx, rx) = channel::<Job>();
            let state = Arc::clone(state);
            joins.push(std::thread::spawn(move || worker_loop(i, state, rx)));
            workers.push(tx);
        }
        (
            ShardedEngine {
                policy: RwLock::new(Arc::new(core)),
                shards: states,
                workers,
                joins,
                alert_tx,
                alert_seq: AtomicU64::new(seeded_seq),
                quarantine: Mutex::new(Vec::new()),
            },
            alert_rx,
        )
    }

    // --- the quarantine ledger ---------------------------------------------

    /// Append events from a below-threshold source to the quarantine
    /// ledger. They are recorded verbatim and never applied to the
    /// trusted movement history — no decisions, no violations, no
    /// ledger counters.
    pub fn ingest_quarantined(&self, source: SubjectId, level: u8, events: &[Event]) {
        let mut ledger = locked(self.quarantine.lock(), "quarantine");
        ledger.extend(events.iter().map(|&event| QuarantinedEvent {
            source,
            level,
            event,
        }));
        ltam_obs::counter!(
            "engine_quarantined_events_total",
            "Events accepted onto the quarantine ledger instead of the trusted history"
        )
        .inc_by(events.len() as u64);
    }

    /// Restore the quarantine ledger from a snapshot image (recovery;
    /// pairs with [`ShardedEngine::export_quarantine`]).
    pub fn load_quarantine(&self, entries: Vec<QuarantinedEvent>) {
        *locked(self.quarantine.lock(), "quarantine") = entries;
    }

    /// The full quarantine ledger, in arrival order (persistence and
    /// triage).
    pub fn export_quarantine(&self) -> Vec<QuarantinedEvent> {
        locked(self.quarantine.lock(), "quarantine").clone()
    }

    /// Number of quarantined events held.
    pub fn quarantine_len(&self) -> usize {
        locked(self.quarantine.lock(), "quarantine").len()
    }

    /// Quarantined events concerning `subject` (as the event's own
    /// subject) inside `window` — what a contact-tracing answer flags:
    /// observations that were reported but *not* trusted.
    pub fn quarantined_involving(
        &self,
        subject: SubjectId,
        window: ltam_time::Interval,
    ) -> Vec<QuarantinedEvent> {
        locked(self.quarantine.lock(), "quarantine")
            .iter()
            .filter(|q| q.event.subject() == Some(subject) && window.contains(q.event.time()))
            .copied()
            .collect()
    }

    /// Quarantined events inside `window`, optionally restricted to one
    /// reporting source (the triage query).
    pub fn quarantined_in(
        &self,
        source: Option<SubjectId>,
        window: ltam_time::Interval,
    ) -> Vec<QuarantinedEvent> {
        locked(self.quarantine.lock(), "quarantine")
            .iter()
            .filter(|q| source.is_none_or(|s| q.source == s) && window.contains(q.event.time()))
            .copied()
            .collect()
    }

    /// Export every shard's mutable state as serializable images, in
    /// shard order (persistence; pairs with [`ShardedEngine::with_states`]).
    ///
    /// Each shard is locked and imaged in turn; call between batches for a
    /// point-in-time snapshot.
    pub fn export_images(&self) -> Vec<ShardStateImage> {
        self.shards
            .iter()
            .map(|s| locked(s.lock(), "shard state").image())
            .collect()
    }

    /// This engine's [`canonical`] image; like [`ShardedEngine::export_images`],
    /// a consistent cut only between batches.
    pub fn canonical_image(&self) -> ShardStateImage {
        canonical(self.export_images(), self.policy().db())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a subject's state lives on.
    pub fn shard_for(&self, subject: SubjectId) -> usize {
        shard_of(subject, self.shards.len())
    }

    /// A snapshot of the current policy epoch.
    pub fn policy(&self) -> Arc<PolicyCore> {
        locked(self.policy.read(), "policy epoch").clone()
    }

    // --- administration (the single-writer epoch-swap path) ---------------

    /// Apply an arbitrary policy edit as one new epoch: clone the current
    /// core, run `f` on the clone, swap it in. Writers serialize on the
    /// policy lock; in-flight batches keep reading the epoch they started
    /// with.
    pub fn update_policy<R>(&self, f: impl FnOnce(&mut PolicyCore) -> R) -> R {
        let mut guard = locked(self.policy.write(), "policy epoch");
        let mut next = (**guard).clone();
        let r = f(&mut next);
        *guard = Arc::new(next);
        r
    }

    /// Insert an authorization (one epoch swap; batch admin edits with
    /// [`ShardedEngine::update_policy`]).
    pub fn add_authorization(&self, auth: Authorization) -> AuthId {
        self.update_policy(|p| p.add_authorization(auth))
    }

    /// Insert a prohibition.
    pub fn add_prohibition(&self, prohibition: Prohibition) {
        self.update_policy(|p| p.add_prohibition(prohibition));
    }

    /// Revoke an authorization: removes it from the next policy epoch and
    /// lapses its usage counters and pending grants on every shard.
    pub fn revoke_authorization(&self, id: AuthId) -> Option<Authorization> {
        let revoked = self.update_policy(|p| p.revoke_authorization(id));
        for shard in &self.shards {
            locked(shard.lock(), "shard state").invalidate_auth(id);
        }
        revoked
    }

    /// Apply one [`PolicyOp`] as one epoch swap; an authorization
    /// revocation also lapses its grants and counters on every shard,
    /// and an install swaps in the core built from its image without
    /// first copying the one it replaces.
    pub fn apply_policy_op(&self, op: &PolicyOp) -> PolicyOutcome {
        match op {
            PolicyOp::Admin(AdminOp::RevokeAuthorization { id }) => {
                PolicyOutcome::Admin(AdminOutcome::AuthorizationRevoked {
                    existed: self.revoke_authorization(*id).is_some(),
                })
            }
            PolicyOp::Install(image) => {
                let next = Arc::new(PolicyCore::from_image((**image).clone()));
                *locked(self.policy.write(), "policy epoch") = next;
                PolicyOutcome::Installed
            }
            _ => self.update_policy(|p| p.apply_op(op)),
        }
    }

    // --- batch ingestion ---------------------------------------------------

    /// Ingest a batch of events: group by shard, process each group on
    /// its shard's worker thread, merge the results in shard order, and
    /// forward every raised violation to the alert channel.
    ///
    /// Per-subject event order within the batch is preserved (a subject's
    /// events all land on one shard, in input order), which is all the
    /// movement database's physical-consistency checks need; `Tick`
    /// events are broadcast to every shard at their position in the
    /// batch.
    ///
    /// This is [`ShardedEngine::ingest_group`] with a group of one.
    pub fn ingest(&self, events: &[Event]) -> BatchOutcome {
        self.ingest_group(&[events])
            .pop()
            .expect("one batch in, one outcome out")
    }

    /// Ingest several batches under **one** dispatch: every batch is
    /// split by shard, each shard's worker receives its slices of all
    /// of them in one job (one channel hop and one reply per shard, not
    /// one per batch), applies them slice by slice, and the per-batch
    /// results are reassembled in shard order.
    ///
    /// The outcomes — every [`BatchOutcome`] field, and the alert
    /// stream (batch order, then shard order, then detection order) —
    /// are exactly what calling [`ShardedEngine::ingest`] on each batch
    /// in turn produces: a subject's events all land on one shard in
    /// input order, ticks are broadcast at their position, and shards
    /// share no mutable state, so the batch boundaries inside a group
    /// carry no enforcement meaning, only result attribution. The whole
    /// group is judged under one policy epoch, as one batch is.
    pub fn ingest_group(&self, batches: &[&[Event]]) -> Vec<BatchOutcome> {
        let epoch = locked(self.policy.read(), "policy epoch").clone();
        let n = self.shards.len();
        // Per shard: its events of the whole group, and where each
        // batch's slice of them ends.
        let mut groups: Vec<(Vec<Event>, Vec<usize>)> = (0..n)
            .map(|_| (Vec::new(), Vec::with_capacity(batches.len())))
            .collect();
        for batch in batches {
            for e in *batch {
                match e.subject() {
                    Some(s) => groups[shard_of(s, n)].0.push(*e),
                    None => {
                        for (g, _) in &mut groups {
                            g.push(*e);
                        }
                    }
                }
            }
            for (g, cuts) in &mut groups {
                cuts.push(g.len());
            }
        }

        let (done_tx, done_rx) = channel();
        let mut dispatched = 0usize;
        for (i, (events, cuts)) in groups.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            self.workers[i]
                .send(Job::Batch {
                    epoch: Arc::clone(&epoch),
                    events,
                    cuts,
                    done: done_tx.clone(),
                })
                .expect("worker thread alive");
            dispatched += 1;
        }
        drop(done_tx);

        // One reply per dispatched shard: its outcomes in batch order.
        let mut results: Vec<Option<std::vec::IntoIter<ShardOutcome>>> =
            (0..n).map(|_| None).collect();
        for _ in 0..dispatched {
            let (shard, outs) = done_rx.recv().expect("worker reports its batch");
            debug_assert_eq!(outs.len(), batches.len());
            results[shard] = Some(outs.into_iter());
        }

        // Merge deterministically: batch order, then shard index order.
        let mut outcomes = Vec::with_capacity(batches.len());
        let (mut granted, mut denied) = (0usize, 0usize);
        for batch in batches {
            let mut outcome = BatchOutcome {
                processed: batch.len(),
                ..BatchOutcome::default()
            };
            for (i, outs) in results.iter_mut().enumerate() {
                let Some(outs) = outs else {
                    continue; // nothing in the group routed to shard `i`
                };
                let out = outs.next().expect("one shard outcome per batch");
                if out.events == 0 {
                    continue;
                }
                outcome.per_shard.push(ShardStats {
                    shard: i,
                    events: out.events,
                    violations: out.violations.len(),
                });
                outcome.granted += out.granted;
                outcome.denied += out.denied;
                outcome.violations.extend(out.violations);
            }
            granted += outcome.granted;
            denied += outcome.denied;
            for &v in &outcome.violations {
                self.alert(v);
            }
            outcomes.push(outcome);
        }
        ltam_obs::counter!(
            "engine_decisions_total",
            "Access-request decisions, by outcome",
            "outcome" => "granted"
        )
        .inc_by(granted as u64);
        ltam_obs::counter!(
            "engine_decisions_total",
            "Access-request decisions, by outcome",
            "outcome" => "denied"
        )
        .inc_by(denied as u64);
        outcomes
    }

    fn alert(&self, violation: Violation) {
        ltam_obs::counter!(
            "engine_alerts_total",
            "Violation alerts forwarded to the security desk"
        )
        .inc();
        let alert = Alert {
            violation,
            seq: self.alert_seq.fetch_add(1, Ordering::Relaxed),
        };
        let _ = self.alert_tx.send(alert);
    }

    // --- single-event paths (sensor trickle between batches) --------------

    /// Process one access request inline (no worker hop).
    pub fn request_enter(&self, t: Time, subject: SubjectId, location: LocationId) -> Decision {
        let epoch = locked(self.policy.read(), "policy epoch").clone();
        let idx = shard_of(subject, self.shards.len());
        let decision = {
            let mut state = locked(self.shards[idx].lock(), "shard state");
            state.request_enter(&epoch.view(), t, subject, location)
        };
        let outcome_counter = match decision {
            Decision::Granted { .. } | Decision::GrantedOverride { .. } => ltam_obs::counter!(
                "engine_decisions_total",
                "Access-request decisions, by outcome",
                "outcome" => "granted"
            ),
            Decision::Denied { .. } => ltam_obs::counter!(
                "engine_decisions_total",
                "Access-request decisions, by outcome",
                "outcome" => "denied"
            ),
        };
        outcome_counter.inc();
        decision
    }

    /// Process one observed entry inline. Returns the violation raised,
    /// if any.
    pub fn observe_enter(
        &self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        let epoch = locked(self.policy.read(), "policy epoch").clone();
        let idx = shard_of(subject, self.shards.len());
        let raised = {
            let mut state = locked(self.shards[idx].lock(), "shard state");
            state.observe_enter(&epoch.view(), t, subject, location)
        };
        if let Some(v) = raised {
            self.alert(v);
        }
        raised
    }

    /// Process one observed exit inline. Returns the violation raised,
    /// if any.
    pub fn observe_exit(
        &self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        let epoch = locked(self.policy.read(), "policy epoch").clone();
        let idx = shard_of(subject, self.shards.len());
        let raised = {
            let mut state = locked(self.shards[idx].lock(), "shard state");
            state.observe_exit(&epoch.view(), t, subject, location)
        };
        if let Some(v) = raised {
            self.alert(v);
        }
        raised
    }

    /// Advance the monitoring clock on every shard, in shard order.
    pub fn tick(&self, now: Time) -> Vec<Violation> {
        let epoch = locked(self.policy.read(), "policy epoch").clone();
        let mut raised = Vec::new();
        for shard in &self.shards {
            raised.extend(locked(shard.lock(), "shard state").tick(&epoch.view(), now));
        }
        for &v in &raised {
            self.alert(v);
        }
        raised
    }

    // --- retention ---------------------------------------------------------

    /// The records a retention run at `horizon` would remove across all
    /// shards, without mutating anything. A durable deployment archives
    /// this bundle, then calls [`ShardedEngine::apply_retention`]; see
    /// `ltam_store::DurableEngine::run_retention` for that sequence.
    pub fn collect_prunable(&self, horizon: Time) -> PrunedHistory {
        let mut out = PrunedHistory::default();
        for shard in &self.shards {
            out.merge(locked(shard.lock(), "shard state").collect_prunable(horizon));
        }
        out
    }

    /// Drop every history record older than `horizon` on every shard
    /// and advance the watermark. Enforcement semantics are unaffected:
    /// ledger counters, pending grants, active stays and the movement
    /// consistency guards all survive.
    pub fn apply_retention(&self, horizon: Time) {
        for shard in &self.shards {
            locked(shard.lock(), "shard state").apply_retention(horizon);
        }
    }

    /// Run one retention maintenance pass at monitoring time `now`:
    /// prune each shard (collect + drop under one lock hold) at
    /// `policy.horizon_at(now)` and return everything removed. The
    /// caller decides the pruned records' fate: `ltam-store` archives
    /// them, and discarded ones are gone from below the watermark.
    pub fn run_retention(&self, policy: &ltam_core::RetentionPolicy, now: Time) -> PrunedHistory {
        let horizon = policy.horizon_at(now);
        let mut out = PrunedHistory::default();
        for shard in &self.shards {
            out.merge(locked(shard.lock(), "shard state").prune(horizon));
        }
        out
    }

    /// The history retention watermark: the maximum over all shards
    /// (answers below it may be incomplete in live state).
    pub fn retention_watermark(&self) -> Time {
        self.shards
            .iter()
            .map(|s| locked(s.lock(), "shard state").watermark())
            .max()
            .unwrap_or(Time::ZERO)
    }

    // --- read access -------------------------------------------------------

    /// Operational counters, aggregated across shards under one brief
    /// lock hold each — the engine half of a serving layer's status
    /// endpoint (`ltam-serve` merges this with store-level counters).
    pub fn status(&self) -> EngineStatus {
        let mut status = EngineStatus {
            shards: self.shards.len(),
            ..EngineStatus::default()
        };
        for (i, shard) in self.shards.iter().enumerate() {
            let s = locked(shard.lock(), "shard state");
            let row = ShardStatusRow {
                shard: i,
                movement_events: s.movements().len(),
                violations: s.violations().len(),
                audit_records: s.audit().len(),
            };
            status.live_movement_events += row.movement_events;
            status.live_violations += row.violations;
            status.audit_records += row.audit_records;
            status.events_pruned += s.movements().pruned_events();
            status.violations_pruned += s.violations_pruned();
            status.audit_pruned += s.audit_pruned();
            status.total_entries += s.ledger().total_entries();
            status.per_shard.push(row);
        }
        status
    }

    /// Run read-only logic against one shard's state.
    pub fn read_shard<R>(&self, shard: usize, f: impl FnOnce(&ShardState) -> R) -> R {
        let state = locked(self.shards[shard].lock(), "shard state");
        f(&state)
    }

    /// All violations detected so far, concatenated in shard order
    /// (within a shard: detection order). Compare as a multiset against a
    /// single-engine run.
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend_from_slice(locked(shard.lock(), "shard state").violations());
        }
        out
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Closing the job channels stops the workers; join them so no
        // thread outlives the engine.
        self.workers.clear();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

/// Replay one [`Event`] into a single-threaded engine — the reference
/// semantics the sharded engine is tested against.
pub fn apply_to_engine(engine: &mut AccessControlEngine, event: &Event) {
    match *event {
        Event::Request {
            time,
            subject,
            location,
        } => {
            engine.request_enter(time, subject, location);
        }
        Event::Enter {
            time,
            subject,
            location,
        } => {
            engine.observe_enter(time, subject, location);
        }
        Event::Exit {
            time,
            subject,
            location,
        } => {
            engine.observe_exit(time, subject, location);
        }
        Event::Tick { now } => {
            engine.tick(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_core::model::EntryLimit;
    use ltam_graph::examples::ntu_campus;
    use ltam_time::Interval;

    fn one_shot_core() -> (PolicyCore, SubjectId, LocationId) {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let alice = SubjectId(0);
        core.add_authorization(
            Authorization::new(
                Interval::lit(5, 40),
                Interval::lit(20, 100),
                alice,
                cais,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        (core, alice, cais)
    }

    #[test]
    fn batch_matches_single_engine_on_clean_cycle() {
        let (core, alice, cais) = one_shot_core();
        let (engine, _alerts) = ShardedEngine::new(core, 4);
        let out = engine.ingest(&[
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(11),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(25),
                subject: alice,
                location: cais,
            },
        ]);
        assert_eq!(out.processed, 3);
        assert_eq!(out.granted, 1);
        assert_eq!(out.denied, 0);
        assert!(out.violations.is_empty());
        assert_eq!(engine.status().total_entries, 1);
        // Exactly one shard saw traffic.
        assert_eq!(out.per_shard.len(), 1);
        assert_eq!(out.per_shard[0].events, 3);
    }

    #[test]
    fn ticks_broadcast_to_all_shards() {
        let (core, alice, cais) = one_shot_core();
        let (engine, alerts) = ShardedEngine::new(core, 4);
        engine.ingest(&[
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(11),
                subject: alice,
                location: cais,
            },
        ]);
        // Exit window [20, 100] closed at 100; the overstay fires once.
        let out = engine.ingest(&[
            Event::Tick { now: Time(101) },
            Event::Tick { now: Time(102) },
        ]);
        assert_eq!(out.violations.len(), 1);
        assert!(matches!(out.violations[0], Violation::Overstay { .. }));
        // Alerts carry monotone sequence numbers.
        let alert = alerts.try_iter().last().unwrap();
        assert_eq!(alert.violation, out.violations[0]);
    }

    #[test]
    fn status_aggregates_counters_across_shards() {
        let (core, alice, cais) = one_shot_core();
        let (engine, _alerts) = ShardedEngine::new(core, 4);
        engine.ingest(&[
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(11),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(15), // before [20, 100]: a violation
                subject: alice,
                location: cais,
            },
            // An unauthorized subject tailgates in.
            Event::Enter {
                time: Time(12),
                subject: SubjectId(7),
                location: cais,
            },
        ]);
        let status = engine.status();
        assert_eq!(status.shards, 4);
        assert_eq!(status.live_movement_events, 3); // two enters + one exit
        assert_eq!(status.live_violations, 2);
        assert_eq!(status.audit_records, 1);
        assert_eq!(status.total_entries, 1);
        assert_eq!(status.per_shard.len(), 4);
        assert_eq!(
            status.per_shard.iter().map(|r| r.violations).sum::<usize>(),
            status.live_violations
        );
        // The status is serializable (the wire carries it as a binval body).
        let back = EngineStatus::from_value(&status.to_value()).unwrap();
        assert_eq!(back, status);
    }

    #[test]
    fn epoch_swap_is_seen_by_the_next_batch() {
        let (core, alice, cais) = one_shot_core();
        let (engine, _alerts) = ShardedEngine::new(core, 2);
        // Lockdown lands before the swipe: denial takes precedence.
        engine.add_prohibition(Prohibition {
            subject: alice,
            location: cais,
            window: Interval::lit(8, 15),
        });
        let out = engine.ingest(&[Event::Request {
            time: Time(10),
            subject: alice,
            location: cais,
        }]);
        assert_eq!(out.denied, 1);
        // Outside the blocked window the original epoch's grant applies.
        let out = engine.ingest(&[Event::Request {
            time: Time(20),
            subject: alice,
            location: cais,
        }]);
        assert_eq!(out.granted, 1);
    }

    #[test]
    fn revocation_reaches_every_shard() {
        let (core, alice, cais) = one_shot_core();
        let (engine, _alerts) = ShardedEngine::new(core, 4);
        let out = engine.ingest(&[Event::Request {
            time: Time(10),
            subject: alice,
            location: cais,
        }]);
        assert_eq!(out.granted, 1);
        // Revoke the only authorization: the pending grant lapses.
        let id = engine
            .policy()
            .db()
            .iter()
            .next()
            .map(|(id, _, _)| id)
            .unwrap();
        assert!(engine.revoke_authorization(id).is_some());
        let out = engine.ingest(&[Event::Enter {
            time: Time(11),
            subject: alice,
            location: cais,
        }]);
        assert_eq!(out.violations.len(), 1);
        assert!(matches!(
            out.violations[0],
            Violation::UnauthorizedEntry { .. }
        ));
    }

    #[test]
    fn an_installed_image_never_reissues_an_authorization_id() {
        let (mut source, alice, cais) = one_shot_core();
        let a = *source.db().get(AuthId(0)).unwrap();
        let last = source.add_authorization(a);
        source.revoke_authorization(last);
        // The image's largest surviving row is A0, its high-water mark 2.
        let image = source.image();
        assert_eq!((image.authorizations.len(), image.next_auth_id), (1, 2));

        let mut core = PolicyCore::new(ntu_campus().model);
        let install = PolicyOp::Install(Box::new(image));
        assert_eq!(core.apply_op(&install), PolicyOutcome::Installed);
        let granted = core.apply_op(&PolicyOp::Admin(AdminOp::AddAuthorization(a)));
        let id = AuthId(2);
        assert_eq!(
            granted,
            PolicyOutcome::Admin(AdminOutcome::AuthorizationAdded { id })
        );
        let candidates: Vec<AuthId> = core
            .db()
            .for_subject_location(alice, cais)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(candidates, [AuthId(0), id]);
        assert_eq!(
            core.apply_op(&PolicyOp::Admin(AdminOp::RevokeAuthorization { id })),
            PolicyOutcome::Admin(AdminOutcome::AuthorizationRevoked { existed: true })
        );
        assert_eq!(core.add_authorization(a), AuthId(3));
    }

    #[test]
    fn retention_across_shards_keeps_alert_seq_monotone() {
        use ltam_core::RetentionPolicy;
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = PolicyCore::new(ntu.model);
        let (engine, alerts) = ShardedEngine::new(core, 4);
        // Two tailgaters on (very likely) different shards.
        engine.ingest(&[
            Event::Enter {
                time: Time(5),
                subject: SubjectId(0),
                location: cais,
            },
            Event::Enter {
                time: Time(6),
                subject: SubjectId(1),
                location: cais,
            },
            Event::Exit {
                time: Time(7),
                subject: SubjectId(0),
                location: cais,
            },
            Event::Exit {
                time: Time(8),
                subject: SubjectId(1),
                location: cais,
            },
        ]);
        assert_eq!(engine.violations().len(), 2);
        let policy = RetentionPolicy::keep_last(10);
        let pruned = engine.run_retention(&policy, Time(100));
        assert_eq!(pruned.violations.len(), 2);
        assert_eq!(pruned.stays.len(), 2);
        assert_eq!(engine.violations().len(), 0);
        assert_eq!(engine.retention_watermark(), Time(90));
        // Restart from images: the alert sequence resumes past the two
        // pruned violations, so the next alert's seq is 2, not 0.
        let images = engine.export_images();
        let states = images.into_iter().map(ShardState::from_image).collect();
        let (restarted, alerts2) = ShardedEngine::with_states((*engine.policy()).clone(), states);
        drop(alerts);
        restarted.ingest(&[Event::Enter {
            time: Time(200),
            subject: SubjectId(2),
            location: cais,
        }]);
        assert_eq!(alerts2.try_recv().unwrap().seq, 2);
        // collect_prunable alone must not mutate.
        let again = restarted.collect_prunable(Time(201));
        assert_eq!(again.violations.len(), 1);
        assert_eq!(restarted.violations().len(), 1);
    }

    #[test]
    fn shard_of_spreads_and_is_stable() {
        let n = 8;
        let mut hits = vec![0usize; n];
        for s in 0..1000u32 {
            let i = shard_of(SubjectId(s), n);
            assert_eq!(i, shard_of(SubjectId(s), n));
            hits[i] += 1;
        }
        // No empty shard, no shard with more than half the subjects.
        assert!(hits.iter().all(|&h| h > 0 && h < 500), "skewed: {hits:?}");
    }

    #[test]
    fn single_event_paths_match_batched() {
        let (core, alice, cais) = one_shot_core();
        let (a, _rx_a) = ShardedEngine::new(core.clone(), 3);
        let (b, _rx_b) = ShardedEngine::new(core, 3);
        let events = [
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(11),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(15), // before the exit window opens
                subject: alice,
                location: cais,
            },
            Event::Tick { now: Time(101) },
        ];
        a.ingest(&events);
        for e in &events {
            match *e {
                Event::Request {
                    time,
                    subject,
                    location,
                } => {
                    b.request_enter(time, subject, location);
                }
                Event::Enter {
                    time,
                    subject,
                    location,
                } => {
                    b.observe_enter(time, subject, location);
                }
                Event::Exit {
                    time,
                    subject,
                    location,
                } => {
                    b.observe_exit(time, subject, location);
                }
                Event::Tick { now } => {
                    b.tick(now);
                }
            }
        }
        assert_eq!(a.violations(), b.violations());
    }

    #[test]
    fn shared_reads_track_the_writer() {
        let (core, alice, cais) = one_shot_core();
        let (engine, _alerts) = ShardedEngine::new(core, 2);
        let engine = Arc::new(engine);
        let reader = Arc::clone(&engine);
        assert_eq!(reader.status().total_entries, 0);
        engine.ingest(&[
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(15), // before the mandatory [20, 100] window
                subject: alice,
                location: cais,
            },
        ]);
        assert_eq!(reader.status().total_entries, 1);
        assert_eq!(reader.violations().len(), 1);
        assert_eq!(reader.status().live_violations, 1);
    }

    #[test]
    fn concurrent_readers_never_deadlock_with_ingest() {
        let ntu = ntu_campus();
        let core = PolicyCore::new(ntu.model);
        let cais = ntu.cais;
        let (engine, _alerts) = ShardedEngine::new(core, 2);
        let engine = Arc::new(engine);
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reader = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let s = reader.status();
                        assert!(s.audit_records >= last, "audit count is monotone");
                        last = s.audit_records;
                    }
                    last
                })
            })
            .collect();
        for i in 0..50u64 {
            engine.ingest(&[Event::Request {
                time: Time(i),
                subject: SubjectId((i % 7) as u32),
                location: cais,
            }]);
        }
        for r in readers {
            assert!(r.join().unwrap() <= 50);
        }
    }

    #[test]
    fn concurrent_requests_respect_entry_budget() {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let alice = SubjectId(0);
        core.add_authorization(
            Authorization::new(
                Interval::lit(0, 1000),
                Interval::lit(0, 2000),
                alice,
                cais,
                EntryLimit::Finite(4),
            )
            .unwrap(),
        );
        let (engine, _alerts) = ShardedEngine::new(core, 4);

        // 8 turnstile threads race request+enter+exit cycles. However the
        // races interleave, no more than 4 entries may ever be recorded
        // against the authorization's budget.
        std::thread::scope(|scope| {
            for k in 0..8u64 {
                let engine = &engine;
                scope.spawn(move || {
                    let t = Time(1 + k);
                    if engine.request_enter(t, alice, cais).is_granted() {
                        engine.observe_enter(t, alice, cais);
                        engine.observe_exit(t.saturating_add(1), alice, cais);
                    }
                });
            }
        });
        assert!(
            engine.status().total_entries <= 4,
            "entry budget exceeded: {}",
            engine.status().total_entries
        );
    }

    #[test]
    fn alerts_reach_the_security_desk() {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let (engine, alerts) = ShardedEngine::new(PolicyCore::new(ntu.model), 2);
        let mallory = SubjectId(3);
        engine.observe_enter(Time(5), mallory, cais);
        let alert = alerts.try_recv().unwrap();
        assert_eq!(alert.violation.subject(), mallory);
        assert_eq!(engine.violations().len(), 1);
    }
}
