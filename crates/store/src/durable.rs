//! [`DurableEngine`] — a crash-safe wrapper around
//! [`ShardedEngine`]: WAL-append before ingest, periodic snapshots,
//! recovery on open, WAL compaction behind snapshots.
//!
//! ## Protocol
//!
//! * **Commit** — every mutation is a [`WalRecord`] (a trusted event
//!   batch, a quarantine batch, a [`PolicyOp`]).
//!   [`DurableEngine::commit`] appends a group of them to the WAL (one
//!   write, one `fsync`), *then* applies them in order. A crash between
//!   the two replays the records on recovery, which is exactly what an
//!   uninterrupted run would have computed: enforcement is deterministic
//!   per subject, so WAL-then-apply gives effectively-once semantics.
//! * **Snapshot** — every [`StoreConfig::snapshot_every`] events (or on
//!   demand), the full engine state is imaged at the current WAL
//!   position, written atomically, the WAL rotates, and segments no
//!   **retained** snapshot could ever need are deleted (recovery may
//!   fall back to the previous snapshot if the newest is damaged, so
//!   compaction trails the oldest retained one, not the newest).
//! * **Recover** — [`DurableEngine::open`] loads the newest valid
//!   snapshot, rebuilds the engine from it, and applies the WAL records
//!   at sequence `>= snapshot.seq` through the same routine the live
//!   path applies a freshly appended group with. A torn or bit-flipped
//!   WAL tail is truncated at the last intact record — never a panic,
//!   never a lost record *before* the damage.
//! * **Policy edits** — every edit is one [`PolicyOp`] WAL record,
//!   applied at its sequence position live, by recovery and by
//!   followers alike: tokens, trust, authorization add/revoke and
//!   situation ops as the op itself, anything else
//!   ([`DurableEngine::update_policy`]) as the policy it produced
//!   ([`PolicyOp::Install`]). Each acknowledged edit advances an
//!   on-disk policy-epoch marker; recovery refuses to come up below it
//!   — the records carrying an acked edit are missing — rather than
//!   silently revert.

use crate::archive::{ArchiveStore, LazyArchive};
use crate::codec::WalRecord;
use crate::history::{HistoryError, Tiers};
use crate::snapshot::{SnapshotStore, SnapshotView};
use crate::wal::{Wal, WalBatch, WalConfig};
use crate::whole::{self, MARKER};
use ltam_core::capability::{AdminOp, AdminOutcome};
use ltam_core::db::AuthId;
use ltam_core::retention::RetentionPolicy;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{
    redistribute, BatchOutcome, Event, PolicyCore, PolicyOp, PolicyOutcome, ShardedEngine,
};
use ltam_engine::movement::Contact;
use ltam_engine::shard::ShardState;
use ltam_engine::violation::Alert;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_obs::locked;
use ltam_situate::{SituationOp, SituationOutcome};
use ltam_time::{Interval, Time};
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Tunables for a durable engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// WAL segment rotation threshold, in bytes.
    pub segment_bytes: u64,
    /// Automatic snapshot cadence, in events since the last snapshot
    /// (0 disables automatic snapshots; call
    /// [`DurableEngine::snapshot`] manually).
    pub snapshot_every: u64,
    /// `fsync` WAL batches and snapshots (disable only for benchmarks).
    pub fsync: bool,
    /// History retention: `None` keeps all history live forever (the
    /// pre-retention behavior); `Some(policy)` bounds live state by
    /// pruning history past the policy's horizon on ingest-driven
    /// maintenance runs, archiving it first (see
    /// [`DurableEngine::run_retention`]).
    pub retention: Option<RetentionPolicy>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 1 << 20,
            snapshot_every: 100_000,
            fsync: true,
            retention: None,
        }
    }
}

impl StoreConfig {
    fn wal(&self) -> WalConfig {
        WalConfig {
            segment_bytes: self.segment_bytes,
            fsync: self.fsync,
        }
    }
}

/// What [`DurableEngine::open`] did to bring the store back.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL position of the snapshot the engine was rebuilt from.
    pub snapshot_seq: u64,
    /// WAL-tail events replayed through the ingest path.
    pub replayed: usize,
    /// WAL-tail quarantine events reloaded onto the quarantine ledger
    /// (they never pass through enforcement).
    pub replayed_quarantined: usize,
    /// WAL-tail policy ops re-applied during replay, each at its own
    /// sequence position (a policy edit changes how every later
    /// replayed event is judged).
    pub replayed_policy_ops: usize,
    /// Violations raised during replay (already counted in the snapshot
    /// run's history if the crash lost no state — replay re-detects them).
    pub replayed_violations: usize,
    /// Bytes truncated off a torn/corrupt WAL tail.
    pub truncated_bytes: u64,
    /// WAL segments dropped because they followed a corrupt region.
    pub dropped_segments: usize,
    /// History retention watermark carried by the recovered snapshot
    /// (0 = never pruned).
    pub retention_watermark: u64,
    /// Archive coverage end at open time (0 = no archive segments).
    /// Historical queries below `retention_watermark` refuse unless the
    /// archive reaches the watermark.
    pub archive_covered_to: u64,
    /// `Some(message)` if the archive chain could not be scanned at
    /// open time (gappy or corrupt segments). Enforcement and recovery
    /// proceed — the archive is a query tier, not the recovery path —
    /// but below-watermark queries will fail until it is repaired, so
    /// operators should alert on this (see `docs/OPERATIONS.md` §6.6).
    pub archive_error: Option<String>,
    /// `Some(message)` naming the file and the failed check if the
    /// acked-epoch marker exists but does not read. Recovery proceeds
    /// without the policy-revert check it guards, so operators should
    /// alert on this too (see `docs/OPERATIONS.md` §6.4).
    pub epoch_marker_error: Option<String>,
}

/// What applying one WAL record produced — one per record of a
/// [`DurableEngine::commit`] group, in order.
#[derive(Debug)]
pub enum RecordOutcome {
    /// A trusted batch went through enforcement.
    Events(BatchOutcome),
    /// A quarantine batch was held on the ledger: how many events.
    Quarantined(usize),
    /// A policy op was applied. `Err` means the op **is** logged and
    /// applied but its acked-epoch marker could not be written: it must
    /// not be acknowledged, like any commit whose ack was lost.
    Policy(io::Result<PolicyOutcome>),
}

/// A [`ShardedEngine`] with a durable event log and snapshots underneath.
/// See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct DurableEngine {
    dir: PathBuf,
    config: StoreConfig,
    /// Shared with every [`ReadView`]: the sharded engine synchronizes
    /// reads per shard itself, so views answer queries concurrently
    /// while this handle serializes all mutation.
    engine: Arc<ShardedEngine>,
    wal: Wal,
    snapshots: SnapshotStore,
    archive: Arc<ArchiveStore>,
    /// Lazily-loaded archive tier, cached across queries (segments load
    /// on first touch; see [`LazyArchive`]); a retention run, which
    /// appends a segment, has the chain rescanned. Interior mutability so the
    /// tier-aware queries take `&self` — shared with [`ReadView`]s,
    /// which answer reads concurrently while ingest proceeds here.
    archive_cache: Arc<Mutex<LazyArchive>>,
    /// Store-level counters mirrored for [`ReadView`]s after every
    /// mutation (a view must not reach into `Wal` or the sequence
    /// bookkeeping, which only this writer handle may touch).
    cells: Arc<StatusCells>,
    /// An in-flight background snapshot write, if any (see
    /// [`DurableEngine::snapshot_async`]).
    pending_snapshot: Option<PendingSnapshot>,
    applied: u64,
    since_snapshot: u64,
    policy_epoch: u64,
    /// Highest event time seen — the monitoring clock retention
    /// maintenance runs against. Quarantined events deliberately do
    /// **not** advance it: an untrusted sensor must not be able to
    /// fast-forward time (expiring tokens and grants) from quarantine.
    clock: Time,
    snapshot_error: Option<io::Error>,
    retention_error: Option<io::Error>,
    /// Held for the engine's lifetime; released (file removed) on drop.
    _lock: StoreLock,
}

/// Store counters a [`ReadView`] can read without touching the writer:
/// published by the writer after every mutation, loaded lock-free by
/// any number of views.
#[derive(Debug, Default)]
struct StatusCells {
    applied: AtomicU64,
    snapshot_seq: AtomicU64,
    policy_epoch: AtomicU64,
    wal_fsyncs: AtomicU64,
    /// The monitoring clock (highest trusted event time), as a raw
    /// chronon — the time the serving tier evaluates token validity at.
    clock: AtomicU64,
}

/// A background snapshot write in flight: the engine was imaged and the
/// WAL rotated synchronously; the encode + write + fsync run on this
/// thread. Joined (and the WAL compacted) before the next snapshot
/// (cadence, shutdown) or drop.
#[derive(Debug)]
struct PendingSnapshot {
    join: JoinHandle<io::Result<PathBuf>>,
}

/// Lower the **calling thread's** scheduling priority (nice +10).
///
/// The background snapshot writer burns ~tens of milliseconds of CPU
/// encoding a multi-megabyte image; on a small machine (1 vCPU) that
/// steals whole scheduler quanta from the poll and commit threads and
/// shows up directly as tail latency on the wire. Niceness keeps the
/// writer running whenever the box is otherwise idle but yields to the
/// serving threads when it is not. On Linux `setpriority(PRIO_PROCESS,
/// 0, ..)` is per-thread, which is exactly the scope we want; a
/// failure (or a non-Linux target) is harmless — the write still
/// happens, just without the hint.
fn lower_thread_priority() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        const PRIO_PROCESS: i32 = 0;
        // SAFETY: plain syscall wrapper; pid 0 = the calling thread on
        // Linux. The return value is ignored on purpose (best effort).
        unsafe {
            setpriority(PRIO_PROCESS, 0, 10);
        }
    }
}

/// Best-effort single-opener guard: a `store.lock` file holding the
/// owner's pid. Two live engines appending to one WAL would interleave
/// records that neither's bookkeeping describes, so `create`/`open`
/// refuse while another **live** process holds the lock. A lock left by
/// a crashed process (its pid no longer alive) is stale and is taken
/// over — recovery after a crash is the whole point of the store — at
/// the (documented, accepted) cost of pid-reuse false negatives on
/// non-Linux systems where liveness cannot be probed via `/proc`.
#[derive(Debug)]
struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    fn acquire(dir: &Path) -> io::Result<StoreLock> {
        let path = dir.join("store.lock");
        // The creation itself is atomic (O_EXCL): of N racing openers,
        // exactly one creates the file. A stale lock (dead pid) is
        // removed and the acquire retried — racing removers then race on
        // the next create_new, which again admits exactly one.
        for _ in 0..8 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    f.write_all(format!("{}\n", std::process::id()).as_bytes())?;
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if let Some(pid) = holder {
                        if Path::new(&format!("/proc/{pid}")).exists() {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "{} is locked by live process {pid}; two engines must \
                                     not append to one WAL",
                                    dir.display()
                                ),
                            ));
                        }
                    }
                    // Stale (dead pid) or unreadable: clear and retry.
                    match std::fs::remove_file(&path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::other(format!(
            "could not acquire {} after repeated stale-lock takeovers",
            path.display()
        )))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release only if the lock still names us (never delete a lock a
        // takeover replaced).
        let ours = std::fs::read_to_string(&self.path)
            .map(|s| s.trim().parse::<u32>() == Ok(std::process::id()))
            .unwrap_or(false);
        if ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Marker file recording the highest **acknowledged** policy epoch (a
/// checksummed whole file, [`crate::whole::MARKER`]). Written after the
/// WAL record carrying a policy edit is durable, so recovery can detect
/// — and refuse — coming up in a state that silently reverts an acked
/// edit. Its rename is durable before the edit is acked: a lost one
/// would let a power cut silently revert an acknowledged edit, the
/// exact hole this marker closes.
pub(crate) const EPOCH_MARKER: &str = MARKER.names.1;

fn write_epoch_marker(dir: &Path, fsync: bool, epoch: u64) -> io::Result<()> {
    whole::write_atomic(dir, &MARKER, EPOCH_MARKER, &[epoch], fsync, |_| {}).map(drop)
}

/// The recorded epoch, `None` if no marker was ever written, or the
/// error that names why the marker does not read.
fn read_epoch_marker(dir: &Path) -> io::Result<Option<u64>> {
    match whole::read_checked(&dir.join(EPOCH_MARKER), &MARKER, &[]) {
        Ok((fields, _)) => Ok(fields.first().copied()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

impl DurableEngine {
    /// Create a fresh store in `dir` (refusing to overwrite an existing
    /// one) and write the initial snapshot of `core` at sequence 0.
    pub fn create(
        dir: &Path,
        core: PolicyCore,
        shards: usize,
        config: StoreConfig,
    ) -> io::Result<(DurableEngine, Receiver<Alert>)> {
        std::fs::create_dir_all(dir)?;
        let lock = StoreLock::acquire(dir)?;
        if SnapshotStore::new(dir).any_present()? {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds an ltam-store; use open()", dir.display()),
            ));
        }
        let (wal, recovered) = Wal::open(dir, config.wal())?;
        if !recovered.records.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds WAL segments; use open()", dir.display()),
            ));
        }
        let (engine, alerts) = ShardedEngine::new(core, shards);
        let mut durable = DurableEngine::assemble(dir, config, engine, wal, lock);
        durable.snapshot()?;
        Ok((durable, alerts))
    }

    /// The engine over `dir` at WAL position 0 and policy epoch 0 (where
    /// recovery moves it on to the snapshot it loaded).
    fn assemble(
        dir: &Path,
        config: StoreConfig,
        engine: ShardedEngine,
        wal: Wal,
        lock: StoreLock,
    ) -> DurableEngine {
        DurableEngine {
            dir: dir.to_path_buf(),
            config,
            engine: Arc::new(engine),
            wal,
            snapshots: SnapshotStore::with_fsync(dir, config.fsync),
            archive: Arc::new(ArchiveStore::with_fsync(dir, config.fsync)),
            archive_cache: Arc::new(Mutex::new(LazyArchive::new())),
            cells: Arc::new(StatusCells::default()),
            pending_snapshot: None,
            applied: 0,
            since_snapshot: 0,
            policy_epoch: 0,
            clock: Time::ZERO,
            snapshot_error: None,
            retention_error: None,
            _lock: lock,
        }
    }

    /// Recover a store from `dir` with the shard count it was
    /// snapshotted under.
    pub fn open(
        dir: &Path,
        config: StoreConfig,
    ) -> io::Result<(DurableEngine, Receiver<Alert>, RecoveryReport)> {
        Self::open_impl(dir, config, None)
    }

    /// Recover a store from `dir` onto `shards` shards, redistributing
    /// the snapshotted per-subject state if the count changed.
    pub fn open_with_shards(
        dir: &Path,
        config: StoreConfig,
        shards: usize,
    ) -> io::Result<(DurableEngine, Receiver<Alert>, RecoveryReport)> {
        assert!(shards >= 1, "need at least one shard");
        Self::open_impl(dir, config, Some(shards))
    }

    fn open_impl(
        dir: &Path,
        config: StoreConfig,
        shards_override: Option<usize>,
    ) -> io::Result<(DurableEngine, Receiver<Alert>, RecoveryReport)> {
        let lock = StoreLock::acquire(dir)?;
        whole::remove_orphans(dir)?;
        let snap = SnapshotStore::new(dir).load_latest()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} holds no valid snapshot; use create()", dir.display()),
            )
        })?;
        // Only the tail past the snapshot is replayed, so only that is
        // handed back: the rest is verified and dropped as it is read.
        let (mut wal, recovered) = Wal::open_from(dir, config.wal(), snap.seq)?;
        if wal.next_seq() < snap.seq {
            // The log ends before the snapshot's cover point. If WAL
            // repair truncated or quarantined anything to get here, the
            // discarded region may have held fsync-acked events past the
            // snapshot (e.g. a missing middle segment took the intact
            // tail segments with it) — refuse rather than silently
            // resume at the snapshot. The quarantined files are still in
            // the directory for manual repair.
            if recovered.truncated_bytes > 0 || recovered.dropped_segments > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL loss behind the snapshot: repair left the log at seq {} but the \
                         snapshot covers {}; quarantined/truncated segments may hold acked \
                         events past the snapshot — not recovering over them",
                        wal.next_seq(),
                        snap.seq
                    ),
                ));
            }
            // No corruption was repaired: the WAL is simply absent
            // (externally lost). The snapshot fully covers the state;
            // restart the log at the snapshot position.
            wal.reset_to(snap.seq)?;
        } else {
            // The WAL's intact records are contiguous (the scan stops at
            // any gap), so the log covers [wal_start, next_seq). If that
            // range starts *after* the snapshot we are recovering from,
            // events in between are unrecoverable — refuse rather than
            // silently resurrect a state with a hole in its history.
            let wal_start = wal.first_seq();
            if wal_start > snap.seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL gap: log starts at seq {wal_start} but the usable snapshot covers \
                         only {}; events in between are lost (was the log compacted past a \
                         snapshot that is now corrupt?)",
                        snap.seq
                    ),
                ));
            }
        }

        let policy = PolicyCore::from_image(snap.policy);
        let shards = shards_override.unwrap_or(snap.shards);
        let images = if shards == snap.shards {
            snap.states
        } else {
            redistribute(snap.states, shards, policy.db())
        };
        let states: Vec<ShardState> = images.into_iter().map(ShardState::from_image).collect();
        let (engine, alerts) = ShardedEngine::with_states(policy, states);
        engine.load_quarantine(snap.quarantine);

        let watermark = engine.retention_watermark();
        let mut durable = DurableEngine::assemble(dir, config, engine, wal, lock);
        // Token validity is judged against the clock, so it must not
        // restart at zero: the snapshot's, floored by the retention
        // watermark; the replay below advances it past whatever the
        // tail holds.
        let clock = Time(snap.clock).max(watermark);
        (durable.applied, durable.policy_epoch, durable.clock) =
            (snap.seq, snap.policy_epoch, clock);
        // A broken archive chain must not hide behind a healthy-looking
        // zero: it means below-watermark queries will refuse until the
        // segments are restored.
        let (archive_covered_to, archive_error) = match durable.archive.coverage_end() {
            Ok(covered) => (covered, None),
            Err(e) => (0, Some(e.to_string())),
        };
        let mut report = RecoveryReport {
            snapshot_seq: snap.seq,
            truncated_bytes: recovered.truncated_bytes,
            dropped_segments: recovered.dropped_segments,
            retention_watermark: watermark.get(),
            archive_covered_to,
            archive_error,
            ..RecoveryReport::default()
        };
        // Replay the WAL tail from the snapshot's cover point on, in
        // log order, through the routine the live path applies with.
        let tail: Vec<WalRecord> = recovered
            .records
            .into_iter()
            .filter_map(|(first, record)| record.skip(snap.seq.saturating_sub(first)))
            .collect();
        let replay_span = (!tail.is_empty()).then(|| {
            ltam_obs::timed!(
                "store_recovery_replay_seconds",
                "WAL-tail replay time during open (one sample per recovery)"
            )
        });
        let views: Vec<WalBatch<'_>> = tail.iter().map(WalBatch::from).collect();
        for outcome in durable.apply(&views) {
            match outcome {
                RecordOutcome::Events(outcome) => {
                    report.replayed += outcome.processed;
                    report.replayed_violations += outcome.violations.len();
                }
                RecordOutcome::Quarantined(held) => report.replayed_quarantined += held,
                RecordOutcome::Policy(_) => report.replayed_policy_ops += 1,
            }
        }
        drop(replay_span);
        debug_assert_eq!(durable.applied, durable.wal.next_seq());
        // Every edit is in the WAL, so a snapshot fallback replays it.
        // Coming up below the acknowledged epoch means the records
        // carrying an acked edit are gone, and enforcing under the
        // reverted policy would be silent. Refuse. A marker that does
        // not read is reported and recovery goes on without the check:
        // the snapshot and the WAL hold the state, the marker only
        // guards them (see `docs/OPERATIONS.md` §6.4).
        let acked = read_epoch_marker(dir).unwrap_or_else(|e| {
            report.epoch_marker_error = Some(e.to_string());
            None
        });
        if let Some(acked_epoch) = acked {
            if durable.policy_epoch < acked_epoch {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "policy revert: recovery reaches policy epoch {} but edits \
                         through epoch {acked_epoch} were acknowledged; recovering would \
                         silently undo them (are WAL records missing?)",
                        durable.policy_epoch
                    ),
                ));
            }
        }
        Ok((durable, alerts, report))
    }

    /// The wrapped engine, for reads and queries.
    ///
    /// **Mutations through this reference bypass durability**: events
    /// and policy edits fed to the engine directly are not WAL-logged —
    /// a crash silently un-does them. Use [`DurableEngine::ingest`],
    /// [`DurableEngine::apply_policy`] and
    /// [`DurableEngine::update_policy`] instead.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Events durably applied so far (the WAL sequence).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// WAL sequence the most recent snapshot covers (recovery replays
    /// at most `applied() - last_snapshot_seq()` events).
    pub fn last_snapshot_seq(&self) -> u64 {
        self.applied - self.since_snapshot
    }

    /// The current policy epoch (bumped by every durable policy edit).
    pub fn policy_epoch(&self) -> u64 {
        self.policy_epoch
    }

    /// The monitoring clock: the highest trusted event time seen. Token
    /// temporal validity is evaluated against this clock.
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `fsync` calls the WAL has issued since open — divide events by
    /// this to see group commit working.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// A cloneable, read-only view over this store: tier-aware history
    /// queries, engine status, and the store counters — everything a
    /// serving tier's read path needs — answered **concurrently** with
    /// this writer handle (per-shard locks, the archive cache's own
    /// lock, and atomic counter cells; never the writer's `&mut self`).
    pub fn read_view(&self) -> ReadView {
        ReadView {
            engine: Arc::clone(&self.engine),
            archive: Arc::clone(&self.archive),
            archive_cache: Arc::clone(&self.archive_cache),
            cells: Arc::clone(&self.cells),
            dir: self.dir.clone(),
        }
    }

    /// Durably commit a group of records — the one durability path (a
    /// commit thread drains its queue into it, a follower commits each
    /// tailed chunk through it, every other mutator here wraps it): one
    /// WAL write and one `fsync` for the group, then the records are
    /// applied in order, one [`RecordOutcome`] each. Each stays its own
    /// WAL record, all-or-nothing across a crash.
    ///
    /// `Err` means **nothing** in the group reached the WAL (and the
    /// engine was not touched): every submitter may safely retry. A
    /// group that held policy ops ends with one acked-epoch marker
    /// write, whose failure fails only those records' outcomes.
    ///
    /// Maintenance (retention, snapshot cadence) is deliberately **not**
    /// run here — callers ack their waiters first, then call
    /// [`DurableEngine::maintain`], keeping snapshot stalls out of the
    /// commit latency path.
    pub fn commit(&mut self, records: &[WalBatch<'_>]) -> io::Result<Vec<RecordOutcome>> {
        self.wal.append_mixed(records)?;
        let mut outcomes = self.apply(records);
        if records.iter().any(|r| matches!(r, WalBatch::Policy(_))) {
            if let Err(e) = write_epoch_marker(&self.dir, self.config.fsync, self.policy_epoch) {
                for outcome in &mut outcomes {
                    if let RecordOutcome::Policy(acked) = outcome {
                        *acked = Err(io::Error::new(e.kind(), e.to_string()));
                    }
                }
            }
        }
        Ok(outcomes)
    }

    /// Apply records that are already in the WAL, in order — the
    /// **one** apply routine, for a group just appended
    /// ([`DurableEngine::commit`]) and for the tail recovery replays. A
    /// maximal run of event batches takes one shard dispatch
    /// ([`ShardedEngine::ingest_group`], whose outcomes are those of
    /// ingesting the batches one by one) and advances the clock; a
    /// quarantine batch goes onto the ledger, never through enforcement
    /// and never moving the clock (see the `clock` field); a policy op
    /// is one epoch swap where it stands, governing exactly the records
    /// after it, and bumps only the policy epoch.
    fn apply(&mut self, records: &[WalBatch<'_>]) -> Vec<RecordOutcome> {
        let mut outcomes = Vec::with_capacity(records.len());
        let epoch_before = self.policy_epoch;
        let both_events = |a: &WalBatch<'_>, b: &WalBatch<'_>| {
            matches!((a, b), (WalBatch::Events(_), WalBatch::Events(_)))
        };
        for run in records.chunk_by(both_events) {
            match run[0] {
                WalBatch::Events(_) => {
                    let batches: Vec<&[Event]> = run.iter().map(WalBatch::events).collect();
                    if let Some(t) = batches.iter().copied().flatten().map(Event::time).max() {
                        self.clock = self.clock.max(t);
                    }
                    let enforced = self.engine.ingest_group(&batches);
                    outcomes.extend(enforced.into_iter().map(RecordOutcome::Events));
                }
                WalBatch::Quarantine {
                    source,
                    level,
                    events,
                } => {
                    self.engine.ingest_quarantined(source, level, events);
                    outcomes.push(RecordOutcome::Quarantined(events.len()));
                }
                WalBatch::Policy(op) => {
                    outcomes.push(RecordOutcome::Policy(Ok(self.engine.apply_policy_op(op))));
                    self.policy_epoch += 1;
                }
            }
        }
        let slots: u64 = records.iter().map(WalBatch::seq_count).sum();
        self.applied += slots;
        self.since_snapshot += slots;
        self.publish_cells();
        if self.policy_epoch != epoch_before {
            ltam_obs::gauge!(
                "situate_mode",
                "Declared situation mode (0 = normal, 1 = emergency, 2 = lockdown)"
            )
            .set(self.engine.policy().situation().mode_gauge());
        }
        outcomes
    }

    /// Durably ingest one batch ([`DurableEngine::commit_group`] of
    /// one), then run maintenance. A failure of the piggybacked
    /// automatic snapshot does not fail the batch (its durability rests
    /// on the WAL, not the snapshot); the error is deferred to
    /// [`DurableEngine::take_snapshot_error`] and the snapshot retries
    /// at the next cadence point.
    pub fn ingest(&mut self, events: &[Event]) -> io::Result<BatchOutcome> {
        let mut outcomes = self.commit_group(&[events])?;
        self.maintain();
        Ok(outcomes.pop().expect("one batch in, one outcome out"))
    }

    /// [`DurableEngine::commit`] for a group of trusted event batches:
    /// one WAL record each, one `fsync`, one shard dispatch, outcomes
    /// lined up with `batches`.
    pub fn commit_group(&mut self, batches: &[&[Event]]) -> io::Result<Vec<BatchOutcome>> {
        let records: Vec<WalBatch<'_>> = batches.iter().map(|b| WalBatch::Events(b)).collect();
        let outcomes = self.commit(&records)?;
        Ok(outcomes
            .into_iter()
            .filter_map(|outcome| match outcome {
                RecordOutcome::Events(outcome) => Some(outcome),
                _ => None,
            })
            .collect())
    }

    /// Run the ingest-path maintenance that used to ride every batch:
    /// ingest-driven retention once the clock lets the watermark
    /// advance, and the snapshot cadence (taken asynchronously — the
    /// engine is imaged and the WAL rotated inline, but the multi-MB
    /// encode + write + fsync happen on a background thread; see
    /// [`DurableEngine::snapshot_async`]).
    ///
    /// A failure never fails any batch — batch durability rests on the
    /// WAL — and is deferred to [`DurableEngine::take_retention_error`]
    /// / [`DurableEngine::take_snapshot_error`]; live state is only
    /// dropped after its archive segment is durable, so a failed run
    /// leaves history intact and retries at the next cadence point.
    pub fn maintain(&mut self) {
        if let Some(policy) = self.config.retention {
            if policy.should_run(self.engine.retention_watermark(), self.clock) {
                if let Err(e) = self.run_retention_with(&policy, self.clock) {
                    self.retention_error = Some(e);
                }
            }
        }
        if self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every {
            // If the previous background write is still running, taking
            // another snapshot now would *block* on joining it — turning
            // the async cadence into a synchronous stall on the ingest
            // path (the writer is deliberately nice'd, so under load the
            // join can wait tens of milliseconds). Skip this round
            // instead: `since_snapshot` keeps growing and the next
            // maintain() retries, and the WAL covers everything until
            // then regardless.
            let writer_busy = self
                .pending_snapshot
                .as_ref()
                .is_some_and(|p| !p.join.is_finished());
            if !writer_busy {
                if let Err(e) = self.snapshot_async() {
                    self.snapshot_error = Some(e);
                }
            }
        }
    }

    /// The error of the most recent failed automatic snapshot, if any
    /// (cleared by this call; see [`DurableEngine::ingest`]).
    pub fn take_snapshot_error(&mut self) -> Option<io::Error> {
        self.snapshot_error.take()
    }

    /// The error of the most recent failed ingest-driven retention run,
    /// if any (cleared by this call; see [`DurableEngine::ingest`]).
    pub fn take_retention_error(&mut self) -> Option<io::Error> {
        self.retention_error.take()
    }

    /// [`DurableEngine::apply_policy`] for an arbitrary edit — the form
    /// for edits with no narrower [`PolicyOp`] (tunables, prohibitions,
    /// rules, bulk loads). A closure cannot be logged but the policy it
    /// leaves behind can: `f` runs on a copy of the live core and the
    /// result is committed as one [`PolicyOp::Install`], so the edit
    /// costs O(policy) and, like any op, either happened durably or
    /// (`Err` from the append) did not happen at all.
    pub fn update_policy<R>(&mut self, f: impl FnOnce(&mut PolicyCore) -> R) -> io::Result<R> {
        let mut next = (*self.engine.policy()).clone();
        let r = f(&mut next);
        let install = PolicyOp::Install(Box::new(next.image()));
        drop(next); // applying the record builds the live copy; do not hold a third
        self.apply_policy(&install)?;
        Ok(r)
    }

    /// [`DurableEngine::commit`] for one [`PolicyOp`]. `Err` from the
    /// append means nothing happened (retry is safe); `Err` from the
    /// acked-epoch marker means the op *is* logged and applied but
    /// unacknowledged, like any commit whose ack was lost.
    pub fn apply_policy(&mut self, op: &PolicyOp) -> io::Result<PolicyOutcome> {
        match self.commit(&[WalBatch::Policy(op)])?.pop() {
            Some(RecordOutcome::Policy(acked)) => acked,
            _ => Err(io::Error::other("a policy record yields a policy outcome")),
        }
    }

    /// [`DurableEngine::apply_policy`] for one [`AdminOp`].
    pub fn apply_admin(&mut self, op: AdminOp) -> io::Result<AdminOutcome> {
        match self.apply_policy(&PolicyOp::Admin(op))? {
            PolicyOutcome::Admin(outcome) => Ok(outcome),
            _ => unreachable!("admin ops yield admin outcomes"),
        }
    }

    /// [`DurableEngine::apply_policy`] for one [`SituationOp`].
    pub fn apply_situation(&mut self, op: &SituationOp) -> io::Result<SituationOutcome> {
        match self.apply_policy(&PolicyOp::Situation(op.clone()))? {
            PolicyOutcome::Situation(outcome) => Ok(outcome),
            _ => unreachable!("situation ops yield situation outcomes"),
        }
    }

    /// [`DurableEngine::apply_policy`] for an authorization revocation
    /// (which also lapses its pending grants and usage counters on
    /// every shard); returns whether the authorization existed.
    pub fn revoke_authorization(&mut self, id: AuthId) -> io::Result<bool> {
        let outcome = self.apply_admin(AdminOp::RevokeAuthorization { id })?;
        Ok(outcome == AdminOutcome::AuthorizationRevoked { existed: true })
    }

    /// [`DurableEngine::commit`] for one batch from a
    /// below-trust-threshold sensor, held on the quarantine ledger.
    /// Returns the number of events quarantined.
    pub fn commit_quarantine(
        &mut self,
        source: SubjectId,
        level: u8,
        events: &[Event],
    ) -> io::Result<usize> {
        self.commit(&[WalBatch::Quarantine {
            source,
            level,
            events,
        }])?;
        Ok(events.len())
    }

    /// Image the engine at the current WAL position, write the snapshot,
    /// rotate the WAL and compact segments no retained snapshot needs.
    /// Returns the covered sequence.
    ///
    /// Compaction goes up to the **oldest retained** snapshot, not the
    /// one just written: if the newest file is later found corrupt,
    /// recovery falls back to the older snapshot and must still find the
    /// WAL records between the two.
    pub fn snapshot(&mut self) -> io::Result<u64> {
        self.snapshot_finish()?;
        self.capture()(&self.snapshots)?;
        self.wal.rotate()?;
        self.compact_behind_snapshots()?;
        self.since_snapshot = 0;
        self.publish_cells();
        Ok(self.applied)
    }

    /// Capture the engine at the current WAL position **synchronously**,
    /// then hand the rest — streaming the policy epoch and the shard
    /// images durably into the multi-megabyte snapshot file — to a
    /// background thread. Returns the covered sequence.
    ///
    /// Unlike [`DurableEngine::snapshot`], the WAL is **not** rotated
    /// here: rotation costs several journal commits (seal + create +
    /// directory fsync) on the ingest path, and its only benefit at a
    /// snapshot point is compaction granularity. Segments still seal on
    /// size ([`WalConfig::segment_bytes`]), and the join's compaction
    /// drops whichever sealed segments the retained snapshots cover.
    ///
    /// Correctness does not depend on the write finishing: until the
    /// file is durable, recovery falls back to the previous snapshot and
    /// replays the full WAL (compaction is deferred to the join for
    /// exactly this reason). The write is joined — and any error
    /// surfaced — by the next snapshot or drop.
    pub fn snapshot_async(&mut self) -> io::Result<u64> {
        self.snapshot_finish()?;
        let write = self.capture();
        let store = self.snapshots.clone();
        self.pending_snapshot = Some(PendingSnapshot {
            join: std::thread::spawn(move || {
                lower_thread_priority();
                // Grace period: capturing the live state just stalled
                // the commit thread, so a backlog of batches is about to
                // group-commit. Let their fsyncs hit a quiet journal
                // before this thread starts competing for CPU and disk.
                std::thread::sleep(std::time::Duration::from_millis(10));
                write(&store)
            }),
        });
        self.since_snapshot = 0;
        self.publish_cells();
        Ok(self.applied)
    }

    /// Join an in-flight background snapshot write, if any, and run the
    /// compaction it deferred. An `Err` means the snapshot file did
    /// **not** land (no state is lost — the WAL still covers it).
    pub fn snapshot_finish(&mut self) -> io::Result<()> {
        let Some(pending) = self.pending_snapshot.take() else {
            return Ok(());
        };
        match pending.join.join() {
            Ok(Ok(_path)) => self.compact_behind_snapshots(),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(io::Error::other("background snapshot writer panicked")),
        }
    }

    /// Capture what a snapshot at the current WAL position holds, and
    /// return its write. Shard state and the quarantine ledger are
    /// exported here and now; the policy is an immutable epoch, so
    /// holding it is capturing it, and the write streams its rows.
    fn capture(&self) -> impl FnOnce(&SnapshotStore) -> io::Result<PathBuf> + Send + 'static {
        let policy = self.engine.policy();
        let (seq, policy_epoch, clock) = (self.applied, self.policy_epoch, self.clock.get());
        let shards = self.engine.shard_count();
        let states = self.engine.export_images();
        let quarantine = self.engine.export_quarantine();
        move |store: &SnapshotStore| {
            store.write(&SnapshotView {
                seq,
                policy_epoch,
                shards,
                policy: policy.image_ref(),
                states: &states,
                quarantine: &quarantine,
                clock,
            })
        }
    }

    /// Compaction goes up to the **oldest retained** snapshot, not the
    /// newest: if the newest file is later found corrupt, recovery falls
    /// back to the older snapshot and must still find the WAL records
    /// between the two.
    fn compact_behind_snapshots(&mut self) -> io::Result<()> {
        let cover = self
            .snapshots
            .oldest_retained_seq()?
            .unwrap_or(self.applied)
            .min(self.applied);
        self.wal.compact(cover)?;
        Ok(())
    }

    /// Mirror the writer-side counters into the cells [`ReadView`]s
    /// read (release-ordered so a view that sees `applied` also sees
    /// the shard state that batch produced — the shard mutexes provide
    /// the actual synchronization; the cells are monitoring counters).
    fn publish_cells(&self) {
        self.cells.applied.store(self.applied, Ordering::Release);
        self.cells
            .snapshot_seq
            .store(self.applied - self.since_snapshot, Ordering::Release);
        self.cells
            .policy_epoch
            .store(self.policy_epoch, Ordering::Release);
        self.cells
            .wal_fsyncs
            .store(self.wal.fsyncs(), Ordering::Release);
        self.cells.clock.store(self.clock.get(), Ordering::Release);
        if !ltam_obs::disabled() {
            ltam_obs::gauge!(
                "store_policy_epoch",
                "Durable policy epoch (bumped by every acknowledged policy edit)"
            )
            .set(self.policy_epoch as i64);
        }
    }

    // --- retention and the archive tier -------------------------------------

    /// The history retention watermark: live state is complete from
    /// this chronon on; earlier history lives in the archive tier.
    pub fn retention_watermark(&self) -> Time {
        self.engine.retention_watermark()
    }

    /// Run one retention maintenance pass at monitoring time `now`
    /// using the configured policy ([`StoreConfig::retention`]); an
    /// unconfigured store returns `InvalidInput`. See
    /// [`DurableEngine::run_retention_with`].
    pub fn run_retention(&mut self, now: Time) -> io::Result<RetentionOutcome> {
        let policy = self.config.retention.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "no retention policy configured (StoreConfig::retention is None)",
            )
        })?;
        self.run_retention_with(&policy, now)
    }

    /// Run one retention maintenance pass with an explicit policy:
    ///
    /// 1. collect every history record older than
    ///    `policy.horizon_at(now)` (live state untouched);
    /// 2. append them to the archive tier, atomically and durably — a
    ///    crash-repeated run re-collects from the same watermark and
    ///    *replaces* its stranded segment (a superset, possibly with
    ///    records ingested since the stranded write), so records are
    ///    never lost or duplicated;
    /// 3. only then drop them from live state and advance the
    ///    watermark (which the next snapshot carries).
    ///
    /// A crash between 2 and 3 leaves the records both archived and
    /// live; the tier-aware queries clip the archive side at the live
    /// watermark so nothing is counted twice, and the next run
    /// supersedes the stranded segment. If the archive chain already
    /// extends past the policy horizon (the crash came *after* the
    /// prune applied elsewhere), the pass re-covers up to the chain
    /// end so the replacement loses nothing.
    pub fn run_retention_with(
        &mut self,
        policy: &RetentionPolicy,
        now: Time,
    ) -> io::Result<RetentionOutcome> {
        let live_from = self.engine.retention_watermark();
        // The one directory listing of this run.
        let chain = self.archive.scan()?;
        let chain_end = chain.end();
        let horizon = policy.horizon_at(now).max(Time(chain_end));
        if horizon <= live_from {
            return Ok(RetentionOutcome {
                watermark: live_from,
                pruned: 0,
                archived: 0,
                archive_to: chain_end,
            });
        }
        let _span = ltam_obs::timed!(
            "store_retention_run_seconds",
            "One retention maintenance pass: collect + archive + prune"
        );
        let prunable = self.engine.collect_prunable(horizon);
        let archive_span = ltam_obs::timed!(
            "store_archive_run_seconds",
            "The archive-append phase of a retention pass"
        );
        let run = self
            .archive
            .append_to(chain, live_from.get(), horizon.get(), &prunable)?;
        drop(archive_span);
        // A new segment exists (and may have replaced a stranded one):
        // the next query rescans the chain and loads what it lacks.
        // Tell the cache *before* the live watermark advances — a
        // concurrent reader that sees the new watermark must also see
        // the chain that covers it, or it refuses safely-archived
        // history as `Unarchived`. The other order is the
        // crash-between-steps overlap the tier merge already clips.
        locked(self.archive_cache.lock(), "archive cache").chain_changed(live_from.get());
        self.engine.apply_retention(horizon);
        Ok(RetentionOutcome {
            watermark: horizon,
            pruned: prunable.len(),
            archived: run.map(|r| r.records).unwrap_or(0),
            archive_to: run.map(|r| r.to).unwrap_or_else(|| horizon.get()),
        })
    }

    /// Archive segments whose payloads are currently cached (the status
    /// surface and the laziness tests read this; it only grows as
    /// queries reach further back).
    pub fn archive_segments_loaded(&self) -> usize {
        locked(self.archive_cache.lock(), "archive cache").segments_loaded()
    }

    /// Archive chain coverage end (exclusive), from the cached chain
    /// scan — no segment payload is read.
    pub fn archive_covered_to(&self) -> io::Result<u64> {
        locked(self.archive_cache.lock(), "archive cache").coverage_end(&self.archive)
    }
}

impl Drop for DurableEngine {
    fn drop(&mut self) {
        // A background snapshot writer must not outlive the store (its
        // scratch directory may be about to vanish). Dropping mid-write
        // is crash-equivalent anyway: the WAL still covers everything
        // the unfinished snapshot would have.
        let _ = self.snapshot_finish();
    }
}

// --- the tier-aware read path -----------------------------------------------

/// Record one answered query's read amplification: the rows both tiers
/// looked at against the rows the answer holds. A ratio that grows with
/// the age of the deployment is a scan on the read path.
macro_rules! count_rows {
    ($kind:literal, $examined:expr, $returned:expr) => {
        ltam_obs::counter!(
            "store_view_rows_examined_total",
            "Rows ReadView queries looked at in either tier, by kind",
            "kind" => $kind
        )
        .inc_by($examined);
        ltam_obs::counter!(
            "store_view_rows_returned_total",
            "Rows ReadView queries returned, by kind",
            "kind" => $kind
        )
        .inc_by($returned as u64);
    };
}

/// A cloneable, read-only view over a [`DurableEngine`] — the serving
/// tier's read path. Queries answer **concurrently** with the writer:
/// the sharded engine synchronizes reads per shard, the lazy archive
/// cache has its own lock, and the store counters are atomic cells the
/// writer publishes after every mutation. Holding a view never blocks
/// ingest, and a view outliving the writer simply keeps answering from
/// the final state.
#[derive(Debug, Clone)]
pub struct ReadView {
    engine: Arc<ShardedEngine>,
    archive: Arc<ArchiveStore>,
    archive_cache: Arc<Mutex<LazyArchive>>,
    cells: Arc<StatusCells>,
    dir: PathBuf,
}

impl ReadView {
    /// The wrapped engine, for reads (status, shard reads, violation
    /// queries). As with [`DurableEngine::engine`], mutating through it
    /// bypasses the WAL.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// The store directory this view reads from — the root the
    /// replication inventory ([`crate::replica`]) lists shippable files
    /// under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Events durably applied so far (the WAL sequence), as of the
    /// writer's most recent commit.
    pub fn applied(&self) -> u64 {
        self.cells.applied.load(Ordering::Acquire)
    }

    /// WAL sequence the most recent snapshot covers.
    pub fn last_snapshot_seq(&self) -> u64 {
        self.cells.snapshot_seq.load(Ordering::Acquire)
    }

    /// The current policy epoch.
    pub fn policy_epoch(&self) -> u64 {
        self.cells.policy_epoch.load(Ordering::Acquire)
    }

    /// The monitoring clock (highest trusted event time) — the time the
    /// serving tier evaluates token validity at.
    pub fn clock(&self) -> Time {
        Time(self.cells.clock.load(Ordering::Acquire))
    }

    /// `fsync` calls the WAL has issued — the group-commit
    /// effectiveness counter (`events_ingested / wal_fsyncs` ≈ events
    /// per fsync).
    pub fn wal_fsyncs(&self) -> u64 {
        self.cells.wal_fsyncs.load(Ordering::Acquire)
    }

    /// The history retention watermark.
    pub fn retention_watermark(&self) -> Time {
        self.engine.retention_watermark()
    }

    /// Archive segments whose payloads are currently cached.
    pub fn archive_segments_loaded(&self) -> usize {
        locked(self.archive_cache.lock(), "archive cache").segments_loaded()
    }

    /// Archive chain coverage end (exclusive).
    pub fn archive_covered_to(&self) -> io::Result<u64> {
        locked(self.archive_cache.lock(), "archive cache").coverage_end(&self.archive)
    }

    /// Run a tier-merging query that reaches down to `requested`: over
    /// live state alone when that is at or past `live_from` (the live
    /// watermark), otherwise with the archive
    /// view merged in — refusing if the archive chain does not reach
    /// `live_from`, since the gap would mean discarded-and-unarchived
    /// history. Only segments the query can touch have their payloads
    /// read (see [`LazyArchive`]); the coverage check itself is a
    /// directory listing.
    fn tiered<T>(
        &self,
        requested: Time,
        live_from: Time,
        merge: impl FnOnce(Tiers<'_>) -> T,
    ) -> Result<T, HistoryError> {
        let mut tiers = Tiers {
            engine: &self.engine,
            archive: None,
            live_from,
        };
        if requested >= live_from {
            return Ok(merge(tiers));
        }
        let mut cache = locked(self.archive_cache.lock(), "archive cache");
        let covered = cache.coverage_end(&self.archive)?;
        if covered < live_from.get() {
            return Err(HistoryError::Unarchived {
                requested,
                archived_to: covered,
                live_from,
            });
        }
        tiers.archive = Some(cache.view_for(&self.archive, requested, live_from)?);
        Ok(merge(tiers))
    }

    /// Tier-aware historical whereabouts: answered from live state at
    /// or after the retention watermark (or by a live stay straddling
    /// it), from the archive before it. Refuses
    /// ([`HistoryError::Unarchived`]) only when the answer would need
    /// discarded-and-unarchived history.
    pub fn whereabouts(
        &self,
        subject: SubjectId,
        t: Time,
    ) -> Result<Option<LocationId>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "whereabouts"
        );
        let live_from = self.engine.retention_watermark();
        // Live first, whatever `t`: a hit needs no archive.
        let live = Tiers {
            engine: &self.engine,
            archive: None,
            live_from,
        }
        .whereabouts(subject, t);
        if live.is_some() || t >= live_from {
            return Ok(live);
        }
        self.tiered(t, live_from, |tiers| tiers.whereabouts(subject, t))
    }

    /// Tier-aware presence query: who was in `location` during
    /// `window`, with clipped overlap intervals, merged across tiers.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
    ) -> Result<Vec<(SubjectId, Interval)>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "present_during"
        );
        let live_from = self.engine.retention_watermark();
        let mut examined = 0;
        let rows = self.tiered(window.start(), live_from, |tiers| {
            tiers.present_during(location, window, &mut examined)
        })?;
        count_rows!("present_during", examined, rows.len());
        Ok(rows)
    }

    /// Tier-aware contact tracing — the paper's SARS query — merged
    /// across live state and the archive, so an operator can trace
    /// across the retention boundary exactly as if history were
    /// unbounded.
    ///
    /// ```
    /// use ltam_core::model::{Authorization, EntryLimit};
    /// use ltam_core::retention::RetentionPolicy;
    /// use ltam_core::subject::SubjectId;
    /// use ltam_engine::batch::{Event, PolicyCore};
    /// use ltam_graph::examples::ntu_campus;
    /// use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
    /// use ltam_time::{Interval, Time};
    ///
    /// let ntu = ntu_campus();
    /// let cais = ntu.cais;
    /// let mut core = PolicyCore::new(ntu.model);
    /// let (alice, bob) = (SubjectId(0), SubjectId(1));
    /// for s in [alice, bob] {
    ///     core.add_authorization(
    ///         Authorization::new(Interval::ALL, Interval::ALL, s, cais, EntryLimit::Unbounded)
    ///             .unwrap(),
    ///     );
    /// }
    /// let dir = ScratchDir::new("doc-tiered-contacts");
    /// let config = StoreConfig {
    ///     retention: Some(RetentionPolicy::keep_last(100)),
    ///     fsync: false,
    ///     ..StoreConfig::default()
    /// };
    /// let (mut engine, _alerts) = DurableEngine::create(dir.path(), core, 2, config).unwrap();
    /// // Alice and Bob overlap in CAIS during [12, 20]...
    /// engine.ingest(&[
    ///     Event::Request { time: Time(10), subject: alice, location: cais },
    ///     Event::Enter { time: Time(10), subject: alice, location: cais },
    ///     Event::Request { time: Time(12), subject: bob, location: cais },
    ///     Event::Enter { time: Time(12), subject: bob, location: cais },
    ///     Event::Exit { time: Time(20), subject: alice, location: cais },
    ///     Event::Exit { time: Time(25), subject: bob, location: cais },
    /// ]).unwrap();
    /// // ...then time passes and retention spills those stays to the archive.
    /// engine.run_retention(Time(500)).unwrap();
    /// assert_eq!(engine.retention_watermark(), Time(400));
    /// assert_eq!(engine.engine().read_shard(0, |s| s.movements().len())
    ///     + engine.engine().read_shard(1, |s| s.movements().len()), 0);
    /// // The contact-tracing join still sees the archived co-location.
    /// let contacts = engine.read_view().contacts(alice, Interval::lit(0, 500)).unwrap();
    /// assert_eq!(contacts.len(), 1);
    /// assert_eq!(contacts[0].other, bob);
    /// assert_eq!(contacts[0].overlap, Interval::lit(12, 20));
    /// ```
    pub fn contacts(
        &self,
        subject: SubjectId,
        window: Interval,
    ) -> Result<Vec<Contact>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "contacts"
        );
        let live_from = self.engine.retention_watermark();
        let mut examined = 0;
        let contacts = self.tiered(window.start(), live_from, |tiers| {
            tiers.contacts(subject, window, &mut examined)
        })?;
        count_rows!("contacts", examined, contacts.len());
        Ok(contacts)
    }

    /// Tier-aware violation report over `window` (multiset semantics:
    /// archived violations first, then live in shard order).
    pub fn violations_in(&self, window: Interval) -> Result<Vec<Violation>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "violations_in"
        );
        let live_from = self.engine.retention_watermark();
        let mut examined = 0;
        let violations = self.tiered(window.start(), live_from, |tiers| {
            tiers.violations_in(window, &mut examined)
        })?;
        count_rows!("violations_in", examined, violations.len());
        Ok(violations)
    }
}

/// What one [`DurableEngine::run_retention`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionOutcome {
    /// The history watermark after the pass.
    pub watermark: Time,
    /// Records dropped from live state (all classes; a pruned movement
    /// is one stay, not its two events).
    pub pruned: usize,
    /// Records written to the archive by this pass (0 when the range
    /// was already covered by a crash-era segment).
    pub archived: usize,
    /// Archive coverage end after the pass.
    pub archive_to: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_core::subject::SubjectId;
    use ltam_core::AuthorizationDb;
    use ltam_engine::batch::shard_of;
    use ltam_engine::movement::Stay;
    use ltam_engine::shard::ShardStateImage;
    use ltam_graph::examples::ntu_campus;
    use ltam_graph::LocationId;
    use ltam_time::{Interval, Time};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn campus_core() -> (PolicyCore, SubjectId, LocationId) {
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

    fn test_config() -> StoreConfig {
        StoreConfig {
            segment_bytes: 4096,
            snapshot_every: 0,
            fsync: false,
            retention: None,
        }
    }

    #[test]
    fn create_ingest_reopen_preserves_state() {
        let dir = ScratchDir::new("durable-basic");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            let out = durable
                .ingest(&[
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
                ])
                .unwrap();
            assert_eq!(out.granted, 1);
            assert_eq!(durable.applied(), 2);
        } // crash: no snapshot since creation, state lives in the WAL tail
        let (durable, _alerts, report) = DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.replayed, 2);
        assert_eq!(durable.applied(), 2);
        assert_eq!(durable.engine().status().total_entries, 1);
        // The recovered stay is live: an early exit still violates.
        let v = durable.engine().observe_exit(Time(15), alice, cais);
        assert!(v.is_some(), "recovered active stay enforces exit windows");
    }

    #[test]
    fn snapshot_compacts_the_wal_and_recovery_skips_replay() {
        let dir = ScratchDir::new("durable-compact");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            for i in 0..200u64 {
                durable
                    .ingest(&[Event::Request {
                        time: Time(200 + i),
                        subject: alice,
                        location: cais,
                    }])
                    .unwrap();
            }
            let covered = durable.snapshot().unwrap();
            assert_eq!(covered, 200);
            // Compaction trails the *oldest retained* snapshot: after a
            // second snapshot the creation-time one (seq 0) is pruned and
            // the [0, 200) segments become droppable.
            for i in 0..100u64 {
                durable
                    .ingest(&[Event::Request {
                        time: Time(400 + i),
                        subject: alice,
                        location: cais,
                    }])
                    .unwrap();
            }
            durable.snapshot().unwrap();
        }
        let first_live_seq = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_prefix("wal-")
                    .and_then(|r| r.strip_suffix(".log"))
                    .and_then(|d| d.parse::<u64>().ok())
            })
            .min()
            .expect("a WAL segment survives");
        assert_eq!(
            first_live_seq, 200,
            "segments before the oldest retained snapshot (seq 200) are compacted"
        );
        let (durable, _alerts, report) = DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.snapshot_seq, 300);
        assert_eq!(report.replayed, 0, "snapshot covers the whole log");
        assert_eq!(durable.applied(), 300);
        // All 300 denied requests survived in the audit trail.
        let audits: usize = (0..durable.engine().shard_count())
            .map(|s| durable.engine().read_shard(s, |st| st.audit().len()))
            .sum();
        assert_eq!(audits, 300);
    }

    /// Flip a byte in each snapshot file matching `pick` (by seq).
    /// Snapshot names are `snap-<seq>-<epoch>.snap`.
    fn corrupt_snapshots(dir: &std::path::Path, pick: impl Fn(u64) -> bool) {
        for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|r| r.strip_suffix(".snap"))
                .and_then(|body| body.split_once('-'))
                .and_then(|(seq, _)| seq.parse::<u64>().ok())
            else {
                continue;
            };
            if pick(seq) {
                let mut bytes = std::fs::read(entry.path()).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(entry.path(), &bytes).unwrap();
            }
        }
    }

    /// Ingest `n` granted-entry cycles so recovered state is checkable by
    /// audit count.
    fn build_two_snapshot_store(dir: &std::path::Path) -> (u64, u64) {
        let (core, alice, cais) = campus_core();
        let (mut durable, _alerts) = DurableEngine::create(dir, core, 2, test_config()).unwrap();
        let request = |t: u64| Event::Request {
            time: Time(t),
            subject: alice,
            location: cais,
        };
        for i in 0..100u64 {
            durable.ingest(&[request(200 + i)]).unwrap();
        }
        let s1 = durable.snapshot().unwrap();
        for i in 0..100u64 {
            durable.ingest(&[request(400 + i)]).unwrap();
        }
        let s2 = durable.snapshot().unwrap();
        for i in 0..10u64 {
            durable.ingest(&[request(600 + i)]).unwrap();
        }
        (s1, s2)
    }

    /// The newest snapshot suffers `damage`; recovery must fall back to
    /// seq 100 AND still replay every event from 100 onward — which is
    /// why compaction may not pass the oldest retained snapshot.
    fn damaged_newest_snapshot_loses_nothing(tag: &str, damage: impl Fn(&std::path::Path)) {
        let dir = ScratchDir::new(tag);
        let (s1, s2) = build_two_snapshot_store(dir.path());
        assert_eq!((s1, s2), (100, 200));
        damage(dir.path());
        let (durable, _alerts, report) = DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.snapshot_seq, 100);
        assert_eq!(report.replayed, 110);
        assert_eq!(durable.applied(), 210);
        let audits: usize = (0..durable.engine().shard_count())
            .map(|s| durable.engine().read_shard(s, |st| st.audit().len()))
            .sum();
        assert_eq!(audits, 210, "no event between the snapshots was lost");
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_without_losing_events() {
        damaged_newest_snapshot_loses_nothing("durable-fallback", |dir| {
            corrupt_snapshots(dir, |seq| seq == 200)
        });
    }

    /// Not a file that fails its checks but one that cannot be read at
    /// all (here: a directory, `EISDIR`; in the field: `EIO` on a rotted
    /// sector) — the same fallback, not a failed open.
    #[test]
    fn unreadable_newest_snapshot_falls_back_without_losing_events() {
        damaged_newest_snapshot_loses_nothing("durable-unreadable", |dir| {
            let newest = dir.join(crate::snapshot::snapshot_file_name(200, 0));
            std::fs::remove_file(&newest).unwrap();
            std::fs::create_dir(&newest).unwrap();
        });
    }

    #[test]
    fn missing_middle_segment_refuses_instead_of_silently_resuming() {
        let dir = ScratchDir::new("durable-midgap");
        let config = StoreConfig {
            segment_bytes: 256, // several segments between snapshots
            snapshot_every: 0,
            fsync: false,
            retention: None,
        };
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, config).unwrap();
            let request = |t: u64| Event::Request {
                time: Time(t),
                subject: alice,
                location: cais,
            };
            for i in 0..100u64 {
                durable.ingest(&[request(200 + i)]).unwrap();
            }
            durable.snapshot().unwrap(); // @100
            for i in 0..100u64 {
                durable.ingest(&[request(400 + i)]).unwrap();
            }
            durable.snapshot().unwrap(); // @200 (compacts WAL below 100)
            for i in 0..10u64 {
                durable.ingest(&[request(600 + i)]).unwrap();
            }
        }
        // Several segments span [100, 210). Remove a *middle* one: WAL
        // repair stops at the gap and quarantines every later segment —
        // including the intact acked tail past the snapshot @200 — which
        // leaves the log short of the snapshot. Silently resuming at @200
        // would drop those acked events; open must refuse, and the tail's
        // bytes must survive as quarantine files.
        let segments = Wal::segment_files(dir.path()).unwrap();
        assert!(segments.len() >= 3, "need a middle segment: {segments:?}");
        std::fs::remove_file(&segments[1]).unwrap();
        let err = DurableEngine::open(dir.path(), config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("WAL loss behind the snapshot"),
            "{err}"
        );
        let quarantined = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".quarantine"));
        assert!(quarantined, "later segments are preserved, not deleted");
    }

    #[test]
    fn reissued_auth_ids_cannot_alias_recovered_stays() {
        let dir = ScratchDir::new("durable-id-reuse");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let alice = SubjectId(0);
        let wide = |s| {
            Authorization::new(
                Interval::lit(0, 1_000),
                Interval::lit(500, 2_000),
                s,
                cais,
                EntryLimit::Unbounded,
            )
            .unwrap()
        };
        core.add_authorization(wide(alice));
        let id1 = {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            // Alice is inside under a second authorization, which then
            // gets revoked (her stay keeps referencing its id).
            let id1 = durable
                .update_policy(|p| p.add_authorization(wide(SubjectId(0))))
                .unwrap();
            durable
                .ingest(&[
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
                ])
                .unwrap();
            durable.revoke_authorization(id1).unwrap();
            id1
        };
        let (mut durable, _alerts, _) = DurableEngine::open(dir.path(), test_config()).unwrap();
        // The id watermark survived recovery: a new authorization never
        // reuses the revoked id, so nothing stale can alias it.
        let id2 = durable
            .update_policy(|p| p.add_authorization(wide(SubjectId(9))))
            .unwrap();
        assert!(
            id2 > id1,
            "revoked id {id1} must never be reissued (got {id2})"
        );
    }

    #[test]
    fn wal_gap_behind_the_usable_snapshot_is_refused() {
        let dir = ScratchDir::new("durable-gap");
        build_two_snapshot_store(dir.path());
        // Manufacture the unrecoverable case: the segment holding
        // [100, 200) vanishes *and* the newest snapshot rots. Falling
        // back to seq 100 would silently lose those 100 events — open
        // must refuse instead.
        corrupt_snapshots(dir.path(), |seq| seq == 200);
        for entry in std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == format!("wal-{:020}.log", 100) {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("WAL gap"), "{err}");
    }

    #[test]
    fn concurrent_open_is_refused_while_the_lock_is_live() {
        let dir = ScratchDir::new("durable-lock");
        let (core, _, _) = campus_core();
        let (durable, _alerts) = DurableEngine::create(dir.path(), core, 1, test_config()).unwrap();
        // A second engine on the same store would interleave WAL appends.
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        drop(durable); // releases the lock
        assert!(DurableEngine::open(dir.path(), test_config()).is_ok());
        // A stale lock (dead pid) is taken over, not honored.
        std::fs::write(dir.path().join("store.lock"), "4294967294\n").unwrap();
        assert!(DurableEngine::open(dir.path(), test_config()).is_ok());
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = ScratchDir::new("durable-exists");
        let (core, _, _) = campus_core();
        let _ = DurableEngine::create(dir.path(), core.clone(), 1, test_config()).unwrap();
        let err = DurableEngine::create(dir.path(), core, 1, test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn open_on_an_empty_dir_is_not_found() {
        let dir = ScratchDir::new("durable-empty");
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    fn blocks_alice(alice: SubjectId, cais: LocationId) -> ltam_core::prohibition::Prohibition {
        ltam_core::prohibition::Prohibition {
            subject: alice,
            location: cais,
            window: Interval::lit(0, 1_000),
        }
    }

    /// One request by `alice` at `cais`, time 10: is it denied?
    fn alice_is_denied(durable: &mut DurableEngine, alice: SubjectId, cais: LocationId) -> bool {
        let request = Event::Request {
            time: Time(10),
            subject: alice,
            location: cais,
        };
        durable.ingest(&[request]).unwrap().denied == 1
    }

    #[test]
    fn policy_updates_survive_restart_with_no_snapshot_since_the_edit() {
        let dir = ScratchDir::new("durable-policy");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable
                .update_policy(|p| p.add_prohibition(blocks_alice(alice, cais)))
                .unwrap();
            assert_eq!(durable.last_snapshot_seq(), 0, "the edit took no snapshot");
        }
        let (mut durable, _alerts, report) =
            DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!((report.snapshot_seq, report.replayed_policy_ops), (0, 1));
        assert!(
            alice_is_denied(&mut durable, alice, cais),
            "restored prohibition takes precedence"
        );
    }

    #[test]
    fn snapshot_fallback_never_reverts_an_acked_policy_edit() {
        let dir = ScratchDir::new("durable-policy-revert");
        let (core, alice, cais) = campus_core();
        let edit_offset = {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            // Where the edit's WAL record is about to start.
            let segment = Wal::segment_files(dir.path()).unwrap().pop().unwrap();
            let edit_offset = std::fs::metadata(segment).unwrap().len();
            durable
                .update_policy(|p| p.add_prohibition(blocks_alice(alice, cais)))
                .unwrap();
            // Events give the next snapshot its own sequence number, so
            // the creation-time one survives beside it.
            for i in 0..10u64 {
                durable
                    .ingest(&[Event::Request {
                        time: Time(200 + i),
                        subject: alice,
                        location: cais,
                    }])
                    .unwrap();
            }
            durable.snapshot().unwrap();
            edit_offset
        };
        // The snapshot carrying the edit rots. The fallback predates the
        // edit, but the edit is a WAL record: recovery replays it.
        corrupt_snapshots(dir.path(), |seq| seq > 0);
        {
            let (mut durable, _alerts, report) =
                DurableEngine::open(dir.path(), test_config()).unwrap();
            assert_eq!((report.snapshot_seq, report.replayed_policy_ops), (0, 1));
            assert_eq!(durable.policy_epoch(), 1);
            assert!(alice_is_denied(&mut durable, alice, cais));
        }
        // Cut the log where the acked edit's record began: coming up
        // without it would silently lift the prohibition, so the marker
        // refuses.
        let segment = Wal::segment_files(dir.path()).unwrap().remove(0);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(segment)
            .unwrap();
        file.set_len(edit_offset).unwrap();
        for later in Wal::segment_files(dir.path()).unwrap().into_iter().skip(1) {
            std::fs::remove_file(later).unwrap();
        }
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("policy revert"), "{err}");
        // With the last snapshot corrupt too there is nothing to open.
        corrupt_snapshots(dir.path(), |seq| seq == 0);
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_closure_edit_whose_append_fails_leaves_the_live_policy_untouched() {
        let dir = ScratchDir::new("durable-policy-refused");
        let (core, alice, cais) = campus_core();
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let before = durable.engine().policy();
        durable.wal.poison();
        let mut ran = false;
        let refused = durable.update_policy(|p| {
            ran = true;
            p.add_prohibition(blocks_alice(alice, cais))
        });
        assert!(ran && refused.is_err());
        assert!(Arc::ptr_eq(&before, &durable.engine().policy()));
        assert_eq!((durable.policy_epoch(), durable.applied()), (0, 0));
        assert_eq!(read_epoch_marker(dir.path()).unwrap(), None);
    }

    #[test]
    fn durable_revocation_survives_restart_and_lapses_grants() {
        let dir = ScratchDir::new("durable-revoke");
        let (core, alice, cais) = campus_core();
        let op_offset = {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            let out = durable
                .ingest(&[Event::Request {
                    time: Time(10),
                    subject: alice,
                    location: cais,
                }])
                .unwrap();
            assert_eq!(out.granted, 1);
            let id = durable
                .engine()
                .policy()
                .db()
                .iter()
                .next()
                .map(|(id, _, _)| id)
                .unwrap();
            // Where the revocation's WAL record is about to start.
            let segment = Wal::segment_files(dir.path()).unwrap().pop().unwrap();
            let op_offset = std::fs::metadata(segment).unwrap().len();
            assert!(durable.revoke_authorization(id).unwrap());
            op_offset
        };
        {
            // Only the creation-time snapshot exists: the revocation is
            // replayed from the WAL, after the request it lapses.
            let (mut durable, _alerts, report) =
                DurableEngine::open(dir.path(), test_config()).unwrap();
            assert_eq!(report.snapshot_seq, 0);
            assert_eq!((report.replayed, report.replayed_policy_ops), (1, 1));
            // The pending grant lapsed with the revocation and the
            // revocation itself survived the restart: walking in is
            // unauthorized.
            let out = durable
                .ingest(&[Event::Enter {
                    time: Time(11),
                    subject: alice,
                    location: cais,
                }])
                .unwrap();
            assert_eq!(out.violations.len(), 1);
            assert!(matches!(
                out.violations[0],
                ltam_engine::violation::Violation::UnauthorizedEntry { .. }
            ));
        }
        // Cut the acked revocation's record (and everything after it)
        // off the log: coming up without it would silently re-grant, so
        // the acked-epoch marker refuses.
        let segment = Wal::segment_files(dir.path()).unwrap().pop().unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(segment)
            .unwrap();
        file.set_len(op_offset).unwrap();
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("policy revert"), "{err}");
    }

    /// A two-subject store: Alice and Bob overlap in CAIS during
    /// [12, 20], Bob tailgates nobody; a later clean cycle for Alice at
    /// [200, 210] keeps recent history live.
    fn two_subject_events(cais: LocationId) -> Vec<Event> {
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        vec![
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
            Event::Request {
                time: Time(12),
                subject: bob,
                location: cais,
            },
            Event::Enter {
                time: Time(12),
                subject: bob,
                location: cais,
            },
            Event::Exit {
                time: Time(20),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(25),
                subject: bob,
                location: cais,
            },
            Event::Request {
                time: Time(200),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(200),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(210),
                subject: alice,
                location: cais,
            },
        ]
    }

    fn wide_open_core(cais: LocationId, model: ltam_graph::LocationModel) -> PolicyCore {
        let mut core = PolicyCore::new(model);
        for s in [SubjectId(0), SubjectId(1)] {
            core.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, cais, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
        core
    }

    #[test]
    fn retention_archives_then_prunes_and_queries_merge_tiers() {
        let dir = ScratchDir::new("durable-retention");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        durable.ingest(&two_subject_events(cais)).unwrap();

        let outcome = durable
            .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
            .unwrap();
        assert_eq!(outcome.watermark, Time(150));
        assert!(outcome.pruned > 0);
        assert_eq!(outcome.archived, outcome.pruned);
        assert_eq!(outcome.archive_to, 150);
        assert_eq!(durable.retention_watermark(), Time(150));

        // Live state holds only the recent cycle (its enter + exit).
        let live_events: usize = (0..2)
            .map(|s| durable.engine().read_shard(s, |st| st.movements().len()))
            .sum();
        assert_eq!(live_events, 2);

        // Tier-aware queries answer across the boundary exactly as an
        // unpruned engine would.
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(15)).unwrap(),
            Some(cais)
        ); // archive
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(205)).unwrap(),
            Some(cais)
        ); // live
        assert_eq!(
            durable.read_view().whereabouts(bob, Time(50)).unwrap(),
            None
        );
        let contacts = durable
            .read_view()
            .contacts(alice, Interval::lit(0, 300))
            .unwrap();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].other, bob);
        assert_eq!(contacts[0].overlap, Interval::lit(12, 20));
        let present = durable
            .read_view()
            .present_during(cais, Interval::lit(0, 300))
            .unwrap();
        assert_eq!(present.len(), 3, "{present:?}"); // Alice×2 + Bob×1
        assert!(durable
            .read_view()
            .violations_in(Interval::lit(0, 300))
            .unwrap()
            .is_empty());

        // Re-running at the same horizon is a no-op (idempotent).
        let again = durable
            .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
            .unwrap();
        assert_eq!(again.pruned, 0);
        assert_eq!(again.archived, 0);
    }

    #[test]
    fn retention_watermark_survives_crash_and_recovery() {
        let dir = ScratchDir::new("durable-retention-crash");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        {
            let core = wide_open_core(cais, ntu.model);
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.ingest(&two_subject_events(cais)).unwrap();
            durable
                .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
                .unwrap();
            durable.snapshot().unwrap();
        } // crash after the snapshot carrying the watermark
        let (mut durable, _alerts, report) =
            DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.retention_watermark, 150);
        assert_eq!(report.archive_covered_to, 150);
        assert_eq!(durable.retention_watermark(), Time(150));
        // Archived history is still reachable through the merge...
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(15)).unwrap(),
            Some(cais)
        );
        let contacts = durable
            .read_view()
            .contacts(alice, Interval::lit(0, 300))
            .unwrap();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].other, bob);
        // ...and pruned history stays pruned: the time-regression guard
        // survived, so stale sensor events are still rejected.
        let out = durable
            .ingest(&[Event::Enter {
                time: Time(5),
                subject: alice,
                location: cais,
            }])
            .unwrap();
        assert_eq!(out.violations.len(), 1, "regressed event still flagged");
    }

    #[test]
    fn crash_before_the_prune_applies_never_duplicates_archive_records() {
        let dir = ScratchDir::new("durable-retention-idem");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        durable.ingest(&two_subject_events(cais)).unwrap();
        let policy = RetentionPolicy::keep_last(100);
        // Simulate the crash window: the archive segment lands but the
        // in-memory prune (and any later snapshot) never happens.
        let prunable = durable.engine().collect_prunable(Time(150));
        durable.archive.append_run(0, 150, &prunable).unwrap();
        assert_eq!(durable.retention_watermark(), Time::ZERO);
        // Queries stay correct: the archive is only consulted below the
        // watermark, which never advanced.
        assert_eq!(
            durable
                .read_view()
                .whereabouts(SubjectId(0), Time(15))
                .unwrap(),
            Some(cais)
        );
        // The re-run after "recovery" replaces the stranded segment
        // with an identical superset: no record is ever in the archive
        // twice (live state may have gained records since the stranded
        // write, so the rewrite is never skipped).
        let outcome = durable.run_retention_with(&policy, Time(250)).unwrap();
        assert!(outcome.pruned > 0);
        assert_eq!(
            outcome.archived, outcome.pruned,
            "stranded segment replaced"
        );
        let data = durable.archive.load().unwrap();
        assert_eq!(data.stays_of(SubjectId(0)).len(), 1);
        assert_eq!(data.stays_of(SubjectId(1)).len(), 1);
        let contacts = durable
            .read_view()
            .contacts(SubjectId(0), Interval::lit(0, 300))
            .unwrap();
        assert_eq!(contacts.len(), 1, "no duplicate contact rows");
    }

    #[test]
    fn late_records_below_a_stranded_chain_are_archived_not_lost() {
        let dir = ScratchDir::new("durable-retention-late");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let bob = SubjectId(1);
        durable.ingest(&two_subject_events(cais)).unwrap();
        let policy = RetentionPolicy::keep_last(100);
        // Strand a segment: archive written, prune never applied (the
        // crash window).
        let prunable = durable.engine().collect_prunable(Time(150));
        durable.archive.append_run(0, 150, &prunable).unwrap();
        // A record arrives *below* the stranded chain end — legal,
        // sensor clocks are only per-subject monotone (Bob's clock is
        // at 25).
        durable
            .ingest(&[
                Event::Request {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Enter {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Exit {
                    time: Time(70),
                    subject: bob,
                    location: cais,
                },
            ])
            .unwrap();
        // The next run's horizon clamps to the chain end (150); the
        // late stay must travel in the replacement segment, not be
        // silently dropped with nothing archived.
        let outcome = durable.run_retention_with(&policy, Time(250)).unwrap();
        assert_eq!(outcome.watermark, Time(150));
        assert_eq!(outcome.archived, outcome.pruned);
        assert_eq!(
            durable.read_view().whereabouts(bob, Time(65)).unwrap(),
            Some(cais)
        );
        let data = durable.archive.load().unwrap();
        assert_eq!(data.stays_of(bob).len(), 2, "no loss, no duplicates");
    }

    #[test]
    fn stranded_segment_contents_are_never_double_counted() {
        let dir = ScratchDir::new("durable-retention-doublecount");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let bob = SubjectId(1);
        let policy = RetentionPolicy::keep_last(100);
        durable.ingest(&two_subject_events(cais)).unwrap();
        // An applied run advances the watermark to 110.
        durable.run_retention_with(&policy, Time(210)).unwrap();
        assert_eq!(durable.retention_watermark(), Time(110));
        // Bob (own clock at 25) legally ingests a stay whose timestamps
        // sit BELOW the watermark — the late-arrival case.
        durable
            .ingest(&[
                Event::Request {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Enter {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Exit {
                    time: Time(70),
                    subject: bob,
                    location: cais,
                },
            ])
            .unwrap();
        // Crash window: the next run's segment lands but its prune
        // never applies. The stranded segment [110, 150) holds the late
        // stay, and so does live state.
        let prunable = durable.engine().collect_prunable(Time(150));
        durable.archive.append_run(110, 150, &prunable).unwrap();
        // Time-based clipping would admit the archived copy (70 < 110);
        // segment provenance (starts at 110, not below it) must not.
        let present = durable
            .read_view()
            .present_during(cais, Interval::lit(50, 80))
            .unwrap();
        assert_eq!(present, vec![(bob, Interval::lit(60, 70))], "counted once");
        let contacts = durable
            .read_view()
            .contacts(bob, Interval::lit(50, 80))
            .unwrap();
        assert!(contacts.is_empty(), "{contacts:?}");
        // After the run completes (replacing the stranded segment and
        // applying the prune), the stay counts exactly once — from the
        // archive this time.
        durable.run_retention_with(&policy, Time(250)).unwrap();
        assert_eq!(durable.retention_watermark(), Time(150));
        let present = durable
            .read_view()
            .present_during(cais, Interval::lit(50, 80))
            .unwrap();
        assert_eq!(present, vec![(bob, Interval::lit(60, 70))]);
    }

    #[test]
    fn missing_archive_refuses_below_watermark_queries() {
        let dir = ScratchDir::new("durable-retention-refuse");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        durable.ingest(&two_subject_events(cais)).unwrap();
        durable
            .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
            .unwrap();
        // An operator (or disaster) removes the archive tier.
        for entry in std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
        {
            if entry.file_name().to_string_lossy().ends_with(".arch") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        // Below the watermark with a live miss: refuse loudly.
        let err = durable.read_view().whereabouts(bob, Time(15)).unwrap_err();
        assert!(matches!(err, HistoryError::Unarchived { .. }), "{err}");
        assert!(err.to_string().contains("refusing"), "{err}");
        let err = durable
            .read_view()
            .contacts(alice, Interval::lit(0, 300))
            .unwrap_err();
        assert!(matches!(err, HistoryError::Unarchived { .. }));
        // At or above the watermark: live answers as usual.
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(205)).unwrap(),
            Some(cais)
        );
        assert!(durable
            .read_view()
            .contacts(alice, Interval::lit(150, 300))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn configured_retention_runs_automatically_on_ingest() {
        let dir = ScratchDir::new("durable-retention-auto");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let config = StoreConfig {
            retention: Some(RetentionPolicy::keep_last(100)),
            ..test_config()
        };
        let (mut durable, _alerts) = DurableEngine::create(dir.path(), core, 2, config).unwrap();
        let alice = SubjectId(0);
        // Long trace of short clean cycles: live history must stay
        // bounded by the horizon, not grow with the trace.
        let mut live_peak = 0usize;
        for i in 0..400u64 {
            let t = i * 10;
            durable
                .ingest(&[
                    Event::Request {
                        time: Time(t),
                        subject: alice,
                        location: cais,
                    },
                    Event::Enter {
                        time: Time(t + 1),
                        subject: alice,
                        location: cais,
                    },
                    Event::Exit {
                        time: Time(t + 5),
                        subject: alice,
                        location: cais,
                    },
                ])
                .unwrap();
            let live: usize = (0..2)
                .map(|s| durable.engine().read_shard(s, |st| st.movements().len()))
                .sum();
            live_peak = live_peak.max(live);
        }
        assert!(durable.take_retention_error().is_none());
        assert!(durable.retention_watermark() >= Time(3_000));
        // 400 cycles × 3 events ingested, but live never held more than
        // ~a horizon's worth (100 chronons ≈ 10 cycles ≈ 30 events,
        // plus slack for the maintenance cadence).
        assert!(live_peak <= 60, "live history unbounded: peak {live_peak}");
        // Nothing was lost: whereabouts across the whole trace still
        // answer through the archive.
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(2)).unwrap(),
            Some(cais)
        );
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(3_902)).unwrap(),
            Some(cais)
        );
    }

    #[test]
    fn reshard_after_retention_keeps_watermark_and_guards() {
        let dir = ScratchDir::new("durable-retention-reshard");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        {
            let core = wide_open_core(cais, ntu.model);
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.ingest(&two_subject_events(cais)).unwrap();
            durable
                .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
                .unwrap();
            durable.snapshot().unwrap();
        }
        // Reopen on 5 shards: subject state re-deals, and the retention
        // bookkeeping re-deals with it.
        let (mut durable, _alerts, _) =
            DurableEngine::open_with_shards(dir.path(), test_config(), 5).unwrap();
        assert_eq!(durable.engine().shard_count(), 5);
        assert_eq!(durable.retention_watermark(), Time(150));
        // Bob's history was entirely pruned, yet his time-regression
        // guard crossed the reshard: a stale event is still flagged.
        let out = durable
            .ingest(&[Event::Enter {
                time: Time(3),
                subject: bob,
                location: cais,
            }])
            .unwrap();
        assert_eq!(out.violations.len(), 1, "guard lost in redistribution");
        // Tiered queries still merge the archive.
        assert_eq!(
            durable.read_view().whereabouts(alice, Time(15)).unwrap(),
            Some(cais)
        );
        let contacts = durable
            .read_view()
            .contacts(alice, Interval::lit(0, 300))
            .unwrap();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].other, bob);
    }

    #[test]
    fn reopen_onto_more_shards_redistributes_state() {
        let dir = ScratchDir::new("durable-reshard");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let subjects: Vec<SubjectId> = (0..16).map(SubjectId).collect();
        for &s in &subjects {
            core.add_authorization(
                Authorization::new(
                    Interval::lit(0, 1_000),
                    Interval::lit(0, 2_000),
                    s,
                    cais,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let events: Vec<Event> = subjects
            .iter()
            .flat_map(|&s| {
                [
                    Event::Request {
                        time: Time(10),
                        subject: s,
                        location: cais,
                    },
                    Event::Enter {
                        time: Time(11),
                        subject: s,
                        location: cais,
                    },
                ]
            })
            .collect();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.ingest(&events).unwrap();
            durable.snapshot().unwrap();
        }
        let (durable, _alerts, _) =
            DurableEngine::open_with_shards(dir.path(), test_config(), 5).unwrap();
        assert_eq!(durable.engine().shard_count(), 5);
        assert_eq!(durable.engine().status().total_entries, 16);
        // Every subject's stay is still live and exits clean.
        for &s in &subjects {
            assert!(
                durable.engine().observe_exit(Time(20), s, cais).is_none(),
                "{s} lost its active stay in redistribution"
            );
        }
    }

    /// The movements state of a set of shards, as the union of what each
    /// holds: timelines and latest-time guards by subject, occupants by
    /// location, the watermarks, and the live and pruned event counts.
    type MovementsView = (
        BTreeMap<SubjectId, Vec<Stay>>,
        Vec<Vec<SubjectId>>,
        BTreeMap<SubjectId, Time>,
        BTreeSet<Time>,
        (usize, u64),
    );

    fn movements_view(images: &[ShardStateImage]) -> MovementsView {
        let mut view = MovementsView::default();
        view.1 = vec![Vec::new(); 3];
        for db in images.iter().map(|i| &i.movements) {
            view.0.extend(db.timelines().map(|(s, t)| (s, t.to_vec())));
            for (l, occupants) in view.1.iter_mut().enumerate() {
                occupants.extend(db.occupants(LocationId(l as u32)));
                occupants.sort();
            }
            view.2.extend(db.latest_times());
            view.3.insert(db.watermark());
            view.4 .0 += db.len();
            view.4 .1 += db.pruned_events();
        }
        view
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever movements a shard recorded — entries and exits for
        /// random subjects and rooms, clocks that run backwards, a prune
        /// somewhere in between — redistributing it onto 1–4 shards puts
        /// each subject's timeline on the shard its id maps to, and
        /// there and back again keeps every timeline, the occupancy, the
        /// latest-time guards, the watermark and the pruned count.
        #[test]
        fn redistribution_keeps_every_timeline(
            steps in prop::collection::vec((0u32..6, 0u32..3, any::<bool>(), -2i64..6), 1..120),
            prune in (0usize..120, 0u64..60),
            shards in 1usize..=4,
        ) {
            let mut source = ShardStateImage::default();
            let db = &mut source.movements;
            for (i, &(s, l, enter, dt)) in steps.iter().enumerate() {
                if i == prune.0 {
                    db.apply_prune(Time(prune.1));
                }
                let (subject, location) = (SubjectId(s), LocationId(l));
                let last = db.latest_times().find(|&(who, _)| who == subject);
                let t = Time(last.map_or(0, |(_, t)| t.get()).saturating_add_signed(dt));
                let _ = if enter {
                    db.record_enter(t, subject, location)
                } else {
                    db.record_exit(t, subject, location)
                };
            }
            let auths = AuthorizationDb::new();
            let spread = redistribute(vec![source.clone()], shards, &auths);
            prop_assert_eq!(spread.len(), shards);
            for (s, timeline) in source.movements.timelines() {
                prop_assert_eq!(spread[shard_of(s, shards)].movements.timeline(s), timeline);
            }
            let want = movements_view(std::slice::from_ref(&source));
            prop_assert_eq!(movements_view(&spread), want.clone());
            let back = redistribute(spread, 1, &auths);
            prop_assert_eq!(movements_view(&back), want);
        }
    }
}
