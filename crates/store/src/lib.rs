//! # ltam-store — durability for the LTAM enforcement engine
//!
//! The paper's Figure 3 monitor is assumed always-on; a production
//! deployment restarts, crashes and upgrades. This crate makes the
//! sharded enforcement engine restartable **without changing its
//! enforcement semantics**:
//!
//! * [`codec`] — a compact binary codec for
//!   [`Event`](ltam_engine::batch::Event) (varint fields, total decoding:
//!   arbitrary bytes decode or error, never panic) and [`WalRecord`],
//!   the one owned shape of a WAL record — the unit of commit, recovery
//!   and replication,
//! * [`crc`] — CRC-32 (IEEE) for record and whole-file integrity,
//! * [`wal`] — a segmented, append-only write-ahead log: length-prefixed
//!   CRC'd records, fsync-per-batch, byte-threshold segment rotation, and
//!   torn-tail truncation on open,
//! * [`snapshot`] — versioned, atomically-written snapshots of the full
//!   engine state (policy epoch + every shard's mutable state) stamped
//!   with the WAL position they cover, and [`digest`], the hash of that
//!   state nodes compare to show they agree,
//! * [`durable`] — [`DurableEngine`]: WAL-append before apply, periodic
//!   snapshots, recovery (snapshot + WAL-tail replay through the same
//!   apply routine the live path uses) and compaction,
//! * [`archive`] — the cold tier: segmented, CRC'd archive files holding
//!   history that retention pruned from live state (stays, audit records,
//!   violations), written atomically
//!   *before* any in-memory drop,
//! * [`history`] — tier-aware historical queries (whereabouts, presence,
//!   contact tracing, violation reports): live within the retention
//!   horizon, transparently merged with archive reads beyond it, and a
//!   loud refusal when the answer would need discarded-and-unarchived
//!   data,
//! * [`replica`] — replication building blocks: a numeric inventory of
//!   shippable store files (snapshots, archive segments, WAL segments,
//!   the epoch marker) and the follower's [`TailScanner`] — a resume
//!   state machine that verifies shipped WAL bytes record-by-record
//!   (CRC + total decoding) and can never yield a wrong-but-valid
//!   record,
//! * [`whole`] — the one checksummed whole file: the header every
//!   snapshot, archive segment and epoch marker shares, its one atomic
//!   writer (temp, `sync_data`, rename, directory sync) and its one
//!   checked reader,
//! * [`scratch`] — unique temp directories for tests and benches.
//!
//! The correctness bar, proven by the workspace's `durable_recovery`
//! tests: a crash at an **arbitrary byte offset** of the log recovers to
//! a state from which replaying the remaining trace yields the exact
//! violation multiset of an uninterrupted run.

#![warn(missing_docs)]

pub mod archive;
pub mod binval;
pub mod codec;
pub mod crc;
pub mod durable;
pub mod group;
pub mod history;
pub mod replica;
pub mod scratch;
pub mod snapshot;
pub mod wal;
pub mod whole;

pub use archive::{ArchiveData, ArchiveRunReport, ArchiveStore, LazyArchive, ARCHIVE_VERSION};
pub use codec::{
    decode_event, decode_event_exact, encode_event, event_bytes, get_varint, put_varint,
    DecodeError, WalRecord,
};
pub use crc::crc32;
pub use durable::{
    DurableEngine, ReadView, RecordOutcome, RecoveryReport, RetentionOutcome, StoreConfig,
};
pub use group::{CommitHandle, GroupCommit};
pub use history::HistoryError;
pub use replica::{ChunkRead, ReplFile, ReplFileId, TailFault, TailScanner, TailStep};
pub use scratch::{copy_flat_dir, ScratchDir};
pub use snapshot::{digest, SnapshotStore, StoreSnapshot, SNAPSHOT_VERSION};
pub use wal::{Wal, WalBatch, WalConfig, WalRecovery, WAL_VERSION};
