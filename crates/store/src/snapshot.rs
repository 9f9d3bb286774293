//! Versioned on-disk snapshots of the full engine state.
//!
//! ## On-disk format (version 2)
//!
//! A snapshot file `snap-<seq>-<epoch>.snap` is a checksummed whole file
//! ([`crate::whole`], whose kind table spells the header: `seq` and the
//! payload length) holding one `StoreSnapshot` in the binary value
//! encoding ([`crate::binval`]).
//!
//! `seq` is the number of WAL events already **applied** to the captured
//! state: recovery loads the snapshot and replays WAL records with
//! sequence numbers `>= seq`. A snapshot that fails any check of its
//! header or CRC is skipped, and [`SnapshotStore`] keeps the previous
//! snapshot around precisely so a crash mid-write (already mitigated by
//! write-to-temp-then-rename) or a corrupted newest file falls back to
//! the older one.
//!
//! The payload is never whole in memory: [`SnapshotStore::write`]
//! streams a borrowed [`SnapshotView`] of the live policy epoch and the
//! shard images, chunk by chunk, into a temp file, and writes the header
//! — length and CRC folded over the chunks — last, at offset 0.

use crate::whole::{self, SNAPSHOT};
use ltam_engine::batch::{PolicyImage, PolicyImageRef, QuarantinedEvent, ShardedEngine};
use ltam_engine::shard::ShardStateImage;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk snapshot format version written by this build.
pub const SNAPSHOT_VERSION: u16 = SNAPSHOT.version;
/// Bytes of the snapshot header.
pub const SNAPSHOT_HEADER_LEN: usize = SNAPSHOT.header_len();
/// Valid snapshots kept on disk (newest first); older ones are pruned.
pub const SNAPSHOTS_KEPT: usize = 2;
/// The chunk a snapshot payload is encoded and written in.
pub const SNAPSHOT_WRITE_CHUNK: usize = whole::WRITE_CHUNK;

/// A point-in-time image of a whole [`ShardedEngine`]: the policy epoch
/// plus every shard's mutable state, stamped with the WAL position it
/// covers. The sections are owned by default; [`SnapshotView`] borrows
/// them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSnapshot<
    Policy = PolicyImage,
    States = Vec<ShardStateImage>,
    Quarantine = Vec<QuarantinedEvent>,
> {
    /// WAL events applied to this state (replay resumes here).
    pub seq: u64,
    /// Policy edits acknowledged up to this state. Recovery compares
    /// the epoch it reaches — this plus one per replayed WAL policy op
    /// — against the store's policy-epoch marker: coming up below an
    /// acknowledged epoch would silently revert a policy change, so it
    /// is refused instead.
    pub policy_epoch: u64,
    /// Shard count the states were captured under.
    pub shards: usize,
    /// The read-mostly policy epoch.
    pub policy: Policy,
    /// Per-shard mutable state, in shard order (`states.len() == shards`).
    pub states: States,
    /// The quarantine ledger: events from below-trust-threshold sensors
    /// held out of enforcement state.
    pub quarantine: Quarantine,
    /// The monitoring clock (highest trusted event time) at this state.
    /// Token validity is judged against it, so it must survive a
    /// restart whose WAL tail holds no event: without it an expired
    /// token would be accepted again until traffic re-advanced the
    /// clock.
    pub clock: u64,
}

/// A [`StoreSnapshot`] borrowed from what it images — a live policy
/// epoch ([`ltam_engine::batch::PolicyCore::image_ref`]) and exported
/// shard images: what a snapshot is written from, with no row copied.
pub type SnapshotView<'a> =
    StoreSnapshot<PolicyImageRef<'a>, &'a [ShardStateImage], &'a [QuarantinedEvent]>;

/// The engine's state digest: FNV-1a-64 (not a cryptographic hash) over
/// the `binval` encoding of what a snapshot writes — the policy image,
/// the [canonical](ltam_engine::batch::canonical) shard image and the
/// quarantine ledger — so equal states digest equal at any shard count.
/// The encoding is hashed chunk by chunk as it streams, never whole.
/// Like [`ShardedEngine::export_images`], a consistent cut only between batches.
pub fn digest(engine: &ShardedEngine) -> u64 {
    let (policy, quarantine) = (engine.policy(), engine.export_quarantine());
    let state = (policy.image_ref(), engine.canonical_image(), quarantine);
    let fnv = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    crate::binval::encode_chunked(&state, SNAPSHOT_WRITE_CHUNK, &mut |chunk| {
        hash = chunk.iter().fold(hash, fnv);
    });
    hash
}

/// Reads and writes [`StoreSnapshot`]s in a store directory.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    fsync: bool,
}

/// The file name of the snapshot covering `seq` at policy epoch `epoch`
/// — the one place the `snap-*.snap` format is spelled.
pub(crate) fn snapshot_file_name(seq: u64, epoch: u64) -> String {
    // Both coordinates go in the name: policy edits snapshot without
    // advancing `seq`, and keying by seq alone would overwrite the
    // previous snapshot in place — collapsing the keep-2 fallback to a
    // single file.
    format!("snap-{seq:020}-{epoch:010}.snap")
}

impl SnapshotStore {
    /// A snapshot store over `dir` (created on first write), `fsync`ing
    /// every written snapshot.
    pub fn new(dir: &Path) -> SnapshotStore {
        SnapshotStore::with_fsync(dir, true)
    }

    /// A snapshot store with explicit `fsync` behavior (disable only for
    /// benchmarks and tests; writes are still atomic via temp + rename).
    pub fn with_fsync(dir: &Path, fsync: bool) -> SnapshotStore {
        SnapshotStore {
            dir: dir.to_path_buf(),
            fsync,
        }
    }

    /// Snapshot files present in `dir` as `(seq, epoch, path)`, newest
    /// first — by `(seq, epoch)`, both of which are nondecreasing over a
    /// store's lifetime. Validity is not checked.
    pub(crate) fn listing(&self) -> io::Result<Vec<(u64, u64, PathBuf)>> {
        let mut out = whole::list(&self.dir, &SNAPSHOT.names)?;
        out.reverse();
        Ok(out)
    }

    /// True if the directory holds at least one snapshot file (valid or
    /// not) — used to refuse `create` over an existing store.
    pub fn any_present(&self) -> io::Result<bool> {
        Ok(!self.listing()?.is_empty())
    }

    /// The sequence of the **oldest** snapshot file still on disk (by
    /// filename, validity not checked). WAL compaction must not pass
    /// this point: if the newest snapshot later turns out corrupt,
    /// recovery falls back to an older one and needs the WAL records
    /// between the two.
    pub fn oldest_retained_seq(&self) -> io::Result<Option<u64>> {
        Ok(self.listing()?.last().map(|&(seq, _, _)| seq))
    }

    /// Stream `snapshot` durably to disk, then prune old snapshots
    /// down to [`SNAPSHOTS_KEPT`]. Returns the written path.
    ///
    /// The write is atomic: payload goes to a temp file which is fsynced
    /// and renamed into place, then the directory is fsynced, so a crash
    /// leaves either the old listing or the new one — never a half
    /// snapshot under the final name.
    pub fn write<P, S, Q>(&self, snapshot: &StoreSnapshot<P, S, Q>) -> io::Result<PathBuf>
    where
        StoreSnapshot<P, S, Q>: Serialize,
    {
        let name = snapshot_file_name(snapshot.seq, snapshot.policy_epoch);
        let written = whole::write_atomic(
            &self.dir,
            &SNAPSHOT,
            &name,
            &[snapshot.seq],
            self.fsync,
            |sink| crate::binval::encode_chunked(snapshot, SNAPSHOT_WRITE_CHUNK, sink),
        )?;
        ltam_obs::histogram!(
            "store_snapshot_encode_seconds",
            "Snapshot phase: encoding the engine image and its CRC, summed over its chunks",
            SecondsFromMicros
        )
        .observe(written.encoding.as_micros() as u64);
        ltam_obs::histogram!(
            "store_snapshot_write_seconds",
            "Snapshot phase: paced writes of the image file, summed over its chunks",
            SecondsFromMicros
        )
        .observe(written.writing.as_micros() as u64);
        if self.fsync {
            ltam_obs::histogram!(
                "store_snapshot_fsync_seconds",
                "Snapshot phase: final data sync of the image file",
                SecondsFromMicros
            )
            .observe(written.syncing.as_micros() as u64);
        }
        ltam_obs::histogram!(
            "store_snapshot_bytes",
            "Size of a written snapshot image in bytes",
            None
        )
        .observe(written.bytes);
        ltam_obs::counter!("store_snapshots_total", "Snapshots written").inc();
        self.prune()?;
        Ok(written.path)
    }

    fn prune(&self) -> io::Result<()> {
        for (_, _, path) in self.listing()?.into_iter().skip(SNAPSHOTS_KEPT) {
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Load the newest snapshot that passes every integrity check, or
    /// `None` if the directory holds no usable snapshot. Corrupt files
    /// are skipped, not deleted (operators may want the evidence), and so
    /// are files that cannot be read at all — a rotted sector under the
    /// newest file is what the older retained one is kept for. Each skip
    /// is counted in `store_snapshots_skipped_total`; a read error is
    /// returned only when no file was usable.
    pub fn load_latest(&self) -> io::Result<Option<StoreSnapshot>> {
        let mut unreadable = None;
        for (seq, epoch, path) in self.listing()? {
            match read_snapshot(&path, seq, epoch) {
                Ok(Some(snap)) => return Ok(Some(snap)),
                Ok(None) => skipped("invalid").inc(),
                Err(e) => {
                    skipped("unreadable").inc();
                    unreadable.get_or_insert(e);
                }
            }
        }
        unreadable.map_or(Ok(None), Err)
    }
}

/// `store_snapshots_skipped_total{reason}`: a fallback to an older
/// snapshot is never silent.
fn skipped(reason: &'static str) -> &'static ltam_obs::Counter {
    ltam_obs::registry().counter(
        "store_snapshots_skipped_total",
        &[("reason", reason)],
        "Snapshot files recovery passed over for an older one, by reason",
    )
}

/// Parse and validate one snapshot file; `None` if any check fails,
/// `Err` if the file cannot be read.
fn read_snapshot(
    path: &Path,
    expected_seq: u64,
    expected_epoch: u64,
) -> io::Result<Option<StoreSnapshot>> {
    let payload = match whole::read_checked(path, &SNAPSHOT, &[expected_seq]) {
        Ok((_, payload)) => payload,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(None),
        Err(e) => return Err(e),
    };
    match crate::binval::decode::<StoreSnapshot>(&payload) {
        Ok(snap)
            if snap.seq == expected_seq
                && snap.policy_epoch == expected_epoch
                && snap.states.len() == snap.shards =>
        {
            Ok(Some(snap))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ltam_engine::batch::PolicyCore;
    use ltam_engine::shard::ShardState;
    use ltam_graph::examples::ntu_campus;

    fn snapshot(seq: u64) -> StoreSnapshot {
        let core = PolicyCore::new(ntu_campus().model);
        StoreSnapshot {
            seq,
            policy_epoch: 0,
            shards: 2,
            policy: core.image(),
            states: vec![ShardState::new().image(), ShardState::new().image()],
            quarantine: Vec::new(),
            clock: 0,
        }
    }

    #[test]
    fn write_load_round_trip() {
        let dir = ScratchDir::new("snap-roundtrip");
        let store = SnapshotStore::new(dir.path());
        assert!(store.load_latest().unwrap().is_none());
        store.write(&snapshot(42)).unwrap();
        let back = store.load_latest().unwrap().unwrap();
        assert_eq!(back.seq, 42);
        assert_eq!(back.shards, 2);
        assert_eq!(back.states.len(), 2);
    }

    #[test]
    fn newest_valid_snapshot_wins_and_pruning_keeps_two() {
        let dir = ScratchDir::new("snap-prune");
        let store = SnapshotStore::new(dir.path());
        for seq in [10, 20, 30] {
            store.write(&snapshot(seq)).unwrap();
        }
        assert_eq!(store.load_latest().unwrap().unwrap().seq, 30);
        let files: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .collect();
        assert_eq!(files.len(), SNAPSHOTS_KEPT);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = ScratchDir::new("snap-fallback");
        let store = SnapshotStore::new(dir.path());
        store.write(&snapshot(10)).unwrap();
        let newest = store.write(&snapshot(20)).unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().seq, 10);
    }

    #[test]
    fn truncated_newest_falls_back_to_previous() {
        let dir = ScratchDir::new("snap-truncated");
        let store = SnapshotStore::new(dir.path());
        store.write(&snapshot(10)).unwrap();
        let newest = store.write(&snapshot(20)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().seq, 10);
    }

    #[test]
    fn unreadable_newest_falls_back_to_previous() {
        let dir = ScratchDir::new("snap-unreadable");
        let store = SnapshotStore::new(dir.path());
        store.write(&snapshot(10)).unwrap();
        // A directory under the newest snapshot's name: reading it fails
        // (`EISDIR`) whoever runs the test, as a rotted sector would.
        let newest = dir.path().join(snapshot_file_name(20, 0));
        fs::create_dir(&newest).unwrap();
        assert!(fs::read(&newest).is_err());
        let before = skipped("unreadable").get();
        assert_eq!(store.load_latest().unwrap().unwrap().seq, 10);
        assert!(skipped("unreadable").get() > before);
        // With nothing usable behind it, the read error is the answer.
        fs::remove_file(dir.path().join(snapshot_file_name(10, 0))).unwrap();
        assert!(store.load_latest().is_err());
    }

    #[test]
    fn corrupted_length_field_never_panics() {
        let dir = ScratchDir::new("snap-badlen");
        let store = SnapshotStore::new(dir.path());
        store.write(&snapshot(10)).unwrap();
        let newest = store.write(&snapshot(20)).unwrap();
        // Overwrite payload_len (bytes 16..24) with u64::MAX: the loader
        // must skip the file, not overflow.
        let mut bytes = fs::read(&newest).unwrap();
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().seq, 10);
    }
}
