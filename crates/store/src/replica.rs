//! Replication building blocks: the primary's shippable-file inventory
//! and the follower's WAL tail scanner.
//!
//! Replication reuses the store's on-disk artifacts as its wire format:
//! snapshots, archive segments, the policy-epoch marker and WAL
//! segments are already versioned, CRC'd and total-decoding, so a
//! follower can bootstrap by fetching byte-identical copies of them and
//! then tail the primary's active WAL segment. This module supplies the
//! two halves that are genuinely new:
//!
//! * an **inventory** of shippable files addressed by *numbers, not
//!   paths* ([`ReplFileId`]): the serving tier never lets a peer name a
//!   filesystem path, it reconstructs the well-known file name from the
//!   id and refuses anything outside the store directory by design;
//! * a **[`TailScanner`]**: the follower-side resume state machine that
//!   consumes raw WAL segment bytes fetched from `(segment, offset)`
//!   cursors, verifies every record with the very functions crash
//!   recovery uses (`wal::segment_header_ok`, `wal::next_record`:
//!   header, length bounds, CRC32, total decoding), and yields intact
//!   [`WalRecord`]s **preserving the primary's record boundaries and
//!   kinds** — so committing them applies the same records the primary
//!   committed. A damaged or torn region is reported as a
//!   [`TailFault`] with the exact resume cursor; the scanner never
//!   yields a wrong-but-valid record, and never advances past bytes it
//!   could not verify.
//!
//! The serve crate's replication loop drives both halves; the
//! workspace's replication battery (`tests/replication.rs`,
//! `failure_injection.rs`, and the serve property tests) proves the
//! never-diverge contract under truncation, bit flips and crashes.

use crate::archive::ArchiveStore;
use crate::codec::WalRecord;
use crate::snapshot::SnapshotStore;
use crate::wal::{next_record, segment_header_ok, Scanned, SEGMENT_HEADER_LEN};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// A shippable store file, addressed by its well-known numbers rather
/// than a path (a peer can never name a file outside the store
/// directory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplFileId {
    /// A snapshot file (`snap-<seq>-<epoch>.snap`).
    Snapshot {
        /// WAL sequence the snapshot covers.
        seq: u64,
        /// Policy epoch baked into the snapshot.
        epoch: u64,
    },
    /// An archive segment (`arch-<from>-<to>.arch`).
    Archive {
        /// First sequence the segment covers (inclusive).
        from: u64,
        /// End of coverage (exclusive).
        to: u64,
    },
    /// A WAL segment (`wal-<first_seq>.log`).
    WalSegment {
        /// Sequence number of the segment's first event.
        first_seq: u64,
    },
    /// The acked-policy-epoch marker (`policy.epoch`).
    EpochMarker,
}

impl ReplFileId {
    /// The well-known file name this id maps to (store-relative),
    /// spelled by the module that owns each format.
    pub fn file_name(&self) -> String {
        match *self {
            ReplFileId::Snapshot { seq, epoch } => crate::snapshot::snapshot_file_name(seq, epoch),
            ReplFileId::Archive { from, to } => crate::archive::segment_file_name(from, to),
            ReplFileId::WalSegment { first_seq } => crate::wal::segment_file_name(first_seq),
            ReplFileId::EpochMarker => crate::durable::EPOCH_MARKER.to_string(),
        }
    }

    /// The file's path inside `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(self.file_name())
    }
}

/// One inventory row: a shippable file and its length at listing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplFile {
    /// Which file.
    pub file: ReplFileId,
    /// Its size in bytes when the inventory was taken. Immutable files
    /// (snapshots, archive segments, the marker) keep this length; the
    /// active WAL segment only grows past it.
    pub len: u64,
}

fn file_len(path: &Path) -> io::Result<Option<u64>> {
    match fs::metadata(path) {
        Ok(meta) => Ok(Some(meta.len())),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The newest snapshot in `dir` (highest covered sequence, then highest
/// epoch), if any — the bootstrap anchor a follower fetches first.
pub fn newest_snapshot(dir: &Path) -> io::Result<Option<ReplFile>> {
    let Some((seq, epoch, path)) = SnapshotStore::new(dir).listing()?.into_iter().next() else {
        return Ok(None);
    };
    Ok(file_len(&path)?.map(|len| ReplFile {
        file: ReplFileId::Snapshot { seq, epoch },
        len,
    }))
}

/// Every archive segment in `dir`, sorted by coverage start — the cold
/// tier a follower copies verbatim (the chain is contiguous from 0, and
/// segments are immutable once written).
pub fn archive_files(dir: &Path) -> io::Result<Vec<ReplFile>> {
    let mut out = Vec::new();
    for (from, to, path) in ArchiveStore::new(dir).listing()? {
        // A segment superseded and deleted since the listing is simply
        // no longer part of the tier.
        if let Some(len) = file_len(&path)? {
            out.push(ReplFile {
                file: ReplFileId::Archive { from, to },
                len,
            });
        }
    }
    Ok(out)
}

/// The first sequence number of every WAL segment in `dir`, ascending.
/// All but the last are sealed (immutable); the last is the active
/// segment the primary is appending to.
pub fn wal_segment_ids(dir: &Path) -> io::Result<Vec<u64>> {
    Ok(crate::wal::list_segments(dir)?
        .into_iter()
        .map(|(first_seq, _)| first_seq)
        .collect())
}

/// The policy-epoch marker, if one has ever been written (absent until
/// the first durable policy edit).
pub fn epoch_marker_file(dir: &Path) -> io::Result<Option<ReplFile>> {
    let id = ReplFileId::EpochMarker;
    Ok(file_len(&id.path(dir))?.map(|len| ReplFile { file: id, len }))
}

/// A chunk of a shippable file's bytes, plus the file's total length at
/// read time (so the fetcher can tell "caught up to the end" from "the
/// file grew while I read").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRead {
    /// The bytes at `[offset, offset + bytes.len())`.
    pub bytes: Vec<u8>,
    /// The file's length when the chunk was read.
    pub file_len: u64,
}

/// Read up to `max_len` bytes of `file` starting at `offset`. Returns
/// `None` when the file does not exist (rotated away, compacted, or
/// pruned since the manifest was taken — the peer must re-plan), and an
/// empty chunk when `offset` is at or past the current end.
pub fn read_file_chunk(
    dir: &Path,
    file: ReplFileId,
    offset: u64,
    max_len: u32,
) -> io::Result<Option<ChunkRead>> {
    let mut f = match fs::File::open(file.path(dir)) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let file_len = f.metadata()?.len();
    let want = file_len.saturating_sub(offset).min(u64::from(max_len));
    let mut bytes = Vec::with_capacity(want as usize);
    if want > 0 {
        f.seek(SeekFrom::Start(offset))?;
        // A file truncated under the read yields what it still held.
        f.take(want).read_to_end(&mut bytes)?;
    }
    Ok(Some(ChunkRead { bytes, file_len }))
}

// --- the follower's tail scanner -------------------------------------------

/// A verification failure in shipped segment bytes: the exact cursor
/// that did not scan. The fetch loop retries the same cursor a bounded
/// number of times (an in-flight append can look torn for one poll) and
/// parks the follower if the fault persists — it never applies the
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailFault {
    /// First sequence of the segment that faulted.
    pub segment: u64,
    /// Byte offset of the first unverifiable byte.
    pub offset: u64,
    /// What failed to verify.
    pub reason: String,
}

impl std::fmt::Display for TailFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment {} offset {}: {}",
            self.segment, self.offset, self.reason
        )
    }
}

/// What one [`TailScanner::apply`] call produced: every record that
/// verified (in order, boundaries and kinds preserved — a trusted batch
/// replays through enforcement, a quarantine batch goes back onto the
/// follower's quarantine ledger, a policy op is re-applied at the same
/// stream position), and optionally the fault that stopped the scan.
/// `fault: None` with no records simply means "need more bytes" — a
/// partial record at the active segment's tail is normal, not damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailStep {
    /// Verified records, one per WAL record.
    pub records: Vec<WalRecord>,
    /// The verification failure that stopped the scan, if any.
    pub fault: Option<TailFault>,
}

/// The follower-side resume state machine over a primary's WAL.
///
/// The scanner holds a `(segment, offset)` byte cursor plus the
/// sequence number of the next event it expects. Feed it chunks fetched
/// from exactly [`TailScanner::offset`]; it verifies and yields whole
/// records and commits the cursor **only past bytes it fully
/// verified**. Bytes of a record still straddling the last chunk are
/// carried in an internal buffer — the fetch cursor keeps advancing
/// even when one record is larger than one fetch, so progress never
/// depends on the chunk size. On a verification fault the carry buffer
/// is discarded and the cursor snaps back to the first unverified byte:
/// a retry (or a reconnect) re-fetches from there, so a transiently
/// torn read heals and a real corruption faults again, deterministically.
/// Events below the `skip_below` floor (already applied via the
/// bootstrap snapshot) are trimmed from the yielded records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailScanner {
    segment: u64,
    /// File offset of the first byte not yet *verified* — the start of
    /// `buf` within the segment.
    committed: u64,
    /// Fetched-but-unverified bytes (a record straddling chunks).
    buf: Vec<u8>,
    next_seq: u64,
    skip_below: u64,
}

impl TailScanner {
    /// Position a scanner so that replaying from it covers every event
    /// at sequence `applied` and beyond, given the primary's current
    /// segment inventory. Returns `None` when no segment can cover
    /// `applied` — the WAL was compacted past the follower's position
    /// and only a fresh bootstrap can help.
    pub fn start(applied: u64, segments: &[u64]) -> Option<TailScanner> {
        let segment = segments.iter().copied().filter(|&s| s <= applied).max()?;
        Some(TailScanner {
            segment,
            committed: 0,
            buf: Vec::new(),
            next_seq: segment,
            skip_below: applied,
        })
    }

    /// First sequence of the segment the cursor is in.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// Byte offset within the segment to fetch next (past both the
    /// verified bytes and the carried partial record).
    pub fn offset(&self) -> u64 {
        self.committed + self.buf.len() as u64
    }

    /// Sequence number of the next event the scanner will see.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Commit the verified prefix `pos` of the carry buffer and stop
    /// this pass: a `hard` stop discards the unverified remainder and
    /// reports a fault at the commit point (the retry cursor); a soft
    /// one keeps it for the next chunk to complete.
    fn pause(&mut self, pos: usize, records: Vec<WalRecord>, hard: bool, reason: &str) -> TailStep {
        self.committed += pos as u64;
        self.buf.drain(..pos);
        let fault = if hard {
            self.buf.clear();
            Some(TailFault {
                segment: self.segment,
                offset: self.committed,
                reason: reason.into(),
            })
        } else {
            None
        };
        TailStep { records, fault }
    }

    /// Verify and consume `chunk`, which must hold the segment's bytes
    /// starting exactly at [`TailScanner::offset`]. `file_len` and
    /// `sealed` describe the segment at the time the chunk was read:
    /// `sealed` segments must end on a record boundary, while the
    /// active segment may legitimately end mid-record (an append in
    /// flight) — the scanner waits rather than faulting.
    pub fn apply(&mut self, chunk: &[u8], file_len: u64, sealed: bool) -> TailStep {
        self.buf.extend_from_slice(chunk);
        let mut records = Vec::new();
        // Did the fetched bytes reach the end of the file as it existed
        // when read? Only then can a partial record in a sealed segment
        // be called damage rather than a short read.
        let saw_eof = self.committed + self.buf.len() as u64 >= file_len;
        let mut pos = 0usize;
        if self.committed == 0 {
            if self.buf.len() < SEGMENT_HEADER_LEN as usize {
                // Header still being written (or chunked): poll again,
                // unless the sealed file genuinely ends inside it.
                let hard = sealed && saw_eof;
                return self.pause(0, records, hard, "sealed segment shorter than its header");
            }
            if !segment_header_ok(&self.buf, self.segment) {
                return self.pause(0, records, true, "bad segment header");
            }
            pos = SEGMENT_HEADER_LEN as usize;
        }
        while pos < self.buf.len() {
            match next_record(&self.buf[pos..]) {
                Scanned::Complete { record, len } => {
                    let count = record.seq_count();
                    records.extend(record.skip(self.skip_below.saturating_sub(self.next_seq)));
                    self.next_seq += count;
                    pos += len;
                }
                // A partial record at the tail: carried to the next
                // chunk (or damage, if the sealed file ends here).
                Scanned::Partial => {
                    let hard = sealed && saw_eof;
                    return self.pause(pos, records, hard, "sealed segment ends mid record");
                }
                Scanned::Damaged(reason) => return self.pause(pos, records, true, reason),
            }
        }
        self.committed += pos as u64;
        self.buf.clear();
        // Fully consumed a sealed segment: hop to the next one (WAL
        // segments are seq-contiguous, so its first sequence is exactly
        // the next event's).
        if sealed && saw_eof && self.committed >= file_len {
            if self.next_seq <= self.segment {
                // A sealed segment with zero records cannot be followed
                // by another (the successor would collide on the same
                // name); refuse rather than loop.
                return self.pause(0, records, true, "sealed segment holds no records");
            }
            self.segment = self.next_seq;
            self.committed = 0;
        }
        TailStep {
            records,
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use crate::wal::{Wal, WalConfig};
    use ltam_core::subject::SubjectId;
    use ltam_engine::batch::Event;
    use ltam_graph::LocationId;
    use ltam_time::Time;

    fn event(t: u64) -> Event {
        Event::Request {
            time: Time(t),
            subject: SubjectId((t % 5) as u32),
            location: LocationId(1),
        }
    }

    /// Build a WAL with `batches`, rotating after each call to `rotate`.
    fn build_wal(dir: &Path, batches: &[Vec<Event>], rotate_every: usize) -> Vec<u64> {
        let (mut wal, _) = Wal::open(
            dir,
            WalConfig {
                fsync: false,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for (i, b) in batches.iter().enumerate() {
            wal.append_batch(b).unwrap();
            if rotate_every > 0 && (i + 1) % rotate_every == 0 {
                wal.rotate().unwrap();
            }
        }
        wal_segment_ids(dir).unwrap()
    }

    /// Unwrap plain batches (the pre-quarantine shape most tests build).
    fn plain(records: Vec<WalRecord>) -> Vec<Vec<Event>> {
        records
            .into_iter()
            .map(|r| match r {
                WalRecord::Events(events) => events,
                WalRecord::Quarantine { .. } | WalRecord::Policy(_) => {
                    panic!("expected a plain batch")
                }
            })
            .collect()
    }

    fn drive_scanner(dir: &Path, scanner: &mut TailScanner, chunk_bytes: u32) -> Vec<WalRecord> {
        let mut out = Vec::new();
        loop {
            let segs = wal_segment_ids(dir).unwrap();
            let sealed = segs.iter().any(|&s| s > scanner.segment());
            let chunk = read_file_chunk(
                dir,
                ReplFileId::WalSegment {
                    first_seq: scanner.segment(),
                },
                scanner.offset(),
                chunk_bytes,
            )
            .unwrap()
            .expect("segment exists");
            let at_end = chunk.bytes.is_empty() && !sealed;
            let step = scanner.apply(&chunk.bytes, chunk.file_len, sealed);
            assert_eq!(step.fault, None, "clean log never faults");
            out.extend(step.records);
            if at_end {
                return out;
            }
        }
    }

    #[test]
    fn scanner_replays_a_multi_segment_log_preserving_batch_boundaries() {
        let dir = ScratchDir::new("replica-scan");
        let batches: Vec<Vec<Event>> = (0..10u64)
            .map(|i| (i * 3..i * 3 + 3).map(event).collect())
            .collect();
        build_wal(dir.path(), &batches, 3);
        for chunk_bytes in [7u32, 64, 1 << 20] {
            let mut scanner = TailScanner::start(0, &wal_segment_ids(dir.path()).unwrap()).unwrap();
            let got = plain(drive_scanner(dir.path(), &mut scanner, chunk_bytes));
            assert_eq!(got, batches, "chunk size {chunk_bytes}");
            assert_eq!(scanner.next_seq(), 30);
        }
    }

    #[test]
    fn scanner_trims_events_below_the_bootstrap_floor() {
        let dir = ScratchDir::new("replica-floor");
        let batches: Vec<Vec<Event>> = (0..6u64)
            .map(|i| (i * 4..i * 4 + 4).map(event).collect())
            .collect();
        let segs = build_wal(dir.path(), &batches, 2);
        // Floor mid-batch: the covering record is re-fetched, the
        // already-applied prefix trimmed.
        let mut scanner = TailScanner::start(10, &segs).unwrap();
        let got = plain(drive_scanner(dir.path(), &mut scanner, 1 << 20));
        let flat: Vec<Event> = got.into_iter().flatten().collect();
        let expected: Vec<Event> = (10..24u64).map(event).collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn start_refuses_when_the_floor_predates_every_segment() {
        assert!(TailScanner::start(5, &[8, 16]).is_none());
        assert!(TailScanner::start(8, &[8, 16]).is_some());
        assert!(TailScanner::start(0, &[]).is_none());
    }

    #[test]
    fn torn_tail_of_the_active_segment_waits_instead_of_faulting() {
        let dir = ScratchDir::new("replica-torn");
        let batches: Vec<Vec<Event>> = (0..3u64).map(|i| vec![event(i)]).collect();
        build_wal(dir.path(), &batches, 0);
        let path = ReplFileId::WalSegment { first_seq: 0 }.path(dir.path());
        let full = fs::read(&path).unwrap();
        for cut in 1..full.len() {
            let mut scanner = TailScanner::start(0, &[0]).unwrap();
            let step = scanner.apply(&full[..cut], cut as u64, false);
            assert_eq!(step.fault, None, "cut at {cut} is a wait, not a fault");
            let yielded = step.records.iter().map(WalRecord::seq_count).sum::<u64>() as usize;
            assert!(yielded <= 3);
            // Whatever was yielded is an exact prefix of the real events.
            let flat: Vec<Event> = plain(step.records).into_iter().flatten().collect();
            let expected: Vec<Event> = (0..yielded as u64).map(event).collect();
            assert_eq!(flat, expected);
        }
    }

    #[test]
    fn truncated_sealed_segment_faults_and_never_yields_wrong_records() {
        let dir = ScratchDir::new("replica-truncated");
        let batches: Vec<Vec<Event>> = (0..3u64).map(|i| vec![event(i)]).collect();
        build_wal(dir.path(), &batches, 0);
        let path = ReplFileId::WalSegment { first_seq: 0 }.path(dir.path());
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() - 1 {
            let mut scanner = TailScanner::start(0, &[0]).unwrap();
            let step = scanner.apply(&full[..cut], cut as u64, true);
            let fault = step.fault.clone();
            let flat: Vec<Event> = plain(step.records).into_iter().flatten().collect();
            let expected: Vec<Event> = (0..flat.len() as u64).map(event).collect();
            assert_eq!(flat, expected, "prefix property at cut {cut}");
            assert!(
                fault.is_some() || scanner.offset() < full.len() as u64,
                "a truncated sealed segment must fault or stop short (cut {cut})"
            );
        }
    }

    #[test]
    fn bit_flips_fault_at_the_damaged_record() {
        let dir = ScratchDir::new("replica-flip");
        let batches: Vec<Vec<Event>> = (0..4u64).map(|i| vec![event(i)]).collect();
        build_wal(dir.path(), &batches, 0);
        let path = ReplFileId::WalSegment { first_seq: 0 }.path(dir.path());
        let full = fs::read(&path).unwrap();
        for byte in 0..full.len() {
            let mut damaged = full.clone();
            damaged[byte] ^= 0x10;
            let mut scanner = TailScanner::start(0, &[0]).unwrap();
            let step = scanner.apply(&damaged, damaged.len() as u64, true);
            let flat: Vec<Event> = plain(step.records).into_iter().flatten().collect();
            let expected: Vec<Event> = (0..flat.len() as u64).map(event).collect();
            assert_eq!(
                flat, expected,
                "flip at byte {byte} yielded a wrong-but-valid record"
            );
        }
    }

    #[test]
    fn quarantine_records_ship_with_their_kind_and_consume_sequences() {
        use crate::wal::WalBatch;
        let dir = ScratchDir::new("replica-quarantine");
        let (mut wal, _) = Wal::open(
            dir.path(),
            WalConfig {
                fsync: false,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let trusted: Vec<Event> = (0..3u64).map(event).collect();
        let held: Vec<Event> = (3..5u64).map(event).collect();
        let tail: Vec<Event> = (5..6u64).map(event).collect();
        wal.append_batch(&trusted).unwrap();
        wal.append_mixed(&[WalBatch::Quarantine {
            source: SubjectId(9),
            level: 1,
            events: &held,
        }])
        .unwrap();
        wal.append_batch(&tail).unwrap();
        let segs = wal_segment_ids(dir.path()).unwrap();
        let mut scanner = TailScanner::start(0, &segs).unwrap();
        let got = drive_scanner(dir.path(), &mut scanner, 1 << 20);
        assert_eq!(
            got,
            vec![
                WalRecord::Events(trusted),
                WalRecord::Quarantine {
                    source: SubjectId(9),
                    level: 1,
                    events: held.clone(),
                },
                WalRecord::Events(tail),
            ]
        );
        assert_eq!(scanner.next_seq(), 6, "quarantine records consume seqs");
        // A floor inside the quarantine record trims its prefix but
        // keeps the kind.
        let mut scanner = TailScanner::start(4, &segs).unwrap();
        let got = drive_scanner(dir.path(), &mut scanner, 1 << 20);
        assert_eq!(
            got[0],
            WalRecord::Quarantine {
                source: SubjectId(9),
                level: 1,
                events: held[1..].to_vec(),
            }
        );
    }

    #[test]
    fn inventory_lists_and_reads_store_files() {
        let dir = ScratchDir::new("replica-inventory");
        let batches: Vec<Vec<Event>> = (0..4u64).map(|i| vec![event(i)]).collect();
        let segs = build_wal(dir.path(), &batches, 2);
        assert_eq!(segs, vec![0, 2, 4]);
        assert_eq!(newest_snapshot(dir.path()).unwrap(), None);
        assert_eq!(archive_files(dir.path()).unwrap(), Vec::new());
        assert_eq!(epoch_marker_file(dir.path()).unwrap(), None);
        // Chunked read reassembles the exact file.
        let path = ReplFileId::WalSegment { first_seq: 0 }.path(dir.path());
        let full = fs::read(&path).unwrap();
        let mut got = Vec::new();
        loop {
            let chunk = read_file_chunk(
                dir.path(),
                ReplFileId::WalSegment { first_seq: 0 },
                got.len() as u64,
                5,
            )
            .unwrap()
            .unwrap();
            assert_eq!(chunk.file_len, full.len() as u64);
            if chunk.bytes.is_empty() {
                break;
            }
            got.extend(chunk.bytes);
        }
        assert_eq!(got, full);
        // Missing files are None, not errors.
        assert_eq!(
            read_file_chunk(dir.path(), ReplFileId::WalSegment { first_seq: 99 }, 0, 5).unwrap(),
            None
        );
    }
}
