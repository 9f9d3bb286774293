//! Segmented, append-only write-ahead log for [`Event`] streams.
//!
//! ## On-disk format (version 2)
//!
//! A WAL is a directory of segment files named `wal-<first_seq>.log`,
//! where `<first_seq>` is the zero-padded sequence number of the
//! segment's first record. Each segment is:
//!
//! ```text
//! ┌────────────────────────── segment header (16 bytes) ─────────────┐
//! │ magic "LTWL" │ version u16 LE │ reserved u16 │ first_seq u64 LE  │
//! ├────────────────────────── records ───────────────────────────────┤
//! │ len u32 LE │ crc32 u32 LE │ payload (len bytes, >= 1 Events)     │
//! │ ...                                                              │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The CRC covers the payload; the payload is the [`codec`](crate::codec)
//! binary encoding of **one or more** concatenated events — one record
//! per appended batch — or a sentinel-tagged quarantine batch or policy
//! op. (Version 1 carried policy-record bodies as JSON; no store of
//! that format was ever released, so a version-1 segment is refused at
//! open rather than read.) A record is the unit of
//! atomicity: recovery keeps it in full or discards it in full, which is
//! what makes an appended batch all-or-nothing across a crash. Appends
//! take **one `fsync` per call** — [`Wal::append_mixed`] stacks many
//! records into that single fsync, which is the group-commit path — and
//! a segment rotates once it crosses [`WalConfig::segment_bytes`]
//! (checked at append granularity, so a segment may exceed the threshold
//! by at most one append).
//!
//! ## Recovery
//!
//! [`Wal::open`] scans every segment in sequence order and stops at the
//! **first** invalid byte: a torn record header, a short payload, a CRC
//! mismatch, a payload that does not decode exactly as one record (one
//! or more events, a quarantine batch, or a policy op), or a segment
//! whose header or name disagrees with the expected sequence.
//! Everything before that point is returned as recovered
//! `(first_seq, WalRecord)` pairs in log order and is never dropped;
//! everything from that point on is disregarded, because record
//! boundaries after a corrupt region cannot be trusted. The damaged
//! segment is truncated to its last valid record, so the log is
//! immediately appendable again; later segments (which may hold intact,
//! acked records) are renamed to `*.quarantine` — set aside for
//! operators, never deleted. [`Wal::open_from`] is the same scan for a
//! caller that holds a snapshot: records wholly below the snapshot's
//! cover point are verified and counted but not returned, so recovery
//! costs the tail it replays rather than whatever covered log the
//! oldest surviving segment still carries.
//!
//! "Is this record intact" is decided in exactly one place —
//! `segment_header_ok` and `next_record` — which the follower's
//! [`TailScanner`](crate::replica::TailScanner) shares, so crash
//! recovery and tailing cannot disagree on what a valid log is.
//!
//! Compaction ([`Wal::compact`]) removes sealed segments all of whose
//! records are at sequence numbers below a snapshot's cover point.

use crate::codec::{
    decode_record_payload, encode_event, encode_policy_op, encode_quarantine, WalRecord,
};
use crate::crc::crc32;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyOp};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"LTWL";
/// On-disk format version written into segment headers.
pub const WAL_VERSION: u16 = 2;
/// Bytes of the segment header.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Bytes of a record header (length + CRC).
pub const RECORD_HEADER_LEN: u64 = 8;

/// Tunables for the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one crosses this many
    /// bytes (checked per batch).
    pub segment_bytes: u64,
    /// `fsync` after every appended batch. Disable only for benchmarks
    /// and tests; without it a crash can lose the tail the OS had not
    /// flushed (recovery still truncates cleanly).
    pub fsync: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 1 << 20,
            fsync: true,
        }
    }
}

/// What [`Wal::open`] found (and repaired) on disk.
#[derive(Debug, Clone, Default)]
pub struct WalRecovery {
    /// Every intact record with the sequence number of its first slot,
    /// in log order. Trusted batches, quarantine batches and policy ops
    /// interleave exactly as they were committed: replay must apply
    /// them in this order — a policy op changes how every later event
    /// is judged, and a quarantine record never passes through
    /// enforcement.
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes cut off the damaged segment (0 for a clean log).
    pub truncated_bytes: u64,
    /// Whole segments disregarded because they followed (or were) a
    /// corrupt region — renamed to `*.quarantine` in the directory, never
    /// deleted, so acked records they may hold stay recoverable by hand.
    pub dropped_segments: usize,
}

impl WalRecovery {
    /// Every trusted (plain-record) event with its sequence number, in
    /// log order — what a reader of an events-only log (a trace
    /// fixture) wants.
    pub fn events(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        self.records
            .iter()
            .filter_map(|(first, record)| match record {
                WalRecord::Events(events) => Some((*first..).zip(events.iter().copied())),
                _ => None,
            })
            .flatten()
    }
}

/// The borrowed view of a [`WalRecord`] — what [`Wal::append_mixed`]
/// takes, so a caller holding `&[Event]` slices appends them without
/// copying. Every kind consumes sequence numbers uniformly — one per
/// event, one per policy op — so replication and the applied watermark
/// never care which kind a record was.
#[derive(Debug, Clone, Copy)]
pub enum WalBatch<'a> {
    /// A plain ingest batch (one record, concatenated events).
    Events(&'a [Event]),
    /// A quarantine batch (one record, sentinel-tagged payload).
    Quarantine {
        /// The sensor the events came from.
        source: SubjectId,
        /// Its trust level at quarantine time.
        level: u8,
        /// The quarantined events.
        events: &'a [Event],
    },
    /// A policy op (one record, one sequence number, no events).
    Policy(&'a PolicyOp),
}

impl<'a> WalBatch<'a> {
    /// The batch's events, whatever its kind.
    pub fn events(&self) -> &'a [Event] {
        match self {
            WalBatch::Events(events) | WalBatch::Quarantine { events, .. } => events,
            WalBatch::Policy(_) => &[],
        }
    }

    /// Sequence numbers the batch consumes: one per event, or one for a
    /// policy op (which carries no events but must sit at a
    /// well-defined position for replication cursors to pass through).
    pub fn seq_count(&self) -> u64 {
        match self {
            WalBatch::Policy(_) => 1,
            _ => self.events().len() as u64,
        }
    }
}

impl<'a> From<&'a WalRecord> for WalBatch<'a> {
    fn from(record: &'a WalRecord) -> WalBatch<'a> {
        match record {
            WalRecord::Events(events) => WalBatch::Events(events),
            WalRecord::Quarantine {
                source,
                level,
                events,
            } => WalBatch::Quarantine {
                source: *source,
                level: *level,
                events,
            },
            WalRecord::Policy(op) => WalBatch::Policy(op),
        }
    }
}

#[derive(Debug)]
struct Segment {
    first_seq: u64,
    path: PathBuf,
    /// Valid bytes (records end exactly here).
    len: u64,
    /// Sequence numbers in the segment (a record may hold several).
    records: u64,
}

/// The segmented write-ahead log. See the [module docs](self) for the
/// format and recovery protocol.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    sealed: Vec<Segment>,
    active: Segment,
    file: File,
    next_seq: u64,
    /// `sync_data`/`sync_all` calls issued so far — the group-commit
    /// effectiveness metric (events per fsync) surfaces through here.
    fsyncs: u64,
    /// Set when a failed append could not be rolled back to the last
    /// known-good boundary; all further appends refuse.
    poisoned: bool,
}

/// The file name of the segment whose first record is `first_seq` —
/// the one place the `wal-*.log` format is spelled ([`list_segments`]
/// parses it back).
pub(crate) fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(segment_file_name(first_seq))
}

fn segment_header(first_seq: u64) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[0..4].copy_from_slice(&WAL_MAGIC);
    h[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&first_seq.to_le_bytes());
    h
}

/// Make `dir`'s entries durable (a create or rename inside it). Both a
/// failed open and a failed sync are errors: every caller acks
/// durability on `Ok`, so skipping the sync when the open fails (EMFILE
/// on a server holding many sockets is enough) would ack a dirent a
/// power cut can still take.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn create_segment(dir: &Path, first_seq: u64, fsync: bool) -> io::Result<(Segment, File)> {
    let path = segment_path(dir, first_seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)?;
    file.write_all(&segment_header(first_seq))?;
    if fsync {
        file.sync_data()?;
        // The new directory entry must be durable too: without this, a
        // power cut can drop the whole segment file — and every
        // fsync-acked record inside it — while older segments survive,
        // which recovery could not distinguish from a legitimately
        // shorter log.
        sync_dir(dir)?;
    }
    Ok((
        Segment {
            first_seq,
            path,
            len: SEGMENT_HEADER_LEN,
            records: 0,
        },
        file,
    ))
}

/// The format version of a segment with an intact magic but a version
/// this build does not read — another build's log, not damage, so it is
/// refused outright instead of being repaired away as a torn header.
fn foreign_version(bytes: &[u8]) -> Option<u16> {
    let version = u16::from_le_bytes([*bytes.get(4)?, *bytes.get(5)?]);
    (bytes[0..4] == WAL_MAGIC && version != WAL_VERSION).then_some(version)
}

/// Does `bytes` open with the header of a segment of this format whose
/// first sequence is `first_seq`? (`false` for fewer than
/// [`SEGMENT_HEADER_LEN`] bytes.)
pub(crate) fn segment_header_ok(bytes: &[u8], first_seq: u64) -> bool {
    let want = segment_header(first_seq);
    // Magic + version, then the sequence; the reserved field is not
    // interpreted.
    bytes
        .get(..SEGMENT_HEADER_LEN as usize)
        .is_some_and(|h| h[..6] == want[..6] && h[8..] == want[8..])
}

/// What [`next_record`] found at the front of a byte run.
#[derive(Debug)]
pub(crate) enum Scanned {
    /// A whole record that verified; it occupies the first `len` bytes.
    Complete {
        /// The decoded record.
        record: WalRecord,
        /// Bytes the record takes, header included.
        len: usize,
    },
    /// The bytes end inside the record's header or payload: a torn tail
    /// to crash recovery, "fetch more" to a follower mid-append.
    Partial,
    /// The record is all there and does not verify.
    Damaged(&'static str),
}

/// Verify the record at the front of `bytes` (which must be non-empty):
/// length bounds, CRC32 over the payload, and an exact, total decode —
/// one or more events, a quarantine batch or a policy op; anything
/// else, including an empty payload, is damage. The one record
/// verifier: [`Wal::open`] and the follower's tail scanner both call
/// it.
pub(crate) fn next_record(bytes: &[u8]) -> Scanned {
    let start = RECORD_HEADER_LEN as usize;
    let Some(header) = bytes.get(..start) else {
        return Scanned::Partial;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let Some(payload) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
        return Scanned::Partial;
    };
    if crc32(payload) != crc {
        return Scanned::Damaged("record CRC mismatch");
    }
    match decode_record_payload(payload) {
        Ok(record) => Scanned::Complete {
            record,
            len: start + len,
        },
        Err(_) => Scanned::Damaged("record payload does not decode as exactly one record"),
    }
}

/// The length field of a record header. It is 32 bits: a longer payload
/// is refused, never truncated into a header the next scan would take
/// for the end of the log.
fn record_len(payload_len: usize) -> io::Result<u32> {
    u32::try_from(payload_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {payload_len}-byte record does not fit the WAL's 32-bit length field"),
        )
    })
}

/// Parse one segment's bytes. Every record is verified and counted;
/// those that reach past `floor` are pushed onto `out` with their first
/// sequence number. Returns the sequence numbers that scanned cleanly,
/// the length of the valid prefix and, if the segment is damaged, the
/// byte offset of the first invalid byte.
fn scan_segment(
    bytes: &[u8],
    first_seq: u64,
    floor: u64,
    out: &mut Vec<(u64, WalRecord)>,
) -> (u64, u64, Option<u64>) {
    if !segment_header_ok(bytes, first_seq) {
        return (0, 0, Some(0));
    }
    let mut seqs = 0u64;
    let mut at = SEGMENT_HEADER_LEN as usize;
    while at < bytes.len() {
        match next_record(&bytes[at..]) {
            Scanned::Complete { record, len } => {
                let count = record.seq_count();
                if first_seq + seqs + count > floor {
                    out.push((first_seq + seqs, record));
                }
                seqs += count;
                at += len;
            }
            Scanned::Partial | Scanned::Damaged(_) => return (seqs, at as u64, Some(at as u64)),
        }
    }
    (seqs, at as u64, None)
}

/// `dir`'s segment files as `(first_seq, path)`, sorted by sequence —
/// without opening (or repairing) the log.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Move a segment the log can no longer trust out of the `wal-*.log`
/// namespace (so scans skip it and rotation can never collide with it)
/// while preserving its bytes for operators. The target name probes for
/// a free slot: if the log's sequence later re-crosses this segment's
/// range and corruption strikes again, the second quarantine must not
/// clobber the first one's evidence.
fn quarantine_segment(path: &Path) -> io::Result<()> {
    let target = free_quarantine_slot(path)?;
    fs::rename(path, target)
}

/// Park the cut-off bytes of a truncated segment next to it (same
/// naming scheme as whole-file quarantine).
fn quarantine_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let target = free_quarantine_slot(path)?;
    fs::write(target, bytes)
}

fn free_quarantine_slot(path: &Path) -> io::Result<PathBuf> {
    for attempt in 0..1000u32 {
        let mut target = path.as_os_str().to_owned();
        target.push(if attempt == 0 {
            ".quarantine".to_string()
        } else {
            format!(".quarantine-{attempt}")
        });
        let target = PathBuf::from(target);
        if !target.exists() {
            return Ok(target);
        }
    }
    Err(io::Error::other(format!(
        "no free quarantine slot for {}",
        path.display()
    )))
}

impl Wal {
    /// Open (or create) the WAL in `dir`, repairing any torn tail: the
    /// damaged segment is truncated to its last intact record and later
    /// segments are quarantined (renamed aside, never deleted). Returns
    /// the log positioned for appending and everything it recovered.
    pub fn open(dir: &Path, config: WalConfig) -> io::Result<(Wal, WalRecovery)> {
        Wal::open_from(dir, config, 0)
    }

    /// [`Wal::open`] for a caller that already holds everything below
    /// sequence `floor` (a snapshot's cover point): records that end at
    /// or below it are verified, counted and repaired like the rest but
    /// not handed back, so what recovery holds and replays is the tail
    /// past the snapshot — not however much covered log the oldest
    /// segment happens to still carry (up to a whole
    /// [`WalConfig::segment_bytes`], since compaction drops whole
    /// segments). A record straddling the floor comes back whole.
    pub fn open_from(dir: &Path, config: WalConfig, floor: u64) -> io::Result<(Wal, WalRecovery)> {
        fs::create_dir_all(dir)?;
        let names = list_segments(dir)?;

        let mut recovery = WalRecovery::default();
        let mut segments: Vec<Segment> = Vec::new();
        let mut expected_seq: Option<u64> = None;
        let mut corrupt: Option<(usize, u64)> = None; // (segment index in `names`, offset)
        for (i, (first_seq, path)) in names.iter().enumerate() {
            // A gap between segments (or a name/header mismatch) means the
            // contiguous record sequence ends here.
            if expected_seq.is_some_and(|e| e != *first_seq) {
                corrupt = Some((i, 0));
                break;
            }
            let bytes = fs::read(path)?;
            if let Some(version) = foreign_version(&bytes) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is WAL format version {version}; this build reads only version \
                         {WAL_VERSION} and will not guess at its records",
                        path.display()
                    ),
                ));
            }
            let (records, valid_len, bad_at) =
                scan_segment(&bytes, *first_seq, floor, &mut recovery.records);
            segments.push(Segment {
                first_seq: *first_seq,
                path: path.clone(),
                len: valid_len,
                records,
            });
            expected_seq = Some(first_seq + records);
            if let Some(off) = bad_at {
                recovery.truncated_bytes += bytes.len() as u64 - off;
                corrupt = Some((i, off));
                break;
            }
        }

        if let Some((i, off)) = corrupt {
            // Later segments cannot be trusted past a corrupt region —
            // but they may hold intact, fsync-acked records, so they are
            // QUARANTINED (renamed aside for operators/forensics), never
            // deleted. The caller decides whether losing them is
            // acceptable; `DurableEngine::open` refuses when they could
            // hold events past the usable snapshot.
            for (_, path) in &names[i + 1..] {
                quarantine_segment(path)?;
                recovery.dropped_segments += 1;
            }
            if off == 0 && i < segments.len() && segments[i].records == 0 {
                // Nothing valid in the damaged segment at all (bad
                // header): quarantine the whole file.
                let seg = segments.pop().expect("segment was just scanned");
                quarantine_segment(&seg.path)?;
            } else if i < segments.len() {
                // Truncate the damaged tail — but park its bytes first:
                // past the first invalid byte there may still be
                // CRC-intact acked records (e.g. a mid-segment bit flip),
                // and if the caller refuses this recovery, those bytes
                // are the operator's only repair material.
                let seg = &segments[i];
                let tail = fs::read(&seg.path)?;
                if (tail.len() as u64) > seg.len {
                    quarantine_bytes(&seg.path, &tail[seg.len as usize..])?;
                }
                let f = OpenOptions::new().write(true).open(&seg.path)?;
                f.set_len(seg.len)?;
                f.sync_data()?;
            } else {
                // Corruption was a sequence gap: the segment at `i` was
                // never scanned; quarantine it too.
                quarantine_segment(&names[i].1)?;
                recovery.dropped_segments += 1;
            }
        }

        let next_seq = segments
            .last()
            .map(|s| s.first_seq + s.records)
            .unwrap_or(0);
        let (active, file) = match segments.pop() {
            Some(seg) => {
                let file = OpenOptions::new().append(true).open(&seg.path)?;
                (seg, file)
            }
            None => create_segment(dir, next_seq, config.fsync)?,
        };
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                config,
                sealed: segments,
                active,
                file,
                next_seq,
                fsyncs: 0,
                poisoned: false,
            },
            recovery,
        ))
    }

    /// The sequence number the next appended event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the oldest record the log still holds
    /// ([`Wal::next_seq`] for an empty log): the log covers
    /// `[first_seq, next_seq)`.
    pub fn first_seq(&self) -> u64 {
        self.sealed.first().unwrap_or(&self.active).first_seq
    }

    /// `fsync` calls this log has issued since it was opened (appends,
    /// rotations, and new-segment directory syncs).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Count `n` fsyncs against this log **and** the process-wide
    /// `store_wal_fsyncs_total` series. Every `self.fsyncs` increment
    /// funnels through here so the scraped counter matches
    /// [`Wal::fsyncs`] exactly (the serve drill asserts the equality
    /// over the wire).
    fn note_fsyncs(&mut self, n: u64) {
        self.fsyncs += n;
        ltam_obs::counter!(
            "store_wal_fsyncs_total",
            "fsync calls issued by the write-ahead log (appends, rotations, directory syncs)"
        )
        .inc_by(n);
    }

    /// List `dir`'s WAL segment files by name, sorted by first sequence,
    /// without opening (or repairing) the log — for fixtures, corruption
    /// drills, and tooling that needs to damage or inspect segments.
    pub fn segment_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(list_segments(dir)?.into_iter().map(|(_, p)| p).collect())
    }

    /// Paths of every live segment, sealed first, active last.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = self.sealed.iter().map(|s| s.path.clone()).collect();
        out.push(self.active.path.clone());
        out
    }

    /// Append a batch of events as **one record**, one write + one
    /// `fsync` (if enabled). Returns the sequence number of the first
    /// event appended. The record framing is what makes the batch
    /// all-or-nothing: a crash mid-write tears the record, and recovery
    /// discards it in full — never a half-applied batch.
    ///
    /// A failed write is rolled back: the segment is truncated to its
    /// last known-good boundary, so a retried append never lands after
    /// partial junk (which recovery would treat as the end of the log,
    /// discarding every acked record behind it). If that rollback itself
    /// fails the log is poisoned and every further append errors.
    pub fn append_batch(&mut self, events: &[Event]) -> io::Result<u64> {
        self.append_batches(&[events])
    }

    /// Append several batches — one record each — as a single write and
    /// a single `fsync`: the group-commit primitive. Returns the
    /// sequence number of the first event appended.
    ///
    /// All batches share one durability point. On any failure the whole
    /// group is rolled back (or the log poisoned), so no caller can be
    /// acked while another group member is half-written; on a torn
    /// crash, recovery keeps a prefix of whole records, so each batch is
    /// individually all-or-nothing.
    pub fn append_batches(&mut self, batches: &[&[Event]]) -> io::Result<u64> {
        let mixed: Vec<WalBatch<'_>> = batches.iter().map(|b| WalBatch::Events(b)).collect();
        self.append_mixed(&mixed)
    }

    /// Append a group that may mix plain and quarantine batches — the
    /// full group-commit primitive. Same contract as
    /// [`Wal::append_batches`]: one record per batch, one write, one
    /// `fsync`, all-or-nothing rollback on failure. A record whose
    /// payload does not fit the 32-bit length field (only a
    /// [`PolicyOp::Install`] of an enormous policy could) refuses the
    /// group with `InvalidInput` before anything is written or any
    /// sequence number consumed.
    pub fn append_mixed(&mut self, batches: &[WalBatch<'_>]) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "WAL poisoned: a failed append could not be rolled back; reopen to repair",
            ));
        }
        let first = self.next_seq;
        let total: u64 = batches.iter().map(|b| b.seq_count()).sum();
        if total == 0 {
            return Ok(first);
        }
        let mut buf = Vec::with_capacity(total as usize * 16);
        let mut payload = Vec::with_capacity(256);
        for batch in batches {
            if batch.seq_count() == 0 {
                continue;
            }
            payload.clear();
            match batch {
                WalBatch::Events(events) => {
                    for event in *events {
                        encode_event(event, &mut payload);
                    }
                }
                WalBatch::Quarantine {
                    source,
                    level,
                    events,
                } => encode_quarantine(*source, *level, events, &mut payload),
                WalBatch::Policy(op) => encode_policy_op(op, &mut payload),
            }
            buf.extend_from_slice(&record_len(payload.len())?.to_le_bytes());
            buf.extend_from_slice(&crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        if self.active.len >= self.config.segment_bytes {
            self.rotate()?;
        }
        let written = self.file.write_all(&buf).and_then(|()| {
            if self.config.fsync {
                let span = ltam_obs::timed!("store_fsync_seconds", "WAL append fsync latency");
                let result = self.file.sync_data();
                drop(span);
                self.note_fsyncs(1);
                result
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            if self.file.set_len(self.active.len).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        ltam_obs::counter!(
            "store_wal_appended_bytes_total",
            "Bytes appended to the write-ahead log"
        )
        .inc_by(buf.len() as u64);
        ltam_obs::counter!(
            "store_wal_records_total",
            "Sequence numbers appended to the write-ahead log (one per event, one per policy op)"
        )
        .inc_by(total);
        self.active.len += buf.len() as u64;
        self.active.records += total;
        self.next_seq += total;
        Ok(first)
    }

    /// Seal the active segment and start a new one at the current
    /// sequence. No-op if the active segment holds no records.
    pub fn rotate(&mut self) -> io::Result<()> {
        if self.active.records == 0 {
            return Ok(());
        }
        self.note_fsyncs(1);
        self.file.sync_data()?;
        let created = create_segment(&self.dir, self.next_seq, self.config.fsync)?;
        if self.config.fsync {
            self.note_fsyncs(2); // segment data + directory entry
        }
        let (next, file) = created;
        self.sealed.push(std::mem::replace(&mut self.active, next));
        self.file = file;
        Ok(())
    }

    /// Remove sealed segments all of whose records precede `covered_upto`
    /// (exclusive) — i.e. are already captured by a snapshot at that
    /// sequence. Returns the number of segments removed.
    pub fn compact(&mut self, covered_upto: u64) -> io::Result<usize> {
        let mut removed = 0;
        while let Some(first) = self.sealed.first() {
            let end = first.first_seq + first.records;
            if end > covered_upto {
                break;
            }
            let seg = self.sealed.remove(0);
            fs::remove_file(&seg.path)?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Make every further append refuse, as after a failed rollback.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Discard every segment and restart the log at sequence `seq` — the
    /// recovery escape hatch for a store whose WAL is missing or entirely
    /// unreadable but whose snapshot is valid.
    pub fn reset_to(&mut self, seq: u64) -> io::Result<()> {
        for seg in self.sealed.drain(..) {
            fs::remove_file(&seg.path)?;
        }
        fs::remove_file(&self.active.path)?;
        let (active, file) = create_segment(&self.dir, seq, self.config.fsync)?;
        if self.config.fsync {
            self.note_fsyncs(2);
        }
        self.active = active;
        self.file = file;
        self.next_seq = seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ltam_core::subject::SubjectId;
    use ltam_graph::LocationId;
    use ltam_time::Time;

    fn ev(i: u64) -> Event {
        match i % 4 {
            0 => Event::Request {
                time: Time(i),
                subject: SubjectId((i % 97) as u32),
                location: LocationId((i % 13) as u32),
            },
            1 => Event::Enter {
                time: Time(i),
                subject: SubjectId((i % 97) as u32),
                location: LocationId((i % 13) as u32),
            },
            2 => Event::Exit {
                time: Time(i),
                subject: SubjectId((i % 97) as u32),
                location: LocationId((i % 13) as u32),
            },
            _ => Event::Tick { now: Time(i) },
        }
    }

    fn events(n: u64) -> Vec<Event> {
        (0..n).map(ev).collect()
    }

    #[test]
    fn sync_dir_errs_when_the_directory_cannot_be_opened() {
        let dir = ScratchDir::new("wal-sync-dir");
        sync_dir(dir.path()).unwrap();
        let missing = dir.path().join("gone");
        let err = sync_dir(&missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = ScratchDir::new("wal-roundtrip");
        let all = events(500);
        {
            let (mut wal, rec) = Wal::open(dir.path(), WalConfig::default()).unwrap();
            assert!(rec.records.is_empty());
            for chunk in all.chunks(37) {
                wal.append_batch(chunk).unwrap();
            }
            assert_eq!(wal.next_seq(), 500);
        }
        let (wal, rec) = Wal::open(dir.path(), WalConfig::default()).unwrap();
        assert_eq!(wal.next_seq(), 500);
        assert_eq!(rec.truncated_bytes, 0);
        let got: Vec<Event> = rec.events().map(|(_, e)| e).collect();
        assert_eq!(got, all);
        let seqs: Vec<u64> = rec.events().map(|(s, _)| s).collect();
        assert_eq!(seqs, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn open_from_returns_only_what_reaches_past_the_floor() {
        let dir = ScratchDir::new("wal-floor");
        let config = WalConfig {
            segment_bytes: 256,
            fsync: false,
        };
        let all = events(400);
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            for chunk in all.chunks(10) {
                wal.append_batch(chunk).unwrap();
            }
        }
        let (whole, full) = Wal::open(dir.path(), config).unwrap();
        assert_eq!((whole.first_seq(), whole.next_seq()), (0, 400));
        drop(whole);
        // 205 falls inside the record [200, 210): it comes back whole,
        // everything before it is counted but not returned.
        for floor in [0, 200, 205, 399, 400, 1_000] {
            let (wal, rec) = Wal::open_from(dir.path(), config, floor).unwrap();
            assert_eq!((wal.first_seq(), wal.next_seq()), (0, 400), "floor {floor}");
            let want: Vec<_> = full
                .records
                .iter()
                .filter(|(first, r)| first + r.seq_count() > floor)
                .cloned()
                .collect();
            assert_eq!(rec.records, want, "floor {floor}");
        }
        // Damage below the floor is still found and repaired.
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let (wal, rec) = Wal::open_from(dir.path(), config, 300).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.truncated_bytes > 0 && rec.dropped_segments > 0);
        assert!(wal.next_seq() < 300);
    }

    #[test]
    fn segments_rotate_at_the_byte_threshold() {
        let dir = ScratchDir::new("wal-rotate");
        let config = WalConfig {
            segment_bytes: 256,
            fsync: false,
        };
        let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
        for chunk in events(400).chunks(10) {
            wal.append_batch(chunk).unwrap();
        }
        assert!(wal.segment_paths().len() > 2, "{:?}", wal.segment_paths());
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(rec.events().count(), 400);
    }

    #[test]
    fn torn_tail_is_truncated_earlier_records_survive() {
        let dir = ScratchDir::new("wal-torn");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: false,
        };
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            // One event per append, so each is its own record.
            for e in events(100) {
                wal.append_batch(&[e]).unwrap();
            }
        }
        let path = segment_path(dir.path(), 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap(); // tear the last record
        drop(f);
        let (wal, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(rec.events().count(), 99, "only the torn record is lost");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(wal.next_seq(), 99);
        // The log is appendable again and a further reopen is clean.
        let mut wal = wal;
        wal.append_batch(&[ev(99)]).unwrap();
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(rec.events().count(), 100);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn bit_flip_truncates_from_the_flip_never_before() {
        let dir = ScratchDir::new("wal-flip");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: false,
        };
        let all = events(64);
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            for chunk in all.chunks(4) {
                wal.append_batch(chunk).unwrap();
            }
        }
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        let got: Vec<Event> = rec.events().map(|(_, e)| e).collect();
        assert!(got.len() < all.len());
        assert_eq!(got[..], all[..got.len()], "recovered events are a prefix");
    }

    #[test]
    fn a_torn_tail_drops_whole_batches_never_parts_of_one() {
        // Each appended batch is one record, so a crash mid-write can
        // only lose entire batches — the all-or-nothing guarantee group
        // commit relies on.
        let dir = ScratchDir::new("wal-torn-batch");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: false,
        };
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            for chunk in events(100).chunks(10) {
                wal.append_batch(chunk).unwrap();
            }
        }
        let path = segment_path(dir.path(), 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap(); // tear into the last record
        drop(f);
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(rec.events().count(), 90, "the torn batch is lost in full");
        // Tearing deep into the middle record still cuts at a batch edge.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        let len = fs::metadata(&path).unwrap().len();
        f.set_len(len / 2).unwrap();
        drop(f);
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(
            rec.events().count() % 10,
            0,
            "recovery cuts at a batch boundary"
        );
    }

    #[test]
    fn append_batches_shares_one_fsync_across_the_group() {
        let dir = ScratchDir::new("wal-group");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: true,
        };
        let all = events(60);
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            let batches: Vec<&[Event]> = all.chunks(12).collect();
            let first = wal.append_batches(&batches).unwrap();
            assert_eq!(first, 0);
            assert_eq!(wal.next_seq(), 60);
            assert_eq!(wal.fsyncs(), 1, "five batches, one fsync");
            // Empty members are skipped without burning a record.
            let first = wal.append_batches(&[&[], &all[..3], &[]]).unwrap();
            assert_eq!(first, 60);
            assert_eq!(wal.next_seq(), 63);
            assert_eq!(wal.fsyncs(), 2);
            let first = wal.append_batches(&[]).unwrap();
            assert_eq!(first, 63);
            assert_eq!(wal.fsyncs(), 2, "an empty group costs nothing");
        }
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(rec.events().count(), 63);
        let got: Vec<Event> = rec.events().take(60).map(|(_, e)| e).collect();
        assert_eq!(got, all);
        let seqs: Vec<u64> = rec.events().map(|(s, _)| s).collect();
        assert_eq!(seqs, (0..63).collect::<Vec<_>>());
    }

    #[test]
    fn a_record_past_the_32_bit_length_field_is_refused_not_truncated() {
        assert_eq!(record_len(u32::MAX as usize).unwrap(), u32::MAX);
        // `as u32` would have written a header claiming 0 bytes here.
        let err = record_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn policy_records_take_one_seq_and_recover_in_position() {
        use ltam_core::capability::{AdminOp, TokenId};
        use ltam_situate::{SituationMode, SituationOp};
        let dir = ScratchDir::new("wal-policy");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: false,
        };
        let lockdown = PolicyOp::Situation(SituationOp::Declare(SituationMode::Lockdown));
        let revoke = PolicyOp::Admin(AdminOp::RevokeToken { id: TokenId(7) });
        let mid = events(3);
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            wal.append_batch(&events(5)).unwrap(); // seqs 0..5
            let first = wal.append_mixed(&[WalBatch::Policy(&lockdown)]).unwrap();
            assert_eq!(first, 5);
            assert_eq!(wal.next_seq(), 6);
            wal.append_mixed(&[WalBatch::Events(&mid), WalBatch::Policy(&revoke)])
                .unwrap(); // seqs 6..9 then 9
            assert_eq!(wal.next_seq(), 10);
        }
        let (wal, rec) = Wal::open(dir.path(), config).unwrap();
        assert_eq!(wal.next_seq(), 10);
        let seqs: Vec<u64> = rec.events().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 6, 7, 8]);
        // One list, log order: each record at its first sequence.
        assert_eq!(
            rec.records,
            vec![
                (0, WalRecord::Events(events(5))),
                (5, WalRecord::Policy(lockdown)),
                (6, WalRecord::Events(mid)),
                (9, WalRecord::Policy(revoke)),
            ]
        );
    }

    #[test]
    fn a_segment_of_another_format_version_is_refused_not_repaired() {
        let dir = ScratchDir::new("wal-version");
        let config = WalConfig {
            segment_bytes: 1 << 20,
            fsync: false,
        };
        {
            let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
            wal.append_batch(&events(5)).unwrap();
        }
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = Wal::open(dir.path(), config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(
            fs::read(&path).unwrap(),
            bytes,
            "the old log is left untouched"
        );
    }

    #[test]
    fn compaction_drops_only_covered_segments() {
        let dir = ScratchDir::new("wal-compact");
        let config = WalConfig {
            segment_bytes: 128,
            fsync: false,
        };
        let (mut wal, _) = Wal::open(dir.path(), config).unwrap();
        for chunk in events(200).chunks(8) {
            wal.append_batch(chunk).unwrap();
        }
        wal.rotate().unwrap();
        let before = wal.segment_paths().len();
        let removed = wal.compact(150).unwrap();
        assert!(removed > 0);
        assert_eq!(wal.segment_paths().len(), before - removed);
        // Records >= 150 are still on disk.
        let (_, rec) = Wal::open(dir.path(), config).unwrap();
        assert!(rec.events().any(|(s, _)| s == 150));
        assert_eq!(rec.events().last().unwrap().0, 199);
    }
}
