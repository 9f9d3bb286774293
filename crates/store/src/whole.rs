//! The one checksummed whole file: a store file written at once and
//! never appended to — a snapshot, an archive segment, the acked-epoch
//! marker — is written by [`write_atomic`] and read by [`read_checked`].
//! (The WAL is the one append-only shape, [`crate::wal`].)
//!
//! Every kind's header has one shape, `magic | version u16 | reserved
//! u16 (0) | N × u64 | crc32 u32`, all little-endian, and the payload
//! follows it. The kind table says what differs:
//!
//! ```text
//! kind      file                      magic ver N  u64 fields                           CRC covers
//! snapshot  snap-<seq>-<epoch>.snap   LTSN  2   2  seq, payload_len                     the payload
//! archive   arch-<from>-<to>.arch     LTAR  2   4  from, to, events_len, records_len    the payload
//! epoch     policy.epoch              LTPE  1   1  epoch                                the epoch field
//! ```
//!
//! The payload length is the sum of the length fields (the marker has
//! none, and no payload); the leading fields are what the file name
//! says, and the reader checks them against it. The writer streams the
//! payload in [`WRITE_CHUNK`] pieces behind a zeroed header into
//! `<prefix><coordinates>.tmp`, folding length and CRC as they pass,
//! writes the header last at offset 0, and [`replace`] makes the temp
//! the file: `sync_data`, rename, directory sync. A crash leaves the old
//! file or the new one, never a part; a temp it leaves is deleted at the
//! next [`DurableEngine::open`](crate::DurableEngine::open).

use crate::crc::crc32_update;
use crate::wal::sync_dir;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A family of store files, `(label, prefix, extension)`: its names are
/// `<prefix><coordinates><extension>`, its temps
/// `<prefix><coordinates>.tmp`, and the label names it in errors and in
/// `store_orphans_removed_total{kind}`.
#[derive(Debug)]
pub(crate) struct Names(
    pub(crate) &'static str,
    pub(crate) &'static str,
    pub(crate) &'static str,
);

/// One row of the kind table (see the module docs).
#[derive(Debug)]
pub struct Kind {
    pub(crate) names: Names,
    magic: [u8; 4],
    /// The one format version this build reads and writes.
    pub version: u16,
    fields: usize,
    /// The fields whose sum is the payload length.
    len_fields: Range<usize>,
    /// The fields the CRC covers ahead of the payload.
    crc_fields: Range<usize>,
    /// Pieces after the first start writeback of the ones before and
    /// pause 2 ms: only a writer off the commit thread may sleep.
    paced: bool,
}

impl Kind {
    /// Bytes of the kind's header.
    pub const fn header_len(&self) -> usize {
        12 + 8 * self.fields
    }

    fn crc_init(&self, fields: &[u64]) -> u32 {
        let covered = &fields[self.crc_fields.clone()];
        covered
            .iter()
            .fold(0, |crc, f| crc32_update(crc, &f.to_le_bytes()))
    }
}

/// Snapshots ([`crate::snapshot`]), written off the commit thread.
pub const SNAPSHOT: Kind = Kind {
    names: Names("snapshot", "snap-", ".snap"),
    magic: *b"LTSN",
    version: 2,
    fields: 2,
    len_fields: 1..2,
    crc_fields: 0..0,
    paced: true,
};

/// Archive segments ([`crate::archive`]), written on the commit thread.
pub const SEGMENT: Kind = Kind {
    names: Names("archive", "arch-", ".arch"),
    magic: *b"LTAR",
    version: 2,
    fields: 4,
    len_fields: 2..4,
    crc_fields: 0..0,
    paced: false,
};

/// The acked-epoch marker ([`crate::durable`]), written on the commit
/// thread.
pub const MARKER: Kind = Kind {
    names: Names("epoch", "policy.epoch", ""),
    magic: *b"LTPE",
    version: 1,
    fields: 1,
    len_fields: 1..1,
    crc_fields: 0..1,
    paced: false,
};

/// Every family written through a temp: the three kinds, and WAL
/// segments, whole only when a follower fetches one.
const FAMILIES: [&Names; 4] = [
    &SNAPSHOT.names,
    &SEGMENT.names,
    &MARKER.names,
    &Names("wal", "wal-", ".log"),
];

/// The piece a payload is encoded and written in.
pub const WRITE_CHUNK: usize = 256 * 1024;

/// The `<prefix><a>-<b><ext>` files of one family in `dir` as `(a, b,
/// path)`, ascending; none for a missing `dir`. Validity is not checked.
pub(crate) fn list(dir: &Path, names: &Names) -> io::Result<Vec<(u64, u64, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        entries => entries?,
    };
    let (Names(_, prefix, ext), mut out) = (names, Vec::new());
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let body = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix)?.strip_suffix(ext));
        if let Some((a, b)) = body.and_then(|body| body.split_once('-')) {
            if let (Ok(a), Ok(b)) = (a.parse(), b.parse()) {
                out.push((a, b, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(a, b, _)| (a, b));
    Ok(out)
}

/// Delete the temps a crash mid-write left in `dir` — a store writer's
/// or a follower's fetch — counted by family. Under the store lock
/// only: a live writer's temp is not an orphan. No temp is read or
/// shipped.
pub(crate) fn remove_orphans(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let stem = name.strip_suffix(".tmp").unwrap_or("");
        if let Some(Names(label, ..)) = FAMILIES.iter().find(|f| stem.starts_with(f.1)) {
            fs::remove_file(&path)?;
            let help = "Temp files a crash mid-write left behind, removed at open, by kind";
            ltam_obs::registry()
                .counter("store_orphans_removed_total", &[("kind", label)], help)
                .inc();
        }
    }
    Ok(())
}

/// Replace `dir/name` with what `fill` writes, atomically: `fill`
/// writes the temp, which is `sync_data`ed, renamed over `name`, and
/// the rename made durable by a directory sync (the syncs only with
/// `fsync`). Callers ack durability on `Ok`, so every failure is
/// returned. Returns the time `sync_data` took.
pub fn replace(
    dir: &Path,
    name: &str,
    fsync: bool,
    fill: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<Duration> {
    let family = FAMILIES
        .iter()
        .find(|f| name.starts_with(f.1) && name.ends_with(f.2));
    let stem = family.map_or(name, |f| &name[..name.len() - f.2.len()]);
    let tmp = dir.join(format!("{stem}.tmp"));
    fs::create_dir_all(dir)?;
    let mut file = File::create(&tmp)?;
    fill(&mut file)?;
    let started = Instant::now();
    if fsync {
        file.sync_data()?;
    }
    let syncing = started.elapsed();
    drop(file);
    fs::rename(&tmp, dir.join(name))?;
    if fsync {
        sync_dir(dir)?;
    }
    Ok(syncing)
}

/// What [`write_atomic`] wrote — the file and its size, header included
/// — and where its time went: encoding the payload and its CRC, writing
/// it (pacing included), and the final `sync_data`.
#[derive(Debug)]
pub struct Written {
    pub(crate) path: PathBuf,
    pub(crate) bytes: u64,
    pub(crate) encoding: Duration,
    pub(crate) writing: Duration,
    pub(crate) syncing: Duration,
}

/// Write `dir/name` as a file of `kind` through [`replace`]: the
/// leading header `fields` (the rest zero), then the payload `encode`
/// streams into the sink it is handed. The header goes in last, its
/// last length field taking what the others leave of the payload.
pub fn write_atomic(
    dir: &Path,
    kind: &Kind,
    name: &str,
    fields: &[u64],
    fsync: bool,
    encode: impl FnOnce(&mut dyn FnMut(&[u8])),
) -> io::Result<Written> {
    let mut header = vec![0u64; kind.fields];
    header[..fields.len()].copy_from_slice(fields);
    let mut crc = kind.crc_init(&header);
    let (mut len, mut encoding, mut writing) = (0u64, Duration::ZERO, Duration::ZERO);
    let syncing = replace(dir, name, fsync, |file| {
        file.write_all(&vec![0; kind.header_len()])?;
        let (mut written, started) = (Ok(()), Instant::now());
        encode(&mut |piece| {
            if written.is_err() {
                return;
            }
            crc = crc32_update(crc, piece);
            let write_started = Instant::now();
            // Start writeback of the previous piece, and pause, before
            // dirtying this one: on journaling filesystems in ordered
            // mode *any* fsync's journal commit first flushes the dirty
            // data the running transaction pins, so megabytes of
            // unsynced snapshot would stall whichever WAL group-commit
            // fsync lands next — without a journal commit per piece,
            // which would serialize against every WAL fsync instead.
            if kind.paced && fsync && len > 0 {
                start_writeback(file);
                std::thread::sleep(Duration::from_millis(2));
            }
            len += piece.len() as u64;
            written = file.write_all(piece);
            writing += write_started.elapsed();
        });
        written?;
        encoding = started.elapsed().saturating_sub(writing);
        if let Some(last) = kind.len_fields.clone().last() {
            let named: u64 = header[kind.len_fields.start..last].iter().sum();
            header[last] = len.checked_sub(named).ok_or(io::ErrorKind::InvalidInput)?;
        }
        let mut bytes = kind.magic.to_vec();
        bytes.extend_from_slice(&kind.version.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        header
            .iter()
            .for_each(|f| bytes.extend_from_slice(&f.to_le_bytes()));
        bytes.extend_from_slice(&crc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&bytes)
    })?;
    let (path, bytes) = (dir.join(name), kind.header_len() as u64 + len);
    Ok(Written {
        path,
        bytes,
        encoding,
        writing,
        syncing,
    })
}

/// Read a file of `kind` whose leading header fields must be `expect`
/// (what its name says): its header fields and its payload. Every check
/// applies to every kind; a failed one is an `InvalidData` error naming
/// the file and the check, any other error one the file did not read.
pub fn read_checked(path: &Path, kind: &Kind, expect: &[u64]) -> io::Result<(Vec<u64>, Vec<u8>)> {
    let what = format!("{} file {}", kind.names.0, path.display());
    let unreadable = |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"));
    let refuse = |check: &str| {
        let refusal = format!("{what} refused: {check}");
        Err(io::Error::new(io::ErrorKind::InvalidData, refusal))
    };
    let mut file = File::open(path).map_err(unreadable)?;
    let mut header = vec![0; kind.header_len()];
    match file.read_exact(&mut header) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return refuse("shorter than its header")
        }
        read => read.map_err(unreadable)?,
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    let word = |at: usize| std::array::from_fn(|i| header[at + i]);
    let fields: Vec<u64> = (0..kind.fields)
        .map(|i| u64::from_le_bytes(word(8 + 8 * i)))
        .collect();
    let crc_at = kind.header_len() - 4;
    let crc = u32::from_le_bytes(std::array::from_fn(|i| header[crc_at + i]));
    if header[..4] != kind.magic {
        return refuse("bad magic");
    } else if version != kind.version {
        return refuse(&format!("unsupported format version {version}"));
    } else if header[6..8] != [0, 0] {
        return refuse("reserved bytes not zero");
    } else if let Some(i) = (0..expect.len()).find(|&i| fields[i] != expect[i]) {
        let (found, named) = (fields[i], expect[i]);
        return refuse(&format!(
            "header field {i} is {found}, its name says {named}"
        ));
    }
    let mut payload = Vec::new();
    file.read_to_end(&mut payload).map_err(unreadable)?;
    // A rotted length field can hold anything: the sum is checked.
    let lens = &fields[kind.len_fields.clone()];
    let len = lens.iter().try_fold(0u64, |sum, &f| sum.checked_add(f));
    if len != Some(payload.len() as u64) {
        let held = payload.len();
        return refuse(&format!(
            "length fields say {len:?}, {held} bytes follow the header"
        ));
    } else if crc32_update(kind.crc_init(&fields), &payload) != crc {
        return refuse("CRC mismatch");
    }
    Ok((fields, payload))
}

/// Ask the kernel to start writing `f`'s dirty pages to disk without
/// forcing a journal commit or waiting for completion (Linux
/// `sync_file_range(SYNC_FILE_RANGE_WRITE)`). Best-effort: on other
/// targets, or on failure, the caller's final `sync_data` still
/// provides durability — this only loses the pacing benefit.
fn start_writeback(f: &File) {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
        }
        const SYNC_FILE_RANGE_WRITE: u32 = 2;
        // SAFETY: plain syscall on an open fd; nbytes 0 = "to EOF".
        unsafe {
            sync_file_range(f.as_raw_fd(), 0, 0, SYNC_FILE_RANGE_WRITE);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = f;
}
