//! The cold archive tier: where pruned history goes when retention
//! bounds the live engine.
//!
//! ## On-disk format (version 2)
//!
//! Each retention run writes (at most) one segment
//! `arch-<from>-<to>.arch`, where `[from, to)` is the **watermark
//! range** the run advanced over: `from` is the retention watermark
//! when the records were collected, `to` the new horizon. The segment
//! holds *everything that run pruned* — which, because sensor clocks
//! are only per-subject monotone, can include late-arriving records
//! with timestamps *below* `from` (they were ingested after the
//! earlier runs pruned that era). Records at or past `to` are never
//! archived: they are still live. Segments are written atomically
//! (temp + `fsync` + rename + directory `fsync`), and their watermark
//! ranges chain contiguously from the epoch — each run starts at the
//! watermark the previous one established — so the set of segment
//! names is also the coverage index.
//!
//! A segment is a checksummed whole file ([`crate::whole`], whose kind
//! table spells the header: `from`, `to` and the lengths of its two
//! blocks). Its payload is an events block (`events_len` bytes, empty
//! when written by this version; see below) followed by the records
//! block: one binval value, `ArchiveRecords` — stays, audit, violations.
//!
//! A pruned movement is archived once, as the stay it closed, in the
//! [`crate::binval`] records block. Segments written before that carried
//! a second copy of each — its enter and exit events, in the WAL event
//! codec — in the events block; this version writes the block empty
//! (`events_len` 0) and, reading an older segment, verifies the block
//! under the CRC and skips it undecoded. The header did not change, so
//! the version did not either. Version 1 carried the records block as
//! JSON; like WAL v1 and snapshot v1 it has no reader — any version but
//! the current one is refused outright.
//!
//! The CRC covers both blocks. Unlike snapshots — where a corrupt file
//! falls back to an older one — a corrupt archive segment is the *only*
//! copy of its history, so reads fail loudly (`InvalidData`) instead of
//! skipping: a query that silently ignored a rotten segment would
//! under-report contacts, which for the paper's SARS scenario is the
//! worst possible failure mode.
//!
//! Crash-repeated runs are handled by **replace-on-same-start**: a
//! crash between archive-write and the in-memory prune leaves a
//! segment whose records are still live and a watermark that never
//! advanced. The repeated run re-collects from the same watermark — a
//! superset of the stranded segment, since enforcement state recovers
//! exactly and may have ingested more — writes a fresh segment starting
//! at the same `from`, and only then deletes the superseded file, so
//! no record is ever lost or double-archived. Readers ignore a
//! superseded same-start segment if a crash strands one.

use crate::binval;
use crate::whole::{self, SEGMENT};
use ltam_core::subject::SubjectId;
use ltam_engine::index::{ByTime, HistoryIndex, Provenance, Run};
use ltam_engine::movement::Stay;
use ltam_engine::retention::PrunedHistory;
use ltam_engine::AuditRecord;
use ltam_engine::Violation;
use ltam_time::Time;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk archive format version.
pub const ARCHIVE_VERSION: u16 = SEGMENT.version;
/// Bytes of the archive segment header.
pub const ARCHIVE_HEADER_LEN: usize = SEGMENT.header_len();

/// The records block of a segment: everything a segment holds (see the
/// module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ArchiveRecords {
    stays: Vec<(SubjectId, Stay)>,
    audit: Vec<AuditRecord>,
    violations: Vec<Violation>,
}

/// What one [`ArchiveStore::append_run`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveRunReport {
    /// The retention watermark the records were collected under (the
    /// segment's chain start).
    pub from: u64,
    /// The new watermark the run advanced to (the chain end).
    pub to: u64,
    /// Records written (all classes; a pruned movement is one stay, not
    /// its two events).
    pub records: usize,
}

/// Reads and writes archive segments in a store directory.
#[derive(Debug, Clone)]
pub struct ArchiveStore {
    dir: PathBuf,
    fsync: bool,
}

/// The file name of the segment covering watermarks `[from, to)` — the
/// one place the `arch-*.arch` format is spelled.
pub(crate) fn segment_file_name(from: u64, to: u64) -> String {
    format!("arch-{from:020}-{to:020}.arch")
}

/// One `(from, to, path)` row of the segment listing.
type SegmentRow = (u64, u64, PathBuf);

/// What one listing of the store directory found (see
/// [`ArchiveStore::scan`]). A retention run lists once and hands this on
/// to its append.
#[derive(Debug, Default)]
pub(crate) struct Chain {
    /// The active chain, contiguous from the epoch.
    rows: Vec<SegmentRow>,
    /// Same-start files a crash-repeated run replaced but did not delete.
    superseded: Vec<PathBuf>,
}

impl Chain {
    /// The chronon the chain ends at (exclusive); 0 for an empty archive.
    pub(crate) fn end(&self) -> u64 {
        self.rows.last().map(|&(_, to, _)| to).unwrap_or(0)
    }
}

/// A segment that cannot be used is the only copy of its history.
fn only_copy(e: io::Error) -> io::Error {
    let why = "it is the only copy of its history — refusing to answer rather than under-report";
    io::Error::new(e.kind(), format!("{e}; {why}"))
}

fn corrupt(path: &Path, what: &str) -> io::Error {
    let what = format!("archive segment {} is unusable ({what})", path.display());
    only_copy(io::Error::new(io::ErrorKind::InvalidData, what))
}

impl ArchiveStore {
    /// An archive store over `dir`, `fsync`ing every written segment.
    pub fn new(dir: &Path) -> ArchiveStore {
        ArchiveStore::with_fsync(dir, true)
    }

    /// An archive store with explicit `fsync` behavior (disable only
    /// for tests; writes are still atomic via temp + rename).
    pub fn with_fsync(dir: &Path, fsync: bool) -> ArchiveStore {
        ArchiveStore {
            dir: dir.to_path_buf(),
            fsync,
        }
    }

    /// Every segment file in the directory as `(from, to, path)`,
    /// sorted by coverage — superseded files included, chain validity
    /// not checked (what replication ships verbatim).
    pub(crate) fn listing(&self) -> io::Result<Vec<(u64, u64, PathBuf)>> {
        whole::list(&self.dir, &SEGMENT.names)
    }

    /// Segment files split into the **active chain** (sorted, one
    /// segment per start, largest end wins) and **superseded** files (a
    /// same-start segment a crash-repeated run replaced but whose
    /// deletion did not land). The chain must start at the epoch and
    /// each segment must start where the previous ended (anything else
    /// means segments were deleted or hand-copied — refuse rather than
    /// serve a gappy tier).
    pub(crate) fn scan(&self) -> io::Result<Chain> {
        let mut chain: Vec<SegmentRow> = Vec::new();
        let mut superseded = Vec::new();
        for (from, to, path) in self.listing()? {
            match chain.last() {
                Some(&(last_from, _, _)) if last_from == from => {
                    // Same start: the later (larger-end) segment is a
                    // superset written by a crash-repeated run.
                    let old = chain.pop().expect("non-empty");
                    superseded.push(old.2);
                    chain.push((from, to, path));
                }
                _ => chain.push((from, to, path)),
            }
        }
        let mut expect = 0u64;
        for &(from, to, ref path) in &chain {
            if from != expect || to < from {
                return Err(corrupt(
                    path,
                    &format!("coverage gap: segment starts at {from}, expected {expect}"),
                ));
            }
            expect = to;
        }
        Ok(Chain {
            rows: chain,
            superseded,
        })
    }

    /// The chronon the archive's watermark chain ends at (exclusive):
    /// together with live state (complete from the watermark), the
    /// tiers hold all history when this reaches the watermark. Zero for
    /// an empty archive.
    pub fn coverage_end(&self) -> io::Result<u64> {
        Ok(self.scan()?.end())
    }

    /// Archive one retention run's records: everything pruned while
    /// advancing the watermark from `from` (the collect-time watermark)
    /// to `horizon`. Returns `None` — and writes nothing — only when
    /// `horizon <= from` (an empty advance).
    ///
    /// If the chain extends past `from` (a crash-repeated run: the
    /// stranded segment's records are still live and were re-collected,
    /// possibly alongside records ingested *after* the stranded write —
    /// which is why the write must happen even when the chain already
    /// reaches `horizon`) the new segment **replaces** the stranded
    /// one(s) — written first, superseded files deleted after — so the
    /// chain stays contiguous and no record is duplicated. An empty
    /// record set still writes an (empty) segment: chain contiguity is
    /// what lets readers prove no history is missing.
    pub fn append_run(
        &self,
        from: u64,
        horizon: u64,
        records: &PrunedHistory,
    ) -> io::Result<Option<ArchiveRunReport>> {
        self.append_to(self.scan()?, from, horizon, records)
    }

    /// [`ArchiveStore::append_run`] onto an already scanned `chain`.
    pub(crate) fn append_to(
        &self,
        chain: Chain,
        from: u64,
        horizon: u64,
        records: &PrunedHistory,
    ) -> io::Result<Option<ArchiveRunReport>> {
        if horizon <= from {
            return Ok(None);
        }
        let chain_end = chain.end();
        debug_assert!(
            from <= chain_end,
            "watermark {from} cannot exceed archive coverage {chain_end}"
        );
        debug_assert!(
            horizon >= chain_end,
            "a replacement covering [{from}, {horizon}) must subsume the chain end {chain_end}"
        );
        // Chain segments past the watermark are being replaced by this
        // run; already-superseded files are redundant whatever happens.
        let mut replaced: Vec<PathBuf> = chain
            .rows
            .into_iter()
            .filter(|&(f, _, _)| f >= from)
            .map(|(_, _, p)| p)
            .collect();
        replaced.extend(chain.superseded);
        // Only the upper bound filters: records at or past the horizon
        // are still live and must not be archived. Below it, anything
        // the caller pruned belongs here — including late-arriving
        // records whose (per-subject monotone) timestamps precede
        // `from`.
        let in_range = |t: Time| t.get() < horizon;
        let records = ArchiveRecords {
            stays: records
                .stays
                .iter()
                .filter(|(_, s)| matches!(s.exit, Some(e) if in_range(e)))
                .copied()
                .collect(),
            audit: records
                .audit
                .iter()
                .filter(|r| in_range(r.request.time))
                .copied()
                .collect(),
            violations: records
                .violations
                .iter()
                .filter(|v| in_range(v.time()))
                .copied()
                .collect(),
        };
        let written = records.stays.len() + records.audit.len() + records.violations.len();
        // The rename's dirent is durable before the caller prunes live
        // state: losing it would lose the only copy.
        let new_path = whole::write_atomic(
            &self.dir,
            &SEGMENT,
            &segment_file_name(from, horizon),
            &[from, horizon],
            self.fsync,
            |sink| binval::encode_chunked(&records, whole::WRITE_CHUNK, sink),
        )?
        .path;
        // Only after the replacement is durable may the superseded
        // same-start segments go; a crash in between leaves both, and
        // readers prefer the larger (superset) one. A same-range
        // replacement was already overwritten in place by the rename —
        // deleting that path now would delete the fresh segment.
        for stale in replaced {
            if stale != new_path {
                fs::remove_file(stale)?;
            }
        }
        Ok(Some(ArchiveRunReport {
            from,
            to: horizon,
            records: written,
        }))
    }

    /// Load every active segment into one queryable [`ArchiveData`].
    /// Any unusable segment (bad header, CRC mismatch, undecodable
    /// record) fails the whole load — see the module docs for why the
    /// archive never skips damage.
    ///
    /// Loads the whole tier eagerly; live query paths go through
    /// [`LazyArchive`] instead, which loads (and caches) only the
    /// segments a query can actually touch.
    pub fn load(&self) -> io::Result<ArchiveData> {
        let mut all = LazyArchive::new();
        all.view_for(self, Time::ZERO, Time::MAX)?;
        Ok(all.data)
    }
}

/// Fold one segment's records into `data`: append them, then sort each
/// run the segment touched once. Late-arriving records mean a later
/// segment can hold rows that predate an earlier segment's, but mostly a
/// segment's rows are the newest and the sort finds them in place:
/// merging costs what the segment holds, not what the archive holds.
fn merge_segment(data: &mut ArchiveData, from: u64, seg: ArchiveRecords) {
    for &(subject, stay) in &seg.stays {
        data.stays.entry(subject).or_default().push((from, stay));
        data.index.push(subject, &stay, from);
    }
    // The first row of a run sorts it; the rest find it sorted.
    for &(subject, stay) in &seg.stays {
        if let Some(rows) = data.stays.get_mut(&subject) {
            rows.sort_in_by_key(|(f, s)| (s.enter, s.exit, f));
        }
        data.index.sort_in(stay.location);
    }
    for v in seg.violations {
        data.by_time.push((v.time(), data.violations.len()));
        data.violations.push((from, v));
    }
    data.by_time.sort_in();
    data.audit.extend(seg.audit);
}

/// The archive tier with per-segment lazy loading: the chain is scanned
/// once (file names only — that is the coverage index), and a segment's
/// *payload* is read and cached only when a query's window can touch
/// it. Huge archives therefore cost a directory listing until someone
/// actually asks about the deep past.
///
/// Which segments can a query over `[needs_from, …)` touch? **Not**
/// just those whose watermark range intersects the window naively:
/// sensor clocks are only per-subject monotone, so a segment
/// `[from, to)` may hold *late-arriving* records with timestamps below
/// `from` (they were ingested after earlier runs pruned that era). Its
/// records are bounded above by `to` only. A segment is therefore
/// needed when
///
/// * `to > needs_from` — it can hold records at or past the query's
///   lower edge (no segment can hold records at or past its own `to`,
///   so segments wholly below the window stay cold), and
/// * its start is applied at `applied_below`, the live watermark
///   ([`Provenance`]): every record of a *stranded* segment would be
///   filtered out anyway, so it never needs loading.
///
/// Loaded segments accumulate monotonically: loading a superset is
/// always sound because the provenance filter still applies at query
/// time. A retention run does not empty the cache of a store that is
/// being queried — see [`LazyArchive::chain_changed`].
#[derive(Debug, Default)]
pub struct LazyArchive {
    /// Scanned chain rows, cached after the first scan.
    chain: Option<Vec<SegmentRow>>,
    /// Chain starts whose payloads are merged into `data`.
    loaded: std::collections::BTreeSet<u64>,
    data: ArchiveData,
    /// A query read payloads through this cache since the last
    /// [`LazyArchive::chain_changed`].
    queried: bool,
}

impl LazyArchive {
    /// A cold cache (nothing scanned, nothing loaded).
    pub fn new() -> LazyArchive {
        LazyArchive::default()
    }

    /// A retention run rewrote the chain from `replaced_from` on (it
    /// appended a segment there, replacing whatever a crash-repeated
    /// run had stranded at or past it): the chain is rescanned at the
    /// next query. Loaded payloads are kept — segments below
    /// `replaced_from` are immutable — unless one of them was in the
    /// rewritten range, or nobody queried since the previous run (a
    /// store that is only written to holds no archive in memory).
    pub fn chain_changed(&mut self, replaced_from: u64) {
        let rewritten = self.loaded.range(replaced_from..).next().is_some();
        if rewritten || !self.queried {
            *self = LazyArchive::default();
        } else {
            self.chain = None;
            self.queried = false;
        }
    }

    /// Chain coverage end (exclusive), scanning the directory on first
    /// use. This never reads segment payloads.
    pub fn coverage_end(&mut self, store: &ArchiveStore) -> io::Result<u64> {
        Ok(self
            .ensure_chain(store)?
            .last()
            .map(|&(_, to, _)| to)
            .unwrap_or(0))
    }

    /// Segments whose payloads are currently cached (tests and the
    /// status surface use this to prove laziness).
    pub fn segments_loaded(&self) -> usize {
        self.loaded.len()
    }

    fn ensure_chain(&mut self, store: &ArchiveStore) -> io::Result<&[SegmentRow]> {
        if self.chain.is_none() {
            let chain = store.scan()?;
            self.data.covered_to = chain.end();
            self.chain = Some(chain.rows);
        }
        Ok(self.chain.as_deref().expect("just scanned"))
    }

    /// The archive view for a query reaching down to `needs_from`,
    /// with `applied_below` the live watermark (see
    /// the type docs for the segment-selection rule). Segments needed
    /// but not yet cached are read now; a corrupt or gappy chain fails
    /// loudly, exactly like [`ArchiveStore::load`].
    pub fn view_for(
        &mut self,
        store: &ArchiveStore,
        needs_from: Time,
        applied_below: Time,
    ) -> io::Result<&ArchiveData> {
        self.ensure_chain(store)?;
        self.queried = true;
        let needed: Vec<SegmentRow> = self
            .chain
            .as_deref()
            .expect("chain scanned")
            .iter()
            .filter(|&&(from, to, _)| {
                to > needs_from.get() && from.applied(applied_below) && !self.loaded.contains(&from)
            })
            .cloned()
            .collect();
        for (from, to, path) in needed {
            let seg = read_segment(&path, from, to)?;
            merge_segment(&mut self.data, from, seg);
            self.loaded.insert(from);
        }
        Ok(&self.data)
    }
}

fn read_segment(path: &Path, expected_from: u64, expected_to: u64) -> io::Result<ArchiveRecords> {
    let (fields, payload) =
        whole::read_checked(path, &SEGMENT, &[expected_from, expected_to]).map_err(only_copy)?;
    // An older segment's events block duplicates its stays: verified by
    // the CRC, never decoded. (Its length is within the payload's.)
    let records_block = &payload[fields[2] as usize..];
    binval::decode(records_block)
        .map_err(|e| corrupt(path, &format!("undecodable records block: {e}")))
}

/// The archive tier, loaded and indexed for queries. Produced by
/// [`ArchiveStore::load`]; every stay in here is *closed* (only closed
/// stays are ever pruned), and every record carries the chain start of
/// the segment it came from.
///
/// It is read through the history index both tiers share
/// ([`ltam_engine::index`]), kept sorted as segments merge, with the
/// archived rows' segment starts as their [`Provenance`]: a reader counts
/// a record only if its segment's prune was applied below the live
/// watermark (a stranded segment's records are live). In steady state
/// every segment is applied; pass [`Time::MAX`] to read the archive
/// standalone.
#[derive(Debug, Default)]
pub struct ArchiveData {
    /// Watermark-chain end (exclusive): when this reaches the live
    /// watermark, the two tiers together hold all history ever
    /// recorded.
    pub covered_to: u64,
    /// Archived `(segment start, stay)` rows per subject, chronological.
    pub stays: BTreeMap<SubjectId, Run<(u64, Stay)>>,
    /// Archived audit records.
    pub audit: Vec<AuditRecord>,
    /// Archived `(segment start, violation)` rows, in stored order:
    /// segment by segment, as written.
    pub violations: Vec<(u64, Violation)>,
    /// Every location's archived stays.
    pub index: HistoryIndex<u64>,
    /// `violations` by time.
    pub by_time: ByTime,
}

impl PartialEq for ArchiveData {
    /// The same records; the index is derived from them.
    fn eq(&self, other: &ArchiveData) -> bool {
        (self.covered_to, &self.stays, &self.audit, &self.violations)
            == (
                other.covered_to,
                &other.stays,
                &other.audit,
                &other.violations,
            )
    }
}

impl ArchiveData {
    /// True if the archive covers chronon `t`.
    pub fn covers(&self, t: Time) -> bool {
        t.get() < self.covered_to
    }

    /// Archived `(segment start, stay)` rows of one subject. Callers
    /// merging with live state must skip rows whose segment start is at
    /// or past the movements watermark (stranded: those stays are live).
    pub fn stays_of(&self, subject: SubjectId) -> &[(u64, Stay)] {
        self.stays.get(&subject).map_or(&[], Run::rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_event;
    use crate::history::Tiers;
    use crate::scratch::ScratchDir;
    use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
    use ltam_graph::{LocationId, LocationModel};
    use ltam_time::Interval;

    /// `data` read through the tier merge, beside an empty live tier
    /// whose watermark is `applied_below`.
    fn tiers<T>(data: &ArchiveData, applied_below: Time, ask: impl FnOnce(&Tiers<'_>) -> T) -> T {
        let (engine, _alerts) = ShardedEngine::new(PolicyCore::new(LocationModel::new("W")), 1);
        ask(&Tiers {
            engine: &engine,
            archive: Some(data),
            live_from: applied_below,
        })
    }

    fn history(times: &[(u64, u64)]) -> PrunedHistory {
        // One closed stay per (enter, exit) pair, all for subject 1 in
        // location 2, plus one violation at each enter time.
        let s = SubjectId(1);
        let l = LocationId(2);
        let mut out = PrunedHistory::default();
        for &(a, b) in times {
            out.stays.push((
                s,
                Stay {
                    location: l,
                    enter: Time(a),
                    exit: Some(Time(b)),
                },
            ));
            out.violations.push(Violation::UnauthorizedEntry {
                time: Time(a),
                subject: s,
                location: l,
            });
        }
        out
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = ScratchDir::new("arch-roundtrip");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        assert_eq!(store.coverage_end().unwrap(), 0);
        let report = store
            .append_run(0, 50, &history(&[(5, 10), (20, 30)]))
            .unwrap();
        assert_eq!(
            report,
            Some(ArchiveRunReport {
                from: 0,
                to: 50,
                records: 4 // 2 stays + 2 violations
            })
        );
        let data = store.load().unwrap();
        assert_eq!(data.covered_to, 50);
        assert!(data.covers(Time(49)) && !data.covers(Time(50)));
        assert_eq!(data.stays_of(SubjectId(1)).len(), 2);
        assert_eq!(
            tiers(&data, Time::MAX, |r| r.whereabouts(SubjectId(1), Time(7))),
            Some(LocationId(2))
        );
        assert_eq!(
            tiers(&data, Time::MAX, |r| r.whereabouts(SubjectId(1), Time(15))),
            None
        );
        // A watermark at the segment's start marks it stranded (its
        // prune never applied): the provenance filter excludes it.
        assert_eq!(
            tiers(&data, Time(0), |r| r.whereabouts(SubjectId(1), Time(7))),
            None
        );
        assert_eq!(
            tiers(&data, Time::MAX, |r| r
                .violations_in(Interval::lit(0, 10), &mut 0)
                .len()),
            1
        );
        assert_eq!(
            tiers(&data, Time(0), |r| r
                .violations_in(Interval::lit(0, 10), &mut 0)
                .len()),
            0
        );
        let rows = tiers(&data, Time::MAX, |r| {
            r.present_during(LocationId(2), Interval::lit(8, 25), &mut 0)
        });
        assert_eq!(
            rows,
            vec![
                (SubjectId(1), Interval::lit(8, 10)),
                (SubjectId(1), Interval::lit(20, 25)),
            ]
        );
    }

    #[test]
    fn whereabouts_stops_at_the_last_applied_stay_entered_by_t() {
        let dir = ScratchDir::new("arch-whereabouts");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        let (s, a, b) = (SubjectId(1), LocationId(2), LocationId(3));
        let run = |stays: &[(LocationId, u64, u64)]| PrunedHistory {
            stays: stays
                .iter()
                .map(|&(location, enter, exit)| {
                    let (enter, exit) = (Time(enter), Some(Time(exit)));
                    (
                        s,
                        Stay {
                            location,
                            enter,
                            exit,
                        },
                    )
                })
                .collect(),
            ..PrunedHistory::default()
        };
        // Three stays hold chronon 10 (an exit and two same-chronon
        // re-entries); the second run brings a zero-length stay at 20
        // and a late-arriving one that predates its own segment.
        let first = [(a, 5, 10), (a, 10, 10), (b, 10, 20)];
        store.append_run(0, 50, &run(&first)).unwrap();
        let second = [(a, 20, 20), (b, 30, 40), (a, 60, 70)];
        store.append_run(50, 100, &run(&second)).unwrap();
        let data = store.load().unwrap();
        let at = |t, applied_below| tiers(&data, applied_below, |r| r.whereabouts(s, Time(t)));
        for (t, want) in [
            (4, None),
            (7, Some(a)),  // hit
            (10, Some(b)), // the latest of the three
            (20, Some(a)), // likewise, across segments
            (25, None),    // miss: outside between stays
            (35, Some(b)), // the late arrival
            (45, None),
            (65, Some(a)),
            (71, None), // miss: after the last stay
        ] {
            assert_eq!(at(t, Time::MAX), want, "t={t}");
        }
        // With the second segment stranded its rows are skipped, not
        // mistaken for the stay that ends the search.
        assert_eq!(at(20, Time(50)), Some(b));
        assert_eq!(at(35, Time(50)), None);
        assert_eq!(at(65, Time(50)), None);
    }

    #[test]
    fn crash_repeated_runs_replace_without_duplicating() {
        let dir = ScratchDir::new("arch-idempotent");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        let upto50 = history(&[(5, 10), (20, 30)]);
        assert!(store.append_run(0, 50, &upto50).unwrap().is_some());
        // Crash-repeat at the same horizon: the stranded segment is
        // replaced by an identical one (live state may have gained
        // records since the stranded write, so the rewrite is never
        // skipped) — still exactly one copy of everything.
        assert!(store.append_run(0, 50, &upto50).unwrap().is_some());
        assert_eq!(store.load().unwrap().stays_of(SubjectId(1)).len(), 2);
        // An empty advance writes nothing.
        assert_eq!(store.append_run(50, 50, &upto50).unwrap(), None);
        // Crash-repeat flavor 2: the prune never applied (watermark
        // still 0), the repeated run collected a superset — including a
        // LATE-ARRIVING stay whose timestamps precede the stranded
        // segment's end — and advances further. The same-start segment
        // is replaced; nothing is lost or duplicated.
        let superset = history(&[(5, 10), (20, 30), (12, 15), (60, 70)]);
        let r = store.append_run(0, 100, &superset).unwrap().unwrap();
        assert_eq!((r.from, r.to), (0, 100));
        assert_eq!(r.records, 8, "all four stays travel in the replacement");
        let data = store.load().unwrap();
        assert_eq!(data.covered_to, 100);
        assert_eq!(data.stays_of(SubjectId(1)).len(), 4, "no duplicates");
        assert_eq!(data.violations.len(), 4);
        // Exactly one segment file remains.
        let files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".arch"))
            .count();
        assert_eq!(files, 1);
    }

    #[test]
    fn a_stranded_superseded_segment_is_ignored_by_readers() {
        let dir = ScratchDir::new("arch-stranded");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        // Keep a copy of the soon-to-be-superseded segment, as a crash
        // between replacement-write and stale-delete would.
        let old = segment_path(dir.path(), 0, 50);
        let bytes = std::fs::read(&old).unwrap();
        store
            .append_run(0, 80, &history(&[(5, 10), (20, 30)]))
            .unwrap();
        std::fs::write(&old, &bytes).unwrap(); // the crash strands it
        assert_eq!(store.coverage_end().unwrap(), 80);
        let data = store.load().unwrap();
        assert_eq!(data.covered_to, 80);
        assert_eq!(data.stays_of(SubjectId(1)).len(), 2, "superset wins, once");
        // The next run cleans the stranded file up.
        store
            .append_run(0, 90, &history(&[(5, 10), (20, 30)]))
            .unwrap();
        let files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".arch"))
            .count();
        assert_eq!(files, 1);
    }

    #[test]
    fn records_at_or_past_the_horizon_are_never_archived() {
        let dir = ScratchDir::new("arch-upper");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        // The (60, 70) stay is still live at horizon 50; only the two
        // earlier stays (and their records) are archived.
        let r = store
            .append_run(0, 50, &history(&[(5, 10), (20, 30), (60, 70)]))
            .unwrap()
            .unwrap();
        assert_eq!(r.records, 4);
        assert_eq!(store.load().unwrap().stays_of(SubjectId(1)).len(), 2);
    }

    #[test]
    fn empty_runs_keep_coverage_contiguous() {
        let dir = ScratchDir::new("arch-empty");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store
            .append_run(0, 10, &PrunedHistory::default())
            .unwrap()
            .unwrap();
        store
            .append_run(10, 20, &PrunedHistory::default())
            .unwrap()
            .unwrap();
        assert_eq!(store.coverage_end().unwrap(), 20);
        assert_eq!(store.load().unwrap().covered_to, 20);
    }

    #[test]
    fn corrupt_segment_fails_loudly_not_silently() {
        let dir = ScratchDir::new("arch-corrupt");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        let seg = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".arch"))
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = store.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("refusing"), "{err}");
        // Truncation is caught too.
        std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load().is_err());
    }

    fn segment_path(dir: &Path, from: u64, to: u64) -> PathBuf {
        dir.join(segment_file_name(from, to))
    }

    /// A segment as written before the events block went empty: the
    /// records block as today, and each stay's enter and exit events in
    /// the events block ahead of it, all under one CRC.
    fn segment_with_events(history: &PrunedHistory, from: u64, to: u64) -> Vec<u8> {
        let mut events = Vec::new();
        for &(subject, stay) in &history.stays {
            let (time, location) = (stay.enter, stay.location);
            let enter = Event::Enter {
                time,
                subject,
                location,
            };
            encode_event(&enter, &mut events);
            let time = stay.exit.expect("archived stays are closed");
            let exit = Event::Exit {
                time,
                subject,
                location,
            };
            encode_event(&exit, &mut events);
        }
        let records = binval::encode(&ArchiveRecords {
            stays: history.stays.clone(),
            audit: history.audit.clone(),
            violations: history.violations.clone(),
        });
        let dir = ScratchDir::new("arch-with-events");
        let fields = [from, to, events.len() as u64];
        let written = whole::write_atomic(dir.path(), &SEGMENT, "old", &fields, false, |sink| {
            sink(&events);
            sink(&records);
        });
        std::fs::read(written.unwrap().path).unwrap()
    }

    #[test]
    fn a_segment_with_an_events_block_loads_like_one_without() {
        let history = history(&[(5, 10), (20, 30), (12, 40)]);
        let (old_dir, new_dir) = (ScratchDir::new("arch-old"), ScratchDir::new("arch-new"));
        let old = ArchiveStore::with_fsync(old_dir.path(), false);
        let new = ArchiveStore::with_fsync(new_dir.path(), false);
        let seg = segment_path(old_dir.path(), 0, 50);
        let bytes = segment_with_events(&history, 0, 50);
        std::fs::write(&seg, &bytes).unwrap();
        new.append_run(0, 50, &history).unwrap();
        let written = std::fs::read(segment_path(new_dir.path(), 0, 50)).unwrap();
        // Today's segment: the same header but for an empty events block
        // and the CRC, and the same records block byte for byte.
        let events_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        assert!(events_len > 0);
        assert_eq!(written[..24], bytes[..24]);
        assert_eq!(written[24..32], [0; 8]);
        assert_eq!(written[32..40], bytes[32..40]);
        assert_eq!(
            written[ARCHIVE_HEADER_LEN..],
            bytes[ARCHIVE_HEADER_LEN + events_len..]
        );
        assert_eq!(old.load().unwrap(), new.load().unwrap());
        // Skipping the block's decode skips none of its integrity check:
        // one flipped bit inside it fails the CRC.
        let mut rotten = bytes.clone();
        rotten[ARCHIVE_HEADER_LEN + events_len / 2] ^= 0x10;
        std::fs::write(&seg, &rotten).unwrap();
        let err = old.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn other_format_versions_are_refused_outright() {
        let dir = ScratchDir::new("arch-version");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        let seg = segment_path(dir.path(), 0, 50);
        let good = std::fs::read(&seg).unwrap();
        // No legacy reader: a v1 (JSON records block) segment — or any
        // future version — is refused on its header alone.
        for version in [0u16, 1, ARCHIVE_VERSION + 1] {
            let mut bytes = good.clone();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&seg, &bytes).unwrap();
            let err = store.load().unwrap_err();
            assert!(err.to_string().contains("format version"), "{err}");
        }
        std::fs::write(&seg, &good).unwrap();
        assert!(store.load().is_ok());
    }

    #[test]
    fn lazy_archive_loads_only_touched_segments() {
        let dir = ScratchDir::new("arch-lazy");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        store.append_run(50, 100, &history(&[(60, 70)])).unwrap();
        store.append_run(100, 150, &history(&[(110, 120)])).unwrap();

        let mut lazy = LazyArchive::new();
        assert_eq!(lazy.coverage_end(&store).unwrap(), 150);
        assert_eq!(lazy.segments_loaded(), 0, "coverage is a directory listing");

        // A query reaching down to t=110 touches only the last segment.
        let view = lazy.view_for(&store, Time(110), Time::MAX).unwrap();
        let loc = tiers(view, Time::MAX, |r| r.whereabouts(SubjectId(1), Time(115)));
        assert_eq!(loc, Some(LocationId(2)));
        assert_eq!(lazy.segments_loaded(), 1);

        // Reaching down to t=55 adds the middle one — never the first.
        lazy.view_for(&store, Time(55), Time::MAX).unwrap();
        assert_eq!(lazy.segments_loaded(), 2);

        // A whole-history query loads everything; the merged view then
        // answers across segments.
        let stays = lazy
            .view_for(&store, Time::ZERO, Time::MAX)
            .unwrap()
            .stays_of(SubjectId(1))
            .len();
        assert_eq!(stays, 3);
        assert_eq!(lazy.segments_loaded(), 3);

        // Stranded segments (start at or past the watermark)
        // never load: their records live in the live tier.
        let mut cold = LazyArchive::new();
        cold.view_for(&store, Time::ZERO, Time(100)).unwrap();
        assert_eq!(cold.segments_loaded(), 2);

        // A retention run appending [150, 200) leaves a queried cache's
        // payloads alone: the rescan finds the new segment and the next
        // query loads only that one.
        store.append_run(150, 200, &history(&[(160, 170)])).unwrap();
        lazy.chain_changed(150);
        assert_eq!(lazy.segments_loaded(), 3);
        assert_eq!(lazy.coverage_end(&store).unwrap(), 200);
        let view = lazy.view_for(&store, Time::ZERO, Time::MAX).unwrap();
        assert_eq!(view.stays_of(SubjectId(1)).len(), 4);
        assert_eq!(lazy.segments_loaded(), 4);

        // A run that rewrites a loaded segment (a crash-repeated run
        // replacing the one it stranded) drops everything…
        store.append_run(150, 250, &history(&[(160, 170)])).unwrap();
        lazy.chain_changed(150);
        assert_eq!(lazy.segments_loaded(), 0);
        // …and so does a run nobody queried since the last one: a store
        // that is only written to holds no archive in memory.
        lazy.view_for(&store, Time::ZERO, Time::MAX).unwrap();
        lazy.chain_changed(250);
        assert_eq!(lazy.segments_loaded(), 4);
        lazy.chain_changed(250);
        assert_eq!(lazy.segments_loaded(), 0);
    }

    #[test]
    fn lazy_archive_never_misses_late_arriving_records() {
        let dir = ScratchDir::new("arch-lazy-late");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        // The (20, 30) stay arrived late: it was pruned by the run that
        // advanced [50, 100), so it lives in that segment despite its
        // timestamps sitting below 50.
        store
            .append_run(50, 100, &history(&[(20, 30), (60, 70)]))
            .unwrap();
        let mut lazy = LazyArchive::new();
        // A query at t=25 must load the [50, 100) segment too — the
        // selection rule keys on each segment's *end* (records are
        // bounded above by it, not below by its start).
        let view = lazy.view_for(&store, Time(25), Time::MAX).unwrap();
        let loc = tiers(view, Time::MAX, |r| r.whereabouts(SubjectId(1), Time(25)));
        assert_eq!(loc, Some(LocationId(2)), "late-arriving stay found");
        assert_eq!(lazy.segments_loaded(), 2);
    }

    #[test]
    fn lazy_archive_fails_loudly_only_when_a_touched_segment_is_corrupt() {
        let dir = ScratchDir::new("arch-lazy-corrupt");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        store.append_run(50, 100, &history(&[(60, 70)])).unwrap();
        // Rot the FIRST segment.
        let seg = segment_path(dir.path(), 0, 50);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let mut lazy = LazyArchive::new();
        // Recent queries never touch the rotten segment and still work…
        assert!(lazy.view_for(&store, Time(60), Time::MAX).is_ok());
        // …but a query that needs it refuses rather than under-report.
        let err = lazy.view_for(&store, Time(5), Time::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_deleted_segment_is_a_detected_gap() {
        let dir = ScratchDir::new("arch-gap");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 10, &history(&[(1, 2)])).unwrap();
        store.append_run(10, 20, &history(&[(12, 15)])).unwrap();
        std::fs::remove_file(segment_path(dir.path(), 0, 10)).unwrap();
        let err = store.coverage_end().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("coverage gap"), "{err}");
    }
}
