//! Tier-aware historical queries: live state within the retention
//! horizon, transparently merged with archive reads beyond it.
//!
//! The merge is sound because retention partitions history cleanly: a
//! stay (or audit record, or violation) lives in **exactly one** tier —
//! it is pruned to the archive only when it can no longer intersect the
//! live window (a stay's *exit* precedes the watermark), and a stay
//! straddling the watermark stays live. One crash window breaks the
//! partition: between a run's archive-write and the snapshot that
//! persists its prune, recovery resurrects the stranded segment's
//! records into live state while the archive also holds them. The
//! merges therefore filter the archive side by **segment provenance**:
//! a record counts only if its segment starts below the live
//! watermark — applied segments always do, while a stranded segment
//! starts exactly at the watermark and its contents
//! (including late-arriving records whose *timestamps* sit below the
//! watermark) are counted from the live side only. In steady state the
//! filter is vacuous. Union-then-sort then reproduces exactly what an
//! unpruned engine would answer; the workspace's
//! `retention_equivalence` test asserts this on a 100k-event trace
//! with a mid-trace crash.
//!
//! When the merge *cannot* be sound — the query dips below the
//! watermark and the archive does not reach it (segments deleted, or
//! retention ran without archiving) — the entry points refuse with
//! [`HistoryError::Unarchived`] instead of under-reporting. For the
//! paper's SARS contact-tracing motivation a silently shortened contact
//! list is the worst failure mode; an error the operator can see is the
//! correct one.

use crate::archive::ArchiveData;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::ShardedEngine;
use ltam_engine::movement::{Contact, Stay};
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_time::{Interval, Time};
use std::fmt;
use std::io;

/// Why a tier-aware historical query could not answer.
#[derive(Debug)]
pub enum HistoryError {
    /// The query needs history that was pruned from live state but is
    /// not in the archive — answering from what remains would silently
    /// under-report, so the query refuses instead.
    Unarchived {
        /// The earliest chronon the query needs.
        requested: Time,
        /// Archive coverage end (exclusive); 0 for no archive at all.
        archived_to: u64,
        /// The chronon live history is complete from.
        live_from: Time,
    },
    /// The archive tier could not be read (missing, gappy, or corrupt
    /// segments — the underlying error says which).
    Io(io::Error),
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Unarchived {
                requested,
                archived_to,
                live_from,
            } => write!(
                f,
                "query needs history at t={requested}, but live history starts at t={live_from} \
                 and the archive covers only [0, {archived_to}); the gap was discarded without \
                 archiving — refusing to answer rather than under-report"
            ),
            HistoryError::Io(e) => write!(f, "archive tier unreadable: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<io::Error> for HistoryError {
    fn from(e: io::Error) -> Self {
        HistoryError::Io(e)
    }
}

/// What a tier-aware query reads: live state, the archive view when the
/// query reaches below the live watermark, and that
/// watermark — read once per query, and the bound the archive side is
/// provenance-filtered at (see the module docs). The queries add the
/// rows they looked at, in either tier, to `examined`.
#[derive(Debug, Clone, Copy)]
pub struct Tiers<'a> {
    /// Live state.
    pub engine: &'a ShardedEngine,
    /// The archive view, if the query needs one.
    pub archive: Option<&'a ArchiveData>,
    /// The live watermark.
    pub live_from: Time,
}

impl Tiers<'_> {
    /// Tier-merged whereabouts. Live answers win (a live stay straddling
    /// the watermark is the latest stay that can contain `t`); the
    /// archive answers only when live state has no stay containing `t`.
    pub fn whereabouts(&self, subject: SubjectId, t: Time) -> Option<LocationId> {
        let shard = self.engine.shard_for(subject);
        self.engine
            .read_shard(shard, |st| st.movements().whereabouts(subject, t))
            .or_else(|| {
                self.archive
                    .and_then(|a| a.whereabouts(subject, t, self.live_from))
            })
    }

    /// Tier-merged presence rows, clipped to `window` and sorted by
    /// `(subject, start)` — the same contract as the live query.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
        examined: &mut u64,
    ) -> Vec<(SubjectId, Interval)> {
        let mut out = self
            .archive
            .map(|a| a.present_during(location, window, self.live_from, examined))
            .unwrap_or_default();
        for shard in 0..self.engine.shard_count() {
            out.extend(self.engine.read_shard(shard, |st| {
                st.movements()
                    .present_during_counting(location, window, examined)
            }));
        }
        out.sort_by_key(|&(s, i)| (s, i.start()));
        out
    }

    /// Tier-merged contact tracing: the subject's archived + live stays
    /// drive the same co-location join
    /// [`MovementsDb::contacts`](ltam_engine::movement::MovementsDb::contacts)
    /// runs, with each exposure's presence lookup itself tier-merged.
    pub fn contacts(
        &self,
        subject: SubjectId,
        window: Interval,
        examined: &mut u64,
    ) -> Vec<Contact> {
        let archived = self
            .archive
            .map_or(&[][..], |a| a.stays_during(subject, window));
        let mut stays: Vec<Stay> = archived
            .iter()
            .filter(|&&(seg_from, _)| seg_from < self.live_from.get())
            .map(|&(_, s)| s)
            .collect();
        // One shard holds all of the subject's live stays.
        self.engine
            .read_shard(self.engine.shard_for(subject), |st| {
                stays.extend(st.movements().stays_during(subject, window))
            });
        *examined += stays.len() as u64;
        let mut out = Vec::new();
        for s in &stays {
            let exposure = s.interval().intersect(window).expect("stay overlaps");
            for (other, overlap) in self.present_during(s.location, exposure, examined) {
                if other != subject {
                    out.push(Contact {
                        other,
                        location: s.location,
                        overlap,
                    });
                }
            }
        }
        out.sort_by_key(|c| (c.other, c.overlap.start()));
        out
    }

    /// Tier-merged violation report over `window` (archived first, by
    /// time, then live in shard order, detection order within a shard;
    /// compare as a multiset).
    pub fn violations_in(&self, window: Interval, examined: &mut u64) -> Vec<Violation> {
        let mut out = self
            .archive
            .map(|a| a.violations_in(window, self.live_from, examined))
            .unwrap_or_default();
        // Filter under each shard's lock and copy only the rows in the
        // window — not a clone of every live violation per query.
        for shard in 0..self.engine.shard_count() {
            self.engine.read_shard(shard, |st| {
                *examined += st.violations().len() as u64;
                out.extend(
                    st.violations()
                        .iter()
                        .filter(|v| window.contains(v.time()))
                        .copied(),
                )
            });
        }
        out
    }
}
