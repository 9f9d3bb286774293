//! Tier-aware historical queries: live state within the retention
//! horizon, transparently merged with archive reads beyond it.
//!
//! Both tiers answer through the one history index
//! ([`ltam_engine::index`]), so a merged query is the same call on each
//! tier, then a union. The union is sound because retention partitions
//! history cleanly: a stay (or audit record, or violation) lives in
//! **exactly one** tier — it is pruned to the archive only when it can no
//! longer intersect the live window (a stay's *exit* precedes the
//! watermark), and a stay straddling the watermark stays live. One crash
//! window breaks the partition, a segment stranded between its
//! archive-write and the snapshot that persists its prune; the archive
//! side is filtered by segment provenance
//! ([`ltam_engine::index::Provenance`]) so those records count from the
//! live side only. The workspace's `retention_equivalence` test asserts
//! the union equals an unpruned engine's answers on a 100k-event trace
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
use ltam_engine::index::{contacts, stays_overlapping, whereabouts, Provenance};
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
            .or_else(|| whereabouts(self.archive?.stays_of(subject), |&r| r, t, self.live_from))
    }

    /// Tier-merged presence rows, clipped to `window` and sorted by
    /// `(subject, start)` — the same contract as the live query.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
        examined: &mut u64,
    ) -> Vec<(SubjectId, Interval)> {
        let mut out = Vec::new();
        if let Some(a) = self.archive {
            a.index
                .present_during(location, window, self.live_from, examined, &mut out);
        }
        for shard in 0..self.engine.shard_count() {
            out.extend(self.engine.read_shard(shard, |st| {
                st.movements()
                    .present_during_counting(location, window, examined)
            }));
        }
        out.sort_by_key(|&(s, i)| (s, i.start()));
        out
    }

    /// Tier-merged contact tracing: the subject's applied archived and
    /// live stays drive the one contact join, each exposure's presence
    /// lookup itself tier-merged.
    pub fn contacts(
        &self,
        subject: SubjectId,
        window: Interval,
        examined: &mut u64,
    ) -> Vec<Contact> {
        let archived = self.archive.map_or(&[][..], |a| a.stays_of(subject));
        let mut stays: Vec<Stay> = stays_overlapping(archived, |&(_, s)| s, window)
            .iter()
            .filter(|(from, _)| from.applied(self.live_from))
            .map(|&(_, s)| s)
            .collect();
        // One shard holds all of the subject's live stays.
        self.engine
            .read_shard(self.engine.shard_for(subject), |st| {
                stays.extend(st.movements().stays_during(subject, window))
            });
        *examined += stays.len() as u64;
        contacts(subject, window, &stays, |l, w| {
            self.present_during(l, w, examined)
        })
    }

    /// Tier-merged violation report over `window`: archived first, then
    /// live in shard order, each by time with ties in stored (archive) or
    /// detection (live) order; compare as a multiset.
    pub fn violations_in(&self, window: Interval, examined: &mut u64) -> Vec<Violation> {
        let mut out = Vec::new();
        if let Some(a) = self.archive {
            let rows = a.by_time.pick(&a.violations, window, examined);
            out.extend(
                rows.filter(|(from, _)| from.applied(self.live_from))
                    .map(|&(_, v)| v),
            );
        }
        for shard in 0..self.engine.shard_count() {
            out.extend(
                self.engine
                    .read_shard(shard, |st| st.violations_in(window, examined)),
            );
        }
        out
    }
}
