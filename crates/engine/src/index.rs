//! One history index for both tiers.
//!
//! Live state ([`crate::movement::MovementsDb`], [`crate::shard::ShardState`])
//! and `ltam-store`'s archive answer "where was s at t", "who was in l
//! during w", §1's contact trace and the violation report through what is
//! here: [`whereabouts`] and [`stays_overlapping`] over one subject's
//! chronological stays, a [`HistoryIndex`] of every location's closed
//! stays, a [`ByTime`] view of a violation list, and the one [`contacts`]
//! join. A row carries its [`Provenance`], and a reader counts only the
//! rows applied at its live watermark.
//!
//! Each ordered structure is a [`Run`]: rows are appended as they arrive
//! and the next reader sorts them in. Sensor clocks are only per-subject
//! monotone, so exits and detections arrive out of time order, and
//! keeping the rows sorted on the write path would cost every ingest a
//! search and a shift. Like any derived state the index is built by
//! readers, never serialized, cloned or compared.

use crate::movement::{Contact, Stay};
use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::{Bound, Interval, Time};
use std::collections::BTreeMap;

/// Where an indexed row came from: `()` for live state, the start of its
/// segment for an archived row.
pub trait Provenance: Copy + Ord {
    /// Whether the row counts for a reader whose live watermark is
    /// `live_from`.
    fn applied(self, live_from: Time) -> bool;
}

impl Provenance for () {
    fn applied(self, _: Time) -> bool {
        true
    }
}

/// An archived row counts only if its segment's prune was applied: such a
/// segment starts below the watermark the apply advanced, while a
/// *stranded* one (its run crashed before the snapshot that persists the
/// prune) starts at the live watermark, and recovery has put all of its
/// records — late arrivals with earlier timestamps too — back in live state.
impl Provenance for u64 {
    fn applied(self, live_from: Time) -> bool {
        self < live_from.get()
    }
}

/// Rows appended in any order and put in order when read.
#[derive(Debug, PartialEq)]
pub struct Run<R> {
    rows: Vec<R>,
    /// The rows are in order up to here.
    sorted: usize,
}

impl<R> Default for Run<R> {
    fn default() -> Self {
        Run {
            rows: Vec::new(),
            sorted: 0,
        }
    }
}

impl<R: Copy> Run<R> {
    /// Append a row; the next sort puts it in place.
    pub fn push(&mut self, row: R) {
        self.rows.push(row);
    }

    /// The rows, in order: read after a sort.
    pub fn rows(&self) -> &[R] {
        debug_assert_eq!(
            self.sorted,
            self.rows.len(),
            "a run is sorted before it is read"
        );
        &self.rows
    }

    /// Sort the appended tail in by `key`, stably. Rows arrive roughly in
    /// order, so only the run from where the earliest new row lands is
    /// re-sorted.
    pub fn sort_in_by_key<K: Ord>(&mut self, key: impl Fn(R) -> K) {
        let (head, tail) = self.rows.split_at(self.sorted);
        if let Some(first) = tail.iter().map(|&r| key(r)).min() {
            let lo = head.partition_point(|&r| key(r) <= first);
            self.rows[lo..].sort_by_key(|&r| key(r));
        }
        self.sorted = self.rows.len();
    }
}

impl<R: Copy + Ord> Run<R> {
    /// Sort the appended tail in.
    pub fn sort_in(&mut self) {
        self.sort_in_by_key(|r| r);
    }
}

/// A by-time view of a violation list: `(time, position)` rows, so ties
/// keep the list's order.
pub type ByTime = Run<(Time, usize)>;

impl ByTime {
    /// The view of a list whose rows have these times, unsorted.
    pub fn of(times: impl Iterator<Item = Time>) -> ByTime {
        let mut view = ByTime::default();
        times.enumerate().for_each(|(i, t)| view.push((t, i)));
        view
    }

    /// The rows of `list` this view places inside `window`, by time; each
    /// is added to `examined`.
    pub fn pick<'a, T>(
        &'a self,
        list: &'a [T],
        window: Interval,
        examined: &mut u64,
    ) -> impl Iterator<Item = &'a T> {
        let rows = self.rows();
        let lo = rows.partition_point(|&(t, _)| t < window.start());
        let hi = rows.partition_point(|&(t, _)| window.end().admits(t));
        let rows = &rows[lo..hi.max(lo)];
        *examined += rows.len() as u64;
        rows.iter().map(move |&(_, i)| &list[i])
    }
}

/// Every location's closed stays, as `(enter, exit, subject, provenance)`
/// rows in that order, beside `exit − enter` of the longest: nothing
/// entered before `t − longest` can still be inside at `t`. That bound only
/// grows, so one very long stay makes its location's reads walk further —
/// never answer wrongly.
#[derive(Debug, Default)]
pub struct HistoryIndex<P> {
    locations: BTreeMap<LocationId, (Run<Row<P>>, u64)>,
}

/// `(enter, exit, subject, provenance)` of one closed stay.
type Row<P> = (Time, Time, SubjectId, P);

impl<P: Provenance> HistoryIndex<P> {
    /// File `subject`'s stay if it is closed (an open one is found through
    /// its location's occupants).
    pub fn push(&mut self, subject: SubjectId, stay: &Stay, from: P) {
        if let Some(exit) = stay.exit {
            let (run, longest) = self.locations.entry(stay.location).or_default();
            *longest = (*longest).max(exit.get().saturating_sub(stay.enter.get()));
            run.push((stay.enter, exit, subject, from));
        }
    }

    /// Sort in the stays pushed in `location` since its last read.
    pub fn sort_in(&mut self, location: LocationId) {
        if let Some((run, _)) = self.locations.get_mut(&location) {
            run.sort_in();
        }
    }

    /// The stays in `location` that overlap `window` and count at
    /// `live_from`, clipped to it, appended to `out`; each stay walked is
    /// added to `examined`.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
        live_from: Time,
        examined: &mut u64,
        out: &mut Vec<(SubjectId, Interval)>,
    ) {
        let Some((run, longest)) = self.locations.get(&location) else {
            return;
        };
        let reach = window.start().get().saturating_sub(*longest);
        let rows = run.rows();
        let lo = rows.partition_point(|r| r.0.get() < reach);
        for &(enter, exit, subject, from) in
            rows[lo..].iter().take_while(|r| window.end().admits(r.0))
        {
            *examined += 1;
            if from.applied(live_from) {
                let stay = Interval::new(enter, Bound::At(exit)).expect("exit >= enter");
                out.extend(stay.intersect(window).map(|i| (subject, i)));
            }
        }
    }
}

/// The rows among `rows` that overlap `window`, for rows holding one
/// subject's stays in order: chronological, so with exits that never
/// decrease (an open stay is the last), which makes the overlapping ones a
/// contiguous slice two binary searches find.
pub fn stays_overlapping<T>(rows: &[T], stay: impl Fn(&T) -> Stay, window: Interval) -> &[T] {
    let lo = rows.partition_point(|r| matches!(stay(r).exit, Some(e) if e < window.start()));
    let hi = rows.partition_point(|r| window.end().admits(stay(r).enter));
    &rows[lo..hi.max(lo)]
}

/// Where the subject whose chronological rows these are was at `t`: in the
/// latest row entered by `t` that counts at `live_from`, if it holds `t` —
/// exits never decrease, so if it had ended, so had every earlier one.
pub fn whereabouts<T, P: Provenance>(
    rows: &[T],
    row: impl Fn(&T) -> (P, Stay),
    t: Time,
    live_from: Time,
) -> Option<LocationId> {
    let entered = rows.partition_point(|r| row(r).1.enter <= t);
    let (_, stay) = rows[..entered]
        .iter()
        .map(row)
        .rev()
        .find(|(from, _)| from.applied(live_from))?;
    stay.interval().contains(t).then_some(stay.location)
}

/// The contact join (§1's SARS trace): for each of `subject`'s `stays`,
/// everyone else `present` in its location during its part of `window`,
/// by `(other, start)`.
pub fn contacts(
    subject: SubjectId,
    window: Interval,
    stays: &[Stay],
    mut present: impl FnMut(LocationId, Interval) -> Vec<(SubjectId, Interval)>,
) -> Vec<Contact> {
    let mut out = Vec::new();
    for s in stays {
        let Some(exposure) = s.interval().intersect(window) else {
            continue;
        };
        for (other, overlap) in present(s.location, exposure) {
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

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: SubjectId = SubjectId(0);
    const BOB: SubjectId = SubjectId(1);
    const CAIS: LocationId = LocationId(10);
    const GO: LocationId = LocationId(11);

    fn stay(location: LocationId, enter: u64, exit: u64) -> Stay {
        Stay {
            location,
            enter: Time(enter),
            exit: Some(Time(exit)),
        }
    }

    #[test]
    fn a_run_sorts_its_tail_in_and_a_keyed_run_keeps_ties_in_arrival_order() {
        let mut run = Run::default();
        for r in [(5, 'a'), (9, 'b'), (7, 'c')] {
            run.push(r);
        }
        run.sort_in();
        assert_eq!(run.rows(), [(5, 'a'), (7, 'c'), (9, 'b')]);
        run.push((6, 'd'));
        run.sort_in();
        assert_eq!(run.rows(), [(5, 'a'), (6, 'd'), (7, 'c'), (9, 'b')]);
        let mut keyed = Run::default();
        for r in [(1, 'x'), (0, 'y'), (1, 'a')] {
            keyed.push(r);
        }
        keyed.sort_in_by_key(|(k, _)| k);
        keyed.push((0, 'z'));
        keyed.sort_in_by_key(|(k, _)| k);
        assert_eq!(keyed.rows(), [(0, 'y'), (0, 'z'), (1, 'x'), (1, 'a')]);
    }

    #[test]
    fn a_by_time_view_holds_both_window_ends_and_keeps_ties_in_list_order() {
        let list = [
            (Time(5), 'a'),
            (Time(3), 'b'),
            (Time(5), 'c'),
            (Time(8), 'd'),
        ];
        let mut view = ByTime::of(list.iter().map(|&(t, _)| t));
        view.sort_in();
        let mut examined = 0;
        let window = Interval::lit(3, 5);
        let got: Vec<char> = view
            .pick(&list, window, &mut examined)
            .map(|r| r.1)
            .collect();
        assert_eq!(got, ['b', 'a', 'c']);
        assert_eq!(examined, 3);
        let later = view.pick(&list, Interval::from_start(6), &mut examined);
        assert_eq!(later.map(|r| r.1).collect::<Vec<_>>(), ['d']);
    }

    #[test]
    fn only_a_segment_below_the_live_watermark_counts() {
        assert!(().applied(Time::ZERO));
        assert!(9u64.applied(Time(10)));
        assert!(!10u64.applied(Time(10)), "a stranded segment starts at it");
    }

    #[test]
    fn whereabouts_is_the_latest_counted_row_entered_by_t_if_it_holds_t() {
        let rows = [
            (0u64, stay(CAIS, 5, 10)),
            (0, stay(GO, 10, 10)),
            (20, stay(CAIS, 20, 30)),
        ];
        let at = |t, live_from| whereabouts(&rows, |&r| r, Time(t), Time(live_from));
        assert_eq!(at(7, 99), Some(CAIS));
        assert_eq!(at(10, 99), Some(GO), "the latest of two rows holding 10");
        assert_eq!(at(15, 99), None, "between stays");
        assert_eq!(at(25, 99), Some(CAIS));
        assert_eq!(at(25, 20), None, "the row's segment is stranded");
        assert_eq!(at(31, 99), None, "after the last stay");
    }

    #[test]
    fn the_contact_join_leaves_the_subject_out() {
        let mine = [stay(CAIS, 0, 10), stay(GO, 20, 30)];
        let got = contacts(ALICE, Interval::lit(5, 25), &mine, |_, w| {
            vec![(ALICE, w), (BOB, w)]
        });
        let want = [(CAIS, Interval::lit(5, 10)), (GO, Interval::lit(20, 25))];
        assert_eq!(got.len(), 2);
        for (c, (location, overlap)) in got.iter().zip(want) {
            assert_eq!((c.other, c.location, c.overlap), (BOB, location, overlap));
        }
    }

    #[test]
    fn presence_walks_back_by_the_longest_stay_and_holds_the_window_end() {
        let mut index = HistoryIndex::default();
        // Out of time order, as exits arrive: Bob's visits, then Alice's
        // long stay.
        for i in (0..10).rev() {
            index.push(BOB, &stay(CAIS, 200 + 10 * i, 202 + 10 * i), ());
        }
        index.push(ALICE, &stay(CAIS, 0, 100), ());
        index.push(
            ALICE,
            &Stay {
                exit: None,
                ..stay(CAIS, 300, 0)
            },
            (),
        );
        index.sort_in(CAIS);
        let ask = |window| {
            let (mut out, mut examined) = (Vec::new(), 0);
            index.present_during(CAIS, window, Time::MAX, &mut examined, &mut out);
            (out, examined)
        };
        assert_eq!(
            ask(Interval::lit(95, 96)),
            (vec![(ALICE, Interval::lit(95, 96))], 1)
        );
        let (rows, _) = ask(Interval::lit(150, 200));
        assert_eq!(rows, [(BOB, Interval::lit(200, 200))], "entered at the end");
        let (rows, examined) = ask(Interval::from_start(285));
        assert_eq!(
            rows,
            [(BOB, Interval::lit(290, 292))],
            "the open stay is not filed"
        );
        assert_eq!(examined, 10, "a longest of 100 reaches back to 185");
        let mut archived = HistoryIndex::default();
        archived.push(ALICE, &stay(GO, 0, 5), 10u64);
        archived.sort_in(GO);
        for (live_from, want) in [(10, 0), (11, 1)] {
            let mut out = Vec::new();
            archived.present_during(GO, Interval::ALL, Time(live_from), &mut 0, &mut out);
            assert_eq!(out.len(), want, "live watermark {live_from}");
        }
    }
}
