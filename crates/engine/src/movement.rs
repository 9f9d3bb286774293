//! The location & movements database (Figure 3).
//!
//! "The location & movements database stores the location layout, as well
//! as users' movements. These data are then used for authorization
//! validation, system status checking, etc."
//!
//! A movement is stored once, as a *stay*: an entry opens one on the
//! subject's timeline and the matching exit closes it. The store keeps
//! **one row per subject** — its timeline (the whole recorded history),
//! its latest-time guard and its place in an occupant list — and one
//! unordered occupant list per location; [`MovementsDb`] has what an
//! event costs. The historical queries (`where was s at t`, `who was in
//! l during w`, the contact tracing of the paper's SARS motivation) read
//! the timelines and the occupant lists through the history index both
//! tiers share ([`crate::index`]). The raw enter/exit stream is the
//! write-ahead log's, not this store's.

use crate::index::{self, stays_overlapping, HistoryIndex};
use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_obs::locked;
use ltam_time::{Bound, Interval, Time};
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Mutex;

/// A contiguous presence of a subject in one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stay {
    /// The location.
    pub location: LocationId,
    /// Entry time.
    pub enter: Time,
    /// Exit time; `None` while the stay is ongoing.
    pub exit: Option<Time>,
}

impl Stay {
    /// The stay as a closed interval (open stays extend to `∞`).
    pub fn interval(&self) -> Interval {
        match self.exit {
            Some(e) => Interval::new(self.enter, Bound::At(e)).expect("exit >= enter"),
            None => Interval::from_start(self.enter),
        }
    }
}

/// A co-location record returned by contact queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Contact {
    /// The other subject.
    pub other: SubjectId,
    /// Where the contact happened.
    pub location: LocationId,
    /// The shared presence interval.
    pub overlap: Interval,
}

/// Physically impossible movement sequences are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovementError {
    /// Event time precedes the subject's latest event.
    TimeRegression {
        /// The subject's latest recorded time.
        latest: Time,
        /// The offending event time.
        event: Time,
    },
    /// Enter while the subject is already inside some location.
    EnterWhileInside {
        /// Where the subject currently is.
        at: LocationId,
    },
    /// Exit from a location the subject is not in.
    ExitWithoutEntry {
        /// Where the subject actually is, if anywhere.
        at: Option<LocationId>,
    },
}

impl fmt::Display for MovementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MovementError::TimeRegression { latest, event } => {
                write!(f, "event at {event} precedes latest record {latest}")
            }
            MovementError::EnterWhileInside { at } => {
                write!(f, "enter while already inside {at}")
            }
            MovementError::ExitWithoutEntry { at } => match at {
                Some(l) => write!(f, "exit from wrong location (currently in {l})"),
                None => write!(f, "exit while not inside any location"),
            },
        }
    }
}

impl std::error::Error for MovementError {}

/// Everything the store records about one subject.
#[derive(Debug, Clone, Default)]
struct SubjectRow {
    /// The subject's stays, chronological, exits nondecreasing; only the
    /// last can be open.
    stays: Vec<Stay>,
    /// The time-regression guard: the subject's latest recorded time.
    /// It outlives the stays a prune drops.
    latest: Option<Time>,
    /// While the last stay is open, the subject's index in that
    /// location's occupant list; meaningless otherwise.
    slot: usize,
}

impl SubjectRow {
    /// The location of the open stay, if any.
    fn inside(&self) -> Option<LocationId> {
        self.stays
            .last()
            .filter(|s| s.exit.is_none())
            .map(|s| s.location)
    }

    fn check_time(&self, t: Time) -> Result<(), MovementError> {
        match self.latest {
            Some(latest) if t < latest => Err(MovementError::TimeRegression { latest, event: t }),
            _ => Ok(()),
        }
    }
}

/// The movements store.
///
/// ## Layout
///
/// A hash table of one row per subject — its stays, its latest-time
/// guard and its place in an occupant list (the std hasher, keyed per
/// table: subject ids come off the wire) — and one unordered occupant
/// list per location. An entry is a probe of each and a push; an exit is
/// a probe of each, a `swap_remove`, and one more probe when that moves
/// another occupant, whose row must learn its new place. Neither
/// allocates once a timeline and a list have the capacity, which a prune
/// keeps. Readers that promise an order ([`MovementsDb::timelines`],
/// [`MovementsDb::latest_times`], [`MovementsDb::collect_prunable`],
/// [`MovementsDb::occupants`], [`MovementsDb::inside_now`], the
/// serialized form) sort when they read — per query, snapshot, retention
/// run or redistribution, never per event.
///
/// The serialized form is five fields — `timelines`, `occupancy`
/// (emptied locations included), `latest`, `watermark` and
/// `pruned_events` — each map in key order. Decoding
/// derives the occupant lists from the open stays and refuses an image
/// whose `occupancy` disagrees with them; an empty timeline records
/// nothing and is dropped.
///
/// ## Retention
///
/// History is append-only and unbounded by default. A deployment may
/// bound it by pruning closed stays older than a horizon via
/// [`MovementsDb::apply_prune`]; the **retention watermark**
/// ([`MovementsDb::watermark`]) then records the chronon before which
/// live history may be incomplete. Every query on this type is complete
/// for times at or after the watermark: a stay is pruned only when its
/// *exit* precedes the horizon, so any stay that could contain a
/// post-watermark chronon is retained. Callers asking about earlier
/// times must consult the archive tier (see `ltam-store`) or treat the
/// answer as unknown — never as "was nowhere".
///
/// ## What a historical read costs
///
/// The reads go through the history index both tiers share
/// ([`crate::index`]). This store's [`HistoryIndex`] of closed stays is
/// built by the first `present_during` after construction, decoding,
/// `Clone` or [`MovementsDb::apply_prune`], and `record_exit` appends to
/// it from then on. It sits behind a mutex only so queries can stay
/// `&self`, and is left out of the serialized form, of `Clone` and of
/// `==` (which means "same recorded history", whatever the lists' order).
#[derive(Debug, Default)]
pub struct MovementsDb {
    /// A row for every subject with stays or a latest-time guard.
    subjects: HashMap<SubjectId, SubjectRow>,
    /// The subjects inside each location, unordered; a location stays
    /// here once anyone has entered it.
    inside: HashMap<LocationId, Vec<SubjectId>>,
    /// Retention watermark; `None` means never pruned (complete from
    /// the epoch). Optional so images from before retention existed
    /// still deserialize.
    watermark: Option<Time>,
    /// Events dropped by pruning ([`MovementsDb::len`] plus this is the
    /// total ever recorded). Optional for the same compatibility reason.
    pruned_events: Option<u64>,
    index: Mutex<Option<HistoryIndex<()>>>,
}

/// A [`MovementsDb`] image as decoded: the ordered tables it is
/// written as. Older images also carry an event log under `log`; the
/// derive skips the unknown key.
#[derive(Deserialize)]
struct Image {
    timelines: BTreeMap<SubjectId, Vec<Stay>>,
    occupancy: BTreeMap<LocationId, BTreeSet<SubjectId>>,
    latest: BTreeMap<SubjectId, Time>,
    watermark: Option<Time>,
    pruned_events: Option<u64>,
}

/// The ordered tables of the serialized form, borrowed from the rows.
struct Tables<'a> {
    timelines: Vec<(SubjectId, &'a [Stay])>,
    occupancy: Vec<(LocationId, Vec<SubjectId>)>,
    latest: Vec<(SubjectId, Time)>,
}

impl TryFrom<Image> for MovementsDb {
    type Error = serde::Error;

    /// The rows of an image, with the occupant lists derived from the
    /// open stays and checked against the stored `occupancy`.
    fn try_from(image: Image) -> Result<MovementsDb, serde::Error> {
        let mut inside: HashMap<LocationId, Vec<SubjectId>> =
            image.occupancy.keys().map(|&l| (l, Vec::new())).collect();
        let mut subjects = HashMap::with_capacity(image.timelines.len().max(image.latest.len()));
        for (subject, stays) in image.timelines {
            if stays.is_empty() {
                continue;
            }
            let mut row = SubjectRow {
                stays,
                ..SubjectRow::default()
            };
            if let Some(l) = row.inside() {
                if !image
                    .occupancy
                    .get(&l)
                    .is_some_and(|s| s.contains(&subject))
                {
                    return Err(serde::Error::custom(format!(
                        "movements: {subject}'s open stay in {l} is missing from occupancy"
                    )));
                }
                let occupants = inside.entry(l).or_default();
                row.slot = occupants.len();
                occupants.push(subject);
            }
            subjects.insert(subject, row);
        }
        for (subject, t) in image.latest {
            subjects.entry(subject).or_default().latest = Some(t);
        }
        for (&l, listed) in &image.occupancy {
            let open_there =
                |s: &SubjectId| subjects.get(s).and_then(SubjectRow::inside) == Some(l);
            if let Some(s) = listed.iter().find(|s| !open_there(s)) {
                return Err(serde::Error::custom(format!(
                    "movements: occupancy lists {s} in {l}, where it has no open stay"
                )));
            }
        }
        Ok(MovementsDb {
            subjects,
            inside,
            watermark: image.watermark,
            pruned_events: image.pruned_events,
            index: Mutex::default(),
        })
    }
}

// The vendored derive cannot skip a field or borrow, so `MovementsDb`
// writes its serialized form by hand, straight from the rows.
impl Serialize for MovementsDb {
    fn to_value(&self) -> Value {
        let t = self.tables();
        Value::Object(vec![
            ("timelines".to_string(), t.timelines.to_value()),
            ("occupancy".to_string(), t.occupancy.to_value()),
            ("latest".to_string(), t.latest.to_value()),
            ("watermark".to_string(), self.watermark.to_value()),
            ("pruned_events".to_string(), self.pruned_events.to_value()),
        ])
    }
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        let t = self.tables();
        s.begin_object(5);
        s.field(0, "timelines");
        t.timelines.serialize(s);
        s.field(1, "occupancy");
        t.occupancy.serialize(s);
        s.field(2, "latest");
        t.latest.serialize(s);
        s.field(3, "watermark");
        self.watermark.serialize(s);
        s.field(4, "pruned_events");
        self.pruned_events.serialize(s);
        s.end_object();
    }
}

impl Deserialize for MovementsDb {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Image::from_value(value).and_then(MovementsDb::try_from)
    }
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::Error> {
        Image::deserialize(d).and_then(MovementsDb::try_from)
    }
}

impl Clone for MovementsDb {
    /// The recorded state; the index starts unbuilt.
    fn clone(&self) -> MovementsDb {
        MovementsDb {
            subjects: self.subjects.clone(),
            inside: self.inside.clone(),
            watermark: self.watermark,
            pruned_events: self.pruned_events,
            index: Mutex::default(),
        }
    }
}

impl PartialEq for MovementsDb {
    /// Same rows (stays and guard) and the same locations listed. The
    /// occupant lists need no comparing beyond their keys: they are the
    /// open stays, which the rows already compare.
    fn eq(&self, other: &MovementsDb) -> bool {
        let same_row = |(s, row): (&SubjectId, &SubjectRow)| {
            other
                .subjects
                .get(s)
                .is_some_and(|o| o.stays == row.stays && o.latest == row.latest)
        };
        self.subjects.len() == other.subjects.len()
            && self.subjects.iter().all(same_row)
            && self.inside.len() == other.inside.len()
            && self.inside.keys().all(|l| other.inside.contains_key(l))
            && self.watermark == other.watermark
            && self.pruned_events == other.pruned_events
    }
}

impl Eq for MovementsDb {}

impl MovementsDb {
    /// An empty store.
    pub fn new() -> MovementsDb {
        MovementsDb::default()
    }

    /// Number of recorded (live, unpruned) events: an entry per stay and
    /// an exit per closed one. Only a timeline's last stay can be open.
    pub fn len(&self) -> usize {
        let events = |r: &SubjectRow| 2 * r.stays.len() - usize::from(r.inside().is_some());
        self.subjects.values().map(events).sum()
    }

    /// True if no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.subjects.values().all(|r| r.stays.is_empty())
    }

    /// Every subject's stay history, by subject.
    pub fn timelines(&self) -> impl Iterator<Item = (SubjectId, &[Stay])> + '_ {
        let mut timelines: Vec<_> = self
            .subjects
            .iter()
            .filter(|(_, r)| !r.stays.is_empty())
            .map(|(&s, r)| (s, r.stays.as_slice()))
            .collect();
        timelines.sort_unstable_by_key(|&(s, _)| s);
        timelines.into_iter()
    }

    /// The serialized tables, each in key order.
    fn tables(&self) -> Tables<'_> {
        let mut occupancy: Vec<_> = self
            .inside
            .iter()
            .map(|(&l, occupants)| {
                let mut occupants = occupants.clone();
                occupants.sort_unstable();
                (l, occupants)
            })
            .collect();
        occupancy.sort_unstable_by_key(|&(l, _)| l);
        Tables {
            timelines: self.timelines().collect(),
            occupancy,
            latest: self.latest_times().collect(),
        }
    }

    /// Record that `subject` entered `location` at `t`.
    pub fn record_enter(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<(), MovementError> {
        // A new subject passes both checks, so a rejection never leaves
        // an empty row behind.
        let row = self.subjects.entry(subject).or_default();
        row.check_time(t)?;
        if let Some(at) = row.inside() {
            return Err(MovementError::EnterWhileInside { at });
        }
        let occupants = self.inside.entry(location).or_default();
        row.slot = occupants.len();
        occupants.push(subject);
        row.stays.push(Stay {
            location,
            enter: t,
            exit: None,
        });
        row.latest = Some(t);
        Ok(())
    }

    /// Record that `subject` left `location` at `t`.
    pub fn record_exit(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<(), MovementError> {
        let Some(row) = self.subjects.get_mut(&subject) else {
            return Err(MovementError::ExitWithoutEntry { at: None });
        };
        row.check_time(t)?;
        let at = row.inside();
        if at != Some(location) {
            return Err(MovementError::ExitWithoutEntry { at });
        }
        row.latest = Some(t);
        let slot = row.slot;
        let stay = row.stays.last_mut().expect("open stay exists");
        stay.exit = Some(t);
        if let Some(built) = locked(self.index.get_mut(), "movement index") {
            built.push(subject, stay, ());
        }
        let occupants = self
            .inside
            .get_mut(&location)
            .expect("an open stay's location is listed");
        occupants.swap_remove(slot);
        if let Some(&moved) = occupants.get(slot) {
            self.subjects
                .get_mut(&moved)
                .expect("an occupant has a row")
                .slot = slot;
        }
        Ok(())
    }

    /// Where the subject currently is, if inside any location.
    pub fn current_location(&self, subject: SubjectId) -> Option<LocationId> {
        self.subjects.get(&subject).and_then(SubjectRow::inside)
    }

    /// Subjects currently inside `location`, by id.
    pub fn occupants(&self, location: LocationId) -> Vec<SubjectId> {
        let mut occupants = self.inside.get(&location).cloned().unwrap_or_default();
        occupants.sort_unstable();
        occupants
    }

    /// The subject's full stay history.
    pub fn timeline(&self, subject: SubjectId) -> &[Stay] {
        self.subjects
            .get(&subject)
            .map_or(&[], |r| r.stays.as_slice())
    }

    /// An occupant's open stay: the last of its timeline.
    fn open_stay(&self, occupant: SubjectId) -> Stay {
        *self.timeline(occupant).last().expect("occupant has a stay")
    }

    /// Where the subject was at time `t` (historically).
    pub fn whereabouts(&self, subject: SubjectId, t: Time) -> Option<LocationId> {
        index::whereabouts(self.timeline(subject), |&s| ((), s), t, Time::MAX)
    }

    /// The subject's stays that overlap `window` (a binary search, see
    /// [`stays_overlapping`]).
    pub fn stays_during(&self, subject: SubjectId, window: Interval) -> &[Stay] {
        stays_overlapping(self.timeline(subject), |s| *s, window)
    }

    /// Subjects present in `location` at any point of `window`, with their
    /// overlapping presence intervals.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
    ) -> Vec<(SubjectId, Interval)> {
        self.present_during_counting(location, window, &mut 0)
    }

    /// [`MovementsDb::present_during`], adding the number of stays it
    /// looked at to `examined` (the read-amplification counters of
    /// `ltam-store`'s `ReadView` are fed from here).
    pub fn present_during_counting(
        &self,
        location: LocationId,
        window: Interval,
        examined: &mut u64,
    ) -> Vec<(SubjectId, Interval)> {
        let mut out = Vec::new();
        let mut cache = locked(self.index.lock(), "movement index");
        let built = cache.get_or_insert_with(|| {
            let mut built = HistoryIndex::default();
            for (&subject, row) in &self.subjects {
                row.stays.iter().for_each(|s| built.push(subject, s, ()));
            }
            built
        });
        built.sort_in(location);
        built.present_during(location, window, Time::MAX, examined, &mut out);
        // Open stays last: a subject's open stay follows its closed ones,
        // and the stable sort below keeps that order on equal starts.
        for &subject in self.inside.get(&location).into_iter().flatten() {
            *examined += 1;
            let stay = self.open_stay(subject).interval();
            out.extend(stay.intersect(window).map(|i| (subject, i)));
        }
        out.sort_by_key(|&(s, i)| (s, i.start()));
        out
    }

    /// Everyone who was co-located with `subject` during `window` — the
    /// contact-tracing join (§1's SARS scenario).
    pub fn contacts(&self, subject: SubjectId, window: Interval) -> Vec<Contact> {
        let stays = self.stays_during(subject, window);
        index::contacts(subject, window, stays, |l, w| self.present_during(l, w))
    }

    /// Subjects with an open (ongoing) stay, with the stay, by subject.
    pub fn inside_now(&self) -> Vec<(SubjectId, Stay)> {
        let mut inside: Vec<_> = self
            .inside
            .values()
            .flatten()
            .map(|&s| (s, self.open_stay(s)))
            .collect();
        inside.sort_unstable_by_key(|&(s, _)| s);
        inside
    }

    // --- retention ----------------------------------------------------------

    /// The retention watermark: live history is complete from this
    /// chronon onward; earlier history may have been pruned. `Time::ZERO`
    /// for a never-pruned store.
    pub fn watermark(&self) -> Time {
        self.watermark.unwrap_or(Time::ZERO)
    }

    /// Events dropped by pruning since the store was created.
    pub fn pruned_events(&self) -> u64 {
        self.pruned_events.unwrap_or(0)
    }

    /// Events ever recorded: the live ones plus everything pruned.
    pub fn total_recorded(&self) -> u64 {
        self.len() as u64 + self.pruned_events()
    }

    /// The number of leading stays of `timeline` that are prunable at
    /// `horizon`: stays are chronological and exits nondecreasing, so
    /// the prunable set ("closed with `exit < horizon`") is always a
    /// prefix — an open stay, or one a query at `horizon` could still
    /// see, is never prunable.
    fn prunable_prefix(timeline: &[Stay], horizon: Time) -> usize {
        timeline.partition_point(|s| matches!(s.exit, Some(e) if e < horizon))
    }

    /// The stays [`MovementsDb::apply_prune`] at `horizon` would drop,
    /// with their subjects, without mutating anything: each subject's
    /// prunable prefix in timeline order, subjects in id order (only
    /// the subjects with something to prune are sorted). A durable
    /// deployment archives these *before* pruning.
    pub fn collect_prunable(&self, horizon: Time) -> Vec<(SubjectId, Stay)> {
        let mut prefixes: Vec<(SubjectId, &[Stay])> = self
            .subjects
            .iter()
            .map(|(&s, r)| (s, &r.stays[..Self::prunable_prefix(&r.stays, horizon)]))
            .filter(|(_, prefix)| !prefix.is_empty())
            .collect();
        prefixes.sort_unstable_by_key(|&(s, _)| s);
        let mut stays = Vec::with_capacity(prefixes.iter().map(|(_, p)| p.len()).sum());
        for (subject, prefix) in prefixes {
            stays.extend(prefix.iter().map(|&s| (subject, s)));
        }
        stays
    }

    /// Drop all history prunable at `horizon` (see
    /// [`MovementsDb::collect_prunable`]) and advance the watermark to
    /// at least `horizon`. Returns the number of events dropped: every
    /// pruned stay is closed, so two — its entry and its exit.
    ///
    /// Enforcement state is untouched: open stays, current occupancy
    /// and the per-subject latest-time guard all survive, so pruning is
    /// invisible to `record_enter`/`record_exit`. A row keeps its
    /// timeline's capacity for the stays to come.
    pub fn apply_prune(&mut self, horizon: Time) -> u64 {
        let mut dropped = 0;
        self.subjects.retain(|_, row| {
            let k = Self::prunable_prefix(&row.stays, horizon);
            row.stays.drain(..k);
            dropped += 2 * k as u64;
            !row.stays.is_empty() || row.latest.is_some()
        });
        // The next reader rebuilds the index from what is left.
        *locked(self.index.get_mut(), "movement index") = None;
        self.pruned_events = Some(self.pruned_events() + dropped);
        self.watermark = Some(self.watermark().max(horizon));
        dropped
    }

    // --- persistence / redistribution support -------------------------------

    /// The per-subject latest recorded times (the time-regression
    /// guard), by subject. Exposed so shard redistribution can preserve
    /// the guard for subjects whose events were all pruned.
    pub fn latest_times(&self) -> impl Iterator<Item = (SubjectId, Time)> + '_ {
        let mut latest: Vec<_> = self
            .subjects
            .iter()
            .filter_map(|(&s, r)| r.latest.map(|t| (s, t)))
            .collect();
        latest.sort_unstable_by_key(|&(s, _)| s);
        latest.into_iter()
    }

    /// Raise `subject`'s latest-time guard to at least `t`
    /// (redistribution import; never lowers it).
    pub fn observe_latest(&mut self, subject: SubjectId, t: Time) {
        let row = self.subjects.entry(subject).or_default();
        row.latest = row.latest.max(Some(t));
    }

    /// Raise the retention watermark to at least `w` without pruning
    /// (redistribution import: the target store starts from
    /// already-pruned history).
    pub fn set_watermark(&mut self, w: Time) {
        if w > self.watermark() {
            self.watermark = Some(w);
        }
    }

    /// Add `n` to the pruned-events counter (redistribution import).
    pub fn add_pruned_events(&mut self, n: u64) {
        if n > 0 {
            self.pruned_events = Some(self.pruned_events() + n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    const ALICE: SubjectId = SubjectId(0);
    const BOB: SubjectId = SubjectId(1);
    const CAIS: LocationId = LocationId(10);
    const GO: LocationId = LocationId(11);

    /// The reads as they were before the stay rows and the timeline
    /// binary searches: every stay of every subject, every time. The
    /// oracle the serving reads are tested against.
    impl MovementsDb {
        fn present_during_scan(
            &self,
            location: LocationId,
            window: Interval,
        ) -> Vec<(SubjectId, Interval)> {
            let mut out = Vec::new();
            for (subject, stays) in self.timelines() {
                for s in stays {
                    if s.location == location {
                        if let Some(overlap) = s.interval().intersect(window) {
                            out.push((subject, overlap));
                        }
                    }
                }
            }
            out.sort_by_key(|&(s, i)| (s, i.start()));
            out
        }

        fn contacts_scan(&self, subject: SubjectId, window: Interval) -> Vec<Contact> {
            let mut out = Vec::new();
            for s in self.timeline(subject) {
                let Some(exposure) = s.interval().intersect(window) else {
                    continue;
                };
                for (other, overlap) in self.present_during_scan(s.location, exposure) {
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

        fn whereabouts_scan(&self, subject: SubjectId, t: Time) -> Option<LocationId> {
            self.timeline(subject)
                .iter()
                .rev()
                .find(|s| s.interval().contains(t))
                .map(|s| s.location)
        }
    }

    /// The store as it was before it kept rows — three ordered maps,
    /// written by the derive — with its write paths as they were. The
    /// model the row layout is tested against.
    #[derive(Debug, Clone, Default, Serialize)]
    struct Ordered {
        timelines: BTreeMap<SubjectId, Vec<Stay>>,
        occupancy: BTreeMap<LocationId, BTreeSet<SubjectId>>,
        latest: BTreeMap<SubjectId, Time>,
        watermark: Option<Time>,
        pruned_events: Option<u64>,
    }

    impl Ordered {
        fn check_time(&self, subject: SubjectId, t: Time) -> Result<(), MovementError> {
            match self.latest.get(&subject) {
                Some(&latest) if t < latest => {
                    Err(MovementError::TimeRegression { latest, event: t })
                }
                _ => Ok(()),
            }
        }

        fn current_location(&self, subject: SubjectId) -> Option<LocationId> {
            let last = self.timelines.get(&subject).and_then(|v| v.last());
            last.filter(|s| s.exit.is_none()).map(|s| s.location)
        }

        fn record_enter(
            &mut self,
            t: Time,
            s: SubjectId,
            l: LocationId,
        ) -> Result<(), MovementError> {
            self.check_time(s, t)?;
            if let Some(at) = self.current_location(s) {
                return Err(MovementError::EnterWhileInside { at });
            }
            let stay = Stay {
                location: l,
                enter: t,
                exit: None,
            };
            self.timelines.entry(s).or_default().push(stay);
            self.occupancy.entry(l).or_default().insert(s);
            self.latest.insert(s, t);
            Ok(())
        }

        fn record_exit(
            &mut self,
            t: Time,
            s: SubjectId,
            l: LocationId,
        ) -> Result<(), MovementError> {
            self.check_time(s, t)?;
            let at = self.current_location(s);
            if at != Some(l) {
                return Err(MovementError::ExitWithoutEntry { at });
            }
            let open = self.timelines.get_mut(&s).and_then(|v| v.last_mut());
            open.expect("open stay exists").exit = Some(t);
            self.occupancy
                .get_mut(&l)
                .expect("occupancy entry exists")
                .remove(&s);
            self.latest.insert(s, t);
            Ok(())
        }

        fn inside_now(&self) -> Vec<(SubjectId, Stay)> {
            let open = |&s: &SubjectId| (s, *self.timelines[&s].last().expect("a stay"));
            let mut inside: Vec<_> = self.occupancy.values().flatten().map(open).collect();
            inside.sort_by_key(|&(s, _)| s);
            inside
        }

        fn len(&self) -> usize {
            let events = |t: &Vec<Stay>| {
                2 * t.len() - usize::from(t.last().is_some_and(|s| s.exit.is_none()))
            };
            self.timelines.values().map(events).sum()
        }

        fn collect_prunable(&self, horizon: Time) -> Vec<(SubjectId, Stay)> {
            let mut stays = Vec::new();
            for (&s, timeline) in &self.timelines {
                let k = MovementsDb::prunable_prefix(timeline, horizon);
                stays.extend(timeline[..k].iter().map(|&stay| (s, stay)));
            }
            stays
        }

        fn apply_prune(&mut self, horizon: Time) -> u64 {
            let mut dropped = 0;
            for timeline in self.timelines.values_mut() {
                let k = MovementsDb::prunable_prefix(timeline, horizon);
                timeline.drain(..k);
                dropped += 2 * k as u64;
            }
            self.timelines.retain(|_, t| !t.is_empty());
            self.pruned_events = Some(self.pruned_events.unwrap_or(0) + dropped);
            self.watermark = Some(self.watermark.unwrap_or(Time::ZERO).max(horizon));
            dropped
        }

        fn observe_latest(&mut self, s: SubjectId, t: Time) {
            let entry = self.latest.entry(s).or_insert(t);
            *entry = (*entry).max(t);
        }
    }

    /// One step against both layouts: every subject's next movement at
    /// its latest time plus `dt` (negative: a clock regression).
    #[derive(Debug, Clone)]
    enum Op {
        Enter(u32, u32, i64),
        /// From the location given (often the wrong room)…
        Exit(u32, u32, i64),
        /// …or from wherever the subject is.
        Leave(u32, i64),
        Prune(u64),
        Observe(u32, u64),
        Restart,
        Clone,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            5 => (0u32..6, 0u32..3, -2i64..6).prop_map(|(s, l, dt)| Op::Enter(s, l, dt)),
            2 => (0u32..6, 0u32..3, -2i64..6).prop_map(|(s, l, dt)| Op::Exit(s, l, dt)),
            4 => (0u32..6, -2i64..6).prop_map(|(s, dt)| Op::Leave(s, dt)),
            1 => (0u64..80).prop_map(Op::Prune),
            1 => (0u32..7, 0u64..80).prop_map(|(s, t)| Op::Observe(s, t)),
            1 => Just(Op::Restart),
            1 => Just(Op::Clone),
        ]
    }

    /// A `Serializer` that builds the tree a streamed value describes,
    /// checking every announced length: what a streaming format writes,
    /// made comparable with `to_value`.
    #[derive(Default)]
    struct Tree {
        /// Open containers: the container, its announced length and, in
        /// an object, the key of the value that comes next.
        open: Vec<(Value, usize, Option<String>)>,
        done: Option<Value>,
    }

    impl Tree {
        fn put(&mut self, v: Value) {
            match self.open.last_mut() {
                Some((Value::Array(items), ..)) => items.push(v),
                Some((Value::Object(fields), _, key)) => fields.push((key.take().unwrap(), v)),
                _ => self.done = Some(v),
            }
        }

        fn close(&mut self) {
            let (v, len, _) = self.open.pop().unwrap();
            let got = match &v {
                Value::Array(items) => items.len(),
                Value::Object(fields) => fields.len(),
                _ => unreachable!("only containers are open"),
            };
            assert_eq!(got, len, "announced length");
            self.put(v);
        }
    }

    impl Serializer for Tree {
        fn emit_null(&mut self) {
            self.put(Value::Null);
        }
        fn emit_bool(&mut self, b: bool) {
            self.put(Value::Bool(b));
        }
        fn emit_u64(&mut self, n: u64) {
            self.put(Value::U64(n));
        }
        fn emit_i64(&mut self, n: i64) {
            self.put(Value::I64(n));
        }
        fn emit_f64(&mut self, n: f64) {
            self.put(Value::F64(n));
        }
        fn emit_str(&mut self, s: &str) {
            self.put(Value::Str(s.to_string()));
        }
        fn begin_array(&mut self, len: usize) {
            self.open.push((Value::Array(Vec::new()), len, None));
        }
        fn elem(&mut self, _: usize) {}
        fn end_array(&mut self) {
            self.close();
        }
        fn begin_object(&mut self, len: usize) {
            self.open.push((Value::Object(Vec::new()), len, None));
        }
        fn field(&mut self, _: usize, key: &str) {
            self.open.last_mut().unwrap().2 = Some(key.to_string());
        }
        fn end_object(&mut self) {
            self.close();
        }
    }

    /// `value` streamed through [`Serialize::serialize`], as a tree.
    fn streamed(value: &impl Serialize) -> Value {
        let mut tree = Tree::default();
        value.serialize(&mut tree);
        tree.done.unwrap()
    }

    /// Every read of `db` equals the model's, and so do both serialized
    /// forms; the model's image decodes to an equal store.
    fn same_as_model(db: &MovementsDb, model: &Ordered) -> Result<(), TestCaseError> {
        for s in (0..7).map(SubjectId) {
            prop_assert_eq!(db.current_location(s), model.current_location(s));
        }
        for l in (0..4).map(LocationId) {
            let listed = model.occupancy.get(&l).into_iter().flatten().copied();
            prop_assert_eq!(db.occupants(l), listed.collect::<Vec<_>>());
        }
        prop_assert_eq!(db.inside_now(), model.inside_now());
        let timelines = model.timelines.iter().map(|(&s, t)| (s, t.as_slice()));
        prop_assert!(db.timelines().eq(timelines));
        prop_assert!(db
            .latest_times()
            .eq(model.latest.iter().map(|(&s, &t)| (s, t))));
        prop_assert_eq!(db.len(), model.len());
        prop_assert_eq!(db.is_empty(), model.timelines.is_empty());
        for horizon in [5, 20, 45].map(Time) {
            prop_assert_eq!(
                db.collect_prunable(horizon),
                model.collect_prunable(horizon)
            );
        }
        prop_assert_eq!(db.to_value(), model.to_value());
        prop_assert_eq!(streamed(db), model.to_value());
        prop_assert_eq!(&MovementsDb::from_value(&model.to_value()).unwrap(), db);
        Ok(())
    }

    /// One step of a random trace over 5 subjects and 3 locations.
    #[derive(Debug, Clone)]
    enum Step {
        /// The subject's next movement, `dt` chronons after its last: an
        /// exit if it is inside, else an entry to the location. `dt` 0
        /// gives same-chronon exits and re-entries, and with them
        /// zero-length stays that repeat identically.
        Move(u32, u32, u64),
        /// Ask every question about the location, the subject and the
        /// window `[start, start + len]` (`len` ≥ 40: unbounded).
        Ask(u32, u32, u64, u64),
        Prune(u64),
        /// Image → serialized → decoded, as a snapshot and restart do.
        Restart,
        Clone,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (0u32..5, 0u32..3, 0u64..6).prop_map(|(s, l, dt)| Step::Move(s, l, dt)),
            3 => (0u32..5, 0u32..3, 0u64..90, 0u64..50)
                .prop_map(|(s, l, a, n)| Step::Ask(s, l, a, n)),
            1 => (0u64..90).prop_map(Step::Prune),
            1 => Just(Step::Restart),
            1 => Just(Step::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the trace — clocks only per-subject monotone (each
        /// subject starts at its own offset, so arrivals are out of time
        /// order across subjects), open stays, prunes, restarts and
        /// clones between the questions — the serving reads equal the
        /// scans row for row.
        #[test]
        fn indexed_reads_equal_the_scans(steps in prop::collection::vec(arb_step(), 1..120)) {
            let mut db = MovementsDb::new();
            for step in steps {
                match step {
                    Step::Move(s, l, dt) => {
                        let subject = SubjectId(s);
                        let last = db.subjects.get(&subject).and_then(|r| r.latest);
                        let t = Time(last.map_or(u64::from(s) * 9 % 31, |t| t.get() + dt));
                        match db.current_location(subject) {
                            Some(at) => db.record_exit(t, subject, at).unwrap(),
                            None => db.record_enter(t, subject, LocationId(l)).unwrap(),
                        }
                    }
                    Step::Ask(s, l, start, len) => {
                        let (subject, location) = (SubjectId(s), LocationId(l));
                        let window = if len >= 40 {
                            Interval::from_start(start)
                        } else {
                            Interval::lit(start, start + len)
                        };
                        prop_assert_eq!(
                            db.present_during(location, window),
                            db.present_during_scan(location, window)
                        );
                        prop_assert_eq!(
                            db.contacts(subject, window),
                            db.contacts_scan(subject, window)
                        );
                        prop_assert_eq!(
                            db.whereabouts(subject, Time(start)),
                            db.whereabouts_scan(subject, Time(start))
                        );
                    }
                    Step::Prune(horizon) => {
                        db.apply_prune(Time(horizon));
                    }
                    Step::Restart => {
                        let back = MovementsDb::from_value(&db.to_value()).unwrap();
                        prop_assert_eq!(&back, &db);
                        db = back;
                    }
                    Step::Clone => db = db.clone(),
                }
            }
        }

        /// Whatever is thrown at it — entries and exits for random
        /// subjects and locations, clocks that run backwards, exits from
        /// the wrong room, prunes, restarts — the live events plus the
        /// pruned ones are exactly the calls the store accepted.
        #[test]
        fn live_plus_pruned_events_are_the_accepted_calls(
            steps in prop::collection::vec(
                prop_oneof![
                    8 => (0u32..4, 0u32..3, any::<bool>(), -3i64..6)
                        .prop_map(|(s, l, enter, dt)| Some((s, l, enter, dt))),
                    1 => Just(None),
                ],
                1..150,
            ),
            horizons in prop::collection::vec(0u64..120, 1..8),
        ) {
            let mut db = MovementsDb::new();
            let mut accepted = 0u64;
            let mut prunes = horizons.into_iter().cycle();
            for step in steps {
                match step {
                    Some((s, l, enter, dt)) => {
                        let subject = SubjectId(s);
                        let last = db.subjects.get(&subject).and_then(|r| r.latest).map_or(0, |t| t.get());
                        let t = Time(last.saturating_add_signed(dt));
                        let outcome = if enter {
                            db.record_enter(t, subject, LocationId(l))
                        } else {
                            db.record_exit(t, subject, LocationId(l))
                        };
                        accepted += u64::from(outcome.is_ok());
                    }
                    None => {
                        let before = db.len() as u64;
                        let dropped = db.apply_prune(Time(prunes.next().unwrap()));
                        prop_assert_eq!(db.len() as u64 + dropped, before);
                        db = MovementsDb::from_value(&db.to_value()).unwrap();
                    }
                }
                prop_assert_eq!(db.len() as u64 + db.pruned_events(), accepted);
                prop_assert_eq!(db.total_recorded(), accepted);
                prop_assert_eq!(db.is_empty(), accepted == db.pruned_events());
            }
        }

        /// Whatever the trace — entries, exits from the right and the
        /// wrong room, entries while inside, clocks that run backwards,
        /// prunes, guards raised from outside, restarts and clones — the
        /// rows answer every call and
        /// every read exactly as the ordered maps did, and serialize to
        /// the same image.
        #[test]
        fn the_rows_equal_the_ordered_model(steps in prop::collection::vec(arb_op(), 1..150)) {
            let (mut db, mut model) = (MovementsDb::new(), Ordered::default());
            for step in steps {
                let at = |db: &MovementsDb, s: u32, dt: i64| {
                    let last = db.subjects.get(&SubjectId(s)).and_then(|r| r.latest);
                    Time(last.map_or(u64::from(s) * 7, |t| t.get().saturating_add_signed(dt)))
                };
                match step {
                    Op::Enter(s, l, dt) => {
                        let (t, s, l) = (at(&db, s, dt), SubjectId(s), LocationId(l));
                        prop_assert_eq!(db.record_enter(t, s, l), model.record_enter(t, s, l));
                    }
                    Op::Exit(s, l, dt) => {
                        let (t, s, l) = (at(&db, s, dt), SubjectId(s), LocationId(l));
                        prop_assert_eq!(db.record_exit(t, s, l), model.record_exit(t, s, l));
                    }
                    Op::Leave(s, dt) => {
                        let (t, s) = (at(&db, s, dt), SubjectId(s));
                        let l = db.current_location(s).unwrap_or(LocationId(0));
                        prop_assert_eq!(db.record_exit(t, s, l), model.record_exit(t, s, l));
                    }
                    Op::Prune(horizon) => {
                        let horizon = Time(horizon);
                        prop_assert_eq!(db.apply_prune(horizon), model.apply_prune(horizon));
                    }
                    Op::Observe(s, t) => {
                        db.observe_latest(SubjectId(s), Time(t));
                        model.observe_latest(SubjectId(s), Time(t));
                    }
                    Op::Restart => db = MovementsDb::from_value(&db.to_value()).unwrap(),
                    Op::Clone => (db, model) = (db.clone(), model.clone()),
                }
                same_as_model(&db, &model)?;
            }
        }
    }

    #[test]
    fn the_stay_rows_are_derived_state_only() {
        let mut db = pruneable_db();
        let image = db.to_value();
        // A reader builds the rows; nothing recorded changes.
        assert_eq!(db.present_during(GO, Interval::lit(0, 100)).len(), 2);
        assert!(locked(db.index.lock(), "movement index").is_some());
        assert_eq!(db.to_value(), image);
        assert_eq!(db, pruneable_db());
        // Neither a clone nor a decoded image carries them; a prune drops
        // them; and an unqueried store never builds them.
        assert!(locked(db.clone().index.lock(), "movement index").is_none());
        let back = MovementsDb::from_value(&image).unwrap();
        assert!(locked(back.index.lock(), "movement index").is_none());
        db.apply_prune(Time(30));
        assert!(locked(db.index.lock(), "movement index").is_none());
        db.record_exit(Time(60), ALICE, CAIS).unwrap();
        assert!(locked(db.index.lock(), "movement index").is_none());
        // The serialized form is the five recorded fields, in this order;
        // an image from before retention (no watermark, no pruned count)
        // still loads, and so does one carrying the event log older
        // images had.
        let keys = [
            "timelines",
            "occupancy",
            "latest",
            "watermark",
            "pruned_events",
        ];
        let Value::Object(fields) = db.to_value() else {
            panic!("an object");
        };
        assert_eq!(
            fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            keys
        );
        let mut with_log = fields.clone();
        with_log.insert(0, ("log".to_string(), Value::Array(vec![])));
        assert_eq!(
            MovementsDb::from_value(&Value::Object(with_log)).unwrap(),
            db
        );
        let old = Value::Object(fields.into_iter().take(3).collect());
        let old = MovementsDb::from_value(&old).unwrap();
        assert_eq!(old.watermark(), Time::ZERO);
        assert!(old.timelines().eq(db.timelines()));
        assert_eq!(old.len(), db.len());
    }

    #[test]
    fn one_long_stay_widens_the_walk_not_the_answer() {
        let mut db = MovementsDb::new();
        // Bob camps in CAIS for [0, 1000]; a hundred short visits by
        // Alice follow. A late window must still find Bob's stay.
        db.record_enter(Time(0), BOB, CAIS).unwrap();
        for i in 0..100 {
            db.record_enter(Time(10 * i), ALICE, CAIS).unwrap();
            db.record_exit(Time(10 * i + 2), ALICE, CAIS).unwrap();
        }
        let window = Interval::lit(995, 1_005);
        let mut short = 0;
        db.present_during_counting(CAIS, window, &mut short);
        assert_eq!(short, 1, "Bob's open stay; no visit is within 2 of 995");
        db.record_exit(Time(1_000), BOB, CAIS).unwrap();
        let mut long = 0;
        let rows = db.present_during_counting(CAIS, window, &mut long);
        assert_eq!(rows, vec![(BOB, Interval::lit(995, 1_000))]);
        assert_eq!(long, 101, "longest = 1000: every closed stay is walked");
    }

    #[test]
    fn whereabouts_misses_stop_at_the_first_earlier_stay() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(20), ALICE, GO).unwrap(); // same-chronon re-entry
        db.record_exit(Time(20), ALICE, GO).unwrap();
        db.record_enter(Time(40), ALICE, CAIS).unwrap();
        db.record_exit(Time(60), ALICE, CAIS).unwrap();
        for (t, want) in [
            (9, None),
            (15, Some(CAIS)), // hit
            (20, Some(GO)),   // the latest of three stays holding chronon 20
            (30, None),       // miss: outside between stays
            (60, Some(CAIS)),
            (61, None), // miss: after the last stay
        ] {
            assert_eq!(db.whereabouts(ALICE, Time(t)), want, "t={t}");
            assert_eq!(db.whereabouts_scan(ALICE, Time(t)), want, "t={t}");
        }
        // A stay straddling the watermark stays live and still answers
        // below it; a pruned one does not.
        db.apply_prune(Time(50));
        assert_eq!(db.whereabouts(ALICE, Time(45)), Some(CAIS));
        assert_eq!(db.whereabouts(ALICE, Time(15)), None);
    }

    #[test]
    fn enter_exit_round_trip() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        assert_eq!(db.current_location(ALICE), Some(CAIS));
        assert_eq!(db.occupants(CAIS), vec![ALICE]);
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        assert_eq!(db.current_location(ALICE), None);
        assert!(db.occupants(CAIS).is_empty());
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.timeline(ALICE),
            &[Stay {
                location: CAIS,
                enter: Time(10),
                exit: Some(Time(20))
            }]
        );
    }

    #[test]
    fn impossible_sequences_rejected() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        assert_eq!(
            db.record_enter(Time(11), ALICE, GO).unwrap_err(),
            MovementError::EnterWhileInside { at: CAIS }
        );
        assert_eq!(
            db.record_exit(Time(12), ALICE, GO).unwrap_err(),
            MovementError::ExitWithoutEntry { at: Some(CAIS) }
        );
        assert_eq!(
            db.record_exit(Time(5), ALICE, CAIS).unwrap_err(),
            MovementError::TimeRegression {
                latest: Time(10),
                event: Time(5)
            }
        );
        db.record_exit(Time(15), ALICE, CAIS).unwrap();
        assert_eq!(
            db.record_exit(Time(16), ALICE, CAIS).unwrap_err(),
            MovementError::ExitWithoutEntry { at: None }
        );
    }

    #[test]
    fn whereabouts_is_historical() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(30), ALICE, GO).unwrap();
        assert_eq!(db.whereabouts(ALICE, Time(5)), None);
        assert_eq!(db.whereabouts(ALICE, Time(10)), Some(CAIS));
        assert_eq!(db.whereabouts(ALICE, Time(20)), Some(CAIS));
        assert_eq!(db.whereabouts(ALICE, Time(25)), None);
        assert_eq!(db.whereabouts(ALICE, Time(35)), Some(GO)); // open stay
    }

    #[test]
    fn present_during_clips_to_window() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(15), BOB, CAIS).unwrap();
        let rows = db.present_during(CAIS, Interval::lit(18, 40));
        assert_eq!(
            rows,
            vec![(ALICE, Interval::lit(18, 20)), (BOB, Interval::lit(18, 40)),]
        );
    }

    #[test]
    fn contacts_join_colocated_intervals() {
        let mut db = MovementsDb::new();
        // Alice in CAIS [10,20]; Bob in CAIS [15,30]; Carol in GO [0,50].
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(15), BOB, CAIS).unwrap();
        db.record_exit(Time(30), BOB, CAIS).unwrap();
        let carol = SubjectId(2);
        db.record_enter(Time(0), carol, GO).unwrap();
        let contacts = db.contacts(ALICE, Interval::lit(0, 100));
        assert_eq!(
            contacts,
            vec![Contact {
                other: BOB,
                location: CAIS,
                overlap: Interval::lit(15, 20)
            }]
        );
        // Contact tracing is symmetric.
        let back = db.contacts(BOB, Interval::lit(0, 100));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].other, ALICE);
        assert_eq!(back[0].overlap, Interval::lit(15, 20));
    }

    #[test]
    fn inside_now_lists_open_stays() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_enter(Time(12), BOB, GO).unwrap();
        db.record_exit(Time(14), BOB, GO).unwrap();
        let inside = db.inside_now();
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].0, ALICE);
    }

    #[test]
    fn reentry_after_exit_allowed() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(20), ALICE, CAIS).unwrap();
        assert_eq!(db.timeline(ALICE).len(), 2);
        assert_eq!(db.current_location(ALICE), Some(CAIS));
    }

    #[test]
    fn serde_round_trip() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        let back = MovementsDb::from_value(&db.to_value()).unwrap();
        assert_eq!(back.current_location(ALICE), Some(CAIS));
        assert_eq!(back.len(), 1);
    }

    /// `image` with its `occupancy` replaced.
    fn with_occupancy(image: &Value, occupancy: &[(LocationId, &[SubjectId])]) -> Value {
        let Value::Object(mut fields) = image.clone() else {
            panic!("an object");
        };
        fields.iter_mut().find(|(k, _)| k == "occupancy").unwrap().1 = occupancy.to_value();
        Value::Object(fields)
    }

    #[test]
    fn decoding_refuses_an_occupancy_the_open_stays_disagree_with() {
        // Alice is open in CAIS; Bob's one stay, in GO, is closed.
        let image = pruneable_db().to_value();
        let error = |occupancy: &[(LocationId, &[SubjectId])]| {
            MovementsDb::from_value(&with_occupancy(&image, occupancy))
                .expect_err("refused")
                .to_string()
        };
        // An occupant with no stay at all (`present_during` would panic)
        // and one whose last stay is closed (it would report that stay
        // twice: from the run, and as "open").
        assert_eq!(
            error(&[(CAIS, &[ALICE, SubjectId(2)]), (GO, &[])]),
            "movements: occupancy lists S2 in L10, where it has no open stay"
        );
        assert_eq!(
            error(&[(CAIS, &[ALICE]), (GO, &[BOB])]),
            "movements: occupancy lists S1 in L11, where it has no open stay"
        );
        // An open stay nobody listed, in an emptied set or a missing one.
        let missing = "movements: S0's open stay in L10 is missing from occupancy";
        assert_eq!(error(&[(CAIS, &[]), (GO, &[])]), missing);
        assert_eq!(error(&[(GO, &[])]), missing);
        // Empty sets still load, a location nobody is in included, and
        // they are written back.
        let extra = with_occupancy(
            &image,
            &[(CAIS, &[ALICE]), (GO, &[]), (LocationId(12), &[])],
        );
        let db = MovementsDb::from_value(&extra).unwrap();
        assert_eq!(db.to_value(), extra);
        assert!(db.occupants(LocationId(12)).is_empty());
    }

    #[test]
    fn equal_histories_are_equal_whatever_the_list_order() {
        let mut a = MovementsDb::new();
        let mut b = MovementsDb::new();
        let carol = SubjectId(2);
        for s in [ALICE, BOB, carol] {
            a.record_enter(Time(u64::from(s.0)), s, CAIS).unwrap();
        }
        for s in [BOB, carol, ALICE] {
            b.record_enter(Time(u64::from(s.0)), s, CAIS).unwrap();
        }
        // Alice's exit moves Carol into her place in `a` only.
        a.record_exit(Time(5), ALICE, CAIS).unwrap();
        b.record_exit(Time(5), ALICE, CAIS).unwrap();
        assert_ne!(a.inside[&CAIS], b.inside[&CAIS]);
        assert_eq!(a, b);
        assert_eq!(a.to_value(), b.to_value());
        assert_eq!(a.occupants(CAIS), [BOB, carol]);
        a.record_exit(Time(6), carol, CAIS).unwrap();
        assert_eq!(a.occupants(CAIS), [BOB]);
        assert_ne!(a, b);
    }

    /// Alice: two closed stays + one open; Bob: one closed stay.
    fn pruneable_db() -> MovementsDb {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(15), BOB, GO).unwrap();
        db.record_exit(Time(25), BOB, GO).unwrap();
        db.record_enter(Time(30), ALICE, GO).unwrap();
        db.record_exit(Time(40), ALICE, GO).unwrap();
        db.record_enter(Time(50), ALICE, CAIS).unwrap();
        db
    }

    #[test]
    fn prune_drops_only_closed_stays_before_the_horizon() {
        let mut db = pruneable_db();
        let stays = db.collect_prunable(Time(30));
        assert_eq!(stays.len(), 2, "{stays:?}"); // Alice [10,20] + Bob [15,25]
        let dropped = db.apply_prune(Time(30));
        assert_eq!(dropped, 4);
        assert_eq!(db.watermark(), Time(30));
        assert_eq!(db.pruned_events(), 4);
        assert_eq!(db.len(), 3); // Alice's [30,40] + open [50, ..]
        assert_eq!(db.total_recorded(), 7);
        // Post-watermark queries stay complete.
        assert_eq!(db.whereabouts(ALICE, Time(35)), Some(GO));
        assert_eq!(db.whereabouts(ALICE, Time(55)), Some(CAIS));
        assert_eq!(db.current_location(ALICE), Some(CAIS));
        // Bob's whole timeline is gone; the subject key is dropped too.
        assert!(db.timeline(BOB).is_empty());
    }

    #[test]
    fn prune_retains_a_stay_straddling_the_horizon() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(40), ALICE, CAIS).unwrap();
        // Horizon falls inside the stay: exit (40) is not before 30, so
        // the stay survives and whereabouts below the watermark that hit
        // it still answer from live state.
        assert_eq!(db.apply_prune(Time(30)), 0);
        assert_eq!(db.whereabouts(ALICE, Time(20)), Some(CAIS));
    }

    #[test]
    fn prune_handles_same_chronon_reentry() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(20), ALICE, GO).unwrap();
        // Horizon 21: the first stay (exit 20 < 21) goes; the reentry at
        // the same chronon stays — stays, not event times, separate the
        // Exit@20 from the Enter@20.
        assert_eq!(db.apply_prune(Time(21)), 2);
        assert_eq!(
            db.timeline(ALICE),
            [Stay {
                location: GO,
                enter: Time(20),
                exit: None
            }]
        );
        assert_eq!(db.len(), 1);
        assert_eq!(db.current_location(ALICE), Some(GO));
    }

    #[test]
    fn prune_preserves_the_time_regression_guard() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.apply_prune(Time(100));
        assert!(db.timeline(ALICE).is_empty());
        // Alice's history is gone but her clock is not: a regressed
        // event is still rejected, exactly as without pruning.
        assert_eq!(
            db.record_enter(Time(5), ALICE, CAIS).unwrap_err(),
            MovementError::TimeRegression {
                latest: Time(20),
                event: Time(5)
            }
        );
        db.record_enter(Time(30), ALICE, CAIS).unwrap();
    }

    #[test]
    fn prune_is_idempotent_and_watermark_monotone() {
        let mut db = pruneable_db();
        db.apply_prune(Time(30));
        let snapshot = db.clone();
        assert_eq!(db.apply_prune(Time(30)), 0);
        assert_eq!(db, snapshot);
        // A lower horizon never lowers the watermark.
        db.apply_prune(Time(5));
        assert_eq!(db.watermark(), Time(30));
    }

    #[test]
    fn collect_prunable_matches_apply_prune() {
        // Beyond `pruneable_db`: clocks are only per-subject monotone, so
        // CAROL's events arrive *after* later-stamped ones of ALICE and
        // BOB (a prunable stay recorded late), BOB holds a stay open
        // across the horizon, and ALICE a closed one straddling it.
        const CAROL: SubjectId = SubjectId(2);
        let mut late = pruneable_db();
        late.record_exit(Time(60), ALICE, CAIS).unwrap();
        late.record_enter(Time(28), BOB, CAIS).unwrap();
        late.record_enter(Time(5), CAROL, GO).unwrap();
        late.record_exit(Time(8), CAROL, GO).unwrap();
        late.record_enter(Time(70), ALICE, GO).unwrap();
        for (db, horizon) in [(pruneable_db(), 30), (late.clone(), 30), (late, 55)] {
            let horizon = Time(horizon);
            let stays = db.collect_prunable(horizon);
            let mut pruned = db.clone();
            let dropped = pruned.apply_prune(horizon);
            // Two events per collected stay, and the collected stays are
            // exactly what the prune took off the front of each timeline.
            assert_eq!(dropped as usize, 2 * stays.len(), "horizon {horizon}");
            assert_eq!(pruned.len() + 2 * stays.len(), db.len());
            for (s, timeline) in db.timelines() {
                let gone: Vec<Stay> = stays
                    .iter()
                    .filter(|(who, _)| *who == s)
                    .map(|&(_, stay)| stay)
                    .collect();
                assert!(gone
                    .iter()
                    .all(|st| matches!(st.exit, Some(x) if x < horizon)));
                assert_eq!([&gone[..], pruned.timeline(s)].concat(), timeline);
            }
        }
    }

    #[test]
    fn pruned_db_serde_round_trips_watermark() {
        let mut db = pruneable_db();
        db.apply_prune(Time(30));
        let back = MovementsDb::from_value(&db.to_value()).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.watermark(), Time(30));
        assert_eq!(back.pruned_events(), 4);
    }

    #[test]
    fn latest_times_and_observe_latest_support_redistribution() {
        let mut db = pruneable_db();
        db.apply_prune(Time(100));
        let latest: std::collections::BTreeMap<_, _> = db.latest_times().collect();
        assert_eq!(latest[&BOB], Time(25));
        let mut fresh = MovementsDb::new();
        for (s, t) in db.latest_times() {
            fresh.observe_latest(s, t);
        }
        fresh.observe_latest(BOB, Time(1)); // never lowers
        assert!(matches!(
            fresh.record_enter(Time(24), BOB, GO),
            Err(MovementError::TimeRegression { .. })
        ));
        fresh.set_watermark(Time(100));
        fresh.set_watermark(Time(50)); // never lowers
        assert_eq!(fresh.watermark(), Time(100));
        fresh.add_pruned_events(4);
        assert_eq!(fresh.total_recorded(), 4);
    }
}
