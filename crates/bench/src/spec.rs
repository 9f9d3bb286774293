//! The history half of an executable specification of the paper: an
//! oracle for the tests, with no index, no shard and no pruning.
//!
//! It is transcribed from the paper and from the [`MovementError`] docs,
//! not from the movements database. The location & movements database of
//! the paper's Figure 3 "stores … users' movements": here, every accepted
//! movement, folded into stays. A subject's movement is rejected when
//!
//! * its time precedes the subject's latest recorded time
//!   ([`MovementError::TimeRegression`]),
//! * it is an entry while the subject is already inside some location
//!   ([`MovementError::EnterWhileInside`]), or
//! * it is an exit from a location the subject is not in
//!   ([`MovementError::ExitWithoutEntry`]),
//!
//! and a rejected movement records nothing. The history questions are
//! plain scans over every stay ever accepted: "where was s at t", "who was
//! in l during w", the contact trace of §1's SARS scenario (everyone else
//! in the same location at the same time as s, during w), and the
//! violations of a given list that fall in a window.

use ltam_core::subject::SubjectId;
use ltam_engine::batch::Event;
use ltam_engine::movement::{Contact, MovementError, Stay};
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_time::{Interval, Time};
use std::collections::BTreeMap;

/// Every accepted movement, as stays.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// `(subject, stay)` in the order the entries were accepted.
    stays: Vec<(SubjectId, Stay)>,
    /// Each subject's latest recorded time.
    latest: BTreeMap<SubjectId, Time>,
    /// Where in `stays` each subject inside a location has its open stay.
    open: BTreeMap<SubjectId, usize>,
    /// Movements rejected so far.
    rejected: usize,
}

impl History {
    /// The history an event sequence records: its entries and exits in
    /// order (requests and ticks move nobody).
    pub fn fold<'a>(events: impl IntoIterator<Item = &'a Event>) -> History {
        let mut history = History::default();
        for e in events {
            let _ = match *e {
                Event::Enter {
                    time,
                    subject,
                    location,
                } => history.enter(time, subject, location),
                Event::Exit {
                    time,
                    subject,
                    location,
                } => history.exit(time, subject, location),
                Event::Request { .. } | Event::Tick { .. } => Ok(()),
            };
        }
        history
    }

    /// Where `subject` is now: the location of its stay without an exit.
    fn inside(&self, subject: SubjectId) -> Option<LocationId> {
        self.open.get(&subject).map(|&i| self.stays[i].1.location)
    }

    fn check_time(&self, subject: SubjectId, t: Time) -> Result<(), MovementError> {
        match self.latest.get(&subject) {
            Some(&latest) if t < latest => Err(MovementError::TimeRegression { latest, event: t }),
            _ => Ok(()),
        }
    }

    fn reject<T>(&mut self, e: MovementError) -> Result<T, MovementError> {
        self.rejected += 1;
        Err(e)
    }

    /// `subject` enters `location` at `t`.
    pub fn enter(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<(), MovementError> {
        if let Err(e) = self.check_time(subject, t) {
            return self.reject(e);
        }
        if let Some(at) = self.inside(subject) {
            return self.reject(MovementError::EnterWhileInside { at });
        }
        self.latest.insert(subject, t);
        self.open.insert(subject, self.stays.len());
        let stay = Stay {
            location,
            enter: t,
            exit: None,
        };
        self.stays.push((subject, stay));
        Ok(())
    }

    /// `subject` leaves `location` at `t`.
    pub fn exit(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<(), MovementError> {
        if let Err(e) = self.check_time(subject, t) {
            return self.reject(e);
        }
        let at = self.inside(subject);
        if at != Some(location) {
            return self.reject(MovementError::ExitWithoutEntry { at });
        }
        self.latest.insert(subject, t);
        let open = self.open.remove(&subject).expect("the subject is inside");
        self.stays[open].1.exit = Some(t);
        Ok(())
    }

    /// Every accepted stay with its subject, in the order of its entry.
    pub fn stays(&self) -> &[(SubjectId, Stay)] {
        &self.stays
    }

    /// How many movements were rejected.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Where `subject` was at `t`: the location of its last stay holding
    /// `t` (moves within one chronon leave it where it ended up).
    pub fn whereabouts(&self, subject: SubjectId, t: Time) -> Option<LocationId> {
        let mut holding = self
            .stays
            .iter()
            .filter(|(s, stay)| *s == subject && stay.interval().contains(t));
        holding.next_back().map(|(_, stay)| stay.location)
    }

    /// Who was in `location` during `window`: every stay there that
    /// overlaps it, clipped to it, by `(subject, start, end)`.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
    ) -> Vec<(SubjectId, Interval)> {
        let mut out: Vec<(SubjectId, Interval)> = self
            .stays
            .iter()
            .filter(|(_, stay)| stay.location == location)
            .filter_map(|&(s, stay)| Some((s, stay.interval().intersect(window)?)))
            .collect();
        out.sort_by_key(|&(s, i)| (s, i.start(), i.end()));
        out
    }

    /// Everyone else who shared a location with `subject` during
    /// `window`: one contact per pair of overlapping stays, the overlap
    /// clipped to `window`, by `(other, location, start, end)`.
    pub fn contacts(&self, subject: SubjectId, window: Interval) -> Vec<Contact> {
        let mut out = Vec::new();
        for &(s, mine) in &self.stays {
            if s != subject {
                continue;
            }
            for &(other, theirs) in &self.stays {
                let shared = mine.interval().intersect(theirs.interval());
                if other != subject && theirs.location == mine.location {
                    if let Some(overlap) = shared.and_then(|i| i.intersect(window)) {
                        let location = mine.location;
                        out.push(Contact {
                            other,
                            location,
                            overlap,
                        });
                    }
                }
            }
        }
        out.sort_by_key(contact_key);
        out
    }
}

/// The order [`History::contacts`] returns contacts in.
pub fn contact_key(c: &Contact) -> (SubjectId, LocationId, Time, ltam_time::Bound) {
    (c.other, c.location, c.overlap.start(), c.overlap.end())
}

/// The violations of `list` detected inside `window`, in list order.
pub fn violations_in(list: &[Violation], window: Interval) -> Vec<Violation> {
    list.iter()
        .filter(|v| window.contains(v.time()))
        .copied()
        .collect()
}
