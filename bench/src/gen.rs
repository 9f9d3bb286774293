//! Seeded input generation: one closed base lap of the
//! `ltam_sim::multi_shard_trace` behaviour mix, replayed in laps.
//!
//! A *lap* is a trace in which every subject ends outside every
//! location, so the same events can be replayed again with all times
//! shifted by the lap's span: per-subject time stays monotone, the
//! engine sees an endless stream, and the generator never holds more
//! than the base lap in memory. The overstaying cohort's badges expire
//! inside the first lap, so from the second lap on that cohort is
//! refused at the door and raises unauthorized entries — history,
//! violations and the archive tier keep growing at a steady rate.

use ltam::core::model::Authorization;
use ltam::engine::batch::{shard_of, Event, PolicyCore};
use ltam::sim::{multi_shard_trace, TraceConfig};
use ltam::time::Time;

/// The 8×8 grid every workload plays out in.
pub const GRID: usize = 8;

/// A base lap plus the policy it runs under.
pub struct Lap {
    /// Authorizations granted to the population.
    pub authorizations: Vec<Authorization>,
    /// The lap's events in arrival order; every subject ends outside.
    pub events: Vec<Event>,
    /// Chronons to shift by per lap (largest event time + 1).
    pub span: u64,
}

/// The location model of every workload (constant, not seeded).
pub fn world() -> ltam::sim::gen::World {
    ltam::sim::grid_building(GRID, GRID)
}

/// The policy core every engine shape is built from: the grid world
/// plus `authorizations`, added in order (so authorization ids agree
/// wherever the same list is loaded).
pub fn policy_core(authorizations: &[Authorization]) -> PolicyCore {
    let mut core = PolicyCore::new(world().model);
    for auth in authorizations {
        core.add_authorization(*auth);
    }
    core
}

/// Generate the base lap for `seed`: about `events` events over
/// `subjects` subjects (10% tailgaters, 10% overstayers, no ticks),
/// closed so that every subject ends outside.
pub fn base_lap(seed: u64, subjects: usize, events: usize) -> Lap {
    let trace = multi_shard_trace(&TraceConfig {
        subjects,
        events,
        grid: GRID,
        tick_every: 0,
        tailgater_fraction: 0.1,
        overstayer_fraction: 0.1,
        seed,
    });
    let mut events = trace.events;
    // Where each subject stands when the generator stops.
    let mut open: Vec<Option<Event>> = vec![None; subjects];
    for e in &events {
        let s = e.subject().expect("the lap has no ticks").0 as usize;
        open[s] = match e {
            Event::Exit { .. } => None,
            _ => Some(*e),
        };
    }
    for last in open.into_iter().flatten() {
        match last {
            Event::Request {
                time,
                subject,
                location,
            } => {
                events.push(Event::Enter {
                    time: Time(time.get() + 1),
                    subject,
                    location,
                });
                events.push(Event::Exit {
                    time: Time(time.get() + 6),
                    subject,
                    location,
                });
            }
            Event::Enter {
                time,
                subject,
                location,
            } => events.push(Event::Exit {
                time: Time(time.get() + 5),
                subject,
                location,
            }),
            Event::Exit { .. } | Event::Tick { .. } => unreachable!("closed above"),
        }
    }
    let span = events.iter().map(|e| e.time().get()).max().unwrap_or(0) + 1;
    Lap {
        authorizations: trace.authorizations,
        events,
        span,
    }
}

/// `event` as it appears in lap number `lap` (0-based).
pub fn shifted(event: &Event, lap: u64, span: u64) -> Event {
    let by = lap * span;
    match *event {
        Event::Request {
            time,
            subject,
            location,
        } => Event::Request {
            time: Time(time.get() + by),
            subject,
            location,
        },
        Event::Enter {
            time,
            subject,
            location,
        } => Event::Enter {
            time: Time(time.get() + by),
            subject,
            location,
        },
        Event::Exit {
            time,
            subject,
            location,
        } => Event::Exit {
            time: Time(time.get() + by),
            subject,
            location,
        },
        Event::Tick { now } => Event::Tick {
            now: Time(now.get() + by),
        },
    }
}

/// Split a lap into `n` per-connection streams; each subject's events
/// stay in one stream, in order (what enforcement needs).
pub fn partition(events: &[Event], n: usize) -> Vec<Vec<Event>> {
    let mut streams = vec![Vec::new(); n];
    for e in events {
        let s = e.subject().expect("the lap has no ticks");
        streams[shard_of(s, n)].push(*e);
    }
    streams
}

/// An endless cursor over one stream's laps.
#[derive(Clone)]
pub struct LapCursor {
    lap: u64,
    at: usize,
    span: u64,
}

impl LapCursor {
    /// Start at the first event of lap 0.
    pub fn new(span: u64) -> LapCursor {
        LapCursor::starting_at(span, 0)
    }

    /// Start at the first event of lap `lap`.
    pub fn starting_at(span: u64, lap: u64) -> LapCursor {
        LapCursor { lap, at: 0, span }
    }

    /// Start where a cursor that consumed `consumed` events of a stream
    /// of `stream_len` events stopped.
    pub fn resuming(span: u64, consumed: u64, stream_len: usize) -> LapCursor {
        LapCursor {
            lap: consumed / stream_len as u64,
            at: (consumed % stream_len as u64) as usize,
            span,
        }
    }

    /// Events consumed so far.
    pub fn consumed(&self, stream_len: usize) -> u64 {
        self.lap * stream_len as u64 + self.at as u64
    }

    /// The next event of `stream`, time-shifted into its lap.
    pub fn next(&mut self, stream: &[Event]) -> Event {
        let e = shifted(&stream[self.at], self.lap, self.span);
        self.at += 1;
        if self.at == stream.len() {
            self.at = 0;
            self.lap += 1;
        }
        e
    }

    /// Append the next `n` events of `stream` to `out`.
    pub fn fill(&mut self, stream: &[Event], n: usize, out: &mut Vec<Event>) {
        for _ in 0..n {
            out.push(self.next(stream));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam::core::subject::SubjectId;
    use ltam::graph::LocationId;

    /// FNV-1a over a lap's events: the determinism self-test's fingerprint.
    fn digest(events: &[Event]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in events {
            let (tag, s, l): (u64, SubjectId, LocationId) = match *e {
                Event::Request {
                    subject, location, ..
                } => (0, subject, location),
                Event::Enter {
                    subject, location, ..
                } => (1, subject, location),
                Event::Exit {
                    subject, location, ..
                } => (2, subject, location),
                Event::Tick { .. } => (3, SubjectId(0), LocationId(0)),
            };
            fold(tag);
            fold(e.time().get());
            fold(s.0 as u64);
            fold(l.0 as u64);
        }
        h
    }

    #[test]
    fn same_seed_same_lap_different_seed_different_lap() {
        let a = base_lap(7, 50, 2_000);
        let b = base_lap(7, 50, 2_000);
        let c = base_lap(8, 50, 2_000);
        assert_eq!(digest(&a.events), digest(&b.events));
        assert_eq!(a.span, b.span);
        assert_ne!(digest(&a.events), digest(&c.events));
    }

    #[test]
    fn a_lap_ends_with_every_subject_outside() {
        let lap = base_lap(3, 40, 1_500);
        let mut inside = [false; 40];
        let mut requested = [false; 40];
        for e in &lap.events {
            let s = e.subject().unwrap().0 as usize;
            match e {
                Event::Request { .. } => requested[s] = true,
                Event::Enter { .. } => {
                    requested[s] = false;
                    inside[s] = true
                }
                Event::Exit { .. } => inside[s] = false,
                Event::Tick { .. } => panic!("no ticks"),
            }
        }
        assert!(inside.iter().all(|&i| !i));
        assert!(requested.iter().all(|&r| !r));
    }

    #[test]
    fn laps_keep_per_subject_time_monotone() {
        let lap = base_lap(11, 30, 1_000);
        let streams = partition(&lap.events, 2);
        for stream in &streams {
            let mut cursor = LapCursor::new(lap.span);
            let mut last = vec![0u64; 30];
            for _ in 0..stream.len() * 3 {
                let e = cursor.next(stream);
                let s = e.subject().unwrap().0 as usize;
                assert!(e.time().get() >= last[s], "time went backwards");
                last[s] = e.time().get();
            }
            assert_eq!(cursor.consumed(stream.len()), stream.len() as u64 * 3);
            let mut resumed = LapCursor::resuming(lap.span, stream.len() as u64 * 3, stream.len());
            assert_eq!(resumed.next(stream), cursor.next(stream));
        }
        // Every subject lands in exactly one stream.
        let total: usize = streams.iter().map(Vec::len).sum();
        assert_eq!(total, lap.events.len());
    }
}
