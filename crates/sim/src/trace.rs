//! High-volume event-trace generation for the sharded enforcement layer.
//!
//! The walkers in [`crate::walker`] drive an engine *interactively* (the
//! next step depends on the last decision). For throughput work we want
//! the opposite: a **pre-materialized trace** — a `Vec<Event>` that can
//! be replayed into any engine, batched, sharded, or single-threaded —
//! so that every implementation processes byte-identical input and their
//! violation sets can be compared as multisets.
//!
//! [`multi_shard_trace`] generates such traces deterministically from a
//! seed: a population of subjects (compliant / tailgating / overstaying,
//! in configurable proportions) performs request → enter → exit cycles
//! over a grid world, with periodic monitoring-clock ticks. Subjects'
//! events are interleaved round-robin with per-subject monotone
//! timestamps, mirroring how readings from many doors arrive at the
//! Figure 3 engine.

use crate::gen::{grid_building, rng, World};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam_engine::engine::AccessControlEngine;
use ltam_engine::violation::Alert;
use ltam_graph::LocationId;
use ltam_time::{Interval, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// Parameters for [`multi_shard_trace`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Simulated population size.
    pub subjects: usize,
    /// Approximate number of events to generate (the trace stops at the
    /// first cycle boundary past this count).
    pub events: usize,
    /// Side length of the square grid world.
    pub grid: usize,
    /// Insert a `Tick` after every this many events (0 disables ticks).
    pub tick_every: usize,
    /// Fraction of subjects with no authorizations at all — every entry
    /// they make is a tailgating violation.
    pub tailgater_fraction: f64,
    /// Fraction of (authorized) subjects that ignore their exit windows:
    /// they leave late, tripping exit-window or overstay detection.
    pub overstayer_fraction: f64,
    /// RNG seed; equal configs generate equal traces.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            subjects: 64,
            events: 10_000,
            grid: 8,
            tick_every: 64,
            tailgater_fraction: 0.1,
            overstayer_fraction: 0.1,
            seed: 42,
        }
    }
}

/// A generated trace plus everything needed to enforce it.
#[derive(Debug, Clone)]
pub struct TraceWorld {
    /// The location layout the trace plays out in.
    pub world: World,
    /// The authorizations granted to the population.
    pub authorizations: Vec<Authorization>,
    /// The event trace, in arrival order.
    pub events: Vec<Event>,
}

impl TraceWorld {
    /// Build a plain single-threaded engine loaded with this trace's
    /// authorizations (the reference semantics).
    pub fn build_engine(&self) -> AccessControlEngine {
        let mut engine = AccessControlEngine::new(self.world.model.clone());
        for auth in &self.authorizations {
            engine.add_authorization(*auth);
        }
        engine
    }

    /// Build a [`ShardedEngine`] with `shards` shards loaded with this
    /// trace's authorizations.
    pub fn build_sharded(
        &self,
        shards: usize,
    ) -> (ShardedEngine, std::sync::mpsc::Receiver<Alert>) {
        ShardedEngine::new(self.build_policy_core(), shards)
    }

    /// Build the trace's [`PolicyCore`] (for [`ltam_store::DurableEngine`]
    /// and other engine shapes).
    pub fn build_policy_core(&self) -> PolicyCore {
        let mut core = PolicyCore::new(self.world.model.clone());
        for auth in &self.authorizations {
            core.add_authorization(*auth);
        }
        core
    }

    /// The largest timestamp in the trace — the monitoring-clock value
    /// a retention horizon is naturally anchored to (`Time::ZERO` for
    /// an empty trace).
    pub fn max_time(&self) -> Time {
        self.events
            .iter()
            .map(Event::time)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Partition the trace into `clients` per-connection replay
    /// streams for the serving tier's load generator: each subject's
    /// events land in exactly one stream, in trace order — the
    /// invariant enforcement needs — while cross-subject interleaving
    /// is surrendered to the network. Broadcast events (`Tick`) go to
    /// stream 0; because concurrent replay cannot preserve a tick's
    /// global position, traces meant for violation-multiset comparison
    /// against a serial run should be generated with `tick_every: 0`
    /// (and, if overstay coverage is wanted, followed by one final tick
    /// after every stream has drained — see `repro serve`).
    pub fn client_streams(&self, clients: usize) -> Vec<Vec<Event>> {
        assert!(clients >= 1, "need at least one client stream");
        let mut streams = vec![Vec::new(); clients];
        for e in &self.events {
            match e.subject() {
                Some(s) => streams[ltam_engine::batch::shard_of(s, clients)].push(*e),
                None => streams[0].push(*e),
            }
        }
        streams
    }

    /// Persist this trace's event stream as an `ltam-store` WAL fixture
    /// under `dir` — the on-disk input for durability tests, corruption
    /// drills, and recovery benchmarks. Returns the number of records
    /// written. Pair with [`read_events_wal`]; the world and
    /// authorizations regenerate deterministically from the same
    /// [`TraceConfig`].
    pub fn write_events_wal(
        &self,
        dir: &std::path::Path,
        segment_bytes: u64,
    ) -> std::io::Result<u64> {
        let config = ltam_store::WalConfig {
            segment_bytes,
            fsync: false, // fixtures are rewritable artifacts, not live logs
        };
        let (mut wal, recovered) = ltam_store::Wal::open(dir, config)?;
        if !recovered.records.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a WAL fixture", dir.display()),
            ));
        }
        for chunk in self.events.chunks(1024) {
            wal.append_batch(chunk)?;
        }
        Ok(wal.next_seq())
    }
}

/// Load the event stream of a WAL fixture written by
/// [`TraceWorld::write_events_wal`] (tolerating — and repairing — a torn
/// or corrupted tail, like any WAL open).
pub fn read_events_wal(dir: &std::path::Path) -> std::io::Result<Vec<Event>> {
    let (_, recovered) = ltam_store::Wal::open(dir, ltam_store::WalConfig::default())?;
    Ok(recovered.events().map(|(_, e)| e).collect())
}

/// Where one simulated subject is in its request → enter → exit cycle.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Outside,
    Requested(LocationId),
    Inside(LocationId),
}

#[derive(Debug, Clone, Copy)]
struct Actor {
    subject: SubjectId,
    clock: u64,
    phase: Phase,
    authorized: bool,
    overstayer: bool,
}

/// Generate a deterministic high-volume trace (see the module docs).
///
/// The population mixes the behaviours the paper cares about, so a
/// realistic slice of every violation kind shows up: unauthorized
/// entries from the tailgating cohort, exit-window breaches and
/// overstays from the overstaying cohort, and plenty of clean traffic.
pub fn multi_shard_trace(cfg: &TraceConfig) -> TraceWorld {
    assert!(cfg.subjects >= 1, "need at least one subject");
    let world = grid_building(cfg.grid.max(1), cfg.grid.max(1));
    let locations: Vec<LocationId> = world.graph.locations().collect();
    let mut r = rng(cfg.seed);

    // Compliant subjects hold long-lived badges (windows far beyond the
    // trace horizon). Overstayers hold *expiring* badges: entries stop
    // being admitted after `deadline` and exits past `deadline + slack`
    // breach the exit window — staying inside across a tick raises an
    // overstay. Tailgaters hold nothing.
    let mut authorizations = Vec::new();
    let mut actors = Vec::with_capacity(cfg.subjects);
    let n_tailgaters = (cfg.subjects as f64 * cfg.tailgater_fraction).round() as usize;
    const LONG_HORIZON: u64 = u64::MAX / 4;
    for i in 0..cfg.subjects {
        let subject = SubjectId(i as u32);
        let authorized = i >= n_tailgaters;
        let overstayer = authorized && r.gen_bool(cfg.overstayer_fraction.clamp(0.0, 1.0));
        if authorized {
            for &l in &locations {
                let (entry_end, exit_end) = if overstayer {
                    let deadline = 100 + r.gen_range(0..100u64);
                    (deadline, deadline + 20)
                } else {
                    (LONG_HORIZON, LONG_HORIZON + 60)
                };
                authorizations.push(
                    Authorization::new(
                        Interval::lit(0, entry_end),
                        Interval::lit(0, exit_end),
                        subject,
                        l,
                        EntryLimit::Unbounded,
                    )
                    .expect("windows satisfy Definition 4"),
                );
            }
        }
        actors.push(Actor {
            subject,
            clock: 0,
            phase: Phase::Outside,
            authorized,
            overstayer,
        });
    }

    let mut events = Vec::with_capacity(cfg.events + cfg.subjects * 4);
    while events.len() < cfg.events {
        let a = &mut actors[r.gen_range(0..cfg.subjects)];
        step_actor(a, &locations, &mut r, &mut events);
        if cfg.tick_every > 0 && events.len() % cfg.tick_every == 0 {
            // The monitoring clock runs ahead of every subject's local
            // clock so overstay scans see closed exit windows.
            let now = actors.iter().map(|a| a.clock).max().unwrap_or(0) + 1;
            events.push(Event::Tick { now: Time(now) });
        }
    }

    TraceWorld {
        world,
        authorizations,
        events,
    }
}

fn step_actor(a: &mut Actor, locations: &[LocationId], r: &mut StdRng, events: &mut Vec<Event>) {
    match a.phase {
        Phase::Outside => {
            let target = locations[r.gen_range(0..locations.len())];
            a.clock += r.gen_range(1..4u64);
            if a.authorized {
                events.push(Event::Request {
                    time: Time(a.clock),
                    subject: a.subject,
                    location: target,
                });
                a.phase = Phase::Requested(target);
            } else {
                // Tailgaters skip the reader entirely.
                events.push(Event::Enter {
                    time: Time(a.clock),
                    subject: a.subject,
                    location: target,
                });
                a.phase = Phase::Inside(target);
            }
        }
        Phase::Requested(target) => {
            // Enter within the grant TTL most of the time; occasionally
            // dawdle past it (a lapsed grant → unauthorized entry).
            a.clock += if r.gen_bool(0.9) {
                r.gen_range(0..4u64)
            } else {
                8
            };
            events.push(Event::Enter {
                time: Time(a.clock),
                subject: a.subject,
                location: target,
            });
            a.phase = Phase::Inside(target);
        }
        Phase::Inside(here) => {
            // Compliant subjects leave within their exit deadline (the
            // earliest deadline is 40); overstayers linger far beyond.
            let dwell = if a.overstayer {
                90 + r.gen_range(0..30u64)
            } else {
                r.gen_range(2..20u64)
            };
            a.clock += dwell;
            events.push(Event::Exit {
                time: Time(a.clock),
                subject: a.subject,
                location: here,
            });
            a.phase = Phase::Outside;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_engine::batch::apply_to_engine;
    use ltam_engine::violation::Violation;

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig {
            events: 500,
            ..TraceConfig::default()
        };
        let a = multi_shard_trace(&cfg);
        let b = multi_shard_trace(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.authorizations, b.authorizations);
        assert!(a.events.len() >= 500);
    }

    #[test]
    fn traces_exercise_the_violation_taxonomy() {
        let trace = multi_shard_trace(&TraceConfig {
            subjects: 32,
            events: 4_000,
            ..TraceConfig::default()
        });
        let mut engine = trace.build_engine();
        for e in &trace.events {
            apply_to_engine(&mut engine, e);
        }
        let vs = engine.violations();
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnauthorizedEntry { .. })),
            "no tailgating in trace"
        );
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::ExitOutsideWindow { .. })
                    || matches!(v, Violation::Overstay { .. })),
            "no exit-window or overstay violations in trace"
        );
        // Clean traffic exists too: some entries were granted and used.
        assert!(engine.ledger().total_entries() > 0);
    }

    #[test]
    fn wal_fixture_round_trips_the_trace() {
        let trace = multi_shard_trace(&TraceConfig {
            subjects: 16,
            events: 1_500,
            ..TraceConfig::default()
        });
        let dir = ltam_store::ScratchDir::new("sim-fixture");
        let written = trace.write_events_wal(dir.path(), 16 * 1024).unwrap();
        assert_eq!(written, trace.events.len() as u64);
        assert_eq!(read_events_wal(dir.path()).unwrap(), trace.events);
        // A fixture refuses to overwrite itself.
        assert!(trace.write_events_wal(dir.path(), 16 * 1024).is_err());
    }

    #[test]
    fn client_streams_partition_by_subject_in_order() {
        let trace = multi_shard_trace(&TraceConfig {
            subjects: 24,
            events: 2_000,
            ..TraceConfig::default()
        });
        let streams = trace.client_streams(3);
        assert_eq!(streams.len(), 3);
        let scattered: usize = streams.iter().map(Vec::len).sum();
        assert_eq!(scattered, trace.events.len(), "every event lands once");
        // Each subject lives in exactly one stream, in original order.
        let mut owner: std::collections::HashMap<SubjectId, usize> = Default::default();
        for (i, stream) in streams.iter().enumerate() {
            let mut last: std::collections::HashMap<SubjectId, Time> = Default::default();
            for e in stream {
                if let Some(s) = e.subject() {
                    assert_eq!(*owner.entry(s).or_insert(i), i, "{s} split across streams");
                    if let Some(&prev) = last.get(&s) {
                        assert!(e.time() >= prev, "order broken for {s}");
                    }
                    last.insert(s, e.time());
                }
            }
        }
        assert!(owner.len() > 3, "multiple subjects per stream");
    }

    #[test]
    fn max_time_tracks_the_latest_event() {
        let trace = multi_shard_trace(&TraceConfig {
            subjects: 8,
            events: 500,
            ..TraceConfig::default()
        });
        let expected = trace.events.iter().map(|e| e.time()).max().unwrap();
        assert_eq!(trace.max_time(), expected);
        assert!(trace.max_time() > Time(0));
    }

    #[test]
    fn per_subject_times_are_monotone() {
        let trace = multi_shard_trace(&TraceConfig {
            subjects: 16,
            events: 2_000,
            ..TraceConfig::default()
        });
        let mut last: std::collections::HashMap<SubjectId, Time> = Default::default();
        for e in &trace.events {
            if let Some(s) = e.subject() {
                if let Some(&prev) = last.get(&s) {
                    assert!(e.time() >= prev, "time regression for {s}");
                }
                last.insert(s, e.time());
            }
        }
    }
}
