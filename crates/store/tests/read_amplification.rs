//! Read-amplification tripwire: what a historical read *examines* must
//! not grow with the age of the deployment.
//!
//! Two stores load the same seeded lap of history — one twice, one
//! eleven times — pruning to the archive after every lap, so each ends
//! with one live lap and one or ten archived segments. The same three
//! questions are then put to the newest archived lap and to the live
//! lap of both, and `store_view_rows_examined_total` (read as deltas:
//! the registry is process-wide, which is why this file holds one test)
//! must count exactly the same rows in the short history as in the long
//! one: the rows of a binary search's landing zone, not of a scan. That
//! holds in both tiers for all three: a live-tier `ViolationsIn` reads
//! each shard's by-time view of its violations, like the archive's, so
//! it examines the violations in its window and no other.

use ltam_core::retention::RetentionPolicy;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore};
use ltam_graph::{LocationId, LocationModel};
use ltam_store::{DurableEngine, ReadView, ScratchDir, StoreConfig};
use ltam_time::{Interval, Time};

const SUBJECTS: u32 = 48;
const LOCATIONS: usize = 8;
/// Chronons per lap; every subject is outside at both ends of a lap.
const LAP: u64 = 1_000;

/// `(subject, location index, enter, exit)` for one lap from the epoch:
/// each subject wanders on its own clock (a fixed multiplicative
/// generator), so arrivals are out of time order across subjects.
fn lap_stays() -> Vec<(SubjectId, usize, u64, u64)> {
    let mut stays = Vec::new();
    for s in 0..SUBJECTS {
        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(s) + 1);
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut t = next(20);
        loop {
            let enter = t + next(20);
            let exit = enter + next(60);
            if exit >= LAP {
                break;
            }
            stays.push((SubjectId(s), next(LOCATIONS as u64) as usize, enter, exit));
            t = exit;
        }
    }
    stays
}

/// A store holding `laps` laps: the last one live, the rest archived,
/// one segment per lap. Nobody is authorized, so every entry is also a
/// violation at its enter time.
fn load(laps: u64) -> (ScratchDir, DurableEngine, Vec<LocationId>) {
    let mut model = LocationModel::new("W");
    let rooms: Vec<LocationId> = (0..LOCATIONS)
        .map(|i| model.add_primitive(model.root(), format!("r{i}")).unwrap())
        .collect();
    let dir = ScratchDir::new("read-amplification");
    let config = StoreConfig {
        fsync: false,
        snapshot_every: 0,
        retention: None,
        ..StoreConfig::default()
    };
    let (mut store, _alerts) =
        DurableEngine::create(dir.path(), PolicyCore::new(model), 2, config).unwrap();
    let policy = RetentionPolicy::keep_last(LAP);
    for lap in 0..laps {
        let base = lap * LAP;
        let events: Vec<Event> = lap_stays()
            .into_iter()
            .flat_map(|(subject, room, enter, exit)| {
                let location = rooms[room];
                [
                    Event::Enter {
                        time: Time(base + enter),
                        subject,
                        location,
                    },
                    Event::Exit {
                        time: Time(base + exit),
                        subject,
                        location,
                    },
                ]
            })
            .collect();
        store.ingest(&events).unwrap();
        store.run_retention_with(&policy, Time(base + LAP)).unwrap();
    }
    assert_eq!(store.retention_watermark(), Time((laps - 1) * LAP));
    (dir, store, rooms)
}

fn counter(name: &str, kind: &'static str) -> u64 {
    ltam_obs::counter_value(ltam_obs::registry(), name, &[("kind", kind)]).unwrap_or(0)
}

/// `(examined, returned)` that `ask` added to the `kind` counters.
fn counted(kind: &'static str, ask: impl FnOnce()) -> (u64, u64) {
    let read = || {
        (
            counter("store_view_rows_examined_total", kind),
            counter("store_view_rows_returned_total", kind),
        )
    };
    let before = read();
    ask();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

/// The three questions, asked of the lap starting at `base`.
fn ask(view: &ReadView, room: LocationId, base: u64) -> [(u64, u64); 3] {
    let at = |a: u64, b: u64| Interval::lit(base + a, base + b);
    [
        counted("present_during", || {
            view.present_during(room, at(400, 450)).unwrap();
        }),
        counted("contacts", || {
            view.contacts(SubjectId(7), at(300, 500)).unwrap();
        }),
        counted("violations_in", || {
            view.violations_in(at(600, 620)).unwrap();
        }),
    ]
}

#[test]
fn what_a_read_examines_does_not_grow_with_history() {
    let stays = lap_stays();
    let room = 3;
    let here = || stays.iter().filter(|&&(_, l, _, _)| l == room);
    // What the bounds promise, from the generator alone. PresentDuring
    // walks the room's stays entered in [start − longest, end] (every
    // stay here is closed and laps are identical, so `longest` is the
    // lap's, in either tier); ViolationsIn sees exactly the violations
    // in its window, in either tier.
    let longest = here().map(|&(_, _, a, b)| b - a).max().unwrap();
    assert!(longest < 100, "windows below stay clear of the lap's edges");
    let in_reach = here()
        .filter(|&&(_, _, a, _)| (400 - longest..=450).contains(&a))
        .count() as u64;
    let present = here().filter(|&&(_, _, a, b)| a <= 450 && b >= 400).count() as u64;
    let entered = |from, to| stays.iter().filter(|s| (from..=to).contains(&s.2)).count() as u64;
    assert!(
        present > 0 && entered(600, 620) > 0,
        "the questions have answers"
    );

    let mut seen = Vec::new();
    for laps in [2, 11] {
        let (_dir, store, rooms) = load(laps);
        let view = store.read_view();
        let archived = ask(&view, rooms[room], (laps - 2) * LAP);
        let live = ask(&view, rooms[room], (laps - 1) * LAP);
        for tier in [archived, live] {
            assert_eq!(tier[0], (in_reach, present), "PresentDuring, {laps} laps");
            let (examined, contacts) = tier[1];
            assert!(
                contacts > 0 && examined >= contacts,
                "Contacts, {laps} laps"
            );
        }
        let in_window = entered(600, 620);
        assert_eq!(
            archived[2],
            (in_window, in_window),
            "ViolationsIn, {laps} laps"
        );
        assert_eq!(live[2], (in_window, in_window), "ViolationsIn, {laps} laps");
        seen.push((archived, live));
    }
    assert_eq!(seen[0], seen[1], "1 archived lap against 10");
}
