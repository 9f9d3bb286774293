//! Tripwire: a movement event allocates nothing in steady state. Every
//! entry and exit goes through `MovementsDb` before Definition 7's
//! monitoring runs; once a subject's timeline and a location's occupant
//! list have the capacity the traffic needs — and a prune keeps it — an
//! entry or an exit is probes and stores, not allocator calls. Its own
//! test binary, because it swaps the global allocator for one that
//! counts.

use ltam_core::subject::SubjectId;
use ltam_engine::movement::MovementsDb;
use ltam_graph::LocationId;
use ltam_time::Time;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocator calls made.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Recording;

unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// `f`'s result and the allocator calls it made.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let calls = CALLS.load(Ordering::Relaxed);
    let result = f();
    (result, CALLS.load(Ordering::Relaxed) - calls)
}

const SUBJECTS: u32 = 1_000;
const STAYS: u64 = 8;
const LOCATIONS: u32 = 50;

/// One lap from `t0`: eight rounds in which every subject enters a room
/// (20 to a room) and then every subject leaves, in reverse order, so
/// exits empty the occupant lists from everywhere but the end. The lap
/// spans fewer than `10 * STAYS` chronons. Returns the events accepted.
fn lap(db: &mut MovementsDb, t0: u64) -> usize {
    let mut accepted = 0;
    for round in 0..STAYS {
        let t = t0 + 10 * round;
        let room = |s: u32| LocationId((s + 7 * round as u32) % LOCATIONS);
        for s in 0..SUBJECTS {
            accepted += usize::from(db.record_enter(Time(t), SubjectId(s), room(s)).is_ok());
        }
        for s in (0..SUBJECTS).rev() {
            accepted += usize::from(db.record_exit(Time(t + 5), SubjectId(s), room(s)).is_ok());
        }
    }
    accepted
}

// One test function: tests in a binary run on parallel threads and
// would see each other's allocations.
#[test]
fn a_movement_event_allocates_nothing_in_steady_state() {
    let events = 2 * SUBJECTS as usize * STAYS as usize;
    let mut db = MovementsDb::new();
    assert_eq!(lap(&mut db, 0), events);
    let horizon = Time(10 * STAYS);
    assert_eq!(db.apply_prune(horizon), events as u64);
    assert!(db.is_empty());

    // The same traffic again, past the prune: every row and list is
    // there with its capacity.
    let (accepted, calls) = recorded(|| lap(&mut db, horizon.get()));
    assert_eq!(accepted, events);
    assert_eq!(
        calls, 0,
        "{events} movement events made {calls} allocator calls"
    );
    assert_eq!(db.len(), events);
}
