//! Tripwire: loading a policy costs what its rows cost, and pays only
//! for the indexes somebody reads. Every restart, follower bootstrap and
//! policy install goes through `PolicyCore::from_image`, and every
//! set-up through `add_authorization`; neither may allocate per row what
//! a per-row index insert would, and neither may build the entry-window
//! tree, which no enforcement path ever queries. Its own test binary,
//! because it swaps the global allocator for one that counts.

use ltam_core::decision::AccessRequest;
use ltam_core::ledger::UsageLedger;
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_core::AuthId;
use ltam_engine::batch::PolicyCore;
use ltam_graph::examples::ntu_campus;
use ltam_graph::LocationId;
use ltam_time::{Interval, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocator calls made, and bytes currently allocated.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Recording;

unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// `f`'s result, the allocator calls it made and the bytes it left
/// allocated.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (calls, live) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    let result = f();
    (
        result,
        CALLS.load(Ordering::Relaxed) - calls,
        LIVE.load(Ordering::Relaxed).saturating_sub(live),
    )
}

const ROWS: usize = 50_000;
const DECISIONS: usize = 10_000;

/// 1 000 subjects × 50 locations, one authorization a pair (the shape
/// the perf ledger's workloads load), windows from a seeded xorshift.
fn seeded_rows() -> Vec<Authorization> {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..ROWS)
        .map(|k| {
            let start = next() % 100_000;
            let window = Interval::lit(start, start + next() % 500);
            Authorization::new(
                window,
                window,
                SubjectId((k / 50) as u32),
                LocationId((k % 50) as u32),
                EntryLimit::Unbounded,
            )
            .expect("equal windows satisfy Definition 4")
        })
        .collect()
}

/// What the first time-sliced query must leave on the heap if it is the
/// one that builds the index: a tree node holds at least its interval
/// and its payload.
const TREE_BYTES: usize = ROWS * std::mem::size_of::<(Interval, AuthId)>();

// One test function: tests in a binary run on parallel threads and
// would see each other's allocations.
#[test]
fn a_policy_load_allocates_per_table_not_per_row() {
    let rows = seeded_rows();

    // Set-up: one `add_authorization` per row. One-id candidate lists
    // are inline, the record table's two vectors double, and nothing
    // feeds a tree, which leaves each subject's list doubling and the
    // tables' growth: 0.125 calls a row.
    let (mut core, calls, _) = recorded(|| {
        let mut core = PolicyCore::new(ntu_campus().model);
        for auth in &rows {
            core.add_authorization(*auth);
        }
        core
    });
    assert!(
        calls <= ROWS * 13 / 100,
        "{ROWS} add_authorization calls made {calls} allocator calls"
    );
    let (hits, _, grew) = recorded(|| core.db().enterable_at(Time(50_000)).len());
    assert!(hits > 0, "the probe time lies inside some window");
    assert!(
        grew >= TREE_BYTES,
        "the first enterable_at left {grew} bytes: the tree was built before anyone asked"
    );
    // Built, the tree is kept: asking again allocates only the answer.
    let (_, _, grew) = recorded(|| core.db().enterable_at(Time(50_000)).len());
    assert_eq!(grew, 0);
    // A revocation drops it.
    let before = LIVE.load(Ordering::Relaxed);
    core.revoke_authorization(AuthId(0));
    let freed = before.saturating_sub(LIVE.load(Ordering::Relaxed));
    assert!(freed >= TREE_BYTES, "a revocation freed only {freed} bytes");

    // Load: the whole image in one pass — the record table's two
    // vectors sized from the image, one exactly sized list per subject, one
    // exactly sized table per index: 0.021 calls a row.
    let image = core.image();
    let (loaded, calls, _) = recorded(|| PolicyCore::from_image(image));
    assert!(
        calls <= ROWS * 25 / 1000,
        "from_image of {ROWS} rows made {calls} allocator calls"
    );
    let (_, _, grew) = recorded(|| loaded.db().enterable_at(Time(50_000)).len());
    assert!(
        grew >= TREE_BYTES,
        "the first enterable_at left {grew} bytes: from_image built the tree"
    );
    assert_eq!(loaded.db().len(), ROWS - 1);

    // Deciding reads the indexes and allocates nothing: not the
    // candidate walk, not the lookup by id an entry or exit makes.
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let requests: Vec<AccessRequest> = (0..DECISIONS)
        .map(|_| AccessRequest {
            time: Time(next() % 100_500),
            subject: SubjectId((next() % 1_000) as u32),
            location: LocationId((next() % 50) as u32),
        })
        .collect();
    // Any id but `AuthId(0)`, revoked above.
    let ids: Vec<AuthId> = (0..DECISIONS)
        .map(|_| AuthId(1 + next() % (ROWS as u64 - 1)))
        .collect();
    let context = loaded.view().decision_context();
    let ledger = UsageLedger::new();
    let (granted, calls, _) = recorded(|| {
        requests
            .iter()
            .filter(|request| context.decide(&ledger, request).is_granted())
            .count()
    });
    assert!(granted > 0, "some requests fall inside their pair's window");
    assert_eq!(
        calls, 0,
        "{DECISIONS} decisions made {calls} allocator calls"
    );
    let (found, calls, _) = recorded(|| {
        ids.iter()
            .filter(|&&id| loaded.db().get(id).is_some())
            .count()
    });
    assert_eq!(found, DECISIONS);
    assert_eq!(
        calls, 0,
        "{DECISIONS} lookups by id made {calls} allocator calls"
    );
}
