//! Tripwire: a snapshot costs the shard images plus a chunk or two of
//! memory, not the policy twice. The writer streams the payload from the
//! live policy epoch into its file; a row copy of the policy, or an
//! encoding of the whole image into one buffer before the first write,
//! would each put the image's size on the heap at once. Its own test
//! binary, because it swaps the global allocator for one that records
//! the heap's high-water mark.

use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore};
use ltam_graph::examples::ntu_campus;
use ltam_graph::LocationId;
use ltam_store::snapshot::SNAPSHOT_WRITE_CHUNK;
use ltam_store::{binval, DurableEngine, ScratchDir, StoreConfig, StoreSnapshot};
use ltam_time::{Interval, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Recording;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as both blocks at once, as a moving realloc holds them.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// `f`'s result, the bytes it left allocated and the most it held above
/// the level it started from.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let result = f();
    let left = LIVE.load(Ordering::Relaxed).saturating_sub(live);
    (result, left, PEAK.load(Ordering::Relaxed) - live)
}

const ROWS: usize = 50_000;

/// 1 000 subjects × 50 locations, one authorization a pair (the shape
/// the perf ledger's workloads load), windows from a seeded xorshift.
fn seeded_policy() -> PolicyCore {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut core = PolicyCore::new(ntu_campus().model);
    for k in 0..ROWS {
        let start = next() % 100_000;
        let window = Interval::lit(start, start + next() % 500);
        let auth = Authorization::new(
            window,
            window,
            SubjectId((k / 50) as u32),
            LocationId((k % 50) as u32),
            EntryLimit::Unbounded,
        );
        core.add_authorization(auth.expect("equal windows satisfy Definition 4"));
    }
    core
}

// One test function: tests in a binary run on parallel threads and
// would see each other's allocations.
#[test]
fn a_snapshot_holds_its_shard_images_and_two_chunks_at_most() {
    let dir = ScratchDir::new("snapshot-memory");
    let config = StoreConfig {
        segment_bytes: 1 << 20,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    };
    let (mut store, _alerts) =
        DurableEngine::create(dir.path(), seeded_policy(), 4, config).unwrap();
    // Shard state worth imaging: 1 000 subjects each enter and leave.
    let events: Vec<Event> = (0..1_000u32)
        .flat_map(|s| {
            let (subject, location) = (SubjectId(s), LocationId(s % 50));
            let time = Time(1_000 + u64::from(s));
            [
                Event::Enter {
                    time,
                    subject,
                    location,
                },
                Event::Exit {
                    time: time.succ(),
                    subject,
                    location,
                },
            ]
        })
        .collect();
    store.ingest(&events).unwrap();

    // What a snapshot must capture on the heap: the shard images (and
    // the quarantine ledger, empty here).
    let (images, _, images_bytes) = recorded(|| store.engine().export_images());
    drop(images);

    // The bound, from a measurement of this test: the high-water mark
    // above the call's start was 483 292 bytes — the images (190 720),
    // the chunk buffer (a chunk and a sixteenth, 278 528) and 14 044
    // bytes of WAL rotation, file names and directory listing — so 1.12
    // chunks over the images. Two chunks leaves most of a chunk of slack
    // for the small allocations while still failing any writer that
    // holds a second chunk's worth of the image. The buffered writer
    // this replaced held a row copy of the policy and the whole encoded
    // file at once: 16 959 460 bytes here, at least the encoded image,
    // which is checked below to dwarf the bound.
    let bound = images_bytes + 2 * SNAPSHOT_WRITE_CHUNK;
    let (_, _, high_water) = recorded(|| store.snapshot().unwrap());
    assert!(
        high_water <= bound,
        "a snapshot of {ROWS} rows held {high_water} bytes above its start; \
         the bound is the shard images ({images_bytes}) + 2 chunks = {bound}"
    );

    let engine = store.engine();
    let encoded = binval::encode(&StoreSnapshot {
        seq: store.applied(),
        policy_epoch: store.policy_epoch(),
        shards: engine.shard_count(),
        policy: engine.policy().image(),
        states: engine.export_images(),
        quarantine: engine.export_quarantine(),
        clock: store.clock().get(),
    })
    .len();
    assert!(
        encoded > 2 * bound,
        "the encoded image ({encoded} bytes) no longer dwarfs the bound ({bound}): \
         the tripwire would not catch a buffered writer"
    );
}
