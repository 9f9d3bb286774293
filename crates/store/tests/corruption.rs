//! Corrupt-WAL smoke tests — the drill CI runs on every push: write a
//! fixture log, flip a byte, and assert recovery truncates cleanly at the
//! damage without panicking or losing any committed record before it.

use ltam_core::subject::SubjectId;
use ltam_engine::batch::Event;
use ltam_graph::LocationId;
use ltam_store::{Wal, WalConfig};
use ltam_time::Time;

fn fixture_events(n: u64) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let subject = SubjectId((i % 31) as u32);
            let location = LocationId((i % 7) as u32);
            match i % 4 {
                0 => Event::Request {
                    time: Time(i),
                    subject,
                    location,
                },
                1 => Event::Enter {
                    time: Time(i),
                    subject,
                    location,
                },
                2 => Event::Exit {
                    time: Time(i + 1),
                    subject,
                    location,
                },
                _ => Event::Tick { now: Time(i + 2) },
            }
        })
        .collect()
}

/// Flip one byte at `offset` within the newest WAL segment; returns the
/// segment's length for offset bookkeeping.
fn flip_byte_in_newest_segment(dir: &std::path::Path, offset_from_end: u64) -> u64 {
    let segments = Wal::segment_files(dir).expect("list store dir");
    let last = segments.last().expect("a WAL segment exists");
    let mut bytes = std::fs::read(last).expect("read segment");
    let len = bytes.len() as u64;
    let at = (len - 1 - offset_from_end.min(len - 1)) as usize;
    bytes[at] ^= 0x20;
    std::fs::write(last, &bytes).expect("write damaged segment");
    len
}

#[test]
fn flipped_byte_truncates_cleanly_and_preserves_the_prefix() {
    let dir = ltam_store::ScratchDir::new("corruption-smoke");
    let config = WalConfig {
        segment_bytes: 8 * 1024,
        fsync: false,
    };
    let events = fixture_events(512);
    {
        let (mut wal, _) = Wal::open(dir.path(), config).expect("create fixture log");
        for chunk in events.chunks(64) {
            wal.append_batch(chunk).expect("append fixture batch");
        }
    }

    // Flip a byte deep in the newest segment's record area.
    flip_byte_in_newest_segment(dir.path(), 200);

    // Recovery must not panic, must report truncation, and must hand back
    // an exact prefix of the committed events.
    let (_, recovery) = Wal::open(dir.path(), config).expect("recovery never errors on a flip");
    assert!(
        recovery.truncated_bytes > 0,
        "the flip must be detected and truncated"
    );
    let got: Vec<Event> = recovery.events().map(|(_, e)| e).collect();
    assert!(!got.is_empty(), "records before the flip survive");
    assert!(got.len() < events.len(), "records after the flip are cut");
    assert_eq!(
        got[..],
        events[..got.len()],
        "recovered events are an exact prefix — nothing before the damage is dropped"
    );

    // The repaired log is appendable and a further open is clean.
    {
        let (mut wal, second) = Wal::open(dir.path(), config).expect("reopen repaired log");
        assert_eq!(second.truncated_bytes, 0, "repair already happened");
        assert_eq!(second.events().count(), got.len());
        wal.append_batch(&fixture_events(8))
            .expect("append after repair");
    }
    let (_, third) = Wal::open(dir.path(), config).expect("final open");
    assert_eq!(third.events().count(), got.len() + 8);
}

#[test]
fn flipped_segment_header_drops_only_that_segment_and_later() {
    let dir = ltam_store::ScratchDir::new("corruption-header");
    let config = WalConfig {
        segment_bytes: 512, // force several segments
        fsync: false,
    };
    let events = fixture_events(400);
    {
        let (mut wal, _) = Wal::open(dir.path(), config).expect("create fixture log");
        for chunk in events.chunks(16) {
            wal.append_batch(chunk).expect("append fixture batch");
        }
    }
    let segments = Wal::segment_files(dir.path()).expect("list store dir");
    assert!(segments.len() >= 3, "fixture spans several segments");
    // Damage the *middle* segment's magic: everything from that segment on
    // is untrusted; everything before survives.
    let mid = &segments[segments.len() / 2];
    let mut bytes = std::fs::read(mid).expect("read segment");
    bytes[0] ^= 0xFF;
    std::fs::write(mid, &bytes).expect("write damaged segment");

    let (_, recovery) = Wal::open(dir.path(), config).expect("recovery handles a dead segment");
    let got: Vec<Event> = recovery.events().map(|(_, e)| e).collect();
    assert!(!got.is_empty());
    assert!(got.len() < events.len());
    assert_eq!(
        got[..],
        events[..got.len()],
        "prefix property holds across segments"
    );
    assert!(
        recovery.dropped_segments > 0,
        "later segments were discarded"
    );
}
