//! Golden store: `tests/golden/store/` is a store directory written by
//! the commit *before* the streaming decoder (PR 17's tree — a
//! `Value`-tree decode behind every read), holding one of everything
//! `binval` decodes on the storage side: two snapshots, a WAL whose tail
//! carries event records and policy records past the newest snapshot,
//! an archive segment and the epoch marker. The store must open to
//! exactly the state the same script reaches today, answer
//! below-watermark queries from the old segment, and write the same
//! bytes back — formats did not move in either direction.
//!
//! Four keys have left the snapshot since: `enforcement_epoch`, the
//! count of closure policy edits a follower could not tail across (such
//! an edit is a WAL record now); each shard state's `audit_from` /
//! `violations_from`, the per-class retention watermarks (one horizon
//! prunes every class, so the movements watermark is the one
//! watermark); and each shard state's `movements.log`, a second copy of
//! every movement its stays already hold. With the log went the archive
//! segment's events block, the same copy of each pruned movement: it is
//! written empty now. The directory is deliberately **not** rewritten
//! for any of them — data on disk outlives binaries, so the old files,
//! keys and events included, are the upgrade-path fixture: they must
//! still open, and what is written today must be what was written then
//! minus exactly those keys and that block. This store is also the
//! oldest generation a reader supports: every field it carries is a
//! plain field today.
//!
//! `cargo test -p ltam-store --test golden -- --ignored` rewrites the
//! directory from the script (only ever needed on a format version bump).

mod common;

use common::canonical;
use ltam_core::capability::{AdminOp, Scope};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::retention::RetentionPolicy;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore, PolicyOp};
use ltam_graph::LocationId;
use ltam_situate::{SituationMode, SituationOp, WorkflowConstraint};
use ltam_store::archive::ARCHIVE_HEADER_LEN;
use ltam_store::snapshot::SNAPSHOT_HEADER_LEN;
use ltam_store::{binval, copy_flat_dir, digest, DurableEngine, ScratchDir, StoreConfig};
use ltam_time::{Interval, Time};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store")
}

fn config() -> StoreConfig {
    StoreConfig {
        segment_bytes: 256,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    }
}

fn core() -> PolicyCore {
    let mut core = PolicyCore::new(ltam_graph::examples::ntu_campus().model);
    for s in 0..4u32 {
        for l in 0..6u32 {
            let auth = Authorization::new(
                Interval::lit(0, 300),
                Interval::lit(0, 350),
                SubjectId(s),
                LocationId(l),
                EntryLimit::Finite(3),
            );
            core.add_authorization(auth.expect("exit window covers the entry window"));
        }
    }
    core
}

/// Subjects walk in and out of rooms for chronons `from..to`; subject 3
/// tailgates (enters without asking), so violations accrue too.
fn walk(from: u64, to: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for t in (from..to).step_by(10) {
        for s in 0..4u32 {
            let (time, subject) = (Time(t + u64::from(s)), SubjectId(s));
            let location = LocationId((t / 10 + u64::from(s)) as u32 % 6);
            if s != 3 {
                events.push(Event::Request {
                    time,
                    subject,
                    location,
                });
            }
            events.push(Event::Enter {
                time,
                subject,
                location,
            });
            events.push(Event::Exit {
                time: Time(time.get() + 5),
                subject,
                location,
            });
        }
    }
    events
}

/// The script: every kind of record and file, in a fixed order.
fn write_store(dir: &Path) -> DurableEngine {
    let (mut store, _alerts) = DurableEngine::create(dir, core(), 2, config()).expect("create");
    store.ingest(&walk(0, 120)).expect("ingest");
    store
        .apply_policy(&PolicyOp::Admin(AdminOp::MintToken {
            subject: SubjectId(9),
            scopes: vec![
                Scope::Query,
                Scope::Ingest {
                    locations: Some(vec![LocationId(1), LocationId(2)]),
                },
            ],
            validity: Interval::lit(0, 10_000),
            secret: "golden-secret".into(),
        }))
        .expect("mint");
    store
        .commit_quarantine(SubjectId(9), 1, &walk(120, 130)[..3])
        .expect("quarantine");
    store
        .run_retention_with(&RetentionPolicy::keep_last(60), Time(125))
        .expect("retention");
    store.snapshot().expect("snapshot");
    // Past the snapshot: recovery replays these from the WAL.
    store.ingest(&walk(130, 200)).expect("ingest");
    store
        .apply_policy(&PolicyOp::Situation(SituationOp::AddConstraint(
            WorkflowConstraint::OrderedSteps {
                steps: vec![LocationId(1), LocationId(4)],
                window: 30,
            },
        )))
        .expect("constraint");
    store
        .apply_policy(&PolicyOp::Situation(SituationOp::Declare(
            SituationMode::Lockdown,
        )))
        .expect("declare");
    store
        .apply_policy(&PolicyOp::Admin(AdminOp::SetTrust {
            subject: SubjectId(2),
            level: 3,
        }))
        .expect("trust");
    store.ingest(&walk(200, 230)).expect("ingest");
    store
}

/// Everything recovery rebuilds, in comparable form.
fn fingerprint(store: &DurableEngine) -> String {
    let policy = store.engine().policy();
    let view = store.read_view();
    let everything = Interval::lit(0, 1_000);
    format!(
        "{:#?}",
        (
            (store.applied(), store.policy_epoch(), store.clock()),
            (store.retention_watermark(), digest(view.engine())),
            store.engine().export_quarantine(),
            (policy.wire(), policy.situation(), policy.db().export_rows()),
            // Below the watermark: answered from the archive segment.
            view.whereabouts(SubjectId(1), Time(13)).expect("archived"),
            view.contacts(SubjectId(0), everything).expect("archived"),
            view.present_during(LocationId(2), everything)
                .expect("archived"),
            view.violations_in(everything).expect("archived"),
        )
    )
}

/// The events a serialized `timelines` map (`[subject, stays]` pairs)
/// records: an entry per stay and an exit per closed one — what
/// `MovementsDb::len` counts.
fn events_in(timelines: &Value) -> usize {
    let Value::Array(pairs) = timelines else {
        panic!("timelines are a map");
    };
    let mut events = 0;
    for pair in pairs {
        let Value::Array(pair) = pair else {
            panic!("a map entry is a pair");
        };
        let Value::Array(stays) = &pair[1] else {
            panic!("a timeline is an array");
        };
        for stay in stays {
            let Value::Object(fields) = stay else {
                panic!("a stay is an object");
            };
            let open = fields.iter().any(|(k, v)| k == "exit" && *v == Value::Null);
            events += if open { 1 } else { 2 };
        }
    }
    events
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list store")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect()
}

#[test]
fn a_store_written_before_the_streaming_decoder_opens_to_the_same_state() {
    let fresh_dir = ScratchDir::new("golden-fresh");
    let want = fingerprint(&write_store(fresh_dir.path()));

    let old_dir = ScratchDir::new("golden-old");
    copy_flat_dir(&golden_dir(), old_dir.path()).expect("copy the golden store");
    let (old, _alerts, report) = DurableEngine::open(old_dir.path(), config()).expect("open");
    assert!(
        report.snapshot_seq > 0,
        "recovered from the newest snapshot: {report:?}"
    );
    assert!(report.replayed > 0, "and replayed the WAL tail: {report:?}");
    assert_eq!(old.archive_segments_loaded(), 0);
    assert_eq!(fingerprint(&old), want);
    assert!(old.archive_segments_loaded() > 0, "the archive answered");
    // The digest crosses processes and builds: a primary and a follower
    // built from different commits compare it over the wire. So it is
    // pinned as a literal, which any change to the state or to its
    // encoding breaks. It hashes the canonical image, so the store
    // reopened at any shard count digests to it too.
    const DIGEST: u64 = 0x5e02_89d4_9fb3_1b40;
    assert_eq!(digest(old.engine()), DIGEST);
    for shards in [1, 4] {
        let dir = ScratchDir::new("golden-reshard");
        copy_flat_dir(&golden_dir(), dir.path()).expect("copy the golden store");
        let (store, _alerts, _) =
            DurableEngine::open_with_shards(dir.path(), config(), shards).expect("open");
        assert_eq!(store.engine().shard_count(), shards);
        assert_eq!(digest(store.engine()), DIGEST, "at {shards} shards");
    }
}

#[test]
fn the_same_script_still_writes_the_same_bytes() {
    let fresh_dir = ScratchDir::new("golden-bytes");
    drop(write_store(fresh_dir.path()));
    let (old, new) = (files(&golden_dir()), files(fresh_dir.path()));
    assert_eq!(
        old.keys().collect::<Vec<_>>(),
        new.keys().collect::<Vec<_>>()
    );
    for (name, old_bytes) in &old {
        let new_bytes = &new[name];
        if name.ends_with(".snap") {
            let tree = |bytes: &[u8]| {
                let payload = &bytes[SNAPSHOT_HEADER_LEN..];
                canonical(binval::decode::<Value>(payload).expect("snapshot payload"))
            };
            let Value::Object(mut old_pairs) = tree(old_bytes) else {
                panic!("{name}: a snapshot is an object");
            };
            let before = old_pairs.len();
            old_pairs.retain(|(key, _)| key != "enforcement_epoch");
            assert_eq!(old_pairs.len() + 1, before, "{name}: the old key is there");
            let states = old_pairs.iter_mut().find(|(key, _)| key == "states");
            let Some((_, Value::Array(states))) = states else {
                panic!("{name}: the shard states are an array");
            };
            for state in states {
                let Value::Object(fields) = state else {
                    panic!("{name}: a shard state is an object");
                };
                let before = fields.len();
                fields.retain(|(key, _)| key != "audit_from" && key != "violations_from");
                assert_eq!(
                    fields.len() + 2,
                    before,
                    "{name}: the old watermarks are there"
                );
                let movements = fields.iter_mut().find(|(key, _)| key == "movements");
                let Some((_, Value::Object(movements))) = movements else {
                    panic!("{name}: a shard state's movements are an object");
                };
                let field = |key: &str| movements.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let (Some(Value::Array(log)), Some(timelines)) = (field("log"), field("timelines"))
                else {
                    panic!("{name}: the old log is there");
                };
                assert_eq!(
                    log.len(),
                    events_in(timelines),
                    "{name}: the log held the events the stays count"
                );
                movements.retain(|(key, _)| key != "log");
            }
            assert_eq!(Value::Object(old_pairs), tree(new_bytes), "{name}");
        } else if name.ends_with(".arch") {
            // Magic, version, reserved, `from`, `to`; `records_len`; and
            // the records block: the same. The events block held each
            // pruned movement's two events then and is empty now (so the
            // CRC differs too).
            let len = |bytes: &[u8], at: usize| {
                u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
            };
            assert_eq!(old_bytes[..24], new_bytes[..24], "{name}");
            assert_eq!(old_bytes[32..40], new_bytes[32..40], "{name}");
            let (old_events, new_events) = (len(old_bytes, 24), len(new_bytes, 24));
            assert!(old_events > 0, "{name}: the old events block is there");
            assert_eq!(new_events, 0, "{name}: the new events block is empty");
            assert_eq!(
                old_bytes[ARCHIVE_HEADER_LEN + old_events..],
                new_bytes[ARCHIVE_HEADER_LEN..],
                "{name}: the records block"
            );
        } else {
            // WAL segments (event and policy records) and the epoch
            // marker: byte for byte.
            assert_eq!(old_bytes, new_bytes, "{name}");
        }
    }
}

/// Equal states write equal bytes: two runs of the script in one
/// process, snapshots and all, with nothing canonicalized.
#[test]
fn the_script_writes_the_same_bytes_twice() {
    let (a, b) = (
        ScratchDir::new("golden-twice-a"),
        ScratchDir::new("golden-twice-b"),
    );
    drop(write_store(a.path()));
    drop(write_store(b.path()));
    let (a, b) = (files(a.path()), files(b.path()));
    assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
    for (name, bytes) in &a {
        assert!(*bytes == b[name], "{name}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/store from the script"]
fn bless() {
    let dir = golden_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create golden dir");
    drop(write_store(&dir));
}
