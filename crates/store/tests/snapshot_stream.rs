//! The snapshot writer streams the payload, in chunks, from the live
//! policy epoch into its file: these tests pin that the file it leaves
//! is, byte for byte, the one the owned image encodes to, that recovery
//! opens it, and that a write cut short leaves nothing `open` keeps.

use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::prohibition::Prohibition;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore, PolicyImage, QuarantinedEvent};
use ltam_engine::shard::ShardStateImage;
use ltam_graph::examples::ntu_campus;
use ltam_graph::LocationId;
use ltam_situate::{SituationMode, SituationOp};
use ltam_store::crc::crc32_update;
use ltam_store::snapshot::{SnapshotView, SNAPSHOT_HEADER_LEN, SNAPSHOT_WRITE_CHUNK};
use ltam_store::{binval, crc32, DurableEngine, ScratchDir, SnapshotStore, StoreConfig};
use ltam_store::{StoreSnapshot, SNAPSHOT_VERSION};
use ltam_time::{Interval, Time};
use serde::{Serialize, Serializer, Value};
use std::path::{Path, PathBuf};

type Alerts = std::sync::mpsc::Receiver<ltam_engine::Alert>;

fn config() -> StoreConfig {
    StoreConfig {
        segment_bytes: 1 << 20,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    }
}

/// A policy of `rows` authorizations at the campus's CAIS lab, one per
/// subject, and a prohibition.
fn campus_policy(rows: u32) -> (PolicyCore, LocationId) {
    let ntu = ntu_campus();
    let mut core = PolicyCore::new(ntu.model);
    for s in 0..rows {
        let window = Interval::lit(u64::from(s % 50), 200 + u64::from(s % 50));
        let auth = Authorization::new(
            window,
            window,
            SubjectId(s),
            ntu.cais,
            EntryLimit::Finite(3),
        );
        core.add_authorization(auth.expect("equal windows satisfy Definition 4"));
    }
    core.add_prohibition(Prohibition {
        subject: SubjectId(1),
        location: ntu.cais,
        window: Interval::lit(0, 50),
    });
    (core, ntu.cais)
}

/// A 3-shard store whose every snapshot section is populated:
/// authorizations, a prohibition, a declared situation, movement and
/// ledger state on each shard, and a non-empty quarantine ledger.
fn populated(dir: &Path, rows: u32) -> (DurableEngine, Alerts, LocationId) {
    let (core, cais) = campus_policy(rows);
    let (mut store, alerts) = DurableEngine::create(dir, core, 3, config()).unwrap();
    store
        .apply_situation(&SituationOp::AddResponder(SubjectId(7)))
        .unwrap();
    store
        .apply_situation(&SituationOp::Declare(SituationMode::Lockdown))
        .unwrap();
    visit(&mut store, cais, 0..12, 60);
    store
        .commit_quarantine(
            SubjectId(90),
            0,
            &[Event::Enter {
                time: Time(61),
                subject: SubjectId(3),
                location: cais,
            }],
        )
        .unwrap();
    (store, alerts, cais)
}

/// Each of `subjects` requests, enters and leaves `cais` from `at` on.
fn visit(store: &mut DurableEngine, cais: LocationId, subjects: std::ops::Range<u32>, at: u64) {
    let events: Vec<Event> = subjects
        .flat_map(|s| {
            let subject = SubjectId(s);
            [
                Event::Request {
                    time: Time(at),
                    subject,
                    location: cais,
                },
                Event::Enter {
                    time: Time(at + 1),
                    subject,
                    location: cais,
                },
                Event::Exit {
                    time: Time(at + 2),
                    subject,
                    location: cais,
                },
            ]
        })
        .collect();
    store.ingest(&events).unwrap();
}

/// `store`'s state as the owned image the buffered writer encoded.
fn owned(store: &DurableEngine) -> StoreSnapshot {
    let engine = store.engine();
    StoreSnapshot {
        seq: store.applied(),
        policy_epoch: store.policy_epoch(),
        shards: engine.shard_count(),
        policy: engine.policy().image(),
        states: engine.export_images(),
        quarantine: engine.export_quarantine(),
        clock: store.clock().get(),
    }
}

/// The file the buffered writer wrote for `snapshot`: the header, then
/// `binval::encode` of the owned image.
fn buffered_file(snapshot: &StoreSnapshot) -> Vec<u8> {
    let payload = binval::encode(snapshot);
    let mut file = b"LTSN".to_vec();
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.extend_from_slice(&[0, 0]);
    file.extend_from_slice(&snapshot.seq.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    assert_eq!(file.len(), SNAPSHOT_HEADER_LEN);
    file.extend_from_slice(&payload);
    file
}

fn snapshot_path(dir: &Path, snapshot: &StoreSnapshot) -> PathBuf {
    dir.join(format!(
        "snap-{:020}-{:010}.snap",
        snapshot.seq, snapshot.policy_epoch
    ))
}

#[test]
fn a_streamed_snapshot_is_the_buffered_writers_file_byte_for_byte() {
    let dir = ScratchDir::new("stream-bytes");
    // 5 000 rows: a payload of several chunks.
    let (mut store, _alerts, _) = populated(dir.path(), 5_000);
    let encode = ltam_obs::histogram!(
        "store_snapshot_encode_seconds",
        "Snapshot phase: encoding the engine image, CRC included (summed over its chunks)",
        SecondsFromMicros
    );
    let encodes = encode.count();
    store.snapshot().unwrap();
    assert!(encode.count() > encodes, "the encode phase is observed");
    let expected = owned(&store);
    assert!(expected
        .states
        .iter()
        .all(|s| !s.movements.is_empty() && !s.audit.is_empty()));
    assert!(!expected.quarantine.is_empty());
    assert!(!expected.policy.prohibitions.is_empty());
    assert_eq!(expected.policy.situation.mode(), SituationMode::Lockdown);
    let written = std::fs::read(snapshot_path(dir.path(), &expected)).unwrap();
    let buffered = buffered_file(&expected);
    assert!(
        buffered.len() > 2 * SNAPSHOT_WRITE_CHUNK,
        "{} bytes",
        buffered.len()
    );
    assert!(
        written == buffered,
        "the streamed file differs from the buffered one"
    );
}

#[test]
fn recovery_opens_the_streamed_snapshot_over_an_older_one() {
    let dir = ScratchDir::new("stream-recover");
    let (mut store, alerts, cais) = populated(dir.path(), 40);
    // The older snapshot, as the buffered writer wrote it: what recovery
    // falls back to if it refuses the streamed one.
    let older = owned(&store);
    std::fs::write(snapshot_path(dir.path(), &older), buffered_file(&older)).unwrap();
    visit(&mut store, cais, 12..30, 80);
    let newest = store.snapshot().unwrap();
    assert!(newest > older.seq);
    let digest = ltam_store::digest(store.engine());
    drop((store, alerts));

    let (store, _alerts, report) = DurableEngine::open(dir.path(), config()).unwrap();
    assert_eq!(
        report.snapshot_seq, newest,
        "the streamed snapshot was refused"
    );
    assert_eq!(report.replayed, 0);
    assert_eq!(ltam_store::digest(store.engine()), digest);
}

#[test]
fn every_chunk_size_streams_the_same_bytes_and_crc() {
    let dir = ScratchDir::new("stream-chunks");
    let (store, _alerts, _) = populated(dir.path(), 3);
    let whole = binval::encode(&owned(&store));
    let policy = store.engine().policy();
    let (states, quarantine) = (
        store.engine().export_images(),
        store.engine().export_quarantine(),
    );
    let live = SnapshotView {
        seq: store.applied(),
        policy_epoch: store.policy_epoch(),
        shards: store.engine().shard_count(),
        policy: policy.image_ref(),
        states: &states,
        quarantine: &quarantine,
        clock: store.clock().get(),
    };
    for chunk in 1..=whole.len() + 1 {
        let (mut bytes, mut crc) = (Vec::new(), 0);
        binval::encode_chunked(&live, chunk, &mut |piece| {
            bytes.extend_from_slice(piece);
            crc = crc32_update(crc, piece);
        });
        assert!(bytes == whole, "chunk {chunk}: different bytes");
        assert_eq!(crc, crc32(&whole), "chunk {chunk}");
    }
}

#[test]
fn the_borrowed_form_carries_every_field_of_the_owned_one() {
    let dir = ScratchDir::new("stream-fields");
    let (store, _alerts, _) = populated(dir.path(), 40);
    let expected = owned(&store);
    let policy = store.engine().policy();
    let live = SnapshotView {
        seq: expected.seq,
        policy_epoch: expected.policy_epoch,
        shards: expected.shards,
        policy: policy.image_ref(),
        states: &expected.states,
        quarantine: &expected.quarantine,
        clock: expected.clock,
    };
    assert_eq!(live.to_value(), expected.to_value());
    let back: StoreSnapshot = binval::decode(&binval::encode(&live)).unwrap();
    // No `..`: a field added to either image fails to compile here until
    // it is bound and compared — and the borrowed form the writer
    // streams must carry it, or the comparison fails.
    let StoreSnapshot {
        seq,
        policy_epoch,
        shards,
        policy,
        states,
        quarantine,
        clock,
    } = back;
    assert_eq!(
        (seq, policy_epoch, shards, clock),
        (
            expected.seq,
            expected.policy_epoch,
            expected.shards,
            expected.clock
        )
    );
    assert_eq!(states, expected.states);
    assert_eq!(quarantine, expected.quarantine);
    let PolicyImage {
        model,
        authorizations,
        next_auth_id,
        prohibitions,
        config,
        wire,
        situation,
    } = policy;
    let owned_policy = &expected.policy;
    assert_eq!(model, owned_policy.model);
    assert_eq!(authorizations, owned_policy.authorizations);
    assert_eq!(next_auth_id, owned_policy.next_auth_id);
    assert_eq!(prohibitions, owned_policy.prohibitions);
    assert_eq!(config, owned_policy.config);
    assert_eq!(wire, owned_policy.wire);
    assert_eq!(situation, owned_policy.situation);
}

/// Authorization rows that stream more than a chunk and then stop, as a
/// writer killed mid-file would.
struct CutShort;

impl Serialize for CutShort {
    fn to_value(&self) -> Value {
        unreachable!("only streamed")
    }
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        let row = "x".repeat(1024);
        s.begin_array(usize::MAX);
        for i in 0..=2 * SNAPSHOT_WRITE_CHUNK / row.len() {
            s.elem(i);
            row.serialize(s);
        }
        panic!("writer cut short");
    }
}

fn orphans_removed(kind: &'static str) -> u64 {
    ltam_obs::registry()
        .counter(
            "store_orphans_removed_total",
            &[("kind", kind)],
            "Temp files a crash mid-write left behind, removed at open, by kind",
        )
        .get()
}

#[test]
fn open_removes_the_temp_files_a_crash_left_behind() {
    let dir = ScratchDir::new("stream-orphans");
    let (core, _) = campus_policy(3);
    drop(DurableEngine::create(dir.path(), core.clone(), 2, config()).unwrap());

    // A real write, cut short past its first chunk.
    let base = core.image_ref();
    let cut = StoreSnapshot {
        seq: 9,
        policy_epoch: 0,
        shards: 0,
        policy: PolicyImage {
            authorizations: CutShort,
            model: base.model,
            next_auth_id: base.next_auth_id,
            prohibitions: base.prohibitions,
            config: base.config,
            wire: base.wire,
            situation: base.situation,
        },
        states: Vec::<ShardStateImage>::new(),
        quarantine: Vec::<QuarantinedEvent>::new(),
        clock: 0,
    };
    let store = SnapshotStore::with_fsync(dir.path(), false);
    let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.write(&cut)));
    assert!(write.is_err());
    let cut_tmp = dir.path().join(format!("snap-{:020}-{:010}.tmp", 9, 0));
    let left = std::fs::read(&cut_tmp).unwrap();
    assert!(left.len() > SNAPSHOT_WRITE_CHUNK);
    assert_eq!(
        left[..SNAPSHOT_HEADER_LEN],
        [0; SNAPSHOT_HEADER_LEN],
        "header is written last"
    );

    // One planted orphan of each kind, and a file that is not one.
    let planted = [
        format!("snap-{:020}-{:010}.tmp", 4, 1),
        format!("arch-{:020}-{:020}.tmp", 0, 30),
        "policy.epoch.tmp".to_string(),
    ];
    for name in &planted {
        std::fs::write(dir.path().join(name), b"partial").unwrap();
    }
    std::fs::write(dir.path().join("notes.tmp"), b"not the store's").unwrap();
    let before = ["snapshot", "archive", "epoch"].map(orphans_removed);

    let (_store, _alerts, report) = DurableEngine::open(dir.path(), config()).unwrap();
    assert_eq!(report.snapshot_seq, 0);
    assert!(!cut_tmp.exists());
    for name in &planted {
        assert!(!dir.path().join(name).exists(), "{name} survived open");
    }
    assert!(dir.path().join("notes.tmp").exists());
    let removed = ["snapshot", "archive", "epoch"].map(orphans_removed);
    assert_eq!(
        [
            removed[0] - before[0],
            removed[1] - before[1],
            removed[2] - before[2]
        ],
        [2, 1, 1]
    );
}
