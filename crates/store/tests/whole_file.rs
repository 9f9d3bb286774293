//! One reader applies every check to every kind of checksummed whole
//! file. For a snapshot, an archive segment and the acked-epoch marker
//! of one store, each header byte flipped, one payload byte flipped, the
//! file one byte short and one byte appended are each refused with an
//! error naming the file — and each kind's caller keeps its policy: the
//! snapshot loader falls back to the older snapshot and counts the skip
//! `invalid`, the archive read fails `InvalidData`, and recovery reports
//! the marker and proceeds.

use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore};
use ltam_engine::retention::PrunedHistory;
use ltam_graph::examples::ntu_campus;
use ltam_situate::SituationOp;
use ltam_store::whole::{self, Kind, MARKER, SEGMENT, SNAPSHOT};
use ltam_store::{ArchiveStore, DurableEngine, ScratchDir, SnapshotStore, StoreConfig};
use ltam_time::Time;
use std::io;
use std::path::{Path, PathBuf};

fn config() -> StoreConfig {
    StoreConfig {
        segment_bytes: 1 << 20,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    }
}

/// A closed store holding two snapshots (`snap-0-0` and one at the
/// given seq and epoch 1), an archive segment `[0, 50)` and a marker at
/// epoch 1. Returns the newest snapshot's `(seq, path)`.
fn store(dir: &Path) -> (u64, PathBuf) {
    let ntu = ntu_campus();
    let core = PolicyCore::new(ntu.model);
    let (mut store, _alerts) = DurableEngine::create(dir, core, 2, config()).unwrap();
    let enter = Event::Enter {
        time: Time(3),
        subject: SubjectId(1),
        location: ntu.cais,
    };
    store.ingest(&[enter]).unwrap();
    store
        .apply_situation(&SituationOp::AddResponder(SubjectId(7)))
        .unwrap();
    let seq = store.snapshot().unwrap();
    drop(store);
    let archive = ArchiveStore::with_fsync(dir, false);
    archive
        .append_run(0, 50, &PrunedHistory::default())
        .unwrap();
    let newest = dir.join(format!("snap-{seq:020}-{:010}.snap", 1));
    assert!(newest.exists());
    (seq, newest)
}

/// Every damage the reader must refuse, by name.
fn damaged(good: &[u8], kind: &Kind) -> Vec<(String, Vec<u8>)> {
    let header_len = kind.header_len();
    let mut out = Vec::new();
    for at in 0..header_len {
        let mut bytes = good.to_vec();
        bytes[at] ^= 0x01;
        out.push((format!("header byte {at} flipped"), bytes));
    }
    if good.len() > header_len {
        let mut bytes = good.to_vec();
        bytes[(header_len + good.len()) / 2] ^= 0x01;
        out.push(("a payload byte flipped".into(), bytes));
    }
    out.push(("one byte short".into(), good[..good.len() - 1].to_vec()));
    out.push(("one byte appended".into(), [good, &[0]].concat()));
    out
}

/// Write each damaged copy over `path`, check the reader refuses it
/// naming the file and that `policy` holds, then put the good bytes back.
fn each_damage(path: &Path, kind: &Kind, expect: &[u64], mut policy: impl FnMut(&str)) {
    let good = std::fs::read(path).unwrap();
    assert!(whole::read_checked(path, kind, expect).is_ok());
    for (damage, bytes) in damaged(&good, kind) {
        std::fs::write(path, &bytes).unwrap();
        let err = whole::read_checked(path, kind, expect).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{damage}: {err}");
        let named = path.display().to_string();
        assert!(err.to_string().contains(&named), "{damage}: {err}");
        policy(&damage);
    }
    std::fs::write(path, &good).unwrap();
}

fn skipped_invalid() -> u64 {
    ltam_obs::registry()
        .counter(
            "store_snapshots_skipped_total",
            &[("reason", "invalid")],
            "Snapshot files recovery passed over for an older one, by reason",
        )
        .get()
}

#[test]
fn every_kind_refuses_every_damage_and_its_caller_keeps_its_policy() {
    let dir = ScratchDir::new("whole-file-table");
    let (seq, newest) = store(dir.path());

    let snapshots = SnapshotStore::with_fsync(dir.path(), false);
    each_damage(&newest, &SNAPSHOT, &[seq], |damage| {
        let before = skipped_invalid();
        let loaded = snapshots.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, 0, "{damage}: falls back to the older snapshot");
        assert!(skipped_invalid() > before, "{damage}: the skip is counted");
    });
    assert_eq!(snapshots.load_latest().unwrap().unwrap().seq, seq);

    let segment = dir.path().join(format!("arch-{:020}-{:020}.arch", 0, 50));
    let archive = ArchiveStore::with_fsync(dir.path(), false);
    each_damage(&segment, &SEGMENT, &[0, 50], |damage| {
        let err = archive.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{damage}: {err}");
        assert!(err.to_string().contains("arch-"), "{damage}: {err}");
    });
    assert!(archive.load().is_ok());

    let marker = dir.path().join("policy.epoch");
    each_damage(&marker, &MARKER, &[], |damage| {
        let (_store, _alerts, report) = DurableEngine::open(dir.path(), config()).unwrap();
        let error = report.epoch_marker_error.unwrap_or_default();
        assert!(error.contains("policy.epoch"), "{damage}: {error:?}");
    });
    let (_store, _alerts, report) = DurableEngine::open(dir.path(), config()).unwrap();
    assert_eq!(report.epoch_marker_error, None);
}

#[test]
fn a_corrupt_epoch_marker_is_reported_and_recovery_proceeds() {
    let dir = ScratchDir::new("whole-file-marker");
    store(dir.path());
    let marker = dir.path().join("policy.epoch");
    let mut bytes = std::fs::read(&marker).unwrap();
    bytes[10] ^= 0x40;
    std::fs::write(&marker, &bytes).unwrap();
    let (store, _alerts, report) = DurableEngine::open(dir.path(), config()).unwrap();
    assert_eq!(store.policy_epoch(), 1);
    let error = report
        .epoch_marker_error
        .expect("the rotted marker is reported");
    assert!(error.contains(&marker.display().to_string()), "{error}");
    assert!(error.contains("CRC mismatch"), "{error}");
}
