//! Property tests for the durability layer's on-disk formats.
//!
//! The codec contract: arbitrary events and policy ops round-trip
//! bit-exactly, and arbitrary *bytes* — truncations, bit flips, garbage
//! — decode to an error, never a panic. The WAL contract: whatever
//! survives a damaged tail is an exact prefix of what was appended. The
//! record contract: a [`WalRecord`] means the same thing to the live
//! commit path, to crash recovery and to a follower's tail scanner. The
//! decoder contract: reading a type straight out of `binval` bytes and
//! reading it through a `Value` tree are the same function.

mod common;

use common::canonical;
use ltam_core::capability::{AdminOp, Scope, TokenId};
use ltam_core::db::AuthId;
use ltam_core::decision::{AccessRequest, Decision, DenyReason};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::prohibition::Prohibition;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore, PolicyOp, QuarantinedEvent, ShardedEngine};
use ltam_engine::engine::EngineConfig;
use ltam_engine::movement::Stay;
use ltam_engine::retention::PrunedHistory;
use ltam_engine::{AuditRecord, Violation};
use ltam_graph::LocationId;
use ltam_situate::{ConstraintId, IncidentId, SituationMode, SituationOp, WorkflowConstraint};
use ltam_store::archive::ARCHIVE_HEADER_LEN;
use ltam_store::codec::{decode_record_payload, encode_policy_op, WalRecord, POLICY_SENTINEL};
use ltam_store::replica::wal_segment_ids;
use ltam_store::{
    binval, copy_flat_dir, decode_event, decode_event_exact, digest, event_bytes, ArchiveStore,
    DurableEngine, ReplFileId, ScratchDir, StoreConfig, StoreSnapshot, TailScanner, Wal, WalBatch,
    WalConfig,
};
use ltam_time::{Interval, Time};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

fn arb_event() -> impl Strategy<Value = Event> {
    let fields = || (0u64..=u64::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX);
    prop_oneof![
        fields().prop_map(|(t, s, l)| Event::Request {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        }),
        fields().prop_map(|(t, s, l)| Event::Enter {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        }),
        fields().prop_map(|(t, s, l)| Event::Exit {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        }),
        (0u64..=u64::MAX).prop_map(|t| Event::Tick { now: Time(t) }),
    ]
}

fn arb_window() -> impl Strategy<Value = Interval> {
    (0u64..1_000_000, 0u64..1_000_000).prop_map(|(a, b)| Interval::lit(a.min(b), a.max(b)))
}

fn arb_scope() -> impl Strategy<Value = Scope> {
    prop_oneof![
        Just(Scope::Query),
        Just(Scope::Replicate),
        Just(Scope::Admin),
        (
            any::<bool>(),
            prop::collection::vec((0u32..=u32::MAX).prop_map(LocationId), 0..4)
        )
            .prop_map(|(all, list)| Scope::Ingest {
                locations: if all { None } else { Some(list) },
            }),
    ]
}

/// Every `AdminOp` variant.
fn arb_admin_op() -> impl Strategy<Value = AdminOp> {
    let authorization = (
        0u64..1_000,
        0u64..1_000,
        0u64..1_000,
        (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..8),
    )
        .prop_map(|(start, entry_len, exit_len, (s, l, limit))| {
            Authorization::new(
                Interval::lit(start, start + entry_len),
                Interval::lit(start, start + entry_len + exit_len),
                SubjectId(s),
                LocationId(l),
                if limit == 0 {
                    EntryLimit::Unbounded
                } else {
                    EntryLimit::Finite(limit)
                },
            )
            .expect("exit window covers the entry window")
        });
    prop_oneof![
        (
            0u32..=u32::MAX,
            prop::collection::vec(arb_scope(), 0..4),
            arb_window(),
            "[ -~]{0,24}",
        )
            .prop_map(|(s, scopes, validity, secret)| AdminOp::MintToken {
                subject: SubjectId(s),
                scopes,
                validity,
                secret,
            }),
        any::<u64>().prop_map(|id| AdminOp::RevokeToken { id: TokenId(id) }),
        (0u32..=u32::MAX, any::<u8>()).prop_map(|(s, level)| AdminOp::SetTrust {
            subject: SubjectId(s),
            level,
        }),
        any::<u8>().prop_map(|threshold| AdminOp::SetTrustThreshold { threshold }),
        any::<bool>().prop_map(|required| AdminOp::SetAuthRequired { required }),
        authorization.prop_map(AdminOp::AddAuthorization),
        any::<u64>().prop_map(|id| AdminOp::RevokeAuthorization { id: AuthId(id) }),
    ]
}

/// Every `SituationOp` variant (and every mode and constraint shape).
fn arb_situation_op() -> impl Strategy<Value = SituationOp> {
    let location = || (0u32..=u32::MAX).prop_map(LocationId);
    let mode = prop_oneof![
        Just(SituationMode::Normal),
        Just(SituationMode::Lockdown),
        (any::<u64>(), any::<u64>()).prop_map(|(incident, until)| SituationMode::Emergency {
            incident: IncidentId(incident),
            until: Time(until),
        }),
    ];
    let constraint = prop_oneof![
        (location(), location(), any::<u64>()).prop_map(|(first, second, window)| {
            WorkflowConstraint::SeparationOfDuty {
                first,
                second,
                window,
            }
        }),
        (location(), location(), any::<u64>()).prop_map(|(prerequisite, dependent, window)| {
            WorkflowConstraint::BindingOfDuty {
                prerequisite,
                dependent,
                window,
            }
        }),
        (prop::collection::vec(location(), 0..5), any::<u64>())
            .prop_map(|(steps, window)| WorkflowConstraint::OrderedSteps { steps, window }),
    ];
    prop_oneof![
        mode.prop_map(SituationOp::Declare),
        (0u32..=u32::MAX).prop_map(|s| SituationOp::AddResponder(SubjectId(s))),
        (0u32..=u32::MAX).prop_map(|s| SituationOp::RemoveResponder(SubjectId(s))),
        any::<u64>().prop_map(|id| SituationOp::Pin(AuthId(id))),
        any::<u64>().prop_map(|id| SituationOp::Unpin(AuthId(id))),
        constraint.prop_map(SituationOp::AddConstraint),
        any::<u32>().prop_map(|id| SituationOp::RemoveConstraint(ConstraintId(id))),
    ]
}

/// The O(record) ops: every `AdminOp` and `SituationOp` variant.
fn arb_narrow_op() -> impl Strategy<Value = PolicyOp> {
    prop_oneof![
        arb_admin_op().prop_map(PolicyOp::Admin),
        arb_situation_op().prop_map(PolicyOp::Situation),
    ]
}

/// The edits `PolicyCore` offers beyond the narrow ops — what a
/// closure handed to `update_policy` does.
#[derive(Debug, Clone)]
enum ClosureEdit {
    AddProhibition(Prohibition),
    SetConfig(EngineConfig),
    BulkLoad(Vec<Authorization>),
    Revoke(AuthId),
}

impl ClosureEdit {
    fn apply(&self, core: &mut PolicyCore) {
        match self {
            ClosureEdit::AddProhibition(p) => core.add_prohibition(*p),
            ClosureEdit::SetConfig(config) => core.set_config(*config),
            ClosureEdit::BulkLoad(auths) => {
                for auth in auths {
                    core.add_authorization(*auth);
                }
            }
            ClosureEdit::Revoke(id) => {
                core.revoke_authorization(*id);
            }
        }
    }
}

/// Closure edits that bite on the campus core's subjects, doors and
/// authorization ids.
fn arb_closure_edit() -> impl Strategy<Value = ClosureEdit> {
    let authorization = (0u32..6, 0u32..8, 0u64..300, 1u32..4).prop_map(|(s, l, from, limit)| {
        Authorization::new(
            Interval::lit(from, from + 100),
            Interval::lit(from, from + 150),
            SubjectId(s),
            LocationId(l),
            EntryLimit::Finite(limit),
        )
        .expect("exit window covers the entry window")
    });
    prop_oneof![
        (0u32..6, 0u32..8, 0u64..400, 0u64..400).prop_map(|(s, l, a, b)| {
            ClosureEdit::AddProhibition(Prohibition {
                subject: SubjectId(s),
                location: LocationId(l),
                window: Interval::lit(a.min(b), a.max(b)),
            })
        }),
        (0u64..50).prop_map(|grant_ttl| ClosureEdit::SetConfig(EngineConfig { grant_ttl })),
        prop::collection::vec(authorization, 0..5).prop_map(ClosureEdit::BulkLoad),
        (0u64..60).prop_map(|id| ClosureEdit::Revoke(AuthId(id))),
    ]
}

/// The policy some narrow ops and closure edits leave behind, as the
/// one record `update_policy` logs for it.
fn arb_install() -> impl Strategy<Value = PolicyOp> {
    (
        prop::collection::vec(arb_narrow_op(), 0..4),
        prop::collection::vec(arb_closure_edit(), 0..4),
    )
        .prop_map(|(ops, edits)| {
            let mut core = campus_core();
            for op in &ops {
                core.apply_op(op);
            }
            for edit in &edits {
                edit.apply(&mut core);
            }
            PolicyOp::Install(Box::new(core.image()))
        })
}

/// Every `PolicyOp` variant.
fn arb_policy_op() -> impl Strategy<Value = PolicyOp> {
    prop_oneof![6 => arb_narrow_op(), 1 => arb_install()]
}

fn policy_record(op: &PolicyOp) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_policy_op(op, &mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary policy ops — every admin and situation variant, and
    /// whole-policy installs — encode → decode to the identical op, as
    /// one one-sequence record.
    #[test]
    fn policy_records_round_trip_every_variant(op in arb_policy_op()) {
        let bytes = policy_record(&op);
        prop_assert_eq!(bytes[0], POLICY_SENTINEL);
        let back = decode_record_payload(&bytes).expect("encoded ops decode");
        prop_assert_eq!(back.seq_count(), 1);
        prop_assert_eq!(back, WalRecord::Policy(op));
    }

    /// Every strict prefix of a policy record is a decode error — a
    /// torn op is never applied as a shorter, different op.
    #[test]
    fn truncated_policy_records_always_error(op in arb_policy_op(), cut in any::<usize>()) {
        let bytes = policy_record(&op);
        prop_assert!(decode_record_payload(&bytes[..cut % bytes.len()]).is_err());
    }

    /// Bit-flipped policy records never panic: they decode to some
    /// record or return an error. (The record CRC catches the flips
    /// the codec cannot.)
    #[test]
    fn bit_flipped_policy_records_never_panic(
        op in arb_policy_op(),
        byte in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = policy_record(&op);
        let i = byte % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = decode_record_payload(&bytes); // must return, Ok or Err
    }

    /// Arbitrary bytes after the policy sentinel decode or error, never
    /// panic — and never come back as anything but a policy record.
    #[test]
    fn arbitrary_bytes_after_the_policy_sentinel_never_panic(
        body in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let mut bytes = vec![POLICY_SENTINEL];
        bytes.extend_from_slice(&body);
        if let Ok(record) = decode_record_payload(&bytes) {
            prop_assert!(matches!(record, WalRecord::Policy(_)));
        }
    }

    /// Arbitrary events encode → decode to the identical event, and the
    /// decoder consumes exactly the bytes the encoder produced.
    #[test]
    fn codec_round_trips_arbitrary_events(event in arb_event()) {
        let bytes = event_bytes(&event);
        let (back, consumed) = decode_event(&bytes).expect("encoded events decode");
        prop_assert_eq!(back, event);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decode_event_exact(&bytes).expect("exact decode"), event);
    }

    /// Every strict prefix of an encoding is a decode error — never a
    /// panic, never a silent success.
    #[test]
    fn truncated_encodings_always_error(event in arb_event(), cut in 0usize..64) {
        let bytes = event_bytes(&event);
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_event(&bytes[..cut]).is_err());
        prop_assert!(decode_event_exact(&bytes[..cut]).is_err());
    }

    /// Bit-flipped encodings never panic: they decode to some event or
    /// return an error. (Framing CRCs catch the flips the codec cannot.)
    #[test]
    fn bit_flipped_encodings_never_panic(
        event in arb_event(),
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let mut bytes = event_bytes(&event);
        let i = byte % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = decode_event(&bytes); // must return, Ok or Err
        let _ = decode_event_exact(&bytes);
    }

    /// Arbitrary garbage buffers decode without panicking.
    #[test]
    fn arbitrary_buffers_never_panic(bytes in prop::collection::vec(0u8..=255, 0..40)) {
        let _ = decode_event(&bytes);
        let _ = decode_event_exact(&bytes);
    }

    /// A concatenated stream of encodings decodes back event by event
    /// (the WAL payload framing relies on per-record lengths, but the
    /// codec itself must also self-delimit).
    #[test]
    fn streams_decode_event_by_event(events in prop::collection::vec(arb_event(), 0..32)) {
        let mut buf = Vec::new();
        for e in &events {
            buf.extend_from_slice(&event_bytes(e));
        }
        let mut at = 0usize;
        let mut back = Vec::new();
        while at < buf.len() {
            let (event, consumed) = decode_event(&buf[at..]).expect("stream decodes");
            back.push(event);
            at += consumed;
        }
        prop_assert_eq!(back, events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut a WAL at an arbitrary byte offset: reopening recovers an exact
    /// prefix of the appended events and repairs the log so a second open
    /// is clean.
    #[test]
    fn damaged_wal_recovers_an_exact_prefix(
        events in prop::collection::vec(arb_event(), 1..120),
        segment_bytes in 64u64..2048,
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = ScratchDir::new("prop-wal-cut");
        let config = WalConfig { segment_bytes, fsync: false };
        {
            let (mut wal, _) = Wal::open(dir.path(), config).expect("open");
            for chunk in events.chunks(7) {
                wal.append_batch(chunk).expect("append");
            }
        }
        // Damage the newest segment at a random offset.
        let mut segments: Vec<_> = std::fs::read_dir(dir.path())
            .expect("list dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        segments.sort();
        let last = segments.last().expect("segment exists");
        let len = std::fs::metadata(last).expect("metadata").len();
        let cut = (len as f64 * cut_fraction) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(last).expect("open segment");
        f.set_len(cut).expect("truncate");
        drop(f);

        let (_, recovery) = Wal::open(dir.path(), config).expect("recover");
        let got: Vec<Event> = recovery.events().map(|(_, e)| e).collect();
        prop_assert!(got.len() <= events.len());
        prop_assert_eq!(&got[..], &events[..got.len()]);
        // The repaired log reopens with zero further truncation.
        let (_, second) = Wal::open(dir.path(), config).expect("reopen");
        prop_assert_eq!(second.events().count(), got.len());
        prop_assert_eq!(second.truncated_bytes, 0);
    }
}

// --- one record, one apply: live commit, recovery and tailing agree ---------

/// Small-domain events, so requests, entries and exits actually meet
/// the authorizations (and each other) instead of all being strangers.
fn arb_campus_event() -> impl Strategy<Value = Event> {
    let fields = || (0u64..400, 0u32..6, 0u32..8);
    prop_oneof![
        fields().prop_map(|(t, s, l)| Event::Request {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        }),
        fields().prop_map(|(t, s, l)| Event::Enter {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        }),
        fields().prop_map(|(t, s, l)| Event::Exit {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        }),
        (0u64..400).prop_map(|t| Event::Tick { now: Time(t) }),
    ]
}

/// Every record kind, empty batches included (the WAL skips them; the
/// apply routine must not care).
fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        prop::collection::vec(arb_campus_event(), 0..6).prop_map(WalRecord::Events),
        (
            0u32..6,
            any::<u8>(),
            prop::collection::vec(arb_campus_event(), 0..4)
        )
            .prop_map(|(s, level, events)| WalRecord::Quarantine {
                source: SubjectId(s),
                level,
                events,
            }),
        arb_policy_op().prop_map(WalRecord::Policy),
    ]
}

fn campus_core() -> PolicyCore {
    let mut core = PolicyCore::new(ltam_graph::examples::ntu_campus().model);
    for s in 0..6u32 {
        for l in 0..8u32 {
            let auth = Authorization::new(
                Interval::lit(0, 300),
                Interval::lit(0, 350),
                SubjectId(s),
                LocationId(l),
                EntryLimit::Finite(2),
            );
            core.add_authorization(auth.expect("exit window covers the entry window"));
        }
    }
    core
}

/// Small segments, so a handful of records spans several of them.
fn campus_store(dir: &std::path::Path) -> DurableEngine {
    let config = StoreConfig {
        segment_bytes: 96,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    };
    DurableEngine::create(dir, campus_core(), 2, config)
        .expect("create store")
        .0
}

/// Everything a record can move: enforcement state and the quarantine
/// ledger (digest + the ledger itself), everything a policy op can edit,
/// and the store's own bookkeeping.
type Fingerprint = (u64, Vec<QuarantinedEvent>, String, (u64, u64, Time));

fn fingerprint(engine: &DurableEngine) -> Fingerprint {
    let policy = engine.engine().policy();
    (
        digest(engine.engine()),
        engine.engine().export_quarantine(),
        format!(
            "{:?} {:?} {:?} {}",
            policy.wire(),
            policy.situation(),
            policy.db().export_rows(),
            policy.db().next_id()
        ),
        (engine.applied(), engine.policy_epoch(), engine.clock()),
    )
}

/// Commit `records` as one mixed group into a fresh store in `dir`.
fn commit_as_one_group(dir: &std::path::Path, records: &[WalRecord]) -> DurableEngine {
    let mut engine = campus_store(dir);
    let views: Vec<WalBatch<'_>> = records.iter().map(WalBatch::from).collect();
    engine.commit(&views).expect("commit group");
    engine
}

/// Tail `dir`'s whole log from sequence 0, `chunk` bytes per fetch.
fn scan_log(dir: &std::path::Path, chunk: usize) -> Vec<WalRecord> {
    let segments = wal_segment_ids(dir).expect("list segments");
    let mut scanner = TailScanner::start(0, &segments).expect("segment 0 exists");
    let mut out = Vec::new();
    loop {
        let segment = scanner.segment();
        let sealed = segments.iter().any(|&s| s > segment);
        let path = ReplFileId::WalSegment { first_seq: segment }.path(dir);
        let bytes = std::fs::read(&path).expect("read segment");
        let at = scanner.offset() as usize;
        let end = (at + chunk).min(bytes.len());
        let step = scanner.apply(&bytes[at..end], bytes.len() as u64, sealed);
        assert_eq!(step.fault, None, "an intact log never faults");
        out.extend(step.records);
        if !sealed && scanner.segment() == segment && scanner.offset() as usize >= bytes.len() {
            return out;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An arbitrary interleaving of event, quarantine and policy
    /// records reaches the same state whether each record is committed
    /// by its own call, all of them as one mixed group, or the group's
    /// directory is crash-recovered.
    #[test]
    fn single_commits_one_mixed_group_and_recovery_reach_the_same_state(
        records in prop::collection::vec(arb_record(), 1..14),
    ) {
        let one_by_one = ScratchDir::new("prop-apply-single");
        let mut engine = campus_store(one_by_one.path());
        for record in &records {
            engine.commit(&[WalBatch::from(record)]).expect("commit record");
        }
        let want = fingerprint(&engine);

        let grouped = ScratchDir::new("prop-apply-group");
        let engine = commit_as_one_group(grouped.path(), &records);
        prop_assert_eq!(&fingerprint(&engine), &want, "one mixed group");
        drop(engine); // no shutdown snapshot: only the creation one exists
        let config = StoreConfig { snapshot_every: 0, fsync: false, ..StoreConfig::default() };
        let (engine, _alerts, report) =
            DurableEngine::open(grouped.path(), config).expect("recover");
        prop_assert_eq!(report.snapshot_seq, 0);
        prop_assert_eq!(&fingerprint(&engine), &want, "crash recovery");
    }

    /// A follower tailing a log's segment files, at any fetch size, is
    /// handed record-for-record what crash recovery reads from them:
    /// the records that were committed, at contiguous sequences.
    #[test]
    fn tailing_yields_record_for_record_what_recovery_reads(
        records in prop::collection::vec(arb_record(), 1..14),
        chunk in 1usize..200,
    ) {
        let dir = ScratchDir::new("prop-tail-vs-open");
        // One commit per record, so the small segments rotate.
        let mut engine = campus_store(dir.path());
        for record in &records {
            engine.commit(&[WalBatch::from(record)]).expect("commit record");
        }
        drop(engine);
        let logged: Vec<WalRecord> =
            records.into_iter().filter(|r| r.seq_count() > 0).collect();
        let (_, recovery) = Wal::open(dir.path(), WalConfig::default()).expect("open log");
        let mut next = 0;
        for (first, record) in &recovery.records {
            prop_assert_eq!(*first, next, "records are sequence-contiguous");
            next += record.seq_count();
        }
        let recovered: Vec<WalRecord> = recovery.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(&recovered, &logged);
        prop_assert_eq!(scan_log(dir.path(), chunk), recovered, "chunk {}", chunk);
    }

    /// A closure edit made durably — logged as the policy it produced,
    /// then lost from memory in a crash and replayed by recovery —
    /// judges the rest of a trace exactly as the same closure applied
    /// to an in-memory engine does.
    #[test]
    fn a_durable_closure_edit_judges_like_the_in_memory_one(
        before in prop::collection::vec(arb_campus_event(), 1..24),
        edits in prop::collection::vec(arb_closure_edit(), 1..4),
        after in prop::collection::vec(arb_campus_event(), 1..24),
    ) {
        let (memory, _alerts) = ShardedEngine::new(campus_core(), 2);
        memory.ingest(&before);
        for edit in &edits {
            memory.update_policy(|p| edit.apply(p));
        }
        let want = memory.ingest(&after);

        let dir = ScratchDir::new("prop-closure-edit");
        let mut engine = campus_store(dir.path());
        engine.ingest(&before).expect("ingest");
        for edit in &edits {
            engine.update_policy(|p| edit.apply(p)).expect("edit");
        }
        drop(engine); // crash: the edits exist only as WAL records
        let config = StoreConfig { snapshot_every: 0, fsync: false, ..StoreConfig::default() };
        let (mut engine, _alerts, report) = DurableEngine::open(dir.path(), config).expect("recover");
        prop_assert_eq!((report.snapshot_seq, report.replayed_policy_ops), (0, edits.len()));
        prop_assert_eq!(engine.ingest(&after).expect("ingest"), want);
        prop_assert_eq!(digest(engine.engine()), digest(&memory));
    }
}

/// Cut a mixed group at every byte of its segment: recovery applies
/// exactly a whole-record prefix — the state of a store that committed
/// just those records — so never half a record, and never a policy op
/// without every record before it.
#[test]
fn a_torn_mixed_group_recovers_to_a_whole_record_prefix() {
    use ltam_situate::SituationMode::Lockdown;
    let request = |t, s| Event::Request {
        time: Time(t),
        subject: SubjectId(s),
        location: LocationId(1),
    };
    let records = vec![
        WalRecord::Events(vec![request(10, 0), request(11, 1)]),
        WalRecord::Policy(PolicyOp::Situation(SituationOp::Declare(Lockdown))),
        WalRecord::Quarantine {
            source: SubjectId(5),
            level: 0,
            events: vec![request(900, 2)],
        },
        WalRecord::Events(vec![request(12, 0)]),
        WalRecord::Policy(PolicyOp::Admin(AdminOp::SetTrustThreshold { threshold: 3 })),
        WalRecord::Events(vec![request(13, 1), Event::Tick { now: Time(20) }]),
    ];
    // What each whole-record prefix leaves behind.
    let prefixes: Vec<Fingerprint> = (0..=records.len())
        .map(|k| {
            let dir = ScratchDir::new("torn-group-prefix");
            fingerprint(&commit_as_one_group(dir.path(), &records[..k]))
        })
        .collect();

    let full = ScratchDir::new("torn-group-full");
    // One segment holds the whole group (rotation is checked per append).
    drop(commit_as_one_group(full.path(), &records));
    let segment = ReplFileId::WalSegment { first_seq: 0 };
    let len = std::fs::metadata(segment.path(full.path())).unwrap().len();
    let config = StoreConfig {
        snapshot_every: 0,
        fsync: false,
        ..StoreConfig::default()
    };
    let mut reached = std::collections::BTreeSet::new();
    for cut in 0..=len {
        let torn = ScratchDir::new("torn-group-cut");
        copy_flat_dir(full.path(), torn.path()).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(segment.path(torn.path()))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        // A crash mid-append precedes the acked-epoch marker, which is
        // only written after the group is durable and applied.
        std::fs::remove_file(ReplFileId::EpochMarker.path(torn.path())).unwrap();
        let (engine, _alerts, _report) = DurableEngine::open(torn.path(), config).unwrap();
        let got = fingerprint(&engine);
        let k = prefixes
            .iter()
            .position(|p| *p == got)
            .unwrap_or_else(|| panic!("cut at {cut} of {len} is no whole-record prefix: {got:?}"));
        reached.insert(k);
    }
    assert_eq!(
        reached.into_iter().collect::<Vec<_>>(),
        (0..=records.len()).collect::<Vec<_>>(),
        "every prefix length, and nothing else, is reachable"
    );
}

// --- the archive segment (format v2: an empty events block + binval records) -

/// Every archived record is stamped below this horizon.
const HORIZON: u64 = 1_000_000;

fn arb_history() -> impl Strategy<Value = PrunedHistory> {
    let ids = || (0..HORIZON, 0u32..=u32::MAX, 0u32..=u32::MAX);
    let stay = (ids(), 0..HORIZON).prop_map(|((a, s, l), b)| {
        let stay = Stay {
            location: LocationId(l),
            enter: Time(a.min(b)),
            exit: Some(Time(a.max(b))),
        };
        (SubjectId(s), stay)
    });
    let audit = (ids(), 0u8..4, any::<u64>()).prop_map(|((t, s, l), pick, n)| AuditRecord {
        request: AccessRequest {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        },
        decision: match pick {
            0 => Decision::Granted { auth: AuthId(n) },
            1 => Decision::GrantedOverride { incident: n },
            2 => Decision::Denied {
                reason: DenyReason::EntriesExhausted,
            },
            _ => Decision::Denied {
                reason: DenyReason::WorkflowConstraint,
            },
        },
    });
    let violation = (ids(), 0u8..4, any::<u64>()).prop_map(|((t, s, l), pick, a)| {
        let (time, subject, location, auth) = (Time(t), SubjectId(s), LocationId(l), AuthId(a));
        match pick {
            0 => Violation::UnauthorizedEntry {
                time,
                subject,
                location,
            },
            1 => Violation::ExitOutsideWindow {
                time,
                subject,
                location,
                auth,
            },
            2 => Violation::Overstay {
                detected_at: time,
                subject,
                location,
                auth,
            },
            _ => Violation::InconsistentMovement {
                time,
                subject,
                location,
            },
        }
    });
    (
        prop::collection::vec(stay, 0..6),
        prop::collection::vec(audit, 0..6),
        prop::collection::vec(violation, 0..6),
    )
        .prop_map(|(stays, audit, violations)| PrunedHistory {
            stays,
            audit,
            violations,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A v2 segment gives back exactly the records it was written
    /// with, and damage to any single byte of the file — header or
    /// binval records block — makes the load refuse (the CRC,
    /// or the header check the byte belongs to) instead of answering
    /// from a rotten segment.
    #[test]
    fn archive_segments_round_trip_and_refuse_every_byte_flip(
        history in arb_history(),
        bit in 0u8..8,
    ) {
        let dir = ScratchDir::new("prop-archive");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        let report = store.append_run(0, HORIZON, &history).expect("write").expect("segment");
        prop_assert_eq!(report.records, history.len());

        let data = store.load().expect("intact segment loads");
        prop_assert_eq!(&data.audit, &history.audit);
        let violations: Vec<Violation> = data.violations.iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(&violations, &history.violations);
        let key = |&(s, stay): &(SubjectId, Stay)| (s, stay.enter, stay.exit, stay.location);
        let mut stays: Vec<(SubjectId, Stay)> = data
            .stays
            .iter()
            .flat_map(|(&s, rows)| rows.rows().iter().map(move |&(_, stay)| (s, stay)))
            .collect();
        stays.sort_by_key(key);
        let mut want = history.stays.clone();
        want.sort_by_key(key);
        prop_assert_eq!(stays, want);

        let path = std::fs::read_dir(dir.path())
            .expect("list dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "arch"))
            .expect("segment file");
        let good = std::fs::read(&path).expect("read segment");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 1 << bit;
            std::fs::write(&path, &bad).expect("damage");
            prop_assert!(store.load().is_err(), "flip at byte {} of {}", i, good.len());
        }
    }
}

// --- one decoder, two routes --------------------------------------------------

/// Decode `bytes` as a `T` directly and through a [`Value`] tree: both
/// routes must refuse, or both must accept and agree (compared as
/// encodings: exact for floats, and no `PartialEq` needed). Returns
/// whether they accepted.
fn routes_agree<T: Deserialize + Serialize>(bytes: &[u8]) -> bool {
    let direct = binval::decode::<T>(bytes);
    let via_tree = binval::decode::<Value>(bytes).and_then(|tree| T::from_value(&tree));
    match (direct, via_tree) {
        (Ok(a), Ok(b)) => {
            let (a, b) = (canonical(a.to_value()), canonical(b.to_value()));
            assert_eq!(binval::encode(&a), binval::encode(&b), "routes disagree");
            true
        }
        (Err(_), Err(_)) => false,
        (direct, via_tree) => panic!(
            "one route refused {bytes:02x?}: direct {:?}, via the tree {:?}",
            direct.map(|_| ()),
            via_tree.map(|_| ())
        ),
    }
}

/// A valid encoding decodes on both routes, and so does — or is refused
/// by both — every way of damaging it the decoder's totality rules
/// name, at every byte in `at`: cut there, bit `bit` flipped there, and
/// — where the byte follows a string/array/object tag, so is a length
/// or a count wherever that byte really is a tag — inflated.
fn routes_agree_under_damage<T: Deserialize + Serialize>(
    good: &[u8],
    bit: u8,
    at: impl Iterator<Item = usize>,
) {
    assert!(routes_agree::<T>(good), "the intact encoding must decode");
    let mut damaged = good.to_vec();
    for i in at {
        routes_agree::<T>(&good[..i]);
        damaged[i] ^= 1 << bit;
        routes_agree::<T>(&damaged);
        if i > 0 && (0x06..=0x08).contains(&good[i - 1]) {
            for inflated in [good[i].wrapping_add(1), 0x7F, 0xFF] {
                damaged[i] = inflated;
                routes_agree::<T>(&damaged);
            }
        }
        damaged[i] = good[i];
    }
}

/// The archive segment's records block (the type itself is private to
/// `ltam-store`; the shape is the format).
#[derive(Serialize, Deserialize)]
struct ArchiveRecords {
    stays: Vec<(SubjectId, Stay)>,
    audit: Vec<AuditRecord>,
    violations: Vec<Violation>,
}

/// An arbitrary tree — every tag, nested a few levels.
fn arb_value() -> impl Strategy<Value = Value> {
    let text =
        || prop::collection::vec(0x20u8..0x7F, 0..6).prop_map(|b| String::from_utf8(b).unwrap());
    let scalar = || {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(Value::U64),
            (i64::MIN..0).prop_map(Value::I64),
            any::<u64>().prop_map(|bits| Value::F64(f64::from_bits(bits))),
            text().prop_map(Value::Str),
        ]
    };
    let compound = move |inner: BoxedStrategy<Value>| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((text(), inner), 0..4).prop_map(Value::Object),
        ]
    };
    let level1 = prop_oneof![scalar(), compound(scalar().boxed())].boxed();
    prop_oneof![
        scalar(),
        compound(level1.clone()),
        compound(compound(level1).boxed())
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes — mostly garbage, sometimes a decodable prefix —
    /// mean the same thing (usually: nothing) to both routes, for every
    /// target type the store reads.
    #[test]
    fn arbitrary_bytes_decode_alike_on_both_routes(
        bytes in prop::collection::vec(0u8..=255, 0..48),
        small in prop::collection::vec(0u8..=8, 0..48),
    ) {
        for bytes in [&bytes, &small] {
            routes_agree::<StoreSnapshot>(bytes);
            routes_agree::<ArchiveRecords>(bytes);
            routes_agree::<PolicyOp>(bytes);
            routes_agree::<Value>(bytes);
        }
    }

    /// Every byte of a narrow op; an install is kilobytes, so each case
    /// damages a spread of at most 256 bytes from its own offset.
    #[test]
    fn damaged_policy_ops_decode_alike_on_both_routes(
        op in arb_policy_op(),
        bit in 0u8..8,
        phase in any::<usize>(),
    ) {
        let good = binval::encode(&op);
        let stride = good.len().div_ceil(256);
        let at = (phase % stride..good.len()).step_by(stride);
        routes_agree_under_damage::<PolicyOp>(&good, bit, at);
    }

    #[test]
    fn damaged_trees_decode_alike_on_both_routes(tree in arb_value(), bit in 0u8..8) {
        let good = binval::encode(&tree);
        routes_agree_under_damage::<Value>(&good, bit, 0..good.len());
    }

    #[test]
    fn damaged_archive_records_decode_alike_on_both_routes(
        history in arb_history(),
        bit in 0u8..8,
    ) {
        // The block as the archive writes it, cut out of a real segment.
        let dir = ScratchDir::new("prop-routes-archive");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, HORIZON, &history).expect("write").expect("segment");
        let path = ReplFileId::Archive { from: 0, to: HORIZON }.path(dir.path());
        let segment = std::fs::read(path).expect("read segment");
        let events_len = u64::from_le_bytes(segment[24..32].try_into().unwrap()) as usize;
        let records_block = &segment[ARCHIVE_HEADER_LEN + events_len..];
        routes_agree_under_damage::<ArchiveRecords>(records_block, bit, 0..records_block.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The largest value the store decodes: a whole-engine snapshot
    /// after an arbitrary mixed group (so the movement timelines, the
    /// ledgers, the quarantine and every policy section
    /// are populated). Ten kilobytes, so each case damages every 16th
    /// byte from its own offset rather than every byte.
    #[test]
    fn damaged_snapshots_decode_alike_on_both_routes(
        records in prop::collection::vec(arb_record(), 0..12),
        bit in 0u8..8,
        phase in 0usize..16,
    ) {
        let dir = ScratchDir::new("prop-routes-snapshot");
        let engine = commit_as_one_group(dir.path(), &records);
        let snapshot = StoreSnapshot {
            seq: engine.applied(),
            policy_epoch: engine.policy_epoch(),
            shards: engine.engine().shard_count(),
            policy: engine.engine().policy().image(),
            states: engine.engine().export_images(),
            quarantine: engine.engine().export_quarantine(),
            clock: engine.clock().get(),
        };
        let good = binval::encode(&snapshot);
        routes_agree_under_damage::<StoreSnapshot>(&good, bit, (phase..good.len()).step_by(16));
    }
}
