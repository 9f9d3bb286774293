//! Property tests for the durability layer's on-disk formats.
//!
//! The codec contract: arbitrary events and policy ops round-trip
//! bit-exactly, and arbitrary *bytes* — truncations, bit flips, garbage
//! — decode to an error, never a panic. The WAL contract: whatever
//! survives a damaged tail is an exact prefix of what was appended.

use ltam_core::capability::{AdminOp, Scope, TokenId};
use ltam_core::db::AuthId;
use ltam_core::decision::{AccessRequest, Decision, DenyReason};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyOp};
use ltam_engine::movement::{MovementEvent, MovementKind, Stay};
use ltam_engine::retention::PrunedHistory;
use ltam_engine::{AuditRecord, Violation};
use ltam_graph::LocationId;
use ltam_situate::{ConstraintId, IncidentId, SituationMode, SituationOp, WorkflowConstraint};
use ltam_store::codec::{decode_record_payload, encode_policy_op, RecordPayload, POLICY_SENTINEL};
use ltam_store::{
    decode_event, decode_event_exact, event_bytes, ArchiveStore, ScratchDir, Wal, WalConfig,
};
use ltam_time::{Interval, Time};
use proptest::prelude::*;

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

fn arb_policy_op() -> impl Strategy<Value = PolicyOp> {
    prop_oneof![
        arb_admin_op().prop_map(PolicyOp::Admin),
        arb_situation_op().prop_map(PolicyOp::Situation),
    ]
}

fn policy_record(op: &PolicyOp) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_policy_op(op, &mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary policy ops — every admin and situation variant —
    /// encode → decode to the identical op, as one one-sequence record.
    #[test]
    fn policy_records_round_trip_every_variant(op in arb_policy_op()) {
        let bytes = policy_record(&op);
        prop_assert_eq!(bytes[0], POLICY_SENTINEL);
        let back = decode_record_payload(&bytes).expect("encoded ops decode");
        prop_assert_eq!(back.seq_count(), 1);
        prop_assert_eq!(back, RecordPayload::Policy(op));
    }

    /// Every strict prefix of a policy record is a decode error — a
    /// torn op is never applied as a shorter, different op.
    #[test]
    fn truncated_policy_records_always_error(op in arb_policy_op(), cut in 0usize..512) {
        let bytes = policy_record(&op);
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_record_payload(&bytes[..cut]).is_err());
    }

    /// Bit-flipped policy records never panic: they decode to some
    /// record or return an error. (The record CRC catches the flips
    /// the codec cannot.)
    #[test]
    fn bit_flipped_policy_records_never_panic(
        op in arb_policy_op(),
        byte in 0usize..512,
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
            prop_assert!(matches!(record, RecordPayload::Policy(_)));
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
        let got: Vec<Event> = recovery.events.iter().map(|&(_, e)| e).collect();
        prop_assert!(got.len() <= events.len());
        prop_assert_eq!(&got[..], &events[..got.len()]);
        // The repaired log reopens with zero further truncation.
        let (_, second) = Wal::open(dir.path(), config).expect("reopen");
        prop_assert_eq!(second.events.len(), got.len());
        prop_assert_eq!(second.truncated_bytes, 0);
    }
}

// --- the archive segment (format v2: events block + binval records block) --

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
    let event = (ids(), any::<bool>()).prop_map(|((t, s, l), enter)| MovementEvent {
        time: Time(t),
        subject: SubjectId(s),
        location: LocationId(l),
        kind: if enter {
            MovementKind::Enter
        } else {
            MovementKind::Exit
        },
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
        prop::collection::vec(event, 0..6),
        prop::collection::vec(stay, 0..6),
        prop::collection::vec(audit, 0..6),
        prop::collection::vec(violation, 0..6),
    )
        .prop_map(|(events, stays, audit, violations)| PrunedHistory {
            events,
            stays,
            audit,
            violations,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A v2 segment gives back exactly the records it was written
    /// with, and damage to any single byte of the file — header, events
    /// block or binval records block — makes the load refuse (the CRC,
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
        let total = history.events.len()
            + history.stays.len()
            + history.audit.len()
            + history.violations.len();
        prop_assert_eq!(report.records, total);

        let data = store.load().expect("intact segment loads");
        prop_assert_eq!(&data.events, &history.events);
        prop_assert_eq!(&data.audit, &history.audit);
        let violations: Vec<Violation> = data.violations.iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(&violations, &history.violations);
        let key = |&(s, stay): &(SubjectId, Stay)| (s, stay.enter, stay.exit, stay.location);
        let mut stays: Vec<(SubjectId, Stay)> = data
            .stays
            .iter()
            .flat_map(|(&s, rows)| rows.iter().map(move |&(_, stay)| (s, stay)))
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
