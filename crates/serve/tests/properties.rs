//! Property tests for the wire layer, held to the same bar as the WAL
//! codec's: round-trips are exact, and damaged bytes — truncations,
//! bit flips, garbage — decode to errors, never panics, and **never a
//! wrong-but-valid message** (the frame CRC is checked before any body
//! is interpreted, and CRC32 catches every single-bit flip of the
//! payload).
//!
//! One family covers both directions: every property below draws from
//! [`arb_message`], which generates every [`Request`] kind and every
//! [`Response`] variant. Event bodies exercise the varint event codec,
//! everything else the one structured codec (`ltam_store::binval`).

use ltam_core::capability::{AdminOp, AdminOutcome, Scope, TokenId};
use ltam_core::db::AuthId;
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{EngineStatus, Event, QuarantinedEvent, ShardStatusRow};
use ltam_engine::movement::Contact;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_serve::wire::{
    decode_repl_reply, decode_request, decode_response, encode_request, encode_response,
    read_frame, write_frame, ErrorCode, FrameAssembler, HistoryQuery, ReplManifest, ReplRequest,
    ReplicaState, ReplicaStatus, Request, Response, ServerRole, ServerStatus, WireError,
    DEFAULT_MAX_FRAME_BYTES,
};
use ltam_situate::{
    ConstraintId, IncidentId, SituationMode, SituationOp, SituationOutcome, WorkflowConstraint,
};
use ltam_store::binval;
use ltam_store::replica::{ReplFile, ReplFileId};
use ltam_time::{Interval, Time};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::io::Cursor;

/// `None` or `Some` of the inner strategy, evenly.
fn arb_opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn arb_subject() -> impl Strategy<Value = SubjectId> {
    (0u32..=u32::MAX).prop_map(SubjectId)
}

fn arb_location() -> impl Strategy<Value = LocationId> {
    (0u32..=u32::MAX).prop_map(LocationId)
}

/// Printable ASCII plus a few multi-byte characters and a newline (the
/// metrics exposition is multi-line text).
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    format!("[ -~é世\n]{{0,{max}}}")
}

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
    prop_oneof![
        4 => (0u64..1_000_000, 0u64..1_000_000)
            .prop_map(|(a, b)| Interval::lit(a.min(b), a.max(b))),
        1 => Just(Interval::ALL),
    ]
}

fn arb_scope() -> impl Strategy<Value = Scope> {
    prop_oneof![
        Just(Scope::Query),
        Just(Scope::Replicate),
        Just(Scope::Admin),
        arb_opt(prop::collection::vec(arb_location(), 0..4))
            .prop_map(|locations| Scope::Ingest { locations }),
    ]
}

/// Every `AdminOp` variant.
fn arb_admin_op() -> impl Strategy<Value = AdminOp> {
    let authorization = (
        0u64..1_000,
        0u64..1_000,
        0u64..1_000,
        (arb_subject(), arb_location(), 0u32..8),
    )
        .prop_map(|(start, entry_len, exit_len, (subject, location, limit))| {
            Authorization::new(
                Interval::lit(start, start + entry_len),
                Interval::lit(start, start + entry_len + exit_len),
                subject,
                location,
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
            arb_subject(),
            prop::collection::vec(arb_scope(), 0..4),
            arb_window(),
            arb_text(24),
        )
            .prop_map(|(subject, scopes, validity, secret)| AdminOp::MintToken {
                subject,
                scopes,
                validity,
                secret,
            }),
        any::<u64>().prop_map(|id| AdminOp::RevokeToken { id: TokenId(id) }),
        (arb_subject(), any::<u8>())
            .prop_map(|(subject, level)| AdminOp::SetTrust { subject, level }),
        any::<u8>().prop_map(|threshold| AdminOp::SetTrustThreshold { threshold }),
        any::<bool>().prop_map(|required| AdminOp::SetAuthRequired { required }),
        authorization.prop_map(AdminOp::AddAuthorization),
        any::<u64>().prop_map(|id| AdminOp::RevokeAuthorization { id: AuthId(id) }),
    ]
}

fn arb_mode() -> impl Strategy<Value = SituationMode> {
    prop_oneof![
        Just(SituationMode::Normal),
        Just(SituationMode::Lockdown),
        (any::<u64>(), any::<u64>()).prop_map(|(incident, until)| SituationMode::Emergency {
            incident: IncidentId(incident),
            until: Time(until),
        }),
    ]
}

/// Every `SituationOp` variant (and every mode and constraint shape).
fn arb_situation_op() -> impl Strategy<Value = SituationOp> {
    let constraint = prop_oneof![
        (arb_location(), arb_location(), any::<u64>()).prop_map(|(first, second, window)| {
            WorkflowConstraint::SeparationOfDuty {
                first,
                second,
                window,
            }
        }),
        (arb_location(), arb_location(), any::<u64>()).prop_map(
            |(prerequisite, dependent, window)| WorkflowConstraint::BindingOfDuty {
                prerequisite,
                dependent,
                window,
            }
        ),
        (prop::collection::vec(arb_location(), 0..5), any::<u64>())
            .prop_map(|(steps, window)| WorkflowConstraint::OrderedSteps { steps, window }),
    ];
    prop_oneof![
        arb_mode().prop_map(SituationOp::Declare),
        arb_subject().prop_map(SituationOp::AddResponder),
        arb_subject().prop_map(SituationOp::RemoveResponder),
        any::<u64>().prop_map(|id| SituationOp::Pin(AuthId(id))),
        any::<u64>().prop_map(|id| SituationOp::Unpin(AuthId(id))),
        constraint.prop_map(SituationOp::AddConstraint),
        any::<u32>().prop_map(|id| SituationOp::RemoveConstraint(ConstraintId(id))),
    ]
}

fn arb_file_id() -> impl Strategy<Value = ReplFileId> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(seq, epoch)| ReplFileId::Snapshot { seq, epoch }),
        (any::<u64>(), any::<u64>()).prop_map(|(from, to)| ReplFileId::Archive { from, to }),
        any::<u64>().prop_map(|first_seq| ReplFileId::WalSegment { first_seq }),
        Just(ReplFileId::EpochMarker),
    ]
}

fn arb_history_query() -> impl Strategy<Value = HistoryQuery> {
    prop_oneof![
        (arb_subject(), any::<u64>()).prop_map(|(subject, t)| HistoryQuery::Whereabouts {
            subject,
            at: Time(t)
        }),
        (arb_location(), arb_window())
            .prop_map(|(location, window)| HistoryQuery::PresentDuring { location, window }),
        (arb_subject(), arb_window())
            .prop_map(|(subject, window)| HistoryQuery::Contacts { subject, window }),
        arb_window().prop_map(|window| HistoryQuery::ViolationsIn { window }),
        (arb_opt(arb_subject()), arb_window())
            .prop_map(|(source, window)| HistoryQuery::Quarantine { source, window }),
        Just(HistoryQuery::Status),
        Just(HistoryQuery::Digest),
    ]
}

/// Every `Request` kind. (`Request::Repl` has its own strategy in the
/// replication module below and rides the same codec.)
fn arb_request() -> impl Strategy<Value = Request> {
    let swipe = (any::<u64>(), arb_subject(), arb_location()).prop_map(|(t, subject, location)| {
        Request::Check(Event::Request {
            time: Time(t),
            subject,
            location,
        })
    });
    prop_oneof![
        prop::collection::vec(arb_event(), 0..24).prop_map(Request::Ingest),
        swipe,
        arb_history_query().prop_map(Request::Query),
        Just(Request::Metrics),
        // The auth frames: arbitrary token secrets (any UTF-8,
        // including empty) and every admin and situation RPC. A flipped
        // bit in a Hello, a MintToken or a Declare must never
        // authenticate as — or mint, or declare — something else; the
        // frame CRC plus these decoders guarantee refusal instead.
        arb_text(32).prop_map(|token| Request::Hello { token }),
        arb_admin_op().prop_map(Request::Admin),
        arb_situation_op().prop_map(Request::Situation),
    ]
}

fn arb_violation() -> impl Strategy<Value = Violation> {
    (
        0u8..4,
        any::<u64>(),
        arb_subject(),
        arb_location(),
        any::<u64>(),
    )
        .prop_map(|(pick, t, subject, location, auth)| {
            let (time, auth) = (Time(t), AuthId(auth));
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
        })
}

fn arb_quarantined() -> impl Strategy<Value = QuarantinedEvent> {
    (arb_subject(), any::<u8>(), arb_event()).prop_map(|(source, level, event)| QuarantinedEvent {
        source,
        level,
        event,
    })
}

fn arb_contact() -> impl Strategy<Value = Contact> {
    (arb_subject(), arb_location(), arb_window()).prop_map(|(other, location, overlap)| Contact {
        other,
        location,
        overlap,
    })
}

fn arb_replica_status() -> impl Strategy<Value = ReplicaStatus> {
    let state = prop::sample::select(vec![
        ReplicaState::CatchingUp,
        ReplicaState::Streaming,
        ReplicaState::Disconnected,
        ReplicaState::NeedsBootstrap,
    ]);
    (
        arb_text(24),
        prop::collection::vec(any::<u64>(), 4),
        state,
        arb_opt(arb_text(40)),
    )
        .prop_map(|(primary_addr, n, state, last_error)| ReplicaStatus {
            primary_addr,
            watermark: n[0],
            applied: n[1],
            primary_applied: n[2],
            primary_epoch: n[3],
            state,
            last_error,
        })
}

/// A `ServerStatus` with every field drawn, the follower-only replica
/// block and the archive error both present and absent.
fn arb_status() -> impl Strategy<Value = ServerStatus> {
    let engine = (
        prop::collection::vec(any::<u64>(), 7),
        prop::collection::vec(prop::collection::vec(any::<usize>(), 4), 0..4),
    )
        .prop_map(|(n, rows)| EngineStatus {
            shards: rows.len(),
            live_movement_events: n[0] as usize,
            live_violations: n[1] as usize,
            audit_records: n[2] as usize,
            events_pruned: n[3],
            violations_pruned: n[4],
            audit_pruned: n[5],
            total_entries: n[6],
            per_shard: rows
                .iter()
                .map(|r| ShardStatusRow {
                    shard: r[0],
                    movement_events: r[1],
                    violations: r[2],
                    audit_records: r[3],
                })
                .collect(),
        });
    (
        prop::collection::vec(any::<u64>(), 14),
        (any::<bool>(), any::<bool>(), any::<u16>()),
        arb_opt(arb_text(40)),
        engine,
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        arb_opt(arb_replica_status()),
    )
        .prop_map(
            |(
                n,
                (auth_required, follower, version),
                archive_error,
                engine,
                per_connection,
                replica,
            )| {
                ServerStatus {
                    events_ingested: n[0],
                    snapshot_seq: n[1],
                    policy_epoch: n[2],
                    auth_required,
                    quarantined_events: n[3] as usize,
                    retention_watermark: n[4],
                    archive_covered_to: n[5],
                    archive_error,
                    archive_segments_loaded: n[6] as usize,
                    wal_fsyncs: n[7],
                    engine,
                    connections_active: n[8] as usize,
                    connections_total: n[9],
                    refused_busy: n[10],
                    requests_served: n[11],
                    protocol_errors: n[12],
                    per_connection,
                    role: if follower {
                        ServerRole::Follower
                    } else {
                        ServerRole::Primary
                    },
                    replica,
                    uptime_chronons: n[13],
                    snapshot_format_version: version,
                }
            },
        )
}

fn arb_manifest() -> impl Strategy<Value = ReplManifest> {
    let file = || (arb_file_id(), any::<u64>()).prop_map(|(file, len)| ReplFile { file, len });
    (
        prop::collection::vec(any::<u64>(), 3),
        arb_opt(file()),
        prop::collection::vec(file(), 0..4),
        prop::collection::vec(any::<u64>(), 0..6),
        arb_opt(file()),
    )
        .prop_map(
            |(n, snapshot, archives, wal_segments, epoch_marker)| ReplManifest {
                applied: n[0],
                policy_epoch: n[1],
                retention_watermark: n[2],
                snapshot,
                archives,
                wal_segments,
                epoch_marker,
            },
        )
}

fn arb_admin_outcome() -> impl Strategy<Value = AdminOutcome> {
    prop_oneof![
        any::<u64>().prop_map(|id| AdminOutcome::TokenMinted { id: TokenId(id) }),
        any::<bool>().prop_map(|existed| AdminOutcome::TokenRevoked { existed }),
        Just(AdminOutcome::TrustSet),
        Just(AdminOutcome::AuthRequiredSet),
        any::<u64>().prop_map(|id| AdminOutcome::AuthorizationAdded { id: AuthId(id) }),
        any::<bool>().prop_map(|existed| AdminOutcome::AuthorizationRevoked { existed }),
    ]
}

fn arb_situation_outcome() -> impl Strategy<Value = SituationOutcome> {
    prop_oneof![
        arb_mode().prop_map(|mode| SituationOutcome::Declared { mode }),
        any::<bool>().prop_map(|added| SituationOutcome::ResponderAdded { added }),
        any::<bool>().prop_map(|existed| SituationOutcome::ResponderRemoved { existed }),
        any::<bool>().prop_map(|added| SituationOutcome::Pinned { added }),
        any::<bool>().prop_map(|existed| SituationOutcome::Unpinned { existed }),
        any::<u32>().prop_map(|id| SituationOutcome::ConstraintAdded {
            id: ConstraintId(id)
        }),
        any::<bool>().prop_map(|existed| SituationOutcome::ConstraintRemoved { existed }),
    ]
}

/// Every `Response` variant.
fn arb_response() -> impl Strategy<Value = Response> {
    let code = prop::sample::select(vec![
        ErrorCode::Busy,
        ErrorCode::BadRequest,
        ErrorCode::Unarchived,
        ErrorCode::Internal,
        ErrorCode::NotPrimary,
        ErrorCode::Gone,
        ErrorCode::Stale,
        ErrorCode::Unauthenticated,
        ErrorCode::PermissionDenied,
    ]);
    let role = prop::sample::select(vec![
        None,
        Some(ServerRole::Primary),
        Some(ServerRole::Follower),
    ]);
    prop_oneof![
        (
            prop::collection::vec(any::<usize>(), 3),
            prop::collection::vec(arb_violation(), 0..8),
        )
            .prop_map(|(n, violations)| Response::Ingested {
                processed: n[0],
                granted: n[1],
                denied: n[2],
                violations,
            }),
        any::<bool>().prop_map(|granted| Response::Access { granted }),
        arb_opt(arb_location()).prop_map(|location| Response::Whereabouts { location }),
        prop::collection::vec((arb_subject(), arb_window()), 0..8)
            .prop_map(|rows| Response::Present { rows }),
        (
            prop::collection::vec(arb_contact(), 0..8),
            prop::collection::vec(arb_quarantined(), 0..4),
        )
            .prop_map(|(contacts, quarantined)| Response::Contacts {
                contacts,
                quarantined,
            }),
        prop::collection::vec(arb_violation(), 0..8)
            .prop_map(|violations| Response::Violations { violations }),
        prop::collection::vec(arb_quarantined(), 0..8)
            .prop_map(|events| Response::Quarantine { events }),
        (
            any::<u64>(),
            arb_subject(),
            prop::collection::vec(arb_scope(), 0..4),
        )
            .prop_map(|(token, subject, scopes)| Response::Welcome {
                token: TokenId(token),
                subject,
                scopes,
            }),
        arb_admin_outcome().prop_map(|outcome| Response::Admin { outcome }),
        arb_situation_outcome().prop_map(|outcome| Response::Situation { outcome }),
        any::<usize>().prop_map(|held| Response::Quarantined { held }),
        arb_status().prop_map(|status| Response::Status { status }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(watermark, digest)| Response::Digest { watermark, digest }),
        arb_manifest().prop_map(|manifest| Response::ReplManifest { manifest }),
        arb_text(200).prop_map(|text| Response::Metrics { text }),
        (code, arb_text(60), role).prop_map(|(code, message, role)| Response::Error {
            code,
            message,
            role,
        }),
    ]
}

/// A frame's worth of meaning, in either direction. (Transient, like
/// `Response` itself: boxing the large variant would buy nothing.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
enum Message {
    Request(Request),
    Response(Response),
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_request().prop_map(Message::Request),
        arb_response().prop_map(Message::Response),
    ]
}

/// Kind byte of every response payload (requests use the others).
const KIND_RESPONSE: u8 = 0x04;
/// Kind bytes of the requests with a structured (`binval`) body.
const KIND_QUERY: u8 = 0x03;
const KIND_REPL: u8 = 0x05;
const KIND_ADMIN: u8 = 0x09;
const KIND_SITUATION: u8 = 0x0A;

fn encode(message: &Message) -> Vec<u8> {
    match message {
        Message::Request(r) => encode_request(r),
        Message::Response(r) => encode_response(r),
    }
}

/// Decode a payload the way its receiving end would: the kind byte says
/// which direction it travels.
fn decode(payload: &[u8]) -> Result<Message, WireError> {
    if payload.first() == Some(&KIND_RESPONSE) {
        decode_response(payload).map(Message::Response)
    } else {
        decode_request(payload).map(Message::Request)
    }
}

/// Frame a message exactly as its sender would put it on the wire.
fn framed(message: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &encode(message)).expect("vec write");
    bytes
}

/// Decode a structured body as a `T` directly and through a [`Value`]
/// tree: both routes must refuse, or both must accept and agree
/// (compared as encodings, which is exact for floats).
fn routes_agree<T: Deserialize + Serialize>(body: &[u8]) {
    let direct = binval::decode::<T>(body);
    let via_tree = binval::decode::<Value>(body).and_then(|tree| T::from_value(&tree));
    match (direct, via_tree) {
        (Ok(a), Ok(b)) => assert_eq!(binval::encode(&a), binval::encode(&b), "routes disagree"),
        (Err(_), Err(_)) => {}
        (direct, via_tree) => panic!(
            "one route refused {body:02x?}: direct {:?}, via the tree {:?}",
            direct.map(|_| ()),
            via_tree.map(|_| ())
        ),
    }
}

/// [`routes_agree`] for the body type a payload's kind byte selects
/// (event-codec and raw bodies have no second route).
fn body_routes_agree(payload: &[u8]) {
    let Some((&kind, body)) = payload.split_first() else {
        return;
    };
    match kind {
        KIND_QUERY => routes_agree::<HistoryQuery>(body),
        KIND_RESPONSE => routes_agree::<Response>(body),
        KIND_REPL => routes_agree::<ReplRequest>(body),
        KIND_ADMIN => routes_agree::<AdminOp>(body),
        KIND_SITUATION => routes_agree::<SituationOp>(body),
        _ => {}
    }
}

/// `check` over `bytes` intact and damaged at every byte from `from`
/// on: cut there, bit `bit` flipped there, and — where the byte follows
/// a string/array/object tag, so is a length or a count wherever that
/// byte really is a tag — inflated.
fn for_each_damage(bytes: &[u8], from: usize, bit: u8, check: impl Fn(&[u8])) {
    check(bytes);
    let mut damaged = bytes.to_vec();
    for i in from..bytes.len() {
        check(&bytes[..i]);
        damaged[i] ^= 1 << bit;
        check(&damaged);
        if i > 0 && (0x06..=0x08).contains(&bytes[i - 1]) {
            for inflated in [bytes[i].wrapping_add(1), 0x7F, 0xFF] {
                damaged[i] = inflated;
                check(&damaged);
            }
        }
        damaged[i] = bytes[i];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Behind the frame CRC there is one body decoder with two routes —
    /// straight into the message type, and through a `Value` tree that
    /// `from_value` then walks. They are the same function: on every
    /// message's body, intact and damaged at every byte, both refuse or
    /// both accept and agree.
    #[test]
    fn damaged_bodies_decode_alike_on_both_routes(message in arb_message(), bit in 0u8..8) {
        for_each_damage(&encode(&message), 1, bit, body_routes_agree);
    }

    /// …and on garbage weighted toward binval's tag bytes, under every
    /// structured kind.
    #[test]
    fn arbitrary_bodies_decode_alike_on_both_routes(
        tail in prop::collection::vec(prop_oneof![3 => 0u8..=8, 1 => 0u8..=255], 0..64),
    ) {
        for kind in [KIND_QUERY, KIND_RESPONSE, KIND_REPL, KIND_ADMIN, KIND_SITUATION] {
            body_routes_agree(&[&[kind][..], &tail].concat());
        }
    }

    /// Arbitrary messages survive the full frame → parse round trip
    /// bit-exactly.
    #[test]
    fn framed_messages_round_trip(message in arb_message()) {
        let bytes = framed(&message);
        let payload = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
            .expect("intact frames read");
        prop_assert_eq!(decode(&payload).expect("intact payloads decode"), message);
    }

    /// Every strict prefix of a framed message fails to read — the
    /// stream can tear anywhere (header, payload, mid-varint) without
    /// a panic or a silent success.
    #[test]
    fn truncated_frames_always_error(message in arb_message(), cut_seed in 0usize..65536) {
        let bytes = framed(&message);
        let cut = cut_seed % bytes.len();
        let result = read_frame(&mut Cursor::new(&bytes[..cut]), DEFAULT_MAX_FRAME_BYTES);
        prop_assert!(result.is_err(), "cut at {} of {}", cut, bytes.len());
    }

    /// A single flipped bit anywhere in the frame is caught: the read
    /// or decode errors, and can never produce a different valid
    /// message. (A payload flip is guaranteed caught by CRC32; a
    /// header flip either breaks the read or breaks the CRC check.)
    #[test]
    fn bit_flipped_frames_never_yield_a_wrong_message(
        message in arb_message(),
        byte_seed in 0usize..65536,
        bit in 0u8..8,
    ) {
        let mut bytes = framed(&message);
        let i = byte_seed % bytes.len();
        bytes[i] ^= 1 << bit;
        let outcome = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
            .map_err(|_| ())
            .and_then(|payload| decode(&payload).map_err(|_| ()));
        prop_assert!(outcome.is_err(), "flip at byte {} bit {}", i, bit);
    }

    /// Behind the CRC, the body decoders are total on *near-valid*
    /// input too: a payload cut or bit-flipped without the frame
    /// noticing decodes to a message or an error, never a panic — and a
    /// cut structured body is always an error (one binval value is never
    /// a strict prefix of another).
    #[test]
    fn damaged_payloads_never_panic(
        message in arb_message(),
        seed in 0usize..65536,
        bit in 0u8..8,
    ) {
        let payload = encode(&message);
        let cut = 1 + seed % payload.len();
        let structured = !matches!(
            message,
            Message::Request(Request::Hello { .. } | Request::Metrics)
        );
        if cut < payload.len() && structured {
            prop_assert!(decode(&payload[..cut]).is_err(), "cut at {} of {}", cut, payload.len());
        }
        let mut flipped = payload.clone();
        flipped[seed % payload.len()] ^= 1 << bit;
        let _ = decode(&flipped);
        let _ = decode_repl_reply(&flipped);
    }

    /// Arbitrary garbage never panics the frame reader or the decoders
    /// — neither raw bytes, nor a *valid* kind byte followed by a tail
    /// weighted toward binval's tag bytes (so the garbage gets past
    /// kind dispatch and deep into the body decoder).
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        kind in 0x01u8..=0x0A,
        tail in prop::collection::vec(prop_oneof![3 => 0u8..=8, 1 => 0u8..=255], 0..256),
    ) {
        let _ = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES);
        let mut body = vec![kind];
        body.extend_from_slice(&tail);
        for payload in [&bytes, &body] {
            let _ = decode_request(payload);
            let _ = decode_response(payload);
            let _ = decode_repl_reply(payload);
        }
    }

    /// The incremental assembler is chunking-invariant: TCP may hand
    /// the same framed stream to the poll loop cut at **any** byte
    /// boundaries — mid-header, mid-payload, many frames per chunk —
    /// and the decoded message sequence must be identical to reading
    /// the stream whole.
    #[test]
    fn assembler_decodes_identically_across_arbitrary_splits(
        messages in prop::collection::vec(arb_message(), 1..10),
        cut_seeds in prop::collection::vec(0usize..65536, 0..32),
    ) {
        let mut stream = Vec::new();
        for m in &messages {
            stream.extend_from_slice(&framed(m));
        }
        let mut cuts: Vec<usize> = cut_seeds.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
        let mut decoded = Vec::new();
        let mut at = 0usize;
        for end in cuts.into_iter().chain(std::iter::once(stream.len())) {
            asm.push(&stream[at..end]);
            at = end;
            while let Some(payload) = asm.next_frame().expect("intact stream") {
                decoded.push(decode(&payload).expect("intact payload"));
            }
        }
        prop_assert_eq!(decoded, messages);
        prop_assert!(!asm.mid_frame(), "stream fully consumed");
    }

    /// A framed stream of many messages parses back message by message
    /// (connections carry back-to-back frames).
    #[test]
    fn framed_streams_parse_frame_by_frame(messages in prop::collection::vec(arb_message(), 0..12)) {
        let mut stream = Vec::new();
        for m in &messages {
            stream.extend_from_slice(&framed(m));
        }
        let mut cursor = Cursor::new(&stream);
        let mut back = Vec::new();
        while (cursor.position() as usize) < stream.len() {
            let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).expect("stream frame");
            back.push(decode(&payload).expect("stream payload"));
        }
        prop_assert_eq!(back, messages);
    }
}

// --- replication: frame codec and the resume protocol ----------------------

mod replication {
    use super::*;
    use ltam_serve::wire::{encode_repl_chunk, ReplChunk, ReplChunkMeta, ReplReply, ReplRequest};
    use ltam_store::replica::wal_segment_ids;
    use ltam_store::{ScratchDir, TailScanner, Wal, WalConfig, WalRecord};
    use std::path::Path;

    fn arb_repl_request() -> impl Strategy<Value = ReplRequest> {
        prop_oneof![
            Just(ReplRequest::Manifest),
            (arb_file_id(), any::<u64>(), any::<u32>())
                .prop_map(|(file, offset, len)| ReplRequest::Fetch { file, offset, len }),
        ]
    }

    fn arb_chunk() -> impl Strategy<Value = ReplChunk> {
        (
            (arb_file_id(), any::<u64>(), any::<u64>(), any::<bool>()),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..256),
            ),
        )
            .prop_map(
                |((file, offset, file_len, sealed), (applied, policy_epoch, rw, bytes))| {
                    ReplChunk {
                        meta: ReplChunkMeta {
                            file,
                            offset,
                            file_len,
                            sealed,
                            applied,
                            policy_epoch,
                            retention_watermark: rw,
                        },
                        bytes,
                    }
                },
            )
    }

    /// Unwrap plain-event tail records (these WALs hold no quarantine
    /// records; shipping one here would be a scanner bug).
    fn plain(records: Vec<WalRecord>) -> Vec<Vec<Event>> {
        records
            .into_iter()
            .map(|r| match r {
                WalRecord::Events(events) => events,
                WalRecord::Quarantine { .. } | WalRecord::Policy(_) => {
                    panic!("plain WALs hold no quarantine or policy records")
                }
            })
            .collect()
    }

    /// Write `batches` into a WAL (one record per batch), rotating
    /// after every `rotate_every` batches, and return the segment ids.
    fn build_wal(dir: &Path, batches: &[Vec<Event>], rotate_every: usize) -> Vec<u64> {
        let (mut wal, _) = Wal::open(
            dir,
            WalConfig {
                fsync: false,
                ..WalConfig::default()
            },
        )
        .expect("open wal");
        for (i, b) in batches.iter().enumerate() {
            wal.append_batch(b).expect("append");
            if rotate_every > 0 && (i + 1) % rotate_every == 0 {
                wal.rotate().expect("rotate");
            }
        }
        wal_segment_ids(dir).expect("list segments")
    }

    /// Drive a scanner over an intact on-disk WAL to the end,
    /// `chunk`-sized fetches at a time, asserting no faults.
    fn drive_clean(dir: &Path, scanner: &mut TailScanner, chunk: usize) -> Vec<Vec<Event>> {
        let segs = wal_segment_ids(dir).expect("list segments");
        let mut out = Vec::new();
        loop {
            let seg = scanner.segment();
            let sealed = segs.iter().any(|&s| s > seg);
            let path = ReplFileId::WalSegment { first_seq: seg }.path(dir);
            let bytes = std::fs::read(&path).expect("read segment");
            let at = scanner.offset() as usize;
            let end = (at + chunk.max(1)).min(bytes.len());
            let step = scanner.apply(&bytes[at..end], bytes.len() as u64, sealed);
            assert_eq!(step.fault, None, "intact logs never fault");
            out.extend(plain(step.records));
            if scanner.segment() == seg && scanner.offset() as usize >= bytes.len() && !sealed {
                return out;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Replication requests ride the ordinary request codec:
        /// exact round trips for arbitrary file ids and cursors.
        #[test]
        fn framed_repl_requests_round_trip(repl in arb_repl_request()) {
            let message = Message::Request(Request::Repl(repl));
            let bytes = framed(&message);
            let payload = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
                .expect("intact frames read");
            prop_assert_eq!(decode(&payload).expect("intact payloads decode"), message);
        }

        /// The chunk-meta prefix is the one structured body outside
        /// `Request`/`Response`; the same two-route rule holds for it.
        #[test]
        fn damaged_chunk_metas_decode_alike_on_both_routes(chunk in arb_chunk(), bit in 0u8..8) {
            for_each_damage(&binval::encode(&chunk.meta), 0, bit, routes_agree::<ReplChunkMeta>);
        }

        /// Chunk frames round-trip bit-exactly (the raw segment bytes
        /// travel unescaped), and one flipped bit anywhere in the
        /// frame — meta or raw bytes — is caught by the frame CRC or
        /// the decoder, never surfacing as a different valid chunk.
        #[test]
        fn repl_chunk_frames_round_trip_and_reject_bit_flips(
            chunk in arb_chunk(),
            byte_seed in 0usize..65536,
            bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &encode_repl_chunk(&chunk)).expect("vec write");
            let payload = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
                .expect("intact frames read");
            match decode_repl_reply(&payload).expect("intact chunks decode") {
                ReplReply::Chunk(back) => {
                    prop_assert_eq!(back.meta, chunk.meta);
                    prop_assert_eq!(&back.bytes, &chunk.bytes);
                }
                ReplReply::Other(r) => prop_assert!(false, "chunk decoded as {r:?}"),
            }
            let i = byte_seed % bytes.len();
            bytes[i] ^= 1 << bit;
            let outcome = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
                .map_err(|_| ())
                .and_then(|p| decode_repl_reply(&p).map_err(|_| ()));
            prop_assert!(outcome.is_err(), "flip at byte {} bit {}", i, bit);
        }

        /// Every strict prefix of a framed chunk fails to read: a
        /// connection dying mid-chunk can never deliver one.
        #[test]
        fn truncated_repl_chunk_frames_always_error(
            chunk in arb_chunk(),
            cut_seed in 0usize..65536,
        ) {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &encode_repl_chunk(&chunk)).expect("vec write");
            let cut = cut_seed % bytes.len();
            prop_assert!(
                read_frame(&mut Cursor::new(&bytes[..cut]), DEFAULT_MAX_FRAME_BYTES).is_err(),
                "cut at {} of {}", cut, bytes.len()
            );
        }

        /// THE replication honesty property: ship a real WAL segment
        /// through the follower's scanner with arbitrary truncation
        /// and an arbitrary bit flip, at arbitrary fetch chunk sizes —
        /// whatever the scanner yields is an exact prefix of the true
        /// batch sequence. Damage can stop replication; it can never
        /// reshape it.
        #[test]
        fn damaged_shipped_segments_never_yield_wrong_records(
            batches in prop::collection::vec(
                prop::collection::vec(arb_event(), 1..4), 1..6),
            cut_seed in 0usize..65536,
            flip in (any::<bool>(), 0usize..65536, 0u8..8),
            chunk in 1usize..512,
            sealed in any::<bool>(),
        ) {
            let dir = ScratchDir::new("serve-prop-damage");
            build_wal(dir.path(), &batches, 0);
            let path = ReplFileId::WalSegment { first_seq: 0 }.path(dir.path());
            let mut bytes = std::fs::read(&path).expect("read segment");
            let cut = cut_seed % (bytes.len() + 1);
            bytes.truncate(cut);
            let (do_flip, flip_seed, flip_bit) = flip;
            if do_flip && !bytes.is_empty() {
                let i = flip_seed % bytes.len();
                bytes[i] ^= 1 << flip_bit;
            }
            let file_len = bytes.len() as u64;
            let mut scanner = TailScanner::start(0, &[0]).expect("segment 0 covers");
            let mut got: Vec<Vec<Event>> = Vec::new();
            loop {
                if scanner.segment() != 0 {
                    break; // consumed the whole (sealed) segment
                }
                let at = scanner.offset() as usize;
                let end = (at + chunk).min(bytes.len());
                let step = scanner.apply(&bytes[at..end], file_len, sealed);
                let fault = step.fault;
                got.extend(plain(step.records));
                if fault.is_some() || scanner.offset() as usize >= bytes.len() {
                    break;
                }
            }
            prop_assert!(got.len() <= batches.len(), "never more than was written");
            prop_assert_eq!(&got[..], &batches[..got.len()], "exact prefix or nothing");
        }

        /// The resume protocol: a follower that reconnects knowing
        /// only its applied sequence is re-positioned by
        /// `TailScanner::start` to replay exactly the events at and
        /// after that sequence — never a duplicate, never a gap —
        /// across segment boundaries and for every possible floor.
        #[test]
        fn resume_from_any_applied_floor_replays_exactly_the_suffix(
            batches in prop::collection::vec(
                prop::collection::vec(arb_event(), 1..4), 1..8),
            rotate_every in 1usize..4,
            floor_seed in 0usize..65536,
            chunk in 1usize..256,
        ) {
            let dir = ScratchDir::new("serve-prop-resume");
            let segs = build_wal(dir.path(), &batches, rotate_every);
            let all: Vec<Event> = batches.iter().flatten().cloned().collect();
            let floor = floor_seed % (all.len() + 1);
            let mut scanner = TailScanner::start(floor as u64, &segs)
                .expect("floor within the retained log");
            let got: Vec<Event> = drive_clean(dir.path(), &mut scanner, chunk)
                .into_iter()
                .flatten()
                .collect();
            prop_assert_eq!(&got[..], &all[floor..], "floor {}", floor);
        }
    }
}
