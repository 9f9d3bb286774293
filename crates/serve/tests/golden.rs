//! Golden frames: `tests/golden/frames.bin` is a framed stream written
//! by the commit *before* the streaming decoder (PR 17's tree — a
//! `Value`-tree decode behind every structured body): one frame of each
//! of the ten kinds, and one of every `Response` variant. Each must
//! decode to the message it was written from, and today's encoder must
//! write the same stream back — the wire did not move in either
//! direction.
//!
//! `cargo test -p ltam-serve --test golden -- --ignored` rewrites the
//! file (only ever needed on a deliberate wire change). Rewritten three
//! times since. First the status, manifest and chunk-meta frames each
//! lost the one key that told followers a closure policy edit had
//! happened (such an edit is a WAL record now). Then the status frame
//! lost the engine's per-class retention watermarks
//! (`retention_watermark` is the one watermark). Then it lost the state
//! digest, which hashes the whole state and so is its own query now; a
//! `Digest` request and response were appended after the chunk. The
//! other 23 frames are the original bytes.

use ltam_core::capability::{AdminOp, AdminOutcome, Scope, TokenId};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, QuarantinedEvent};
use ltam_engine::movement::Contact;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_serve::wire::{
    decode_repl_reply, decode_request, decode_response, encode_repl_chunk, encode_request,
    encode_response, read_frame, write_frame, ErrorCode, HistoryQuery, ReplChunk, ReplChunkMeta,
    ReplManifest, ReplReply, ReplRequest, ReplicaState, ReplicaStatus, Request, Response,
    ServerRole, ServerStatus, DEFAULT_MAX_FRAME_BYTES,
};
use ltam_situate::{SituationMode, SituationOp, SituationOutcome, WorkflowConstraint};
use ltam_store::replica::{ReplFile, ReplFileId};
use ltam_time::{Interval, Time};
use std::io::Cursor;
use std::path::{Path, PathBuf};

fn golden_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frames.bin")
}

/// A frame's worth of meaning, by the decoder its receiver would use.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq)]
enum Message {
    Request(Request),
    Response(Response),
    Chunk(ReplChunk),
}

fn encode(message: &Message) -> Vec<u8> {
    match message {
        Message::Request(r) => encode_request(r),
        Message::Response(r) => encode_response(r),
        Message::Chunk(c) => encode_repl_chunk(c),
    }
}

fn decode(payload: &[u8]) -> Message {
    match payload[0] {
        0x04 => Message::Response(decode_response(payload).expect("response")),
        0x06 => match decode_repl_reply(payload).expect("chunk") {
            ReplReply::Chunk(chunk) => Message::Chunk(chunk),
            ReplReply::Other(other) => panic!("a chunk frame decoded to {other:?}"),
        },
        _ => Message::Request(decode_request(payload).expect("request")),
    }
}

fn enter(t: u64, s: u32, l: u32) -> Event {
    Event::Enter {
        time: Time(t),
        subject: SubjectId(s),
        location: LocationId(l),
    }
}

fn swipe(t: u64, s: u32, l: u32) -> Event {
    Event::Request {
        time: Time(t),
        subject: SubjectId(s),
        location: LocationId(l),
    }
}

fn messages() -> Vec<Message> {
    let violations = vec![
        Violation::UnauthorizedEntry {
            time: Time(9),
            subject: SubjectId(4),
            location: LocationId(1),
        },
        Violation::Overstay {
            detected_at: Time(77),
            subject: SubjectId(2),
            location: LocationId(3),
            auth: ltam_core::db::AuthId(12),
        },
    ];
    let held = QuarantinedEvent {
        source: SubjectId(9),
        level: 1,
        event: enter(120, 0, 2),
    };
    let requests = [
        Request::Ingest(vec![
            swipe(10, 1, 2),
            enter(11, 1, 2),
            Event::Tick { now: Time(99) },
        ]),
        Request::Check(swipe(5, 0, 3)),
        Request::Query(HistoryQuery::Contacts {
            subject: SubjectId(7),
            window: Interval::lit(0, 100),
        }),
        Request::Query(HistoryQuery::Quarantine {
            source: None,
            window: Interval::from_start(40u64),
        }),
        Request::Query(HistoryQuery::Status),
        Request::Repl(ReplRequest::Fetch {
            file: ReplFileId::WalSegment { first_seq: 512 },
            offset: 16,
            len: 4096,
        }),
        Request::Metrics,
        Request::Hello {
            token: "tok-1-deadbeef".into(),
        },
        Request::Admin(AdminOp::MintToken {
            subject: SubjectId(9),
            scopes: vec![
                Scope::Admin,
                Scope::Ingest {
                    locations: Some(vec![LocationId(1), LocationId(2)]),
                },
            ],
            validity: Interval::lit(0, 10_000),
            secret: "s3cret".into(),
        }),
        Request::Situation(SituationOp::AddConstraint(
            WorkflowConstraint::OrderedSteps {
                steps: vec![LocationId(1), LocationId(4)],
                window: 30,
            },
        )),
    ];
    let responses = [
        Response::Ingested {
            processed: 3,
            granted: 1,
            denied: 1,
            violations: violations.clone(),
        },
        Response::Access { granted: true },
        Response::Whereabouts { location: None },
        Response::Present {
            rows: vec![
                (SubjectId(1), Interval::lit(3, 9)),
                (SubjectId(2), Interval::from_start(8u64)),
            ],
        },
        Response::Contacts {
            contacts: vec![Contact {
                other: SubjectId(5),
                location: LocationId(2),
                overlap: Interval::lit(4, 6),
            }],
            quarantined: vec![held],
        },
        Response::Violations { violations },
        Response::Quarantine { events: vec![held] },
        Response::Welcome {
            token: TokenId(3),
            subject: SubjectId(9),
            scopes: vec![Scope::Query, Scope::Ingest { locations: None }],
        },
        Response::Admin {
            outcome: AdminOutcome::TokenMinted { id: TokenId(3) },
        },
        Response::Situation {
            outcome: SituationOutcome::Declared {
                mode: SituationMode::Lockdown,
            },
        },
        Response::Quarantined { held: 64 },
        Response::Status {
            status: ServerStatus {
                events_ingested: 1_000_000,
                snapshot_seq: 950_000,
                policy_epoch: 4,
                auth_required: true,
                archive_error: Some("coverage gap".into()),
                per_connection: vec![(1, 10), (2, 20)],
                role: ServerRole::Follower,
                replica: Some(ReplicaStatus {
                    primary_addr: "127.0.0.1:7000".into(),
                    watermark: 999_000,
                    state: ReplicaState::Streaming,
                    ..ReplicaStatus::default()
                }),
                snapshot_format_version: 2,
                ..ServerStatus::default()
            },
        },
        Response::ReplManifest {
            manifest: ReplManifest {
                applied: 512,
                policy_epoch: 3,
                retention_watermark: 100,
                snapshot: Some(ReplFile {
                    file: ReplFileId::Snapshot { seq: 500, epoch: 3 },
                    len: 4096,
                }),
                archives: vec![ReplFile {
                    file: ReplFileId::Archive { from: 0, to: 100 },
                    len: 2048,
                }],
                wal_segments: vec![0, 256, 512],
                epoch_marker: Some(ReplFile {
                    file: ReplFileId::EpochMarker,
                    len: 20,
                }),
            },
        },
        Response::Metrics {
            text: "# TYPE store_wal_fsyncs_total counter\nstore_wal_fsyncs_total 7\n".into(),
        },
        Response::Error {
            code: ErrorCode::PermissionDenied,
            message: "scope `admin` required — π".into(),
            role: Some(ServerRole::Primary),
        },
    ];
    let chunk = ReplChunk {
        meta: ReplChunkMeta {
            file: ReplFileId::Archive { from: 0, to: 100 },
            offset: 1024,
            file_len: 2048,
            sealed: true,
            applied: 512,
            policy_epoch: 3,
            retention_watermark: 100,
        },
        bytes: (0..=255).collect(),
    };
    let mut all: Vec<Message> = requests.into_iter().map(Message::Request).collect();
    all.extend(responses.into_iter().map(Message::Response));
    all.push(Message::Chunk(chunk));
    all.push(Message::Request(Request::Query(HistoryQuery::Digest)));
    all.push(Message::Response(Response::Digest {
        watermark: 1_000_000,
        digest: u64::MAX,
    }));
    all
}

fn stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    for message in messages() {
        write_frame(&mut bytes, &encode(&message)).expect("vec write");
    }
    bytes
}

#[test]
fn frames_written_before_the_streaming_decoder_decode_to_the_same_messages() {
    let golden = std::fs::read(golden_file()).expect("read the golden stream");
    let mut cursor = Cursor::new(&golden);
    for expected in messages() {
        let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).expect("an intact frame");
        assert_eq!(decode(&payload), expected);
    }
    assert_eq!(cursor.position(), golden.len() as u64, "frames left over");
    // …and the other direction: what is written today is what was
    // written then, so the old reader reads it.
    assert_eq!(stream(), golden);
}

#[test]
#[ignore = "rewrites tests/golden/frames.bin from the messages above"]
fn bless() {
    std::fs::create_dir_all(golden_file().parent().unwrap()).expect("create golden dir");
    std::fs::write(golden_file(), stream()).expect("write the golden stream");
}
