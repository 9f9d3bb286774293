//! Property tests for the wire layer, held to the same bar as the WAL
//! codec's: round-trips are exact, and damaged bytes — truncations,
//! bit flips, garbage — decode to errors, never panics, and **never a
//! wrong-but-valid message** (the frame CRC is checked before any body
//! is interpreted, and CRC32 catches every single-bit flip of the
//! payload).

use ltam_core::capability::{AdminOp, Scope, TokenId};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::Event;
use ltam_graph::LocationId;
use ltam_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameAssembler, HistoryQuery, Request, Response, DEFAULT_MAX_FRAME_BYTES,
};
use ltam_time::{Interval, Time};
use proptest::prelude::*;
use std::io::Cursor;

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

fn arb_admin_op() -> impl Strategy<Value = AdminOp> {
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
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    let swipe = (0u64..=u64::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX).prop_map(|(t, s, l)| {
        Request::Check(Event::Request {
            time: Time(t),
            subject: SubjectId(s),
            location: LocationId(l),
        })
    });
    prop_oneof![
        prop::collection::vec(arb_event(), 0..24).prop_map(Request::Ingest),
        swipe,
        (0u32..=u32::MAX, 0u64..=u64::MAX).prop_map(|(s, t)| Request::Query(
            HistoryQuery::Whereabouts {
                subject: SubjectId(s),
                at: Time(t),
            }
        )),
        (0u32..=u32::MAX, arb_window()).prop_map(|(l, w)| Request::Query(
            HistoryQuery::PresentDuring {
                location: LocationId(l),
                window: w,
            }
        )),
        (0u32..=u32::MAX, arb_window()).prop_map(|(s, w)| Request::Query(HistoryQuery::Contacts {
            subject: SubjectId(s),
            window: w,
        })),
        arb_window().prop_map(|w| Request::Query(HistoryQuery::ViolationsIn { window: w })),
        Just(Request::Query(HistoryQuery::Status)),
        // The metrics scrape frame rides every damage property below:
        // round-trip, truncation totality, bit-flip rejection, and
        // chunking invariance, same as every other kind.
        Just(Request::Metrics),
        // So do the auth frames: arbitrary token secrets (any UTF-8,
        // including empty) and every simple admin RPC. A flipped bit
        // in a Hello or a MintToken must never authenticate as — or
        // mint — something else; the frame CRC plus these decoders
        // guarantee refusal instead.
        "[ -~]{0,32}".prop_map(|token| Request::Hello { token }),
        arb_admin_op().prop_map(Request::Admin),
        (any::<bool>(), 0u32..=u32::MAX, arb_window()).prop_map(|(all, s, window)| {
            Request::Query(HistoryQuery::Quarantine {
                source: if all { None } else { Some(SubjectId(s)) },
                window,
            })
        }),
    ]
}

/// Frame a request exactly as the client would put it on the wire.
fn framed(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &encode_request(request)).expect("vec write");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary requests survive the full frame → parse round trip
    /// bit-exactly.
    #[test]
    fn framed_requests_round_trip(request in arb_request()) {
        let bytes = framed(&request);
        let payload = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
            .expect("intact frames read");
        prop_assert_eq!(decode_request(&payload).expect("intact payloads decode"), request);
    }

    /// Every strict prefix of a framed request fails to read — the
    /// stream can tear anywhere (header, payload, mid-varint) without
    /// a panic or a silent success.
    #[test]
    fn truncated_frames_always_error(request in arb_request(), cut_seed in 0usize..4096) {
        let bytes = framed(&request);
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
        request in arb_request(),
        byte_seed in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut bytes = framed(&request);
        let i = byte_seed % bytes.len();
        bytes[i] ^= 1 << bit;
        let outcome = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
            .map_err(|_| ())
            .and_then(|payload| decode_request(&payload).map_err(|_| ()));
        prop_assert!(outcome.is_err(), "flip at byte {} bit {}", i, bit);
    }

    /// Arbitrary garbage never panics the frame reader or the decoders.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES);
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// The incremental assembler is chunking-invariant: TCP may hand
    /// the same framed stream to the poll loop cut at **any** byte
    /// boundaries — mid-header, mid-payload, many frames per chunk —
    /// and the decoded request sequence must be identical to reading
    /// the stream whole.
    #[test]
    fn assembler_decodes_identically_across_arbitrary_splits(
        requests in prop::collection::vec(arb_request(), 1..10),
        cut_seeds in prop::collection::vec(0usize..65536, 0..32),
    ) {
        let mut stream = Vec::new();
        for r in &requests {
            stream.extend_from_slice(&framed(r));
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
                decoded.push(decode_request(&payload).expect("intact payload"));
            }
        }
        prop_assert_eq!(decoded, requests);
        prop_assert!(!asm.mid_frame(), "stream fully consumed");
    }

    /// A framed stream of many requests parses back message by message
    /// (connections carry back-to-back frames).
    #[test]
    fn framed_streams_parse_frame_by_frame(requests in prop::collection::vec(arb_request(), 0..12)) {
        let mut stream = Vec::new();
        for r in &requests {
            stream.extend_from_slice(&framed(r));
        }
        let mut cursor = Cursor::new(&stream);
        let mut back = Vec::new();
        while (cursor.position() as usize) < stream.len() {
            let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).expect("stream frame");
            back.push(decode_request(&payload).expect("stream payload"));
        }
        prop_assert_eq!(back, requests);
    }

    /// Responses round-trip too (violations and contact rows travel
    /// the other way).
    #[test]
    fn framed_responses_round_trip(granted in any::<bool>(), n in 0usize..8) {
        let response = Response::Ingested {
            processed: n,
            granted: n,
            denied: 0,
            violations: (0..n)
                .map(|i| ltam_engine::Violation::UnauthorizedEntry {
                    time: Time(i as u64),
                    subject: SubjectId(i as u32),
                    location: LocationId(1),
                })
                .collect(),
        };
        let access = Response::Access { granted };
        for r in [&response, &access] {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &encode_response(r)).unwrap();
            let payload = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES).unwrap();
            prop_assert_eq!(&decode_response(&payload).unwrap(), r);
        }
    }
}

// --- replication: frame codec and the resume protocol ----------------------

mod replication {
    use super::*;
    use ltam_serve::wire::{
        decode_repl_reply, encode_repl_chunk, ReplChunk, ReplChunkMeta, ReplReply, ReplRequest,
    };
    use ltam_store::replica::{wal_segment_ids, ReplFileId, TailBatch};
    use ltam_store::{ScratchDir, TailScanner, Wal, WalConfig};
    use std::path::Path;

    fn arb_file_id() -> impl Strategy<Value = ReplFileId> {
        prop_oneof![
            (any::<u64>(), any::<u64>())
                .prop_map(|(seq, epoch)| ReplFileId::Snapshot { seq, epoch }),
            (any::<u64>(), any::<u64>()).prop_map(|(from, to)| ReplFileId::Archive { from, to }),
            any::<u64>().prop_map(|first_seq| ReplFileId::WalSegment { first_seq }),
            Just(ReplFileId::EpochMarker),
        ]
    }

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
                            enforcement_epoch: policy_epoch / 2,
                            retention_watermark: rw,
                        },
                        bytes,
                    }
                },
            )
    }

    /// Unwrap plain-event tail batches (these WALs hold no quarantine
    /// records; shipping one here would be a scanner bug).
    fn plain(batches: Vec<TailBatch>) -> Vec<Vec<Event>> {
        batches
            .into_iter()
            .map(|b| match b {
                TailBatch::Events(events) => events,
                TailBatch::Quarantine { .. } | TailBatch::Policy(_) => {
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
            out.extend(plain(step.batches));
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
            let request = Request::Repl(repl);
            let bytes = framed(&request);
            let payload = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_BYTES)
                .expect("intact frames read");
            prop_assert_eq!(decode_request(&payload).expect("intact payloads decode"), request);
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
                got.extend(plain(step.batches));
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
