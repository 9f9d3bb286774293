//! Tripwire: structured wire bodies are decoded *before* the capability
//! gate, so what an unauthenticated peer can make the decoder allocate
//! must be bounded by what it sent. `binval::decode` reads straight into
//! the message type — a maximal frame of one-byte elements, or of
//! nothing but array openers, costs the heap at most 2× its own length
//! (when a `Value` tree was a stage of every decode it cost 32×: one
//! 32-byte `Value` per input byte) and the stack at most the decoder's
//! depth cap. Its own test binary, because it swaps the global allocator
//! for one that records the high-water mark.

use ltam_core::capability::AdminOp;
use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_serve::wire::{
    decode_repl_reply, decode_request, decode_response, HistoryQuery, ReplChunkMeta, ReplReply,
    ReplRequest, Request, Response,
};
use ltam_situate::{SituationOp, WorkflowConstraint};
use ltam_store::replica::ReplFileId;
use ltam_store::{binval, put_varint};
use ltam_time::Time;
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most that ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Recording;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
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
        // A moving realloc holds both blocks for a moment.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// The most heap `f` held at once, beyond what was live when it began.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed) - before)
}

/// One frame's worth of body (`DEFAULT_MAX_FRAME_BYTES`).
const FRAME: usize = 16 << 20;

const TAG_NULL: u8 = 0x00;
const TAG_ARRAY: u8 = 0x07;

/// A *valid* value that is all amplification: an array of `FRAME`
/// one-byte elements.
fn flat() -> Vec<u8> {
    let mut bytes = vec![TAG_ARRAY];
    put_varint(&mut bytes, FRAME as u64);
    bytes.resize(bytes.len() + FRAME, TAG_NULL);
    bytes
}

/// `[[[[…` — `FRAME / 2` one-element arrays, each inside the last.
fn nested() -> Vec<u8> {
    let mut bytes = [TAG_ARRAY, 1].repeat(FRAME / 2);
    bytes.push(TAG_NULL);
    bytes
}

/// `sample`'s encoding with one more field, `junk`, spliced as raw
/// bytes into its innermost object (the samples below are chosen so
/// that this is a struct's, not an enum's one-pair wrapper) — a field
/// the type does not know, so the decoder has to walk all of it and
/// keep none.
fn with_unknown_field(sample: &Value, junk: &[u8]) -> Vec<u8> {
    const MARK: &str = "@junk goes here@";
    fn plant(v: &mut Value) -> bool {
        match v {
            Value::Array(items) => items.iter_mut().any(plant),
            Value::Object(pairs) => {
                if !pairs.iter_mut().any(|(_, inner)| plant(inner)) {
                    pairs.insert(0, ("junk".to_string(), Value::Str(MARK.to_string())));
                }
                true
            }
            _ => false,
        }
    }
    let mut tree = sample.clone();
    assert!(plant(&mut tree), "no object to hide a field in: {sample:?}");
    let bytes = binval::encode(&tree);
    let mark = binval::encode(MARK);
    let at = bytes
        .windows(mark.len())
        .position(|w| w == mark)
        .expect("the marker was planted");
    [&bytes[..at], junk, &bytes[at + mark.len()..]].concat()
}

/// One way a structured body reaches the decoder: how its payload is
/// laid out around the body, and the decode itself — `Some` carries the
/// message back as a `Value` for comparison.
struct Target {
    name: &'static str,
    payload: fn(&[u8]) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<Value>,
    sample: Value,
}

fn kind_then(kind: u8, body: &[u8]) -> Vec<u8> {
    [&[kind][..], body].concat()
}

fn request(payload: &[u8]) -> Option<Value> {
    match decode_request(payload).ok()? {
        Request::Query(q) => Some(q.to_value()),
        Request::Repl(r) => Some(r.to_value()),
        Request::Admin(op) => Some(op.to_value()),
        Request::Situation(op) => Some(op.to_value()),
        other => panic!("a structured kind decoded to {other:?}"),
    }
}

fn response(payload: &[u8]) -> Option<Value> {
    Some(decode_response(payload).ok()?.to_value())
}

fn chunk_meta_payload(body: &[u8]) -> Vec<u8> {
    let mut payload = vec![0x06];
    put_varint(&mut payload, body.len() as u64);
    payload.extend_from_slice(body);
    payload
}

fn chunk_meta(payload: &[u8]) -> Option<Value> {
    match decode_repl_reply(payload).ok()? {
        ReplReply::Chunk(chunk) => Some(chunk.meta.to_value()),
        ReplReply::Other(other) => panic!("a chunk decoded to {other:?}"),
    }
}

// One test function: tests in a binary run on parallel threads and
// would see each other's allocations.
#[test]
fn a_hostile_frame_costs_at_most_twice_its_length() {
    let targets = [
        Target {
            name: "Query",
            payload: |b| kind_then(0x03, b),
            decode: request,
            sample: HistoryQuery::Whereabouts {
                subject: SubjectId(7),
                at: Time(42),
            }
            .to_value(),
        },
        Target {
            name: "Repl",
            payload: |b| kind_then(0x05, b),
            decode: request,
            sample: ReplRequest::Fetch {
                file: ReplFileId::WalSegment { first_seq: 512 },
                offset: 16,
                len: 4096,
            }
            .to_value(),
        },
        Target {
            name: "Admin",
            payload: |b| kind_then(0x09, b),
            decode: request,
            sample: AdminOp::SetTrust {
                subject: SubjectId(3),
                level: 2,
            }
            .to_value(),
        },
        Target {
            name: "Situation",
            payload: |b| kind_then(0x0A, b),
            decode: request,
            sample: SituationOp::AddConstraint(WorkflowConstraint::OrderedSteps {
                steps: vec![LocationId(1), LocationId(4)],
                window: 30,
            })
            .to_value(),
        },
        Target {
            name: "Response",
            payload: |b| kind_then(0x04, b),
            decode: response,
            sample: Response::Whereabouts {
                location: Some(LocationId(9)),
            }
            .to_value(),
        },
        Target {
            name: "chunk meta",
            payload: chunk_meta_payload,
            decode: chunk_meta,
            sample: ReplChunkMeta {
                file: ReplFileId::Archive { from: 0, to: 100 },
                offset: 0,
                file_len: 1 << 20,
                sealed: true,
                applied: 77,
                policy_epoch: 3,
                retention_watermark: 100,
            }
            .to_value(),
        },
    ];
    let (flat, nested) = (flat(), nested());
    for target in targets {
        let (name, sample) = (target.name, &target.sample);
        // The sample is a fair one: it decodes, and to itself.
        let intact = (target.payload)(&binval::encode(sample));
        assert_eq!((target.decode)(&intact).as_ref(), Some(sample), "{name}");
        let cases: [(&str, Vec<u8>, Option<&Value>); 4] = [
            // As the whole body: refused at the first element.
            ("flat", flat.clone(), None),
            ("nested", nested.clone(), None),
            // As a field to skip: walked to its end and dropped — the
            // message decodes as if it were not there…
            (
                "skipped flat",
                with_unknown_field(sample, &flat),
                Some(sample),
            ),
            // …unless it nests past the depth cap, which refuses the
            // frame (and is what keeps the walk off the stack's end).
            ("skipped nested", with_unknown_field(sample, &nested), None),
        ];
        for (case, body, expected) in cases {
            let payload = (target.payload)(&body);
            let (decoded, peak) = peak_during(|| (target.decode)(&payload));
            assert_eq!(decoded.as_ref(), expected, "{name}, {case}");
            assert!(
                peak <= 2 * payload.len(),
                "{name}, {case}: a {} byte payload held {peak} bytes of heap",
                payload.len()
            );
        }
    }
}
