//! The LTAM wire protocol (version 1): length-prefixed, CRC32-framed
//! request/response messages over any byte stream.
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────── frame header (8 bytes) ────────┬──────────────────────────┐
//! │ len u32 LE │ crc32 u32 LE              │ payload (len bytes)      │
//! └────────────┴───────────────────────────┴──────────────────────────┘
//! payload = [ kind u8 ][ body ]
//! ```
//!
//! The framing deliberately mirrors the WAL record format
//! (`ltam-store`'s `wal.rs`): the CRC covers the payload, and the
//! integer encodings are the same LEB128 varints
//! ([`ltam_store::put_varint`]). Bodies come in two shapes, both
//! binary, both shared with the store:
//!
//! * **events** — the hot ingest path ([`Request::Ingest`],
//!   [`Request::Check`]) carries events in the WAL event codec
//!   ([`ltam_store::encode_event`]), so a sensor batch costs the same
//!   bytes on the wire as it does in the log;
//! * **structured** — queries, replication, admin and situation
//!   requests and every response are one [`ltam_store::binval`] value,
//!   the encoding snapshots, policy-op records and the archive's
//!   records block use.
//!
//! ([`Request::Hello`] is the raw token bytes and [`Request::Metrics`]
//! has no body at all.)
//!
//! Decoding is **total**: arbitrary bytes either decode to a message or
//! return a [`WireError`] — never a panic, never an allocation sized by
//! a count the peer merely announced (request bodies are decoded
//! *before* the capability gate) — and a corrupted frame can never
//! decode to a *wrong-but-valid* message, because the CRC is checked
//! before the body is looked at (CRC32 catches every single-bit flip in
//! the payload). The workspace's serve property tests assert all of
//! this the same way the codec's do.

use ltam_core::capability::{AdminOp, AdminOutcome, Scope, TokenId};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{EngineStatus, Event, QuarantinedEvent};
use ltam_engine::movement::Contact;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_situate::{SituationOp, SituationOutcome};
use ltam_store::binval;
use ltam_store::codec::{decode_event, encode_event, get_varint, put_varint, DecodeError};
use ltam_store::crc32;
use ltam_store::replica::{ReplFile, ReplFileId};
use ltam_time::{Interval, Time};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Bytes of the frame header (length + CRC).
pub const FRAME_HEADER_LEN: usize = 8;

/// Default cap on a frame's payload size. A peer announcing a larger
/// frame is protocol-violating (or malicious): the reader refuses
/// before allocating.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Payload kind tags (version 1).
const KIND_INGEST: u8 = 0x01;
const KIND_CHECK: u8 = 0x02;
const KIND_QUERY: u8 = 0x03;
const KIND_RESPONSE: u8 = 0x04;
const KIND_REPL: u8 = 0x05;
const KIND_REPL_CHUNK: u8 = 0x06;
const KIND_METRICS: u8 = 0x07;
const KIND_HELLO: u8 = 0x08;
const KIND_ADMIN: u8 = 0x09;
const KIND_SITUATION: u8 = 0x0A;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame announced a payload larger than the reader's cap.
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
        /// The reader's cap.
        max: u32,
    },
    /// An empty payload (every payload carries at least a kind byte).
    EmptyPayload,
    /// The payload's CRC32 does not match the header's.
    CrcMismatch,
    /// The leading kind byte is not a known payload kind.
    BadKind(u8),
    /// A binary body failed to decode as events.
    Codec(DecodeError),
    /// A binary body decoded cleanly but bytes remained.
    TrailingBytes,
    /// The event count of an ingest body is implausible for the body's
    /// size (refused before allocating).
    BadCount(u64),
    /// A `Check` body must be a `Request` event (a door swipe).
    NotARequest,
    /// A structured body failed to decode as the expected message (or a
    /// `Hello` token was not UTF-8).
    BadBody(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::EmptyPayload => write!(f, "empty frame payload"),
            WireError::CrcMismatch => write!(f, "frame CRC mismatch"),
            WireError::BadKind(k) => write!(f, "unknown payload kind {k:#04x}"),
            WireError::Codec(e) => write!(f, "event codec error: {e}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after the message body"),
            WireError::BadCount(n) => write!(f, "implausible event count {n} for the body size"),
            WireError::NotARequest => write!(f, "Check body must be a Request event"),
            WireError::BadBody(e) => write!(f, "bad message body: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Codec(e)
    }
}

/// What [`read_frame`] can fail with: a transport error (timeout,
/// disconnect, torn read) or a protocol violation by the peer.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes timeouts and EOF).
    Io(io::Error),
    /// The peer sent bytes that are not a valid frame.
    Protocol(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A request from a client to the serving tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Durably ingest a batch of sensor events (the write path; the
    /// server funnels it through `DurableEngine::ingest`, so the whole
    /// batch is WAL-durable before the response — or none of it is).
    Ingest(Vec<Event>),
    /// A single door swipe: the event must be [`Event::Request`]. The
    /// response reports the decision.
    Check(Event),
    /// A read-only historical or status query.
    Query(HistoryQuery),
    /// A replication request from a follower (only a primary answers;
    /// a follower refuses with [`ErrorCode::BadRequest`] so replication
    /// chains never form by accident).
    Repl(ReplRequest),
    /// Scrape the server's metric registry (tag `0x07`, empty body).
    /// Answered with [`Response::Metrics`]: the full Prometheus-style
    /// text exposition, including every `ltam-obs` series the process
    /// has registered.
    Metrics,
    /// The authentication handshake (tag `0x08`): present a capability
    /// token's secret. Answered with [`Response::Welcome`] (mapping the
    /// connection to the token's subject and scopes) or an
    /// [`ErrorCode::Unauthenticated`] refusal. May be re-sent on a live
    /// connection to switch tokens.
    Hello {
        /// The token secret minted by an admin.
        token: String,
    },
    /// A policy/token administration operation (tag `0x09`).
    /// Requires an authenticated connection whose token carries
    /// [`Scope::Admin`] (or the server's root token), regardless of
    /// whether auth is otherwise required. Answered with
    /// [`Response::Admin`].
    Admin(AdminOp),
    /// A situation operation — declare/clear an emergency or lockdown,
    /// edit responders/pins, or install a workflow constraint (tag
    /// `0x0A`). Admin-gated like [`Request::Admin`]; only a
    /// primary accepts it (followers receive the op through the
    /// replicated WAL instead). Answered with [`Response::Situation`].
    Situation(SituationOp),
}

/// What a follower asks its primary for (tag `0x05`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplRequest {
    /// The primary's current shippable-file inventory and positions
    /// (answered with [`Response::ReplManifest`]).
    Manifest,
    /// Up to `len` bytes of `file` starting at `offset` (answered with
    /// a binary [`ReplChunk`] frame, or [`ErrorCode::Gone`] if the file
    /// has been rotated, compacted or pruned away).
    Fetch {
        /// Which store file.
        file: ReplFileId,
        /// Byte offset to read from.
        offset: u64,
        /// Maximum bytes wanted (the primary also caps by its own
        /// frame limit).
        len: u32,
    },
}

/// The primary's replication manifest: every file a follower may fetch
/// plus the durability positions that let it pick a bootstrap plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplManifest {
    /// Events durably applied on the primary (the WAL sequence).
    pub applied: u64,
    /// The primary's current policy epoch (every durable policy edit).
    /// Informational: every edit reaches a follower as a WAL record, so
    /// its own count catches up as it tails.
    pub policy_epoch: u64,
    /// The primary's movement-retention watermark (chronons; 0 = never
    /// pruned).
    pub retention_watermark: u64,
    /// The newest snapshot, if any — the bootstrap anchor.
    pub snapshot: Option<ReplFile>,
    /// The archive chain, in coverage order.
    pub archives: Vec<ReplFile>,
    /// First sequence of every WAL segment, ascending; all but the
    /// last are sealed.
    pub wal_segments: Vec<u64>,
    /// The policy-epoch marker file, if one has been written.
    pub epoch_marker: Option<ReplFile>,
}

/// Metadata riding with every shipped chunk of file bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplChunkMeta {
    /// The file the bytes came from.
    pub file: ReplFileId,
    /// Byte offset of the first shipped byte.
    pub offset: u64,
    /// The file's total length when the chunk was read.
    pub file_len: u64,
    /// For WAL segments: was another, later segment present when this
    /// chunk was read (so this one is sealed and must end on a record
    /// boundary)? Always `true` for immutable files.
    pub sealed: bool,
    /// The primary's applied sequence, read **after** the bytes — so
    /// every record in the chunk is at or before it.
    pub applied: u64,
    /// The primary's policy epoch, read after the bytes (same ordering
    /// guarantee).
    pub policy_epoch: u64,
    /// The primary's retention watermark (chronons).
    pub retention_watermark: u64,
}

/// A shipped chunk: metadata plus the raw file bytes (tag `0x06` — the
/// bytes travel uncopied behind a small length-prefixed header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplChunk {
    /// The chunk's provenance and the primary's positions.
    pub meta: ReplChunkMeta,
    /// The raw file bytes at `[meta.offset, meta.offset + bytes.len())`.
    pub bytes: Vec<u8>,
}

/// What a replication exchange can answer with: a chunk of file bytes
/// or an ordinary response (manifest, error).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplReply {
    /// A shipped chunk of file bytes.
    Chunk(ReplChunk),
    /// An ordinary response (a manifest or a refusal).
    Other(Box<Response>),
}

/// The read-only queries the serving tier answers (tier-aware: they
/// transparently merge the archive when the window reaches below the
/// retention watermark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryQuery {
    /// Where was `subject` at `at`?
    Whereabouts {
        /// The subject to locate.
        subject: SubjectId,
        /// The chronon to locate them at.
        at: Time,
    },
    /// Who was in `location` during `window`?
    PresentDuring {
        /// The location of interest.
        location: LocationId,
        /// The presence window.
        window: Interval,
    },
    /// The paper's SARS query: who overlapped with `subject`?
    Contacts {
        /// The diagnosed subject.
        subject: SubjectId,
        /// The exposure window.
        window: Interval,
    },
    /// Violations detected inside `window`.
    ViolationsIn {
        /// The report window.
        window: Interval,
    },
    /// The quarantine triage query: events held off enforcement because
    /// their sensor's trust level was below the threshold, optionally
    /// filtered by source sensor.
    Quarantine {
        /// Only events from this sensor (`None` = all sources).
        source: Option<SubjectId>,
        /// The report window.
        window: Interval,
    },
    /// Operational counters (see [`ServerStatus`]).
    Status,
    /// The state digest (`ltam_store::digest`) of the policy, each
    /// subject's stays, entry counts, grants, audit records and violations,
    /// and the quarantine ledger, at any shard count. A consistent cut only
    /// with no commit group in flight: compare two nodes at quiescence.
    Digest,
}

/// Machine-readable classes of server-reported errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The server is at its connection limit; retry later.
    Busy,
    /// The request decoded but was semantically invalid.
    BadRequest,
    /// The query needs history that was discarded without archiving
    /// (see `ltam_store::HistoryError::Unarchived`).
    Unarchived,
    /// The server failed internally (I/O on the store, archive rot).
    Internal,
    /// A write was sent to a read-only follower; the message names the
    /// primary to redirect to.
    NotPrimary,
    /// The requested replication file no longer exists (rotated,
    /// compacted or pruned) — the follower must re-plan or
    /// re-bootstrap.
    Gone,
    /// A follower still catching up to its watermark floor refused a
    /// history query rather than serve an answer older than what it
    /// already acknowledged serving.
    Stale,
    /// The connection has not presented a valid token (no handshake,
    /// unknown secret, or the token expired/was revoked) and the server
    /// requires one. Re-handshake with a live token to continue.
    Unauthenticated,
    /// The connection's token is live but does not carry the capability
    /// this frame needs (wrong scope, or a location outside the token's
    /// ingest grant).
    PermissionDenied,
}

/// Which role a server is running in (stamped on status and on every
/// refusal, so clients that fail over between boxes always know *who*
/// refused them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerRole {
    /// The single writer: accepts ingest, serves queries, ships
    /// replication.
    #[default]
    Primary,
    /// A read replica: tails a primary, refuses writes with
    /// [`ErrorCode::NotPrimary`].
    Follower,
}

/// A response from the serving tier (tag `0x04`).
///
/// `Status` is much larger than its siblings; responses are
/// transient (encoded or consumed immediately), so boxing it would
/// buy nothing but indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Outcome of an [`Request::Ingest`] batch.
    Ingested {
        /// Events in the batch.
        processed: usize,
        /// Access requests granted.
        granted: usize,
        /// Access requests denied.
        denied: usize,
        /// Violations the batch raised, in shard-merge order.
        violations: Vec<Violation>,
    },
    /// Outcome of a [`Request::Check`] swipe.
    Access {
        /// Was the request granted?
        granted: bool,
    },
    /// Answer to [`HistoryQuery::Whereabouts`].
    Whereabouts {
        /// The location, if the subject was anywhere known.
        location: Option<LocationId>,
    },
    /// Answer to [`HistoryQuery::PresentDuring`].
    Present {
        /// `(subject, clipped overlap)` rows.
        rows: Vec<(SubjectId, Interval)>,
    },
    /// Answer to [`HistoryQuery::Contacts`].
    Contacts {
        /// The contact rows (trusted history only).
        contacts: Vec<Contact>,
        /// Quarantined events involving the subject inside the window —
        /// kept separate so an answer built on untrusted sensor data is
        /// *flagged*, never silently merged into `contacts`.
        quarantined: Vec<QuarantinedEvent>,
    },
    /// Answer to [`HistoryQuery::ViolationsIn`].
    Violations {
        /// The violations inside the window.
        violations: Vec<Violation>,
    },
    /// Answer to [`HistoryQuery::Quarantine`].
    Quarantine {
        /// The held events, with their source and its trust level.
        events: Vec<QuarantinedEvent>,
    },
    /// Answer to [`Request::Hello`]: the connection is now authenticated.
    Welcome {
        /// The token's id (for audit lines; never the secret).
        token: TokenId,
        /// The LTAM subject the connection now acts as.
        subject: SubjectId,
        /// The scopes the token grants.
        scopes: Vec<Scope>,
    },
    /// Answer to [`Request::Admin`].
    Admin {
        /// What the operation did.
        outcome: AdminOutcome,
    },
    /// Answer to [`Request::Situation`].
    Situation {
        /// What the operation did.
        outcome: SituationOutcome,
    },
    /// Outcome of an ingest batch that was **quarantined**: the events
    /// are durable on the quarantine ledger but were not enforced,
    /// because the sending sensor's trust level is below the threshold.
    Quarantined {
        /// Events held on the ledger.
        held: usize,
    },
    /// Answer to [`HistoryQuery::Status`].
    Status {
        /// The counters.
        status: ServerStatus,
    },
    /// Answer to [`HistoryQuery::Digest`].
    Digest {
        /// The sequence the digest was taken at (`events_ingested`).
        watermark: u64,
        /// The digest.
        digest: u64,
    },
    /// Answer to [`ReplRequest::Manifest`].
    ReplManifest {
        /// The primary's shippable-file inventory.
        manifest: ReplManifest,
    },
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// The Prometheus-style text exposition of every registered
        /// series (see `ltam_obs::encode_text`).
        text: String,
    },
    /// The request could not be served.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Who refused: primary or follower (so a client holding
        /// several addresses knows whether to redirect). `None` on
        /// refusals to **unauthenticated** connections: before a valid
        /// handshake the server discloses nothing about itself, not
        /// even its role (an unauthenticated scanner must not be able
        /// to map which box is the primary).
        role: Option<ServerRole>,
    },
}

/// Operational counters exposed by the `Status` RPC: store-level
/// durability positions, the engine's [`EngineStatus`], and the serving
/// tier's connection/request accounting: counters only, cheap to poll.
/// Whether two nodes hold one state is [`HistoryQuery::Digest`]'s question.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStatus {
    /// Events durably applied (the WAL sequence).
    pub events_ingested: u64,
    /// WAL sequence the newest snapshot covers.
    pub snapshot_seq: u64,
    /// Policy epoch (bumped by every durable policy edit).
    pub policy_epoch: u64,
    /// Is a valid token required on this server's wire?
    pub auth_required: bool,
    /// Events held on the quarantine ledger (from sensors below the
    /// trust threshold).
    pub quarantined_events: usize,
    /// History retention watermark (0 = never pruned).
    pub retention_watermark: u64,
    /// Archive chain coverage end (0 = no archive).
    pub archive_covered_to: u64,
    /// `Some(message)` when the archive chain could not be scanned
    /// (unreadable directory, gappy or corrupt segments). Never fold
    /// this into a healthy-looking `archive_covered_to: 0` — operators
    /// alert on it (`OPERATIONS.md` §8).
    pub archive_error: Option<String>,
    /// Archive segments whose payloads are cached in memory.
    pub archive_segments_loaded: usize,
    /// WAL `fsync`s issued since the store opened. Against
    /// `events_ingested`, this is the group-commit amortization ratio:
    /// far fewer fsyncs than batches means coalescing is working.
    pub wal_fsyncs: u64,
    /// Engine-level counters, per shard and aggregated.
    pub engine: EngineStatus,
    /// Connections currently being served.
    pub connections_active: usize,
    /// Connections accepted since the server started.
    pub connections_total: u64,
    /// Connections refused with `Busy` (over the limit).
    pub refused_busy: u64,
    /// Requests answered since the server started.
    pub requests_served: u64,
    /// Frames or bodies that failed to decode.
    pub protocol_errors: u64,
    /// Per-connection request counts for live connections, as
    /// `(connection id, requests served)` rows.
    pub per_connection: Vec<(u64, u64)>,
    /// Which role this server runs in.
    pub role: ServerRole,
    /// Replication health — `Some` only on a follower.
    pub replica: Option<ReplicaStatus>,
    /// Whole seconds since this server process started serving (the
    /// serving tier's chronon is one second).
    pub uptime_chronons: u64,
    /// The snapshot format version this store writes
    /// (`ltam_store::SNAPSHOT_VERSION`) — operators check it before a
    /// rolling upgrade, since a follower cannot bootstrap from a
    /// snapshot format newer than its own binary understands.
    pub snapshot_format_version: u16,
}

/// A follower's replication position and health (inside
/// [`ServerStatus::replica`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatus {
    /// The primary this follower tails.
    pub primary_addr: String,
    /// The published read watermark: monotone, never below the
    /// watermark floor the follower was (re)started with.
    pub watermark: u64,
    /// Events actually applied to the follower's engine (equals
    /// `watermark` once caught up to the floor).
    pub applied: u64,
    /// The primary's applied sequence as of the last successful poll —
    /// `primary_applied - watermark` is the staleness lag in events.
    pub primary_applied: u64,
    /// The primary's policy epoch as of the last successful poll.
    pub primary_epoch: u64,
    /// Where the replication loop currently stands.
    pub state: ReplicaState,
    /// The most recent replication error, if any (sticky until the
    /// next successful poll).
    pub last_error: Option<String>,
}

/// The replication loop's state machine, as surfaced to operators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaState {
    /// Applying shipped records, still below the primary's position.
    #[default]
    CatchingUp,
    /// At the primary's position; polling for new records.
    Streaming,
    /// Cannot reach the primary; retrying.
    Disconnected,
    /// Parked: tailing cannot continue (epoch swap, compacted-away
    /// segment, or persistent corruption). Only a fresh bootstrap —
    /// with the current watermark as the floor — resumes reads.
    NeedsBootstrap,
}

// --- framing ---------------------------------------------------------------

/// Write one frame: header (payload length + CRC32 of the payload),
/// then the payload, as a single `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Read one frame's payload, verifying length cap and CRC. A short
/// read surfaces as [`FrameError::Io`]; an oversized announcement,
/// empty payload, or CRC mismatch as [`FrameError::Protocol`].
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    read_frame_after_header(r, header, max_bytes)
}

/// Finish reading a frame whose 8-byte header was already consumed
/// (the server reads the first byte separately to distinguish idle
/// timeouts from mid-frame stalls).
pub fn read_frame_after_header(
    r: &mut impl Read,
    header: [u8; FRAME_HEADER_LEN],
    max_bytes: u32,
) -> Result<Vec<u8>, FrameError> {
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > max_bytes {
        return Err(FrameError::Protocol(WireError::FrameTooLarge {
            len,
            max: max_bytes,
        }));
    }
    if len == 0 {
        return Err(FrameError::Protocol(WireError::EmptyPayload));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(FrameError::Protocol(WireError::CrcMismatch));
    }
    Ok(payload)
}

/// Incremental frame reassembly for a nonblocking byte stream.
///
/// The readiness-driven server cannot use [`read_frame`] (which blocks
/// until a whole frame arrives): a `read()` on a nonblocking socket
/// returns whatever bytes the kernel has — possibly half a header, or
/// three frames and a quarter. Feed every chunk to [`push`], then
/// drain complete frames with [`next_frame`]. Byte boundaries are
/// immaterial: any split of the same stream yields the same frames
/// (the serve property tests pin this).
///
/// A protocol error (oversized announcement, empty payload, CRC
/// mismatch) poisons the stream — framing is byte-positional, so there
/// is no way to resynchronize. Callers should answer the error and
/// close, exactly like the blocking reader's contract.
///
/// [`push`]: FrameAssembler::push
/// [`next_frame`]: FrameAssembler::next_frame
#[derive(Debug)]
pub struct FrameAssembler {
    max_bytes: u32,
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily, so draining many
    /// small frames from one chunk does not memmove per frame).
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler refusing payloads over `max_bytes`.
    pub fn new(max_bytes: u32) -> FrameAssembler {
        FrameAssembler {
            max_bytes,
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Append bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame (a partial frame
    /// in flight).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Is a frame currently arriving? (Some bytes buffered, but not a
    /// whole frame.) Distinguishes an *idle* peer from one *stalled
    /// mid-frame* — the server cuts the latter off much sooner.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Extract the next complete frame's payload, `Ok(None)` if more
    /// bytes are needed, or the protocol error that poisons the stream.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes"));
        if len > self.max_bytes {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_bytes,
            });
        }
        if len == 0 {
            return Err(WireError::EmptyPayload);
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER_LEN..total].to_vec();
        if crc32(&payload) != crc {
            return Err(WireError::CrcMismatch);
        }
        self.start += total;
        // Compact once the dead prefix dominates, so the buffer does
        // not grow without bound on a long-lived chatty connection.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

// --- structured bodies -----------------------------------------------------

/// Append a structured message: its kind byte, then `value` as one
/// [`binval`] value.
fn body<T: Serialize>(kind: u8, value: &T, out: &mut Vec<u8>) {
    out.push(kind);
    binval::encode_into(value, out);
}

/// Decode a structured body (everything after the kind byte) as
/// exactly one [`binval`] value of type `T`.
fn parse<T: Deserialize>(body: &[u8]) -> Result<T, WireError> {
    binval::decode(body).map_err(|e| WireError::BadBody(e.0))
}

// --- request encoding ------------------------------------------------------

/// Encode a request payload (frame it with [`write_frame`]).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match request {
        Request::Ingest(events) => {
            out.push(KIND_INGEST);
            put_varint(&mut out, events.len() as u64);
            for e in events {
                encode_event(e, &mut out);
            }
        }
        Request::Check(event) => {
            out.push(KIND_CHECK);
            encode_event(event, &mut out);
        }
        Request::Query(query) => body(KIND_QUERY, query, &mut out),
        Request::Repl(repl) => body(KIND_REPL, repl, &mut out),
        Request::Metrics => out.push(KIND_METRICS),
        Request::Hello { token } => {
            out.push(KIND_HELLO);
            out.extend_from_slice(token.as_bytes());
        }
        Request::Admin(op) => body(KIND_ADMIN, op, &mut out),
        Request::Situation(op) => body(KIND_SITUATION, op, &mut out),
    }
    out
}

/// Decode a request payload. Total: arbitrary bytes yield a request or
/// a [`WireError`], never a panic.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (&kind, body) = payload.split_first().ok_or(WireError::EmptyPayload)?;
    match kind {
        KIND_INGEST => {
            let mut at = 0usize;
            let count = get_varint(body, &mut at)?;
            // The smallest event (a Tick) is 2 bytes: any larger count
            // lies about the body and must not drive an allocation.
            if count > ((body.len() - at) / 2 + 1) as u64 {
                return Err(WireError::BadCount(count));
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (event, used) = decode_event(&body[at..])?;
                at += used;
                events.push(event);
            }
            if at != body.len() {
                return Err(WireError::TrailingBytes);
            }
            Ok(Request::Ingest(events))
        }
        KIND_CHECK => {
            let (event, used) = decode_event(body)?;
            if used != body.len() {
                return Err(WireError::TrailingBytes);
            }
            if !matches!(event, Event::Request { .. }) {
                return Err(WireError::NotARequest);
            }
            Ok(Request::Check(event))
        }
        KIND_QUERY => parse(body).map(Request::Query),
        KIND_REPL => parse(body).map(Request::Repl),
        KIND_METRICS => {
            if !body.is_empty() {
                return Err(WireError::TrailingBytes);
            }
            Ok(Request::Metrics)
        }
        KIND_HELLO => {
            let token = std::str::from_utf8(body)
                .map_err(|e| WireError::BadBody(e.to_string()))?
                .to_string();
            Ok(Request::Hello { token })
        }
        KIND_ADMIN => parse(body).map(Request::Admin),
        KIND_SITUATION => parse(body).map(Request::Situation),
        other => Err(WireError::BadKind(other)),
    }
}

// --- response encoding -----------------------------------------------------

/// Encode a response payload (frame it with [`write_frame`]).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    body(KIND_RESPONSE, response, &mut out);
    out
}

/// Decode a response payload. Total, like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let (&kind, body) = payload.split_first().ok_or(WireError::EmptyPayload)?;
    if kind != KIND_RESPONSE {
        return Err(WireError::BadKind(kind));
    }
    parse(body)
}

// --- replication chunk encoding --------------------------------------------

/// Encode a shipped chunk: `[kind 0x06][varint meta_len][meta]
/// [raw file bytes]` — the one reply that is not a [`Response`], so
/// megabytes of WAL travel as they lie on disk instead of as a
/// structured array of bytes.
pub fn encode_repl_chunk(chunk: &ReplChunk) -> Vec<u8> {
    let meta = binval::encode(&chunk.meta);
    let mut out = Vec::with_capacity(1 + 10 + meta.len() + chunk.bytes.len());
    out.push(KIND_REPL_CHUNK);
    put_varint(&mut out, meta.len() as u64);
    out.extend_from_slice(&meta);
    out.extend_from_slice(&chunk.bytes);
    out
}

/// Decode the reply to a replication request: a chunk (tag `0x06`) or
/// an ordinary response (tag `0x04` — a manifest or a refusal). Total,
/// like every decoder here.
pub fn decode_repl_reply(payload: &[u8]) -> Result<ReplReply, WireError> {
    let (&kind, body) = payload.split_first().ok_or(WireError::EmptyPayload)?;
    match kind {
        KIND_REPL_CHUNK => {
            let mut at = 0usize;
            let meta_len = get_varint(body, &mut at)?;
            let end = (meta_len as usize)
                .checked_add(at)
                .filter(|&e| e <= body.len());
            let Some(end) = end else {
                return Err(WireError::BadBody(format!(
                    "chunk meta length {meta_len} exceeds the body"
                )));
            };
            Ok(ReplReply::Chunk(ReplChunk {
                meta: parse(&body[at..end])?,
                bytes: body[end..].to_vec(),
            }))
        }
        KIND_RESPONSE => decode_response(payload).map(|r| ReplReply::Other(Box::new(r))),
        other => Err(WireError::BadKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ingest(vec![]),
            Request::Ingest(vec![
                Event::Request {
                    time: Time(10),
                    subject: SubjectId(1),
                    location: LocationId(2),
                },
                Event::Tick { now: Time(99) },
            ]),
            Request::Check(Event::Request {
                time: Time(5),
                subject: SubjectId(0),
                location: LocationId(3),
            }),
            Request::Query(HistoryQuery::Whereabouts {
                subject: SubjectId(7),
                at: Time(42),
            }),
            Request::Query(HistoryQuery::Contacts {
                subject: SubjectId(7),
                window: Interval::lit(0, 100),
            }),
            Request::Query(HistoryQuery::Status),
            Request::Repl(ReplRequest::Manifest),
            Request::Repl(ReplRequest::Fetch {
                file: ReplFileId::WalSegment { first_seq: 512 },
                offset: 16,
                len: 4096,
            }),
            Request::Metrics,
            Request::Hello {
                token: "tok-1-deadbeef".into(),
            },
            Request::Admin(AdminOp::RevokeToken { id: TokenId(7) }),
            Request::Admin(AdminOp::SetTrust {
                subject: SubjectId(3),
                level: 2,
            }),
            Request::Situation(SituationOp::Declare(ltam_situate::SituationMode::Lockdown)),
            Request::Situation(SituationOp::AddConstraint(
                ltam_situate::WorkflowConstraint::OrderedSteps {
                    steps: vec![LocationId(1), LocationId(4)],
                    window: 30,
                },
            )),
        ]
    }

    #[test]
    fn requests_round_trip_through_a_framed_stream() {
        let mut stream = Vec::new();
        for r in sample_requests() {
            write_frame(&mut stream, &encode_request(&r)).unwrap();
        }
        let mut cursor = Cursor::new(stream);
        for expected in sample_requests() {
            let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(decode_request(&payload).unwrap(), expected);
        }
    }

    #[test]
    fn responses_round_trip() {
        let samples = vec![
            Response::Ingested {
                processed: 3,
                granted: 1,
                denied: 1,
                violations: vec![Violation::UnauthorizedEntry {
                    time: Time(9),
                    subject: SubjectId(4),
                    location: LocationId(1),
                }],
            },
            Response::Access { granted: true },
            Response::Whereabouts { location: None },
            Response::Metrics {
                text: "# TYPE store_wal_fsyncs_total counter\nstore_wal_fsyncs_total 7\n".into(),
            },
            Response::Present {
                rows: vec![(SubjectId(1), Interval::lit(3, 9))],
            },
            Response::Error {
                code: ErrorCode::Busy,
                message: "at the connection limit".into(),
                role: Some(ServerRole::Primary),
            },
            Response::Error {
                code: ErrorCode::NotPrimary,
                message: "read-only follower; writes go to 127.0.0.1:7000".into(),
                role: Some(ServerRole::Follower),
            },
            Response::Error {
                code: ErrorCode::Unauthenticated,
                message: "handshake required".into(),
                role: None,
            },
            Response::Welcome {
                token: TokenId(3),
                subject: SubjectId(8),
                scopes: vec![Scope::Query, Scope::Ingest { locations: None }],
            },
            Response::Quarantined { held: 4 },
            Response::ReplManifest {
                manifest: ReplManifest {
                    applied: 100,
                    policy_epoch: 2,
                    retention_watermark: 50,
                    snapshot: Some(ReplFile {
                        file: ReplFileId::Snapshot { seq: 90, epoch: 2 },
                        len: 4096,
                    }),
                    archives: vec![ReplFile {
                        file: ReplFileId::Archive { from: 0, to: 40 },
                        len: 512,
                    }],
                    wal_segments: vec![0, 90],
                    epoch_marker: Some(ReplFile {
                        file: ReplFileId::EpochMarker,
                        len: 20,
                    }),
                },
            },
        ];
        for r in &samples {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &encode_response(r)).unwrap();
            let payload = read_frame(&mut Cursor::new(bytes), DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(&decode_response(&payload).unwrap(), r);
        }
    }

    #[test]
    fn oversized_and_empty_frames_are_protocol_errors() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &[0u8; 64]).unwrap();
        let err = read_frame(&mut Cursor::new(bytes), 16).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Protocol(WireError::FrameTooLarge { len: 64, max: 16 })
        ));
        let mut empty = Vec::new();
        write_frame(&mut empty, &[]).unwrap();
        let err = read_frame(&mut Cursor::new(empty), 16).unwrap_err();
        assert!(matches!(err, FrameError::Protocol(WireError::EmptyPayload)));
    }

    #[test]
    fn a_flipped_payload_bit_is_caught_by_the_crc() {
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &encode_request(&Request::Query(HistoryQuery::Status)),
        )
        .unwrap();
        for bit in 0..8 {
            let mut copy = bytes.clone();
            let last = copy.len() - 1;
            copy[last] ^= 1 << bit;
            let err = read_frame(&mut Cursor::new(copy), DEFAULT_MAX_FRAME_BYTES).unwrap_err();
            assert!(matches!(err, FrameError::Protocol(WireError::CrcMismatch)));
        }
    }

    #[test]
    fn implausible_ingest_counts_do_not_allocate() {
        // A body claiming u64::MAX events with no event bytes.
        let mut payload = vec![KIND_INGEST];
        put_varint(&mut payload, u64::MAX);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadCount(_))
        ));
    }

    #[test]
    fn implausible_body_counts_are_refused_by_every_structured_kind() {
        // The binval twin of the test above: an array announcing more
        // elements than the body has bytes never sizes an allocation
        // (`ltam-store`'s `binval_prealloc` test measures the allocator;
        // this pins that every pre-gate kind routes through that one
        // decoder and surfaces its refusal as `BadBody`).
        for kind in [KIND_QUERY, KIND_REPL, KIND_ADMIN, KIND_SITUATION] {
            let mut payload = vec![kind, 0x07];
            put_varint(&mut payload, u64::MAX >> 1);
            assert!(
                matches!(decode_request(&payload), Err(WireError::BadBody(_))),
                "kind {kind:#04x}"
            );
        }
        let mut payload = vec![KIND_RESPONSE, 0x08];
        put_varint(&mut payload, u64::MAX >> 1);
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::BadBody(_))
        ));
    }

    #[test]
    fn a_hello_token_must_be_utf8() {
        assert!(matches!(
            decode_request(&[KIND_HELLO, 0xC3, 0x28]),
            Err(WireError::BadBody(_))
        ));
    }

    #[test]
    fn assembler_yields_frames_regardless_of_chunking() {
        let mut stream = Vec::new();
        for r in sample_requests() {
            write_frame(&mut stream, &encode_request(&r)).unwrap();
        }
        // Worst-case chunking: one byte at a time.
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
        let mut decoded = Vec::new();
        for &b in &stream {
            asm.push(&[b]);
            while let Some(payload) = asm.next_frame().unwrap() {
                decoded.push(decode_request(&payload).unwrap());
            }
        }
        assert_eq!(decoded, sample_requests());
        assert!(!asm.mid_frame(), "stream fully consumed");
        // And the whole stream in one push.
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
        asm.push(&stream);
        let mut decoded = Vec::new();
        while let Some(payload) = asm.next_frame().unwrap() {
            decoded.push(decode_request(&payload).unwrap());
        }
        assert_eq!(decoded, sample_requests());
    }

    #[test]
    fn assembler_surfaces_protocol_errors_without_panicking() {
        let mut asm = FrameAssembler::new(64);
        asm.push(&u32::MAX.to_le_bytes());
        asm.push(&0u32.to_le_bytes());
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
        let mut asm = FrameAssembler::new(64);
        let mut frame = Vec::new();
        write_frame(&mut frame, &[1, 2, 3]).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        asm.push(&frame);
        assert!(matches!(asm.next_frame(), Err(WireError::CrcMismatch)));
    }

    #[test]
    fn repl_chunks_round_trip_with_raw_bytes_intact() {
        let chunk = ReplChunk {
            meta: ReplChunkMeta {
                file: ReplFileId::WalSegment { first_seq: 7 },
                offset: 16,
                file_len: 160,
                sealed: false,
                applied: 42,
                policy_epoch: 1,
                retention_watermark: 9,
            },
            bytes: (0u8..=255).collect(),
        };
        let payload = encode_repl_chunk(&chunk);
        match decode_repl_reply(&payload).unwrap() {
            ReplReply::Chunk(got) => assert_eq!(got, chunk),
            other => panic!("expected a chunk, got {other:?}"),
        }
        // An error response decodes through the same entry point.
        let err = Response::Error {
            code: ErrorCode::Gone,
            message: "segment compacted".into(),
            role: Some(ServerRole::Primary),
        };
        match decode_repl_reply(&encode_response(&err)).unwrap() {
            ReplReply::Other(got) => assert_eq!(*got, err),
            other => panic!("expected a response, got {other:?}"),
        }
    }

    #[test]
    fn truncated_repl_chunk_meta_is_a_decode_error_not_a_panic() {
        let chunk = ReplChunk {
            meta: ReplChunkMeta {
                file: ReplFileId::EpochMarker,
                offset: 0,
                file_len: 20,
                sealed: true,
                applied: 1,
                policy_epoch: 0,
                retention_watermark: 0,
            },
            bytes: vec![1, 2, 3],
        };
        let payload = encode_repl_chunk(&chunk);
        for cut in 1..payload.len().min(24) {
            let _ = decode_repl_reply(&payload[..cut]); // must not panic
        }
        // A meta length pointing past the body is refused.
        let mut bogus = vec![KIND_REPL_CHUNK];
        put_varint(&mut bogus, u64::MAX);
        assert!(matches!(
            decode_repl_reply(&bogus),
            Err(WireError::BadBody(_)) | Err(WireError::Codec(_))
        ));
    }

    #[test]
    fn metrics_request_refuses_a_body() {
        // A metrics request is its kind byte alone; any trailing bytes
        // are a protocol violation, not silently ignored.
        assert_eq!(decode_request(&[KIND_METRICS]), Ok(Request::Metrics));
        assert_eq!(
            decode_request(&[KIND_METRICS, 0x00]),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn check_rejects_non_request_events() {
        let mut payload = vec![KIND_CHECK];
        encode_event(
            &Event::Enter {
                time: Time(1),
                subject: SubjectId(1),
                location: LocationId(1),
            },
            &mut payload,
        );
        assert_eq!(decode_request(&payload), Err(WireError::NotARequest));
    }
}
