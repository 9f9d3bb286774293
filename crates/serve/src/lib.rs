//! # ltam-serve — the network serving tier for LTAM enforcement
//!
//! PRs 1–4 made the enforcement engine sharded, durable, and bounded;
//! every client still lived in-process. This crate is the deployment
//! shape the paper (and the ROADMAP's "millions of users") actually
//! implies: many untrusted sensors, turnstiles and admin consoles
//! reaching **one enforcement authority** over a network.
//!
//! * [`wire`] — the binary protocol: length-prefixed, CRC32-framed
//!   request/response messages whose hot path (event batches) reuses
//!   `ltam-store`'s WAL event codec byte for byte. Decoding is total —
//!   torn, truncated or bit-flipped frames produce errors, never
//!   panics, and the CRC makes a corrupted frame unable to pass as a
//!   different valid message.
//! * [`server`] — [`Server`]: a readiness-driven event loop (one poll
//!   thread, no thread per connection) over one
//!   [`DurableEngine`](ltam_store::DurableEngine): writes are submitted
//!   to the store's group-commit thread and acked once their commit
//!   group is synced, read-only queries are answered inline from a
//!   `ReadView` concurrently with ingest, with pipelining, per-connection
//!   backpressure, a connection limit ([`ErrorCode::Busy`] refusals),
//!   idle timeouts, and graceful drain-then-snapshot shutdown.
//! * [`client`] — [`LtamClient`]: a blocking, reconnecting client with
//!   typed helpers for every RPC.
//! * [`replica`] — read replicas: [`bootstrap_follower`] copies the
//!   primary's newest snapshot, archive chain and the WAL behind the
//!   snapshot over the wire, and [`Server::start_follower`] tails the
//!   primary's WAL (resume-from-(segment, offset)), replaying verified
//!   batches through normal ingest and policy ops through the normal
//!   policy path, and serving read-only queries at a monotone
//!   watermark. Writes at a follower are refused with
//!   [`ErrorCode::NotPrimary`]; a follower that can no longer reach its
//!   position in the primary's WAL parks for re-bootstrap rather than
//!   risking divergence.
//!
//! Since PR 9 the wire is **policy-governed**: a `Hello` handshake
//! maps a connection to an LTAM subject via a capability token
//! ([`ltam_core::capability`]), every frame kind is gated against the
//! live token registry (revocation and expiry bite on the very next
//! frame), admin RPCs ([`Request::Admin`]) edit policy durably over
//! the wire, and events from below-trust sensors are quarantined
//! rather than enforced. See `docs/OPERATIONS.md` §10.

#![warn(missing_docs)]

pub mod client;
pub mod replica;
pub mod server;
pub mod wire;

pub use client::{ClientError, IngestReply, IngestSummary, LtamClient};
pub use replica::{bootstrap_follower, bootstrap_follower_as, ReplicaConfig};
pub use server::{Server, ServerConfig};
pub use wire::{
    ErrorCode, FrameError, HistoryQuery, ReplChunk, ReplChunkMeta, ReplManifest, ReplReply,
    ReplRequest, ReplicaState, ReplicaStatus, Request, Response, ServerRole, ServerStatus,
    WireError, DEFAULT_MAX_FRAME_BYTES,
};
