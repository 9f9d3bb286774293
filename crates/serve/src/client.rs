//! [`LtamClient`] — a blocking, reconnecting client for the LTAM wire
//! protocol.
//!
//! One request is in flight at a time (closed loop). After a transport
//! error the connection is dropped and the **next** call transparently
//! reconnects; the failed call itself is *not* retried, because the
//! server may or may not have applied it — an ingest resent blindly
//! could double-apply. Callers that need exactly-once must make their
//! retries idempotent (or compare end state, as the load generator
//! does).

use crate::wire::{
    self, ErrorCode, FrameError, HistoryQuery, ReplChunk, ReplManifest, ReplReply, ReplRequest,
    Request, Response, ServerRole, ServerStatus, WireError,
};
use ltam_core::capability::{AdminOp, AdminOutcome, Scope, TokenId};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, QuarantinedEvent};
use ltam_engine::movement::Contact;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_situate::{SituationOp, SituationOutcome};
use ltam_store::replica::ReplFileId;
use ltam_time::{Interval, Time};
use std::fmt;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, send, or receive). The client
    /// reconnects on the next call.
    Io(io::Error),
    /// The server's bytes were not a valid response frame.
    Wire(WireError),
    /// The server answered with an error response.
    Server {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Which role refused — primary or follower. Before this field,
        /// a `Busy` refusal followed by the reconnect erased *who* said
        /// no, which a client failing over between a primary and its
        /// replicas cannot afford: `Busy` from a follower means "try
        /// another replica", `NotPrimary` means "writes go to the
        /// primary named in the message". `None` when the server
        /// redacted it: an auth-required server reveals its role only
        /// to authenticated connections.
        role: Option<ServerRole>,
    },
    /// The server answered with a response of the wrong shape for the
    /// request (a server bug; surfaced, never silently coerced).
    UnexpectedResponse(Box<Response>),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Wire(e) => write!(f, "protocol: {e}"),
            ClientError::Server {
                code,
                message,
                role,
            } => match role {
                Some(role) => write!(f, "{role:?} server ({code:?}): {message}"),
                None => write!(f, "server ({code:?}): {message}"),
            },
            ClientError::UnexpectedResponse(r) => write!(f, "unexpected response shape: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Protocol(e) => ClientError::Wire(e),
        }
    }
}

/// Summary of one served ingest batch (the fields of
/// [`Response::Ingested`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestSummary {
    /// Events in the batch.
    pub processed: usize,
    /// Access requests granted.
    pub granted: usize,
    /// Access requests denied.
    pub denied: usize,
    /// Violations the batch raised.
    pub violations: Vec<Violation>,
}

/// How the server disposed of an ingest batch (see
/// [`LtamClient::ingest_flagged`]).
#[derive(Debug, Clone, PartialEq)]
pub enum IngestReply {
    /// The batch entered trusted history through enforcement.
    Ingested(IngestSummary),
    /// The batch came from a below-trust source and was durably held
    /// on the quarantine ledger instead.
    Quarantined {
        /// Events held.
        held: usize,
    },
}

/// A blocking LTAM protocol client. See the [module docs](self) for
/// the reconnect contract.
#[derive(Debug)]
pub struct LtamClient {
    addr: String,
    stream: Option<TcpStream>,
    read_timeout: Option<Duration>,
    max_frame_bytes: u32,
    /// The capability-token secret presented in a `Hello` on every
    /// (re)connect, once [`LtamClient::hello`] or
    /// [`LtamClient::set_token`] has been called. Re-authentication is
    /// transparent: a reconnect after a transport error replays the
    /// handshake before the next request frame.
    token: Option<String>,
}

impl LtamClient {
    /// Connect to `addr` (e.g. `"127.0.0.1:4774"`) eagerly.
    pub fn connect(addr: &str) -> io::Result<LtamClient> {
        let mut client = LtamClient {
            addr: addr.to_string(),
            stream: None,
            read_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            token: None,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Override how long a call waits for the server's response frame
    /// (`None` blocks forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
        if let Some(stream) = &self.stream {
            let _ = stream.set_read_timeout(self.read_timeout);
        }
    }

    /// True while a TCP connection is established.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Set (or clear) the token presented on every (re)connect without
    /// performing a handshake now. The next connection establishment
    /// sends the `Hello`; an already-live connection is left as is —
    /// call [`LtamClient::hello`] to re-authenticate in place.
    pub fn set_token(&mut self, token: Option<String>) {
        self.token = token;
    }

    fn ensure_connected(&mut self) -> io::Result<&mut TcpStream> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(self.read_timeout)?;
                stream
            }
        };
        Ok(self.stream.insert(stream))
    }

    /// Connect if needed, replaying the `Hello` handshake on a fresh
    /// connection when a token is configured.
    fn ensure_ready(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        self.ensure_connected()?;
        if let Some(token) = self.token.clone() {
            if let Err(e) = self.hello(&token) {
                // An unusable identity poisons the connection: drop it
                // so the caller's retry re-handshakes (possibly after
                // the operator re-minted the secret).
                self.stream = None;
                return Err(e);
            }
        }
        Ok(())
    }

    /// The one round trip every call makes: connect if needed (replaying
    /// the `Hello` when `handshake`), send `requests` in one `write_all`,
    /// then read one response per request through `decode`, stopping at
    /// the first error. A transport or framing error — or a `Busy`
    /// refusal, after which the server closes the connection — drops
    /// the stream so the next call reconnects; whether any other error
    /// does is the caller's rule.
    fn exchange<T>(
        &mut self,
        requests: &[Request],
        handshake: bool,
        mut decode: impl FnMut(&[u8]) -> Result<T, ClientError>,
    ) -> Result<Vec<T>, ClientError> {
        let max_frame_bytes = self.max_frame_bytes;
        let result = (|| {
            if handshake {
                self.ensure_ready()?;
            }
            let stream = self.ensure_connected()?;
            let mut frames = Vec::new();
            for request in requests {
                wire::write_frame(&mut frames, &wire::encode_request(request))?;
            }
            stream.write_all(&frames)?;
            requests
                .iter()
                .map(|_| decode(&wire::read_frame(stream, max_frame_bytes)?))
                .collect()
        })();
        if let Err(
            ClientError::Io(_)
            | ClientError::Wire(_)
            | ClientError::Server {
                code: ErrorCode::Busy,
                ..
            },
        ) = result
        {
            self.stream = None;
        }
        result
    }

    /// [`LtamClient::exchange`] of one request.
    fn round_trip<T>(
        &mut self,
        request: &Request,
        handshake: bool,
        decode: impl FnMut(&[u8]) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut answers = self.exchange(std::slice::from_ref(request), handshake, decode)?;
        // `exchange` reads one response per request or errs.
        answers
            .pop()
            .ok_or_else(|| ClientError::Io(io::ErrorKind::UnexpectedEof.into()))
    }

    /// Authenticate this connection (and every future reconnect) with
    /// `token`'s secret. Returns the identity the server welcomed: the
    /// token id, the LTAM subject it authenticates as, and its scopes.
    /// A refusal keeps the connection and its current identity.
    pub fn hello(&mut self, token: &str) -> Result<(TokenId, SubjectId, Vec<Scope>), ClientError> {
        self.token = Some(token.to_string());
        let hello = Request::Hello {
            token: token.to_string(),
        };
        self.round_trip(&hello, false, |payload| {
            match wire::decode_response(payload).map_err(ClientError::Wire)? {
                Response::Welcome {
                    token,
                    subject,
                    scopes,
                } => Ok((token, subject, scopes)),
                other => Err(refusal(other)),
            }
        })
    }

    /// Send one request and block for its response. On a transport or
    /// framing error the connection is dropped (the next call
    /// reconnects) and the error is returned.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.round_trip(request, true, |payload| {
            match wire::decode_response(payload).map_err(ClientError::Wire)? {
                error @ Response::Error { .. } => Err(refusal(error)),
                other => Ok(other),
            }
        })
    }

    // --- typed helpers -----------------------------------------------------

    /// Durably ingest a batch of events.
    pub fn ingest(&mut self, events: &[Event]) -> Result<IngestSummary, ClientError> {
        match self.call(&Request::Ingest(events.to_vec()))? {
            Response::Ingested {
                processed,
                granted,
                denied,
                violations,
            } => Ok(IngestSummary {
                processed,
                granted,
                denied,
                violations,
            }),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Durably ingest several batches **pipelined**: every `Ingest`
    /// frame is sent back-to-back before any response is read, then
    /// the responses are collected in order. With a server that
    /// group-commits, N pipelined batches typically share one `fsync`
    /// instead of paying N — this is the client half of closing the
    /// wire gap.
    ///
    /// The reconnect contract is the same **at-least-once** shape as
    /// [`LtamClient::ingest`], with a wider window: on any error, an
    /// unknown *prefix* of the batches may already be durable (the
    /// server applies them in send order and never skips one in the
    /// middle), the connection is dropped, and nothing is retried
    /// here. Callers that resend after an error must tolerate a
    /// replayed prefix — idempotent events, or end-state comparison as
    /// the load generator does.
    pub fn ingest_pipelined(
        &mut self,
        batches: &[&[Event]],
    ) -> Result<Vec<IngestSummary>, ClientError> {
        let requests: Vec<Request> = batches
            .iter()
            .map(|batch| Request::Ingest(batch.to_vec()))
            .collect();
        let result = self.exchange(&requests, true, |payload| {
            match wire::decode_response(payload).map_err(ClientError::Wire)? {
                Response::Ingested {
                    processed,
                    granted,
                    denied,
                    violations,
                } => Ok(IngestSummary {
                    processed,
                    granted,
                    denied,
                    violations,
                }),
                other => Err(refusal(other)),
            }
        });
        if result.is_err() {
            // Responses may still be in flight for frames we sent:
            // the stream is desynchronized either way. Reconnect lazily.
            self.stream = None;
        }
        result
    }

    /// One door swipe: was access granted?
    pub fn check_access(
        &mut self,
        time: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<bool, ClientError> {
        let event = Event::Request {
            time,
            subject,
            location,
        };
        match self.call(&Request::Check(event))? {
            Response::Access { granted } => Ok(granted),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Where was `subject` at `at`?
    pub fn whereabouts(
        &mut self,
        subject: SubjectId,
        at: Time,
    ) -> Result<Option<LocationId>, ClientError> {
        match self.call(&Request::Query(HistoryQuery::Whereabouts { subject, at }))? {
            Response::Whereabouts { location } => Ok(location),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Who was in `location` during `window`?
    pub fn present_during(
        &mut self,
        location: LocationId,
        window: Interval,
    ) -> Result<Vec<(SubjectId, Interval)>, ClientError> {
        match self.call(&Request::Query(HistoryQuery::PresentDuring {
            location,
            window,
        }))? {
            Response::Present { rows } => Ok(rows),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Contact tracing for `subject` over `window`.
    pub fn contacts(
        &mut self,
        subject: SubjectId,
        window: Interval,
    ) -> Result<Vec<Contact>, ClientError> {
        match self.call(&Request::Query(HistoryQuery::Contacts { subject, window }))? {
            Response::Contacts { contacts, .. } => Ok(contacts),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Contact tracing for `subject` over `window`, with the quarantine
    /// flag: any below-trust sensor claims involving the subject in the
    /// window ride along, so an analyst sees what trusted history
    /// *excludes* as well as what it holds.
    pub fn contacts_flagged(
        &mut self,
        subject: SubjectId,
        window: Interval,
    ) -> Result<(Vec<Contact>, Vec<QuarantinedEvent>), ClientError> {
        match self.call(&Request::Query(HistoryQuery::Contacts { subject, window }))? {
            Response::Contacts {
                contacts,
                quarantined,
            } => Ok((contacts, quarantined)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The quarantine ledger: events held from below-trust sensors,
    /// optionally filtered to one `source`, intersecting `window`.
    pub fn quarantined(
        &mut self,
        source: Option<SubjectId>,
        window: Interval,
    ) -> Result<Vec<QuarantinedEvent>, ClientError> {
        match self.call(&Request::Query(HistoryQuery::Quarantine { source, window }))? {
            Response::Quarantine { events } => Ok(events),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Send one admin RPC (token mint/revoke, trust edits,
    /// authorization grants…). The connection must be authenticated
    /// with an admin-scoped token (or the server's root token); only a
    /// primary accepts it — followers pick the op up from the
    /// replicated WAL.
    pub fn admin(&mut self, op: AdminOp) -> Result<AdminOutcome, ClientError> {
        match self.call(&Request::Admin(op))? {
            Response::Admin { outcome } => Ok(outcome),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Send one situation RPC (declare/clear an emergency or lockdown,
    /// register responders, pin authorizations, edit workflow
    /// constraints). Admin-gated like [`LtamClient::admin`]; only a
    /// primary accepts it — followers pick the op up from the
    /// replicated WAL.
    pub fn situation(&mut self, op: SituationOp) -> Result<SituationOutcome, ClientError> {
        match self.call(&Request::Situation(op))? {
            Response::Situation { outcome } => Ok(outcome),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Like [`LtamClient::ingest`], but surfacing trust routing: a
    /// below-trust sensor's batch is durably quarantined rather than
    /// ingested, and this returns [`IngestReply::Quarantined`] instead
    /// of treating the response as unexpected.
    pub fn ingest_flagged(&mut self, events: &[Event]) -> Result<IngestReply, ClientError> {
        match self.call(&Request::Ingest(events.to_vec()))? {
            Response::Ingested {
                processed,
                granted,
                denied,
                violations,
            } => Ok(IngestReply::Ingested(IngestSummary {
                processed,
                granted,
                denied,
                violations,
            })),
            Response::Quarantined { held } => Ok(IngestReply::Quarantined { held }),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Violations detected inside `window`.
    pub fn violations_in(&mut self, window: Interval) -> Result<Vec<Violation>, ClientError> {
        match self.call(&Request::Query(HistoryQuery::ViolationsIn { window }))? {
            Response::Violations { violations } => Ok(violations),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The server's operational counters.
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        match self.call(&Request::Query(HistoryQuery::Status))? {
            Response::Status { status } => Ok(status),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// The server's `(watermark, digest)` ([`HistoryQuery::Digest`]): two
    /// nodes agree when the pairs are equal. Ask once neither is ingesting.
    pub fn digest(&mut self) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::Query(HistoryQuery::Digest))? {
            Response::Digest { watermark, digest } => Ok((watermark, digest)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Scrape the server's metric registry: the Prometheus-style text
    /// exposition of every series the process has registered (parse it
    /// with `ltam_obs::parse_text`, or check it with
    /// `ltam_obs::validate`).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    // --- watermark awareness ------------------------------------------------

    /// The server's read watermark: the WAL sequence its answers cover.
    /// On a primary that is simply everything ingested; on a follower
    /// it is the *published* replication watermark (monotone across
    /// reconnects and re-bootstraps), which may trail the primary by
    /// the staleness lag.
    pub fn watermark(&mut self) -> Result<u64, ClientError> {
        let status = self.status()?;
        Ok(match status.replica {
            Some(replica) => replica.watermark,
            None => status.events_ingested,
        })
    }

    /// Poll [`LtamClient::watermark`] until it reaches `min` or
    /// `timeout` elapses — the read-your-writes primitive: a client
    /// that wrote through the primary at sequence `s` waits for a
    /// follower's watermark to reach `s` before trusting its answers.
    pub fn wait_for_watermark(&mut self, min: u64, timeout: Duration) -> Result<u64, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let seen = self.watermark()?;
            if seen >= min {
                return Ok(seen);
            }
            if std::time::Instant::now() >= deadline {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("watermark stalled at {seen}, wanted {min}"),
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // --- replication --------------------------------------------------------

    /// The primary's replication manifest (inventory + positions).
    pub fn repl_manifest(&mut self) -> Result<ReplManifest, ClientError> {
        match self.call(&Request::Repl(ReplRequest::Manifest))? {
            Response::ReplManifest { manifest } => Ok(manifest),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Fetch up to `len` bytes of a shippable store file at `offset`.
    /// A vanished file surfaces as [`ErrorCode::Gone`].
    pub fn repl_fetch(
        &mut self,
        file: ReplFileId,
        offset: u64,
        len: u32,
    ) -> Result<ReplChunk, ClientError> {
        let request = Request::Repl(ReplRequest::Fetch { file, offset, len });
        self.round_trip(&request, true, |payload| {
            match wire::decode_repl_reply(payload).map_err(ClientError::Wire)? {
                ReplReply::Chunk(chunk) => Ok(chunk),
                ReplReply::Other(other) => Err(refusal(*other)),
            }
        })
    }
}

/// The one mapping of an answer a call cannot use: a server's `Error`
/// frame becomes [`ClientError::Server`], any other shape
/// [`ClientError::UnexpectedResponse`].
fn refusal(response: Response) -> ClientError {
    match response {
        Response::Error {
            code,
            message,
            role,
        } => ClientError::Server {
            code,
            message,
            role,
        },
        other => ClientError::UnexpectedResponse(Box::new(other)),
    }
}
