//! The serving tier: a readiness-driven `epoll` event loop fronting a
//! [`DurableEngine`] through group commit.
//!
//! ## Threading model
//!
//! Two threads serve: one **poll thread**, which owns an epoll
//! instance, the listener and every nonblocking connection, and one
//! **commit thread** ([`GroupCommit`]), which owns the engine. Neither
//! count is configurable: writes serialize on the commit thread by
//! design, and the perf ledger has never shown the poll loop to be the
//! bottleneck. There is no thread per connection: the poll thread
//! sleeps in `epoll_wait` until some socket has bytes (or a commit
//! completion arrives through its inbox + [`mio::Waker`]), reads
//! whatever the kernel has, and reassembles frames incrementally
//! ([`wire::FrameAssembler`]) — so ten thousand idle connections cost
//! ten thousand fds, not ten thousand stacks.
//!
//! ## Pipelining
//!
//! A connection may have many request frames in flight
//! ([`ServerConfig::max_pipeline`]); responses always return in
//! request order. Each parsed request takes a slot in the connection's
//! response FIFO: read-only queries are answered inline by the poll
//! thread and fill their slot immediately; writes fill theirs when the
//! commit thread acks. The FIFO's ready prefix is what gets flushed.
//!
//! ## The write path: group commit
//!
//! Writes ([`Request::Ingest`], [`Request::Check`], and the admin and
//! situation RPCs) are **submitted**, not executed, by the poll thread:
//! each becomes one [`WalRecord`] — a trusted batch, a quarantine batch
//! if its sensor is below the trust threshold, or a policy op — handed
//! to `ltam-store`'s [`GroupCommit`] thread through the one
//! `submit_write`. The commit thread drains every record queued while
//! the previous `fsync` ran, appends them all under **one** WAL write +
//! one `fsync`, applies them in submission order, and then completes
//! each waiter — the completion re-enters the poll thread via its
//! inbox and wakes it. Durability semantics are unchanged: a write
//! is acked only after its bytes are synced, and it stays
//! all-or-nothing across a crash (its own WAL record). What changed is
//! the *sharing*: N connections' writes cost one flush, not N.
//!
//! ## The read path: around the write lock
//!
//! Read-only queries never touch the commit thread. The poll thread
//! holds a [`ReadView`] — shared handles onto the engine's shards, the
//! archive, and published status counters — and answers
//! [`Request::Query`] inline, concurrent with in-flight ingest (shard
//! mutexes interleave; there is no engine-wide lock anywhere on the
//! serving path).
//!
//! ## Backpressure
//!
//! Three independent valves, all per connection, none blocking the
//! poll thread:
//!
//! * past [`ServerConfig::max_connections`], accepts are answered with
//!   one [`ErrorCode::Busy`] frame and closed;
//! * a connection at its pipeline cap stops being *read* (its readable
//!   interest is dropped) until responses drain — the bytes wait in
//!   the kernel and eventually in the peer's send buffer;
//! * a peer that stops **reading** accumulates output until
//!   [`ServerConfig::write_buffer_bytes`], then likewise stops being
//!   read. A slow reader therefore wedges only itself: its responses
//!   sit in its own buffer while every other connection proceeds.
//!
//! ## Timeouts and shutdown
//!
//! `epoll_wait` runs with a short tick ([`ServerConfig::read_timeout`])
//! so each loop pass can reap: idle connections past
//! [`ServerConfig::idle_timeout`], and peers stalled *mid-frame* past
//! the read timeout (a torn frame, like a torn WAL record, never
//! blocks the server).
//!
//! [`Server::shutdown`] stops accepting, lets every connection's
//! in-flight requests complete and flush, joins the poll thread,
//! drains the commit queue, takes a final snapshot, and hands the
//! engine back. [`Server::abort`] skips the snapshot — recovery then
//! replays the WAL, exactly as after a crash.

use crate::replica::{replicate_loop, ReplicaConfig, ReplicaShared};
use crate::wire::{
    self, ErrorCode, FrameAssembler, HistoryQuery, ReplChunk, ReplChunkMeta, ReplManifest,
    ReplRequest, Request, Response, ServerRole, ServerStatus,
};
use ltam_core::capability::{AuthRefusal, Capability, Scope, TokenId, WireAuth};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyOp, PolicyOutcome};
use ltam_obs::locked;
use ltam_store::replica::{
    archive_files, epoch_marker_file, newest_snapshot, read_file_chunk, wal_segment_ids, ReplFileId,
};
use ltam_store::{
    CommitHandle, DurableEngine, GroupCommit, HistoryError, ReadView, RecordOutcome, WalRecord,
};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Served connections beyond this are refused with
    /// [`ErrorCode::Busy`].
    pub max_connections: usize,
    /// A connection idle (no frame started, nothing in flight) past
    /// this is closed.
    pub idle_timeout: Duration,
    /// How long a peer may stall *mid-frame* before being cut off —
    /// also the poll loop's tick for idle checks and shutdown.
    pub read_timeout: Duration,
    /// Per-frame payload cap (see [`wire::DEFAULT_MAX_FRAME_BYTES`]).
    pub max_frame_bytes: u32,
    /// Requests one connection may have in flight before the server
    /// stops reading it (responses still flow).
    pub max_pipeline: usize,
    /// Buffered response bytes at which a connection stops being read
    /// (the slow-reader valve).
    pub write_buffer_bytes: usize,
    /// A locally configured secret that authenticates with every
    /// capability, outside the durable token registry — the lockout
    /// recovery path: an operator who revoked (or let expire) every
    /// admin-scoped token restarts the server with a root token and
    /// mints fresh ones over the wire. `None` (the default) disables
    /// it; it never appears in snapshots or the WAL.
    pub root_token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_millis(200),
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            max_pipeline: 128,
            write_buffer_bytes: 1 << 20,
            root_token: None,
        }
    }
}

/// Counters and connection registry shared by every thread.
#[derive(Debug, Default)]
struct Stats {
    connections_total: AtomicU64,
    refused_busy: AtomicU64,
    requests_served: AtomicU64,
    protocol_errors: AtomicU64,
    active: AtomicUsize,
    /// Requests served per live connection, by connection id.
    per_connection: Mutex<BTreeMap<u64, u64>>,
}

/// How an in-flight write is answered. The committed record's
/// [`RecordOutcome`] says what it was; the shape adds what the outcome
/// cannot: a swipe's one-bit answer versus a batch's counts, which
/// latency series the write belongs to, and what to call it when it
/// fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// A batch ingest ([`Request::Ingest`]).
    Ingest,
    /// A single swipe ([`Request::Check`]).
    Check,
    /// A below-trust sensor's batch, durably held on the quarantine
    /// ledger instead of entering trusted history.
    Quarantine,
    /// An admin or situation RPC applied as a durable, WAL-logged
    /// policy op.
    Policy,
}

/// A commit completion routed back to the poll thread.
struct Completion {
    conn: u64,
    slot: u64,
    reply: Reply,
    result: io::Result<RecordOutcome>,
}

/// The poll thread's externally visible half: post a commit completion
/// to the inbox, then wake it out of `epoll_wait`.
struct ThreadHandle {
    waker: Waker,
    inbox: Mutex<Vec<Completion>>,
    /// Set by the first completion posted since the poll thread last
    /// took its inbox — the only one that pokes the waker. The poll
    /// thread clears it **before** taking the inbox, so a completion
    /// that finds it set was pushed before that take and will be seen
    /// by it; clearing after the take would strand a completion pushed
    /// in between until the next tick.
    notified: AtomicBool,
}

impl ThreadHandle {
    /// Post a commit completion and make sure the poll thread will look
    /// at its inbox: one `eventfd` write per inbox take, however many
    /// completions a commit group acks in between.
    fn complete(&self, completion: Completion) {
        locked(self.inbox.lock(), "completion inbox").push(completion);
        if !self.notified.swap(true, Ordering::SeqCst) {
            let _ = self.waker.wake();
        }
    }
}

struct Shared {
    view: ReadView,
    config: ServerConfig,
    shutdown: AtomicBool,
    stats: Stats,
    poll: ThreadHandle,
    /// Which role every error frame and status report carries.
    role: ServerRole,
    /// Present iff this server is a follower: the replication loop's
    /// published face (watermark, lag, state).
    replica: Option<Arc<ReplicaShared>>,
    /// When `start_inner` ran — the zero of `uptime_chronons` in
    /// status reports.
    started: Instant,
}

/// A running LTAM server. Dropping it without calling
/// [`Server::shutdown`] or [`Server::abort`] aborts ungracefully.
pub struct Server {
    addr: SocketAddr,
    /// `Some` while running; taken by `stop()`.
    shared: Option<Arc<Shared>>,
    /// The poll thread; taken by `stop()`.
    poll: Option<JoinHandle<()>>,
    /// The replication thread, when running as a follower.
    repl: Option<JoinHandle<()>>,
    commit: Option<GroupCommit>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `engine` as a primary: writes accepted, and the
    /// replication stream ([`ReplRequest`]) served to any follower
    /// that asks.
    pub fn start(engine: DurableEngine, addr: &str, config: ServerConfig) -> io::Result<Server> {
        Server::start_inner(engine, addr, config, None)
    }

    /// Bind `addr` and serve `engine` as a **read-only follower** of
    /// the primary named in `replica`: a replication thread tails the
    /// primary's WAL and replays it through this server's own group
    /// commit, while the poll thread serves history queries at the
    /// published watermark. Writes are refused with
    /// [`ErrorCode::NotPrimary`] (the error names the primary);
    /// history queries are refused with [`ErrorCode::Stale`] until the
    /// engine has caught up to `replica.watermark_floor`. `engine`
    /// normally comes from
    /// [`bootstrap_follower`](crate::replica::bootstrap_follower), or
    /// from re-opening a previous follower directory.
    pub fn start_follower(
        engine: DurableEngine,
        addr: &str,
        config: ServerConfig,
        replica: ReplicaConfig,
    ) -> io::Result<Server> {
        Server::start_inner(engine, addr, config, Some(replica))
    }

    fn start_inner(
        engine: DurableEngine,
        addr: &str,
        config: ServerConfig,
        replica: Option<ReplicaConfig>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        let waker = Waker::new(poll.registry(), WAKER)?;
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)?;
        let view = engine.read_view();
        let (commit, commit_handle) = GroupCommit::start(engine);
        let replica_shared = replica
            .as_ref()
            .map(|r| Arc::new(ReplicaShared::new(r, view.applied())));
        let shared = Arc::new(Shared {
            view,
            config,
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            poll: ThreadHandle {
                waker,
                inbox: Mutex::new(Vec::new()),
                notified: AtomicBool::new(false),
            },
            role: if replica.is_some() {
                ServerRole::Follower
            } else {
                ServerRole::Primary
            },
            replica: replica_shared.clone(),
            started: Instant::now(),
        });
        let poll_thread = {
            let shared = Arc::clone(&shared);
            let commit = commit_handle.clone();
            std::thread::Builder::new()
                .name("ltam-poll".into())
                .spawn(move || poll_loop(poll, listener, shared, commit))?
        };
        let repl = match (replica, replica_shared) {
            (Some(replica_config), Some(replica_shared)) => {
                let stop_flag = Arc::clone(&shared);
                let view = shared.view.clone();
                let commit = commit_handle.clone();
                Some(
                    std::thread::Builder::new()
                        .name("ltam-replicate".into())
                        .spawn(move || {
                            replicate_loop(
                                move || stop_flag.shutdown.load(Ordering::SeqCst),
                                view,
                                commit,
                                &replica_shared,
                                &replica_config,
                            )
                        })
                        .expect("spawn replication thread"),
                )
            }
            _ => None,
        };
        drop(commit_handle);
        Ok(Server {
            addr: local,
            shared: Some(shared),
            poll: Some(poll_thread),
            repl,
            commit: Some(commit),
        })
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully stop: refuse new connections, complete and flush
    /// in-flight requests, join every thread, snapshot, and return the
    /// engine.
    pub fn shutdown(mut self) -> io::Result<DurableEngine> {
        let mut engine = self.stop()?;
        engine.snapshot()?;
        Ok(engine)
    }

    /// Hard-stop without the final snapshot — the closest an in-process
    /// test can get to `kill -9`: whatever the WAL holds is what
    /// recovery will see. The engine comes back for inspection; drop it
    /// to complete the "crash".
    pub fn abort(mut self) -> io::Result<DurableEngine> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<DurableEngine> {
        let shared = self
            .shared
            .take()
            .ok_or_else(|| io::Error::other("server already stopped"))?;
        shared.shutdown.store(true, Ordering::SeqCst);
        let _ = shared.poll.waker.wake();
        if let Some(h) = self.poll.take() {
            let _ = h.join();
        }
        if let Some(h) = self.repl.take() {
            // The replication thread holds a commit handle too; it must
            // exit before commit shutdown can drain.
            let _ = h.join();
        }
        // The poll thread is gone (its commit handle dropped with it);
        // draining the commit queue hands the engine back.
        self.commit
            .take()
            .ok_or_else(|| io::Error::other("server already stopped"))?
            .shutdown()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.shared.is_some() {
            let _ = self.stop(); // ungraceful: no final snapshot
        }
    }
}

// --- the poll loop ---------------------------------------------------------

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection tokens are `slab index + CONN_BASE`.
const CONN_BASE: usize = 2;

/// A response slot in a connection's in-order FIFO.
enum SlotState {
    /// A write submitted to the commit thread; identified so the
    /// completion can find it.
    Waiting(u64),
    /// An encoded response frame, ready to flush once everything ahead
    /// of it is.
    Ready(Vec<u8>),
}

/// Who a connection has authenticated as. Only the *identity* is held
/// here — every frame re-resolves the token against the live policy,
/// so a revocation or expiry bites on the very next frame without the
/// connection being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnAuth {
    /// No `Hello` yet (or the wire is open and none was required).
    Anonymous,
    /// Authenticated by a registry token; capabilities are whatever the
    /// token grants *at each frame's check*, not at handshake time.
    Token(TokenId),
    /// Authenticated by the server's configured
    /// [`ServerConfig::root_token`]: every capability, no expiry, not
    /// revocable over the wire (it lives in local config, not policy).
    Root,
}

/// One nonblocking connection owned by a poll loop.
struct Conn {
    stream: TcpStream,
    id: u64,
    token: Token,
    /// The connection's authenticated identity (see [`ConnAuth`]).
    auth: ConnAuth,
    assembler: FrameAssembler,
    /// Response FIFO: one slot per in-flight request, request order.
    pending: VecDeque<SlotState>,
    next_slot: u64,
    /// Encoded-but-unsent output; `out[out_pos..]` remains to write.
    out: Vec<u8>,
    out_pos: usize,
    /// What the fd is currently registered for (`None` = deregistered,
    /// e.g. fully backpressured).
    registered: Option<Interest>,
    /// Stop reading requests; close once the FIFO and buffer drain.
    closing: bool,
    last_activity: Instant,
}

impl Conn {
    fn out_backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn drained(&self) -> bool {
        self.pending.is_empty() && self.out_backlog() == 0
    }
}

/// The poll thread: `listener` arrives registered for readability.
fn poll_loop(mut poll: Poll, listener: TcpListener, shared: Arc<Shared>, commit: CommitHandle) {
    let mut events = Events::with_capacity(256);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut next_conn_id = 0;
    let mut draining: Option<Instant> = None;
    // Connection slots that received completions this pass.
    let mut touched: Vec<usize> = Vec::new();
    // The read buffer every connection's `read_input` borrows.
    let mut scratch = vec![0u8; 32 * 1024];
    let tick = shared.config.read_timeout.min(Duration::from_millis(100));
    // One registry lookup, before the hot loop.
    let wakeups = ltam_obs::counter!(
        "serve_poll_wakeups_total",
        "Poll-loop passes (epoll returns, timer ticks, and waker pokes)"
    );
    let iteration = ltam_obs::histogram!(
        "serve_poll_iteration_seconds",
        "Work done per poll-loop pass, from epoll return to going back to sleep",
        SecondsFromMicros
    );
    loop {
        let _ = poll.poll(&mut events, Some(tick));
        let now = Instant::now();
        wakeups.inc();
        let shutting = shared.shutdown.load(Ordering::SeqCst);

        // 1. Inbox first: commit completions (the waker may be why we
        //    woke). `notified` is cleared before the take — see
        //    `ThreadHandle::notified`.
        shared.poll.notified.store(false, Ordering::SeqCst);
        let done = std::mem::take(&mut *locked(shared.poll.inbox.lock(), "completion inbox"));
        // A commit group acks many requests at once: fill every slot
        // first, then flush each touched connection once, so a group's
        // replies leave in one socket write per connection.
        touched.clear();
        for completion in done {
            let Some(&slot) = by_id.get(&completion.conn) else {
                continue; // connection died before its commit finished
            };
            if let Some(conn) = conns[slot].as_mut() {
                apply_completion(conn, completion, shared.role);
                touched.push(slot);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &slot in &touched {
            let conn = conns[slot].as_mut().expect("touched slots are occupied");
            if !flush(conn, now) || !update_interest(conn, &poll, &shared.config) {
                close_conn(&mut conns, &mut by_id, slot, &poll, &shared);
            }
        }

        // 2. Readiness events.
        let mut accept_ready = false;
        for ev in events.iter() {
            match ev.token() {
                LISTENER => accept_ready = true,
                WAKER => {} // inbox already drained above
                Token(t) => {
                    let slot = t - CONN_BASE;
                    let keep = match conns.get_mut(slot).and_then(Option::as_mut) {
                        // A stale event for a slot reused this pass is
                        // harmless: reads just hit WouldBlock.
                        Some(conn) => {
                            let mut keep = true;
                            if ev.is_writable() {
                                keep = flush(conn, now);
                            }
                            if keep && ev.is_readable() {
                                keep = read_input(conn, &mut scratch, &shared, &commit, now);
                            }
                            if keep && ev.is_error() && conn.drained() {
                                keep = false;
                            }
                            keep && update_interest(conn, &poll, &shared.config)
                        }
                        None => continue,
                    };
                    if !keep {
                        close_conn(&mut conns, &mut by_id, slot, &poll, &shared);
                    }
                }
            }
        }

        // 3. Accept (level-triggered, so a backlog left unaccepted
        //    re-notifies next pass).
        if accept_ready && !shutting {
            accept_all(
                &listener,
                &mut next_conn_id,
                &mut conns,
                &mut by_id,
                &poll,
                &shared,
                now,
            );
        }

        // 4. Reaping: mid-frame stalls and idle connections.
        for slot in 0..conns.len() {
            let Some(conn) = conns[slot].as_ref() else {
                continue;
            };
            let stalled = conn.assembler.mid_frame()
                && now.duration_since(conn.last_activity) >= shared.config.read_timeout;
            let idle = !conn.assembler.mid_frame()
                && conn.drained()
                && now.duration_since(conn.last_activity) >= shared.config.idle_timeout;
            if stalled || idle {
                close_conn(&mut conns, &mut by_id, slot, &poll, &shared);
            }
        }

        // 5. Shutdown drain: stop accepting and reading, answer what
        //    is in flight, then leave. A bounded deadline covers peers
        //    that never read their last responses.
        if shutting {
            if draining.is_none() {
                let _ = poll.registry().deregister(&listener);
            }
            let deadline = *draining.get_or_insert_with(|| {
                now + shared.config.idle_timeout.min(Duration::from_secs(5))
            });
            for slot in 0..conns.len() {
                let Some(conn) = conns[slot].as_mut() else {
                    continue;
                };
                conn.closing = true;
                if conn.drained()
                    || now >= deadline
                    || !update_interest(conn, &poll, &shared.config)
                {
                    close_conn(&mut conns, &mut by_id, slot, &poll, &shared);
                }
            }
            if by_id.is_empty() {
                return;
            }
        }
        // `now` was stamped right after the poll returned, so its age
        // here is this pass's working time (sleep excluded).
        if !ltam_obs::disabled() {
            iteration.observe(now.elapsed().as_micros() as u64);
        }
    }
}

/// Take ownership of an accepted connection: nonblocking, registered,
/// slotted.
fn admit(
    stream: TcpStream,
    id: u64,
    conns: &mut Vec<Option<Conn>>,
    by_id: &mut HashMap<u64, usize>,
    poll: &Poll,
    shared: &Arc<Shared>,
    now: Instant,
) {
    // Closed-loop clients round-trip constantly: Nagle + delayed ACK
    // would add tens of milliseconds per request.
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        forget_conn(id, shared);
        return;
    }
    let slot = match conns.iter().position(Option::is_none) {
        Some(s) => s,
        None => {
            conns.push(None);
            conns.len() - 1
        }
    };
    let token = Token(slot + CONN_BASE);
    if poll
        .registry()
        .register(&stream, token, Interest::READABLE)
        .is_err()
    {
        forget_conn(id, shared);
        return;
    }
    by_id.insert(id, slot);
    conns[slot] = Some(Conn {
        stream,
        id,
        token,
        auth: ConnAuth::Anonymous,
        assembler: FrameAssembler::new(shared.config.max_frame_bytes),
        pending: VecDeque::new(),
        next_slot: 0,
        out: Vec::new(),
        out_pos: 0,
        registered: Some(Interest::READABLE),
        closing: false,
        last_activity: now,
    });
}

/// Drop a connection's registry entries without ever having served it.
fn forget_conn(id: u64, shared: &Shared) {
    locked(shared.stats.per_connection.lock(), "connection stats").remove(&id);
    shared.stats.active.fetch_sub(1, Ordering::SeqCst);
}

fn close_conn(
    conns: &mut [Option<Conn>],
    by_id: &mut HashMap<u64, usize>,
    slot: usize,
    poll: &Poll,
    shared: &Shared,
) {
    if let Some(conn) = conns[slot].take() {
        if conn.registered.is_some() {
            let _ = poll.registry().deregister(&conn.stream);
        }
        by_id.remove(&conn.id);
        forget_conn(conn.id, shared);
    }
}

/// Accept until the backlog is dry, refusing over the limit.
fn accept_all(
    listener: &TcpListener,
    next_conn_id: &mut u64,
    conns: &mut Vec<Option<Conn>>,
    by_id: &mut HashMap<u64, usize>,
    poll: &Poll,
    shared: &Arc<Shared>,
    now: Instant,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Transient accept failures (ECONNABORTED storms, fd
            // pressure): the level-triggered listener re-notifies, so
            // just yield this pass rather than busy-spinning.
            Err(_) => return,
        };
        if shared.stats.active.load(Ordering::SeqCst) >= shared.config.max_connections {
            refuse_busy(stream, shared);
            continue;
        }
        shared.stats.active.fetch_add(1, Ordering::SeqCst);
        shared
            .stats
            .connections_total
            .fetch_add(1, Ordering::SeqCst);
        ltam_obs::counter!(
            "serve_connections_total",
            "Connections accepted and admitted (refusals are counted separately)"
        )
        .inc();
        let id = *next_conn_id;
        *next_conn_id += 1;
        locked(shared.stats.per_connection.lock(), "connection stats").insert(id, 0);
        admit(stream, id, conns, by_id, poll, shared, now);
    }
}

/// Over the connection limit: answer one `Busy` error and close. The
/// accepted socket is still blocking (accept does not inherit
/// O_NONBLOCK), so a bounded write timeout keeps a non-reading peer
/// from wedging the accept pass.
fn refuse_busy(mut stream: TcpStream, shared: &Shared) {
    shared.stats.refused_busy.fetch_add(1, Ordering::SeqCst);
    refused(ErrorCode::Busy).inc();
    let _ = stream.set_write_timeout(Some(
        shared.config.read_timeout.max(Duration::from_millis(50)),
    ));
    let response = Response::Error {
        code: ErrorCode::Busy,
        // A refused accept never authenticated: on an auth-required
        // wire the role is redacted like every other pre-handshake
        // status field.
        role: anonymous_role(shared),
        message: format!(
            "serving {} connections (the configured limit); retry later",
            shared.config.max_connections
        ),
    };
    let _ = wire::write_frame(&mut stream, &wire::encode_response(&response));
}

/// The role field an **unauthenticated** connection may see: the real
/// role on an open wire, redacted (`None`) when authentication is
/// required — a pre-handshake error frame must not leak whether it is
/// talking to a primary or a follower.
fn anonymous_role(shared: &Shared) -> Option<ServerRole> {
    if shared.view.engine().policy().wire().required {
        None
    } else {
        Some(shared.role)
    }
}

/// The role field `conn` may see in an error frame right now.
fn visible_role(conn: &Conn, shared: &Shared) -> Option<ServerRole> {
    if conn.auth == ConnAuth::Anonymous {
        anonymous_role(shared)
    } else {
        Some(shared.role)
    }
}

/// The `serve_refused_total{code=...}` counter. Refusals are error
/// paths, so the per-call registry lock is acceptable; the label is
/// the [`ErrorCode`] sent back, snake_cased.
fn refused(code: ErrorCode) -> &'static ltam_obs::Counter {
    let code = match code {
        ErrorCode::Busy => "busy",
        ErrorCode::BadRequest => "bad_request",
        ErrorCode::Unarchived => "unarchived",
        ErrorCode::Internal => "internal",
        ErrorCode::NotPrimary => "not_primary",
        ErrorCode::Gone => "gone",
        ErrorCode::Stale => "stale",
        ErrorCode::Unauthenticated => "unauthenticated",
        ErrorCode::PermissionDenied => "permission_denied",
    };
    ltam_obs::registry().counter(
        "serve_refused_total",
        &[("code", code)],
        "Requests refused with an error frame, by error code",
    )
}

/// Refuse the frame at hand: count it under its error code and answer
/// with an error frame carrying the role this connection may see.
fn refuse(conn: &mut Conn, shared: &Shared, code: ErrorCode, message: String) {
    refused(code).inc();
    let role = visible_role(conn, shared);
    push_response(
        conn,
        &Response::Error {
            code,
            role,
            message,
        },
    );
}

/// Is this connection refusing further input? (Pipeline or write
/// buffer at cap, or closing.)
fn read_paused(conn: &Conn, config: &ServerConfig) -> bool {
    conn.closing
        || conn.pending.len() >= config.max_pipeline
        || conn.out_backlog() >= config.write_buffer_bytes
}

/// Drain the socket's readable bytes into frames and dispatch them.
/// Returns false when the connection should close now.
fn read_input(
    conn: &mut Conn,
    scratch: &mut [u8],
    shared: &Arc<Shared>,
    commit: &CommitHandle,
    now: Instant,
) -> bool {
    loop {
        if read_paused(conn, &shared.config) {
            return true;
        }
        let n = match conn.stream.read(scratch) {
            Ok(0) => {
                // EOF: the peer is done sending. Answer everything in
                // flight, then close — pipelined clients half-close
                // after their last frame and read the tail.
                conn.closing = true;
                return !conn.drained();
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        conn.last_activity = now;
        conn.assembler.push(&scratch[..n]);
        loop {
            match conn.assembler.next_frame() {
                Ok(Some(payload)) => dispatch(conn, &payload, shared, commit),
                Ok(None) => break,
                Err(e) => {
                    // Unreadable framing: the stream cannot resync.
                    // Answer once (after anything already in flight),
                    // then close.
                    shared.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    let message = format!("unreadable frame: {e}");
                    refuse(conn, shared, ErrorCode::BadRequest, message);
                    conn.closing = true;
                    return flush(conn, now);
                }
            }
        }
        if !flush(conn, now) {
            return false;
        }
        if n < scratch.len() {
            // Likely drained; if not, level-triggered epoll re-notifies.
            return true;
        }
    }
}

/// The `serve_request_seconds{kind}` latency series. (The `ltam-obs`
/// macros intern literals, so the series' one name and help text live
/// here rather than at each kind's site.)
macro_rules! request_seconds {
    ($kind:literal) => {
        ltam_obs::histogram!(
            "serve_request_seconds",
            "Server-side request latency by request kind (queries: decode to encoded \
             response; writes: decode to durable)",
            SecondsFromMicros,
            "kind" => $kind
        )
    };
}

/// Which capability a request needs ([`Request::Hello`] needs none —
/// it is how a connection *acquires* one).
fn needed_capability(request: &Request) -> Option<Capability> {
    match request {
        Request::Hello { .. } => None,
        Request::Ingest(_) | Request::Check(_) => Some(Capability::Ingest),
        Request::Query(_) | Request::Metrics => Some(Capability::Query),
        Request::Repl(_) => Some(Capability::Replicate),
        Request::Admin(_) | Request::Situation(_) => Some(Capability::Admin),
    }
}

/// Map a capability refusal to its wire error code: a token outside
/// its validity window means the *identity* is no longer established
/// ([`ErrorCode::Unauthenticated`] — re-`Hello` with a fresh token);
/// a live identity lacking the right grant is
/// [`ErrorCode::PermissionDenied`] (revoked, missing scope, or an
/// ingest scope not covering a batch's location).
fn refusal_code(refusal: &AuthRefusal) -> ErrorCode {
    match refusal {
        AuthRefusal::Expired { .. } => ErrorCode::Unauthenticated,
        AuthRefusal::Revoked
        | AuthRefusal::MissingScope { .. }
        | AuthRefusal::LocationNotCovered { .. } => ErrorCode::PermissionDenied,
    }
}

/// Every location a write batch touches (for ingest-scope coverage).
fn batch_locations(events: &[Event]) -> impl Iterator<Item = &ltam_graph::LocationId> {
    events.iter().filter_map(|e| match e {
        Event::Request { location, .. }
        | Event::Enter { location, .. }
        | Event::Exit { location, .. } => Some(location),
        Event::Tick { .. } => None,
    })
}

/// The outcome of the per-frame capability gate.
enum Gate {
    /// Frame allowed; `source` names the authenticated sensor subject
    /// and its trust level when the frame came over a registry token
    /// (root and anonymous-on-an-open-wire carry no trust routing).
    Allow { source: Option<(SubjectId, u8)> },
    /// Frame refused with this error code and message.
    Refuse { code: ErrorCode, message: String },
}

/// Gate one decoded request against the **live** wire-auth policy: the
/// check runs against the policy as of this frame (not handshake
/// time), at the engine's current monitoring clock — so a revocation,
/// an expiry crossed by a `Tick`, or a policy-epoch swap all bite on
/// the next frame of an already-authenticated connection.
fn gate_request(conn: &Conn, request: &Request, wire_auth: &WireAuth, shared: &Shared) -> Gate {
    let Some(needed) = needed_capability(request) else {
        return Gate::Allow { source: None }; // Hello gates itself
    };
    // Admin RPCs are always gated; everything else only when the wire
    // requires auth — but a token *presented* on an open wire is still
    // held to its scopes (it asked to be identified; identity has
    // consequences, like trust routing).
    let must_check =
        wire_auth.required || needed == Capability::Admin || conn.auth != ConnAuth::Anonymous;
    if !must_check {
        return Gate::Allow { source: None };
    }
    let token = match conn.auth {
        ConnAuth::Root => return Gate::Allow { source: None },
        ConnAuth::Anonymous => {
            return Gate::Refuse {
                code: ErrorCode::Unauthenticated,
                message: "this request requires authentication; send a Hello frame with a \
                          capability token first"
                    .into(),
            };
        }
        ConnAuth::Token(id) => match wire_auth.token(id) {
            Some(token) => token,
            // Tokens are never removed from the registry, but a
            // follower re-bootstrap can swap in a policy that predates
            // this id. Treat the vanished identity as unauthenticated.
            None => {
                return Gate::Refuse {
                    code: ErrorCode::Unauthenticated,
                    message: "the authenticated token no longer exists in policy; \
                              re-authenticate"
                        .into(),
                };
            }
        },
    };
    let now = shared.view.clock();
    if let Err(refusal) = token.permits(needed, now) {
        return Gate::Refuse {
            code: refusal_code(&refusal),
            message: format!("refusing {needed:?} frame: {refusal}"),
        };
    }
    if needed == Capability::Ingest {
        let events = match request {
            Request::Ingest(events) => events.as_slice(),
            Request::Check(event) => std::slice::from_ref(event),
            _ => &[],
        };
        if let Err(refusal) = token.permits_locations(batch_locations(events)) {
            return Gate::Refuse {
                code: refusal_code(&refusal),
                message: format!("refusing Ingest frame: {refusal}"),
            };
        }
    }
    Gate::Allow {
        source: Some((token.subject, wire_auth.trust.level_of(token.subject))),
    }
}

/// Answer a `Hello` handshake: resolve the secret, stamp the
/// connection's identity, and welcome (or refuse without changing the
/// connection's current identity — a failed re-`Hello` does not
/// de-authenticate).
fn answer_hello(conn: &mut Conn, secret: &str, wire_auth: &WireAuth, shared: &Shared) {
    if !secret.is_empty() && shared.config.root_token.as_deref() == Some(secret) {
        conn.auth = ConnAuth::Root;
        push_response(
            conn,
            &Response::Welcome {
                token: TokenId(u64::MAX),
                subject: SubjectId(u32::MAX),
                scopes: vec![
                    Scope::Ingest { locations: None },
                    Scope::Query,
                    Scope::Replicate,
                    Scope::Admin,
                ],
            },
        );
        return;
    }
    match wire_auth.authenticate(secret) {
        Some(token) => {
            let now = shared.view.clock();
            if !token.validity.contains(now) {
                let message = format!("token not valid at monitoring time {}", now.0);
                return refuse(conn, shared, ErrorCode::Unauthenticated, message);
            }
            conn.auth = ConnAuth::Token(token.id);
            push_response(
                conn,
                &Response::Welcome {
                    token: token.id,
                    subject: token.subject,
                    scopes: token.scopes.clone(),
                },
            );
        }
        None => refuse(
            conn,
            shared,
            ErrorCode::Unauthenticated,
            "unknown or revoked token".into(),
        ),
    }
}

/// Decode one frame's request and either answer it inline (queries,
/// errors) or submit it to the commit thread (writes).
fn dispatch(conn: &mut Conn, payload: &[u8], shared: &Arc<Shared>, commit: &CommitHandle) {
    let request = match wire::decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            // Framing was intact (CRC passed) but the body is not a
            // request: answer in-band and stay in sync.
            shared.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
            count_served(conn, shared);
            return refuse(conn, shared, ErrorCode::BadRequest, e.to_string());
        }
    };
    count_served(conn, shared);
    ltam_obs::histogram!(
        "serve_pipeline_depth",
        "Response slots already in flight on the connection when a request arrives",
        None
    )
    .observe(conn.pending.len() as u64);
    // --- the capability gate, against the live policy ---------------------
    let policy = shared.view.engine().policy();
    let wire_auth = policy.wire();
    let source = match gate_request(conn, &request, wire_auth, shared) {
        Gate::Allow { source } => source,
        Gate::Refuse { code, message } => return refuse(conn, shared, code, message),
    };
    let (events, reply) = match request {
        // `Hello` needs no capability (the gate lets it through): it
        // is how a connection acquires one.
        Request::Hello { token } => return answer_hello(conn, &token, wire_auth, shared),
        Request::Query(query) => {
            let _span = ltam_obs::Span::start(request_seconds!("query"));
            push_response(conn, &answer_query(query, shared));
            return;
        }
        Request::Repl(repl) => {
            let _span = ltam_obs::Span::start(request_seconds!("repl"));
            answer_repl(conn, repl, shared);
            return;
        }
        Request::Metrics => {
            let _span = ltam_obs::Span::start(request_seconds!("metrics"));
            push_response(
                conn,
                &Response::Metrics {
                    text: ltam_obs::encode_text(ltam_obs::registry()),
                },
            );
            return;
        }
        Request::Admin(op) => {
            let record = WalRecord::Policy(PolicyOp::Admin(op));
            return submit_write(conn, record, Reply::Policy, shared, commit);
        }
        Request::Situation(op) => {
            let record = WalRecord::Policy(PolicyOp::Situation(op));
            return submit_write(conn, record, Reply::Policy, shared, commit);
        }
        Request::Ingest(events) => (events, Reply::Ingest),
        Request::Check(event) => (vec![event], Reply::Check),
    };
    // Trust routing: an authenticated source below the trust threshold
    // has its events durably *quarantined* — never entering trusted
    // history, never advancing the monitoring clock — and is told so.
    let (record, reply) = match source {
        Some((source, level)) if !wire_auth.trust.trusted(source) => (
            WalRecord::Quarantine {
                source,
                level,
                events,
            },
            Reply::Quarantine,
        ),
        _ => (WalRecord::Events(events), reply),
    };
    submit_write(conn, record, reply, shared, commit);
}

/// Submit one write — one [`WalRecord`] — to the commit thread, taking
/// the connection's next response slot; the completion fills the slot
/// once the record's group is durable and applied. A follower refuses:
/// a write acked here would fork history from the primary's, and policy
/// ops reach it through the replicated WAL, at the exact stream
/// position the primary applied them — an edit made here would
/// double-apply or fork the two.
fn submit_write(
    conn: &mut Conn,
    record: WalRecord,
    reply: Reply,
    shared: &Arc<Shared>,
    commit: &CommitHandle,
) {
    if let Some(replica) = &shared.replica {
        let message = format!(
            "this server is a read-only follower; send writes and policy edits to the primary \
             at {} (followers replay both from the replicated WAL)",
            replica.primary_addr()
        );
        return refuse(conn, shared, ErrorCode::NotPrimary, message);
    }
    let slot = conn.next_slot;
    conn.next_slot += 1;
    // Write latency spans the submit-to-durable window: the span ends
    // on the commit thread, right after this record's fsync returned.
    let latency = match reply {
        Reply::Ingest => Some(request_seconds!("ingest")),
        Reply::Check => Some(request_seconds!("check")),
        Reply::Quarantine | Reply::Policy => None,
    };
    let submitted = latency
        .filter(|_| !ltam_obs::disabled())
        .map(|latency| (latency, Instant::now()));
    let done = {
        let shared = Arc::clone(shared);
        let conn = conn.id;
        move |result: io::Result<Vec<RecordOutcome>>| {
            if let Some((latency, t)) = submitted {
                latency.observe(t.elapsed().as_micros() as u64);
            }
            // One record in, one outcome out.
            let result = result.and_then(|mut outcomes| {
                outcomes
                    .pop()
                    .ok_or_else(|| io::Error::other("commit returned no outcome"))
            });
            shared.poll.complete(Completion {
                conn,
                slot,
                reply,
                result,
            });
        }
    };
    conn.pending
        .push_back(match commit.submit(vec![record], done) {
            Ok(()) => SlotState::Waiting(slot),
            // Commit thread already gone (shutdown race): fail the slot
            // in place.
            Err(_) => SlotState::Ready(response_frame(&Response::Error {
                code: ErrorCode::Internal,
                role: Some(shared.role),
                message: "server is shutting down".into(),
            })),
        });
}

/// Turn a commit completion into its slot's ready response. Every
/// completion is for a frame that passed the capability gate, so its
/// error frames carry the unredacted role.
fn apply_completion(conn: &mut Conn, completion: Completion, role: ServerRole) {
    let response = match completion.result {
        Ok(RecordOutcome::Events(outcome)) if completion.reply == Reply::Check => {
            Response::Access {
                granted: outcome.granted == 1,
            }
        }
        Ok(RecordOutcome::Events(outcome)) => Response::Ingested {
            processed: outcome.processed,
            granted: outcome.granted,
            denied: outcome.denied,
            violations: outcome.violations,
        },
        Ok(RecordOutcome::Quarantined(held)) => Response::Quarantined { held },
        Ok(RecordOutcome::Policy(Ok(PolicyOutcome::Admin(outcome)))) => Response::Admin { outcome },
        Ok(RecordOutcome::Policy(Ok(PolicyOutcome::Situation(outcome)))) => {
            Response::Situation { outcome }
        }
        // No request submits an `Install`, so none can complete as one.
        Ok(RecordOutcome::Policy(Ok(PolicyOutcome::Installed))) => Response::Error {
            code: ErrorCode::Internal,
            role: Some(role),
            message: "a wire request completed as a policy install".into(),
        },
        // Not in the WAL at all, or (a policy op) logged and applied
        // but its acked-epoch marker missing: unacknowledged either way.
        Ok(RecordOutcome::Policy(Err(e))) | Err(e) => Response::Error {
            code: ErrorCode::Internal,
            role: Some(role),
            message: format!(
                "{} not durable: {e}",
                match completion.reply {
                    Reply::Ingest => "batch",
                    Reply::Check => "swipe",
                    Reply::Quarantine => "quarantine batch",
                    Reply::Policy => "policy edit",
                }
            ),
        },
    };
    let frame = response_frame(&response);
    let filled = conn.pending.iter_mut().find_map(|s| match s {
        SlotState::Waiting(id) if *id == completion.slot => Some(s),
        _ => None,
    });
    match filled {
        Some(slot) => *slot = SlotState::Ready(frame),
        None => {
            // A slot can only vanish with the whole connection; a
            // present connection always holds its waiting slots.
            debug_assert!(false, "completion for unknown slot");
        }
    }
}

fn count_served(conn: &Conn, shared: &Shared) {
    shared.stats.requests_served.fetch_add(1, Ordering::SeqCst);
    if let Some(n) =
        locked(shared.stats.per_connection.lock(), "connection stats").get_mut(&conn.id)
    {
        *n += 1;
    }
}

/// Append an inline (already-answerable) response to the FIFO.
fn push_response(conn: &mut Conn, response: &Response) {
    conn.pending
        .push_back(SlotState::Ready(response_frame(response)));
}

fn response_frame(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &wire::encode_response(response))
        .expect("writing to a Vec cannot fail");
    frame
}

/// Move the FIFO's ready prefix into the output buffer and write as
/// much as the socket takes. Returns false when the connection should
/// close (write failure, or `closing` and fully drained).
fn flush(conn: &mut Conn, now: Instant) -> bool {
    loop {
        if conn.out_backlog() == 0 {
            conn.out.clear();
            conn.out_pos = 0;
            while matches!(conn.pending.front(), Some(SlotState::Ready(_))) {
                let Some(SlotState::Ready(frame)) = conn.pending.pop_front() else {
                    unreachable!("front checked to be Ready");
                };
                conn.out.extend_from_slice(&frame);
            }
            if conn.out.is_empty() {
                break;
            }
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = now;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    !(conn.closing && conn.drained())
}

/// Reconcile the fd's epoll registration with what the connection
/// currently wants. Returns false on a registry failure (close it).
fn update_interest(conn: &mut Conn, poll: &Poll, config: &ServerConfig) -> bool {
    let want_read = !read_paused(conn, config);
    // A read-interest drop that is not the connection closing is a
    // backpressure valve engaging: count the edge (not the paused
    // passes), named for which cap tripped.
    let was_reading = conn.registered.is_some_and(|i| i.is_readable());
    if was_reading && !want_read && !conn.closing {
        let valve = if conn.pending.len() >= config.max_pipeline {
            ltam_obs::counter!(
                "serve_backpressure_total",
                "Connections paused (read interest dropped) by which valve tripped",
                "valve" => "pipeline"
            )
        } else {
            ltam_obs::counter!(
                "serve_backpressure_total",
                "Connections paused (read interest dropped) by which valve tripped",
                "valve" => "write_buffer"
            )
        };
        valve.inc();
    }
    let want_write =
        conn.out_backlog() > 0 || matches!(conn.pending.front(), Some(SlotState::Ready(_)));
    let desired = match (want_read, want_write) {
        (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
        (true, false) => Some(Interest::READABLE),
        (false, true) => Some(Interest::WRITABLE),
        // Fully backpressured (or closing while a write commits):
        // deregister — level-triggered readiness on bytes we refuse to
        // read would otherwise spin the loop. Completions re-arm us
        // through the inbox, not through epoll.
        (false, false) => None,
    };
    let ok = match (conn.registered, desired) {
        (Some(cur), Some(want)) if cur != want => poll
            .registry()
            .reregister(&conn.stream, conn.token, want)
            .is_ok(),
        (None, Some(want)) => poll
            .registry()
            .register(&conn.stream, conn.token, want)
            .is_ok(),
        (Some(_), None) => poll.registry().deregister(&conn.stream).is_ok(),
        _ => true,
    };
    if ok {
        conn.registered = desired;
    }
    ok
}

/// Answer a read-only query from the poll thread via the shared
/// [`ReadView`] — never touching the commit thread.
fn answer_query(query: HistoryQuery, shared: &Shared) -> Response {
    let view = &shared.view;
    // Queries reach here only after the capability gate, so the role
    // is never redacted on this path.
    let role = Some(shared.role);
    // A freshly (re-)started follower may hold state older than the
    // watermark its predecessor already served reads at. Answering
    // from it would show time running backward; refuse until caught
    // up. `Status` stays answerable — it is how operators watch the
    // catch-up.
    if !matches!(query, HistoryQuery::Status) {
        if let Some(replica) = &shared.replica {
            let applied = view.applied();
            if applied < replica.floor() {
                refused(ErrorCode::Stale).inc();
                return Response::Error {
                    code: ErrorCode::Stale,
                    role,
                    message: format!(
                        "follower at sequence {applied}, behind its served watermark {}; \
                         retry once caught up",
                        replica.floor()
                    ),
                };
            }
        }
    }
    match query {
        HistoryQuery::Whereabouts { subject, at } => view
            .whereabouts(subject, at)
            .map(|location| Response::Whereabouts { location })
            .unwrap_or_else(|e| history_error(e, role)),
        HistoryQuery::PresentDuring { location, window } => view
            .present_during(location, window)
            .map(|rows| Response::Present { rows })
            .unwrap_or_else(|e| history_error(e, role)),
        HistoryQuery::Contacts { subject, window } => view
            .contacts(subject, window)
            .map(|contacts| Response::Contacts {
                contacts,
                // Contact-tracing answers flag what quarantine holds:
                // an analyst must see that an untrusted sensor claimed
                // more contact than trusted history shows.
                quarantined: view.engine().quarantined_involving(subject, window),
            })
            .unwrap_or_else(|e| history_error(e, role)),
        HistoryQuery::ViolationsIn { window } => view
            .violations_in(window)
            .map(|violations| Response::Violations { violations })
            .unwrap_or_else(|e| history_error(e, role)),
        HistoryQuery::Quarantine { source, window } => Response::Quarantine {
            events: view.engine().quarantined_in(source, window),
        },
        HistoryQuery::Status => Response::Status {
            status: status_of(shared),
        },
        HistoryQuery::Digest => Response::Digest {
            watermark: view.applied(),
            digest: ltam_store::digest(view.engine()),
        },
    }
}

/// Answer one replication request. Manifests and chunks are served
/// from the primary's store directory through the shared [`ReadView`];
/// a follower refuses them (replication chains from the primary only).
fn answer_repl(conn: &mut Conn, request: ReplRequest, shared: &Shared) {
    if shared.role != ServerRole::Primary {
        let message = "replication is served by the primary, not a follower".into();
        return refuse(conn, shared, ErrorCode::BadRequest, message);
    }
    let view = &shared.view;
    let dir = view.dir();
    match request {
        ReplRequest::Manifest => {
            let inventory = (|| {
                io::Result::Ok((
                    newest_snapshot(dir)?,
                    archive_files(dir)?,
                    wal_segment_ids(dir)?,
                    epoch_marker_file(dir)?,
                ))
            })();
            let response = match inventory {
                Ok((snapshot, archives, wal_segments, epoch_marker)) => Response::ReplManifest {
                    manifest: ReplManifest {
                        // Counters after the listing: `applied` must
                        // never overstate what the listed files hold.
                        applied: view.applied(),
                        policy_epoch: view.policy_epoch(),
                        retention_watermark: view.retention_watermark().get(),
                        snapshot,
                        archives,
                        wal_segments,
                        epoch_marker,
                    },
                },
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    role: Some(shared.role),
                    message: format!("listing store files: {e}"),
                },
            };
            push_response(conn, &response);
        }
        ReplRequest::Fetch { file, offset, len } => {
            // Leave room in the frame for the chunk meta and headers.
            let cap = shared.config.max_frame_bytes.saturating_sub(4096).max(1);
            match read_file_chunk(dir, file, offset, len.min(cap)) {
                Ok(Some(read)) => {
                    // Read after the bytes, these counters can still
                    // lag them: a commit appends to the WAL before its
                    // apply publishes `applied` / `policy_epoch`, so the
                    // chunk may hold records they do not count yet. The
                    // follower raises its view of the primary to its own
                    // counters once it has committed the chunk.
                    let sealed = match file {
                        ReplFileId::WalSegment { first_seq } => wal_segment_ids(dir)
                            .map(|ids| ids.iter().any(|&id| id > first_seq))
                            .unwrap_or(false),
                        _ => true,
                    };
                    let chunk = ReplChunk {
                        meta: ReplChunkMeta {
                            file,
                            offset,
                            file_len: read.file_len,
                            sealed,
                            applied: view.applied(),
                            policy_epoch: view.policy_epoch(),
                            retention_watermark: view.retention_watermark().get(),
                        },
                        bytes: read.bytes,
                    };
                    let mut frame = Vec::new();
                    wire::write_frame(&mut frame, &wire::encode_repl_chunk(&chunk))
                        .expect("writing to a Vec cannot fail");
                    conn.pending.push_back(SlotState::Ready(frame));
                }
                Ok(None) => {
                    let message = format!(
                        "{} is gone (pruned or compacted); re-list the manifest",
                        file.file_name()
                    );
                    refuse(conn, shared, ErrorCode::Gone, message);
                }
                Err(e) => push_response(
                    conn,
                    &Response::Error {
                        code: ErrorCode::Internal,
                        role: Some(shared.role),
                        message: format!("reading {}: {e}", file.file_name()),
                    },
                ),
            }
        }
    }
}

fn history_error(e: HistoryError, role: Option<ServerRole>) -> Response {
    let code = match e {
        HistoryError::Unarchived { .. } => ErrorCode::Unarchived,
        HistoryError::Io(_) => ErrorCode::Internal,
    };
    Response::Error {
        code,
        role,
        message: e.to_string(),
    }
}

fn status_of(shared: &Shared) -> ServerStatus {
    let view = &shared.view;
    let (archive_covered_to, archive_error) = match view.archive_covered_to() {
        Ok(covered) => (covered, None),
        // An unreadable archive must not masquerade as the healthy
        // "nothing archived yet" zero.
        Err(e) => (0, Some(e.to_string())),
    };
    ServerStatus {
        role: shared.role,
        replica: shared.replica.as_ref().map(|r| r.status(view.applied())),
        events_ingested: view.applied(),
        snapshot_seq: view.last_snapshot_seq(),
        policy_epoch: view.policy_epoch(),
        auth_required: view.engine().policy().wire().required,
        quarantined_events: view.engine().quarantine_len(),
        retention_watermark: view.retention_watermark().get(),
        archive_covered_to,
        archive_error,
        archive_segments_loaded: view.archive_segments_loaded(),
        wal_fsyncs: view.wal_fsyncs(),
        engine: view.engine().status(),
        connections_active: shared.stats.active.load(Ordering::SeqCst),
        connections_total: shared.stats.connections_total.load(Ordering::SeqCst),
        refused_busy: shared.stats.refused_busy.load(Ordering::SeqCst),
        requests_served: shared.stats.requests_served.load(Ordering::SeqCst),
        protocol_errors: shared.stats.protocol_errors.load(Ordering::SeqCst),
        per_connection: locked(shared.stats.per_connection.lock(), "connection stats")
            .iter()
            .map(|(&id, &n)| (id, n))
            .collect(),
        uptime_chronons: shared.started.elapsed().as_secs(),
        snapshot_format_version: ltam_store::SNAPSHOT_VERSION,
    }
}
