//! The follower side of replication: snapshot bootstrap and the WAL
//! tailing loop.
//!
//! ## Protocol
//!
//! Replication is **pull**: a follower polls its primary over the
//! ordinary framed wire protocol
//! ([`ReplRequest::Manifest`](crate::wire::ReplRequest::Manifest) /
//! [`ReplRequest::Fetch`](crate::wire::ReplRequest::Fetch)), so the
//! primary keeps no per-follower state at all — a follower that dies
//! costs it nothing, and any number may tail the same primary.
//!
//! [`bootstrap_follower`] copies the primary's newest snapshot, its
//! archive chain and the WAL segments behind the snapshot into a fresh
//! directory and opens it with the normal [`DurableEngine::open`] path
//! — every CRC and version check crash recovery performs runs against
//! the shipped bytes too, and the policy ops logged since the snapshot
//! are replayed before the follower serves its first frame. From there
//! the replication loop (spawned by `Server::start_follower`) tails the
//! primary's WAL with a [`TailScanner`]: each chunk's verified records
//! go to the follower's own group-commit thread as one
//! [`CommitHandle::commit`] call — the same submission a primary's
//! requests take, and the same `DurableEngine::commit` behind it — so
//! the follower WAL-logs, snapshots, enforces and authenticates exactly
//! like a primary, and the published watermark rises to the applied
//! sequence.
//!
//! ## The never-diverge contract
//!
//! The loop only ever applies bytes that verified (CRC + total record
//! decoding) at the correct cursor — every policy edit among them, as
//! the record the primary logged for it. Everything else parks it: a
//! compacted-away segment sets [`ReplicaState::NeedsBootstrap`];
//! persistent verification faults do the same after a bounded retry
//! (one poll's worth of patience covers an append caught mid-write);
//! transport errors set [`ReplicaState::Disconnected`] and retry
//! forever. A parked or lagging follower keeps serving reads at its
//! watermark — stale is a state, wrong is a bug.
//!
//! The watermark is **monotone**: it starts at the floor the follower
//! was started with (a re-bootstrap passes the previous instance's
//! watermark) and only ever rises with applied events. Until the
//! engine catches back up to the floor, history queries are refused
//! with [`ErrorCode::Stale`] rather
//! than answered from a state older than one this follower already
//! served.

use crate::client::{ClientError, LtamClient};
use crate::wire::{ErrorCode, ReplManifest, ReplicaState, ReplicaStatus};
use ltam_obs::locked;
use ltam_store::replica::{ReplFile, ReplFileId, TailScanner};
use ltam_store::{CommitHandle, DurableEngine, ReadView, RecordOutcome, StoreConfig};
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tunables for a follower's replication loop.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The primary's address (e.g. `"127.0.0.1:4774"`).
    pub primary_addr: String,
    /// How long to sleep once caught up (and between reconnect
    /// attempts). The staleness lag floor.
    pub poll_interval: Duration,
    /// Max WAL bytes fetched per request.
    pub chunk_bytes: u32,
    /// The watermark this follower has already served reads at (0 for
    /// a first bootstrap; a re-bootstrap passes the previous
    /// instance's watermark). History queries are refused with
    /// [`ErrorCode::Stale`] until the
    /// engine catches up to it, and the published watermark never
    /// drops below it.
    pub watermark_floor: u64,
    /// The capability-token secret this follower authenticates its
    /// replication connection with (`None` for an open-wire primary).
    /// A revocation mid-tail surfaces as the primary refusing fetches:
    /// the loop parks [`ReplicaState::Disconnected`] — its *position*
    /// is still good — and resumes monotonically once the operator
    /// re-mints the secret.
    pub token: Option<String>,
}

impl ReplicaConfig {
    /// Defaults against `primary_addr`: 20ms polls, 1MiB chunks, no
    /// floor.
    pub fn new(primary_addr: &str) -> ReplicaConfig {
        ReplicaConfig {
            primary_addr: primary_addr.to_string(),
            poll_interval: Duration::from_millis(20),
            chunk_bytes: 1 << 20,
            watermark_floor: 0,
            token: None,
        }
    }
}

/// Re-fetches of the same faulty cursor before the loop gives up and
/// parks. A chunk read can race an in-flight append (or a rotation)
/// into a transient torn look; a real corruption never heals.
const MAX_FAULT_RETRIES: u32 = 8;

const STATE_CATCHING_UP: u8 = 0;
const STATE_STREAMING: u8 = 1;
const STATE_DISCONNECTED: u8 = 2;
const STATE_NEEDS_BOOTSTRAP: u8 = 3;

/// The replication loop's shared, atomically-published face: the
/// serving threads read it for status and staleness gating.
#[derive(Debug)]
pub(crate) struct ReplicaShared {
    primary_addr: String,
    floor: u64,
    watermark: AtomicU64,
    primary_applied: AtomicU64,
    primary_epoch: AtomicU64,
    state: AtomicU8,
    last_error: Mutex<Option<String>>,
}

impl ReplicaShared {
    pub(crate) fn new(config: &ReplicaConfig, applied: u64) -> ReplicaShared {
        ReplicaShared {
            primary_addr: config.primary_addr.clone(),
            floor: config.watermark_floor,
            watermark: AtomicU64::new(config.watermark_floor.max(applied)),
            primary_applied: AtomicU64::new(0),
            primary_epoch: AtomicU64::new(0),
            state: AtomicU8::new(STATE_CATCHING_UP),
            last_error: Mutex::new(None),
        }
    }

    /// The watermark floor: reads below it are refused, never served.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// The primary this follower tails (for redirect errors).
    pub(crate) fn primary_addr(&self) -> &str {
        &self.primary_addr
    }

    /// Raise the published watermark to `applied` (never lowers it —
    /// `fetch_max`, so monotonicity survives any interleaving).
    fn publish(&self, applied: u64) {
        self.watermark.fetch_max(applied, Ordering::AcqRel);
        self.publish_lag();
    }

    /// Raise what this follower knows of the primary's position to
    /// `applied` / `policy_epoch` (never lowers either).
    fn observe_primary(&self, applied: u64, policy_epoch: u64) {
        self.primary_applied.fetch_max(applied, Ordering::AcqRel);
        self.primary_epoch.fetch_max(policy_epoch, Ordering::AcqRel);
        self.publish_lag();
    }

    /// Refresh the `repl_lag_events` gauge from the two published
    /// counters. Called from both sides of the race (watermark rises,
    /// primary advances) so the gauge tracks whichever moved last.
    fn publish_lag(&self) {
        let primary = self.primary_applied.load(Ordering::Acquire);
        let applied = self.watermark.load(Ordering::Acquire);
        let lag = primary.saturating_sub(applied).min(i64::MAX as u64) as i64;
        ltam_obs::gauge!(
            "repl_lag_events",
            "Events the primary has applied that this follower has not (its replication lag)"
        )
        .set(lag);
    }

    fn set_state(&self, state: u8, error: Option<String>) {
        let prev = self.state.swap(state, Ordering::AcqRel);
        if prev != state {
            let name = match state {
                STATE_STREAMING => "streaming",
                STATE_DISCONNECTED => "disconnected",
                STATE_NEEDS_BOOTSTRAP => "needs_bootstrap",
                _ => "catching_up",
            };
            // Transitions are rare; the per-call registry lock is fine.
            ltam_obs::registry()
                .counter(
                    "repl_state_transitions_total",
                    &[("state", name)],
                    "Replication-loop state transitions, by the state entered",
                )
                .inc();
        }
        if error.is_some() || state == STATE_STREAMING || state == STATE_CATCHING_UP {
            *locked(self.last_error.lock(), "replica error") = error;
        }
    }

    pub(crate) fn status(&self, applied: u64) -> ReplicaStatus {
        ReplicaStatus {
            primary_addr: self.primary_addr.clone(),
            watermark: self.watermark.load(Ordering::Acquire),
            applied,
            primary_applied: self.primary_applied.load(Ordering::Acquire),
            primary_epoch: self.primary_epoch.load(Ordering::Acquire),
            state: match self.state.load(Ordering::Acquire) {
                STATE_STREAMING => ReplicaState::Streaming,
                STATE_DISCONNECTED => ReplicaState::Disconnected,
                STATE_NEEDS_BOOTSTRAP => ReplicaState::NeedsBootstrap,
                _ => ReplicaState::CatchingUp,
            },
            last_error: locked(self.last_error.lock(), "replica error").clone(),
        }
    }
}

fn replication_error(e: ClientError) -> io::Error {
    io::Error::other(format!("replication: {e}"))
}

/// Fetch one immutable store file from the primary into `dir` through
/// the store's atomic replace ([`ltam_store::whole::replace`]): a killed
/// bootstrap leaves no half-file a later open could mistake for the real
/// thing, only a temp that open deletes.
fn fetch_file(
    client: &mut LtamClient,
    dir: &Path,
    file: ReplFile,
    chunk_bytes: u32,
    fsync: bool,
) -> io::Result<()> {
    let name = file.file.file_name();
    ltam_store::whole::replace(dir, &name, fsync, |out| {
        let mut offset = 0u64;
        loop {
            let chunk = client
                .repl_fetch(file.file, offset, chunk_bytes)
                .map_err(replication_error)?;
            if chunk.bytes.is_empty() {
                break;
            }
            out.write_all(&chunk.bytes)?;
            offset += chunk.bytes.len() as u64;
        }
        if offset < file.len {
            return Err(io::Error::other(format!(
                "short transfer of {name}: got {offset} of {} bytes",
                file.len
            )));
        }
        Ok(())
    })
    .map(drop)
}

/// Bootstrap a follower store in `dir` from the primary at
/// `primary_addr`: fetch the newest snapshot, the archive chain and the
/// WAL from the snapshot's cover point on, then open the directory
/// through the normal recovery path (which re-verifies every shipped
/// byte and replays the WAL tail, policy ops included). The returned
/// engine is ready for `Server::start_follower`.
///
/// `dir` must not already hold a store; the store config's shard
/// count is irrelevant — the follower inherits the shard count baked
/// into the snapshot.
pub fn bootstrap_follower(
    dir: &Path,
    primary_addr: &str,
    config: StoreConfig,
) -> io::Result<DurableEngine> {
    bootstrap_follower_as(dir, primary_addr, None, config)
}

/// [`bootstrap_follower`] with a replication capability token: the
/// fetch connection authenticates with `token`'s secret before asking
/// for the manifest — required against a primary whose wire demands
/// auth. The same secret then goes in [`ReplicaConfig::token`] for the
/// tailing loop.
pub fn bootstrap_follower_as(
    dir: &Path,
    primary_addr: &str,
    token: Option<&str>,
    config: StoreConfig,
) -> io::Result<DurableEngine> {
    fs::create_dir_all(dir)?;
    if ltam_store::replica::newest_snapshot(dir)?.is_some()
        || !ltam_store::replica::wal_segment_ids(dir)?.is_empty()
    {
        return Err(io::Error::other(format!(
            "{} already holds a store; bootstrap wants a fresh directory",
            dir.display()
        )));
    }
    let mut client = LtamClient::connect(primary_addr)?;
    if let Some(token) = token {
        client.hello(token).map_err(replication_error)?;
    }
    let manifest = client.repl_manifest().map_err(replication_error)?;
    let Some(snapshot) = manifest.snapshot else {
        return Err(io::Error::other(
            "primary has no snapshot to bootstrap from",
        ));
    };
    let chunk_bytes = 1 << 20;
    for archive in &manifest.archives {
        fetch_file(&mut client, dir, *archive, chunk_bytes, config.fsync)?;
    }
    fetch_file(&mut client, dir, snapshot, chunk_bytes, config.fsync)?;
    // The WAL from the snapshot's cover point on: policy edits since
    // the snapshot exist only there, and a follower must not come up
    // — and start answering frames — under an older policy
    // (an open wire, a since-revoked token) than the primary's. A
    // record torn by a racing append is truncated by the open below and
    // re-fetched by the tailing loop (`len: 0`: a segment that may
    // still be growing has no expected length to check against). The
    // primary's epoch marker is *not* copied: it describes the
    // primary's acks, and the follower writes its own as it applies ops.
    let ReplFileId::Snapshot { seq: covered, .. } = snapshot.file else {
        return Err(io::Error::other("manifest snapshot is not a snapshot id"));
    };
    let from = manifest.wal_segments.iter().rposition(|&s| s <= covered);
    for &first_seq in &manifest.wal_segments[from.unwrap_or(0)..] {
        let file = ReplFileId::WalSegment { first_seq };
        let file = ReplFile { file, len: 0 };
        fetch_file(&mut client, dir, file, chunk_bytes, config.fsync)?;
    }
    let (engine, _alerts, report) = DurableEngine::open(dir, config)?;
    if let Some(e) = report.archive_error {
        return Err(io::Error::other(format!(
            "bootstrapped archive chain does not scan: {e}"
        )));
    }
    ltam_obs::counter!(
        "repl_bootstraps_total",
        "Successful follower bootstraps performed by this process"
    )
    .inc();
    Ok(engine)
}

/// Sleep up to `d`, waking early when `stop` trips.
fn sleep_while(stop: &impl Fn() -> bool, d: Duration) {
    let deadline = Instant::now() + d;
    while !stop() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The follower's replication thread body (spawned by
/// `Server::start_follower`). Polls the primary, verifies and applies
/// WAL records through `commit`, publishes the watermark in `shared`.
/// Returns when `stop` trips.
pub(crate) fn replicate_loop(
    stop: impl Fn() -> bool,
    view: ReadView,
    commit: CommitHandle,
    shared: &ReplicaShared,
    config: &ReplicaConfig,
) {
    let mut client: Option<LtamClient> = None;
    let mut scanner: Option<TailScanner> = None;
    let mut faults = 0u32;
    shared.publish(view.applied());
    while !stop() {
        // Connect (or reuse the live connection).
        let mut c = match client.take() {
            Some(c) => c,
            None => match LtamClient::connect(&config.primary_addr) {
                Ok(mut c) => {
                    // A bounded read timeout keeps shutdown prompt even
                    // against a hung primary.
                    c.set_read_timeout(Some(Duration::from_secs(1)));
                    if let Some(token) = &config.token {
                        // Authenticate before the first manifest poll.
                        // A refusal (revoked, expired, not yet minted)
                        // is a *connection* problem, not a position
                        // problem: park Disconnected and retry — once
                        // the operator re-mints the secret, tailing
                        // resumes from the same monotone cursor.
                        if let Err(e) = c.hello(token) {
                            shared
                                .set_state(STATE_DISCONNECTED, Some(format!("authenticate: {e}")));
                            sleep_while(&stop, config.poll_interval);
                            continue;
                        }
                    }
                    c
                }
                Err(e) => {
                    shared.set_state(STATE_DISCONNECTED, Some(format!("connect: {e}")));
                    sleep_while(&stop, config.poll_interval);
                    continue;
                }
            },
        };
        // One manifest poll positions (or re-positions) the tail.
        let manifest: ReplManifest = match c.repl_manifest() {
            Ok(m) => m,
            Err(e) => {
                shared.set_state(STATE_DISCONNECTED, Some(format!("manifest: {e}")));
                sleep_while(&stop, config.poll_interval);
                continue; // client dropped; reconnect next pass
            }
        };
        shared.observe_primary(manifest.applied, manifest.policy_epoch);
        if scanner.is_none() {
            scanner = TailScanner::start(view.applied(), &manifest.wal_segments);
            if scanner.is_none() {
                shared.set_state(
                    STATE_NEEDS_BOOTSTRAP,
                    Some(format!(
                        "primary's WAL no longer covers sequence {} (compacted); re-bootstrap required",
                        view.applied()
                    )),
                );
                client = Some(c);
                sleep_while(&stop, config.poll_interval.max(Duration::from_millis(50)));
                continue;
            }
        }
        // Tail until caught up to the primary's tail (or a fault
        // parks us), then sleep one poll and re-poll the manifest.
        // The breaks say whether the connection survives the pause.
        let keep_client = loop {
            if stop() {
                break false;
            }
            let (segment, offset) = {
                let s = scanner.as_ref().expect("scanner positioned above");
                (s.segment(), s.offset())
            };
            let fetched = {
                let _span = ltam_obs::timed!(
                    "repl_fetch_seconds",
                    "Round-trip time of one WAL chunk fetch from the primary"
                );
                c.repl_fetch(
                    ReplFileId::WalSegment { first_seq: segment },
                    offset,
                    config.chunk_bytes,
                )
            };
            let chunk = match fetched {
                Ok(chunk) => chunk,
                Err(ClientError::Server {
                    code: ErrorCode::Gone,
                    message,
                    ..
                }) => {
                    // The segment vanished under us (compaction). Try to
                    // re-position off the next manifest; if nothing
                    // covers our sequence anymore, that pass parks us.
                    scanner = None;
                    shared.set_state(STATE_CATCHING_UP, Some(format!("segment gone: {message}")));
                    break true;
                }
                Err(e) => {
                    shared.set_state(STATE_DISCONNECTED, Some(format!("fetch: {e}")));
                    sleep_while(&stop, config.poll_interval);
                    break false; // reconnect via the outer loop
                }
            };
            shared.observe_primary(chunk.meta.applied, chunk.meta.policy_epoch);
            let step = scanner.as_mut().expect("scanner positioned above").apply(
                &chunk.bytes,
                chunk.meta.file_len,
                chunk.meta.sealed,
            );
            // Commit the chunk's records as what they *were* — trusted
            // batches through enforcement, quarantine records onto the
            // follower's own quarantine ledger, policy ops as epoch
            // swaps at the same sequence — in **one** submission: one
            // queue hop, one WAL write, one fsync, one shard dispatch
            // per run of trusted records (a primary serving swipes
            // emits one-event records by the hundred thousand). The
            // submission is all-or-nothing at the WAL, so a failure can
            // never leave a later record applied behind an earlier one
            // that was not.
            if !step.records.is_empty() {
                let committed = commit.commit(step.records).and_then(|outcomes| {
                    // An op whose acked-epoch marker did not land is
                    // applied but is still a store failure to report.
                    outcomes.into_iter().try_for_each(|outcome| match outcome {
                        RecordOutcome::Policy(Err(e)) => Err(e),
                        _ => Ok(()),
                    })
                });
                if let Err(e) = committed {
                    // The *follower's* own store failed — nothing wrong
                    // with the shipped bytes. The scanner cursor is now
                    // ahead of the applied state, so it must be rebuilt.
                    shared.set_state(STATE_DISCONNECTED, Some(format!("local commit: {e}")));
                    scanner = None;
                    sleep_while(&stop, config.poll_interval);
                    break true;
                }
                // The meta can lag the records it came with: the
                // primary appends to its WAL before it publishes the
                // counters that count them. Whatever this follower has
                // applied from the primary, the primary had applied.
                shared.observe_primary(view.applied(), view.policy_epoch());
                shared.publish(view.applied());
            }
            if let Some(fault) = step.fault {
                faults += 1;
                if faults > MAX_FAULT_RETRIES {
                    shared.set_state(
                        STATE_NEEDS_BOOTSTRAP,
                        Some(format!(
                            "shipped WAL bytes fail verification persistently ({fault}); refusing to apply"
                        )),
                    );
                    break true;
                }
                // Transient torn look (append or rotation in flight):
                // re-fetch the same cursor after a beat.
                sleep_while(&stop, config.poll_interval.min(Duration::from_millis(10)));
                continue;
            }
            faults = 0;
            if view.applied() >= chunk.meta.applied {
                shared.set_state(STATE_STREAMING, None);
            } else {
                shared.set_state(STATE_CATCHING_UP, None);
            }
            let at_tail = !chunk.meta.sealed
                && scanner
                    .as_ref()
                    .is_some_and(|s| s.offset() >= chunk.meta.file_len);
            if at_tail {
                sleep_while(&stop, config.poll_interval);
                break true;
            }
        };
        if keep_client {
            client = Some(c);
        }
        // A parked follower (NeedsBootstrap) re-polls slowly; it still
        // reports status, it just cannot make progress on its own.
        if shared.state.load(Ordering::Acquire) == STATE_NEEDS_BOOTSTRAP {
            sleep_while(&stop, config.poll_interval.max(Duration::from_millis(50)));
        }
    }
}
