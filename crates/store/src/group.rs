//! [`GroupCommit`] — a dedicated commit thread that coalesces ingest
//! batches from many submitters into one WAL write + one `fsync`.
//!
//! ## Why
//!
//! `DurableEngine::ingest` pays one `fsync` per batch. That is the
//! right call shape for a single in-process writer, but a serving tier
//! has *many* concurrent submitters (one per connection), and giving
//! each its own fsync serializes the whole tier on the disk's flush
//! latency. Group commit is the classic fix: submitters queue, a
//! single commit thread drains whatever has accumulated, appends every
//! batch under **one** WAL write + one `fsync`
//! ([`DurableEngine::commit_group`]), and then acks every waiter. Under
//! load, the queue is never empty when the fsync returns, so the cost
//! amortizes across more and more batches exactly when it matters.
//! The flush is not the only thing a group shares: `commit_group`
//! enforces the whole group through **one** shard dispatch
//! (`ShardedEngine::ingest_group`), so a run of one-event batches pays
//! one worker hop per shard, not one per batch.
//!
//! ## Ordering and atomicity
//!
//! Batches commit and are enforced in submission (queue) order; each
//! batch stays its own WAL record, so it is all-or-nothing across a
//! crash exactly as if it had been ingested alone. A waiter is acked
//! only after its batch's fsync returned — never before durability —
//! and acks go out **before** maintenance (retention, snapshot
//! cadence), so a snapshot stall delays the *next* group, not the acks
//! of the one already durable.
//!
//! ## Shutdown
//!
//! Dropping every [`CommitHandle`] closes the queue; the commit thread
//! drains what is left, runs a final maintenance pass, and parks the
//! engine for [`GroupCommit::shutdown`] to reclaim.

use crate::durable::DurableEngine;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{BatchOutcome, Event, PolicyOp, PolicyOutcome};
use std::io;
use std::thread::JoinHandle;

/// Tunables for a [`GroupCommit`] thread.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Stop draining the queue once a group holds this many **events**
    /// (not batches). Caps both ack latency under a flood and the size
    /// of a single WAL write; the group that triggers the cap still
    /// commits in full.
    pub max_group_events: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_group_events: 32 * 1024,
        }
    }
}

/// One queued unit of durable work. Everything that mutates the engine
/// flows through this queue — ingest batches, quarantine batches from
/// below-trust sensors, and policy ops — so all three commit in
/// submission order on the single commit thread, and policy ops are
/// serialized with the ingest they govern.
enum Job {
    /// A trusted ingest batch and the completion to run after its
    /// fsync (or failure).
    Ingest {
        events: Vec<Event>,
        done: Box<dyn FnOnce(io::Result<BatchOutcome>) + Send>,
        /// When the batch entered the queue — the start of its
        /// `store_group_queue_wait_seconds` span.
        queued_at: std::time::Instant,
    },
    /// Several trusted ingest batches submitted as one unit: they join
    /// the surrounding run's single `commit_group` call side by side,
    /// so either all of them reach the WAL or none does.
    Run {
        batches: Vec<Vec<Event>>,
        done: Box<dyn FnOnce(io::Result<Vec<BatchOutcome>>) + Send>,
        queued_at: std::time::Instant,
    },
    /// Events from a below-trust-threshold sensor, bound for the
    /// quarantine ledger (durable, but never enforced).
    Quarantine {
        source: SubjectId,
        level: u8,
        events: Vec<Event>,
        done: Box<dyn FnOnce(io::Result<usize>) + Send>,
    },
    /// A policy op (admin or situation edit), logged as its own WAL
    /// record.
    Policy {
        op: PolicyOp,
        done: Box<dyn FnOnce(io::Result<PolicyOutcome>) + Send>,
    },
}

impl Job {
    /// Events this job contributes toward the group-size cap.
    fn event_count(&self) -> usize {
        match self {
            Job::Ingest { events, .. } | Job::Quarantine { events, .. } => events.len(),
            Job::Run { batches, .. } => batches.iter().map(Vec::len).sum(),
            // One WAL sequence number, like a one-event batch.
            Job::Policy { .. } => 1,
        }
    }

    /// The trusted ingest batches this job carries (none for quarantine
    /// and policy jobs, which commit on their own).
    fn ingest_batches(&self) -> &[Vec<Event>] {
        match self {
            Job::Ingest { events, .. } => std::slice::from_ref(events),
            Job::Run { batches, .. } => batches,
            Job::Quarantine { .. } | Job::Policy { .. } => &[],
        }
    }

    /// Does this job join a run of ingest batches (one `commit_group`)?
    fn joins_run(&self) -> bool {
        matches!(self, Job::Ingest { .. } | Job::Run { .. })
    }
}

/// A cloneable submission handle onto a [`GroupCommit`] thread. Every
/// connection (or worker) holds one; dropping the last one shuts the
/// commit thread down.
#[derive(Clone)]
pub struct CommitHandle {
    tx: Sender<Job>,
}

impl std::fmt::Debug for CommitHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitHandle").finish_non_exhaustive()
    }
}

impl CommitHandle {
    /// Queue a batch and return immediately; `done` runs on the commit
    /// thread once the batch is durable (or failed). Keep the callback
    /// cheap — it delays every later waiter in the group — typically a
    /// channel send plus a waker poke.
    ///
    /// Errors only if the commit thread is gone (shut down), handing
    /// the events back.
    pub fn submit(
        &self,
        events: Vec<Event>,
        done: impl FnOnce(io::Result<BatchOutcome>) + Send + 'static,
    ) -> Result<(), Vec<Event>> {
        self.tx
            .send(Job::Ingest {
                events,
                done: Box::new(done),
                queued_at: std::time::Instant::now(),
            })
            .map_err(|e| match e.0 {
                Job::Ingest { events, .. } => events,
                _ => unreachable!("send returns the job it was given"),
            })
    }

    /// Queue a batch and block until it is durable — the convenience
    /// shape for tests and non-event-loop callers.
    pub fn commit(&self, events: Vec<Event>) -> io::Result<BatchOutcome> {
        let mut outcomes = self.commit_run(vec![events])?;
        Ok(outcomes.pop().expect("one batch in, one outcome out"))
    }

    /// Queue several batches as **one** queue entry and block until
    /// they are durable. The batches stay separate WAL records with
    /// separate outcomes (returned in order), but they ride one
    /// `commit_group` call — one WAL write, one fsync, one shard
    /// dispatch — and so are all-or-nothing at the WAL: `Err` means
    /// none of them was logged or applied. That is what a caller
    /// replaying an ordered stream (a follower tailing its primary)
    /// needs; separately submitted batches could not promise it, since
    /// a later one may succeed after an earlier one failed.
    pub fn commit_run(&self, batches: Vec<Vec<Event>>) -> io::Result<Vec<BatchOutcome>> {
        let (tx, rx) = unbounded();
        self.tx
            .send(Job::Run {
                batches,
                done: Box::new(move |result| {
                    let _ = tx.send(result);
                }),
                queued_at: std::time::Instant::now(),
            })
            .map_err(|_| io::Error::other("commit thread is shut down"))?;
        rx.recv()
            .unwrap_or_else(|_| Err(io::Error::other("commit thread died before acking")))
    }

    /// Queue a quarantine batch (events from a below-trust sensor);
    /// `done` runs once the batch is durable on the quarantine ledger.
    pub fn submit_quarantine(
        &self,
        source: SubjectId,
        level: u8,
        events: Vec<Event>,
        done: impl FnOnce(io::Result<usize>) + Send + 'static,
    ) -> Result<(), Vec<Event>> {
        self.tx
            .send(Job::Quarantine {
                source,
                level,
                events,
                done: Box::new(done),
            })
            .map_err(|e| match e.0 {
                Job::Quarantine { events, .. } => events,
                _ => unreachable!("send returns the job it was given"),
            })
    }

    /// Queue a quarantine batch and block until it is durable.
    pub fn commit_quarantine(
        &self,
        source: SubjectId,
        level: u8,
        events: Vec<Event>,
    ) -> io::Result<usize> {
        let (tx, rx) = unbounded();
        self.submit_quarantine(source, level, events, move |result| {
            let _ = tx.send(result);
        })
        .map_err(|_| io::Error::other("commit thread is shut down"))?;
        rx.recv()
            .unwrap_or_else(|_| Err(io::Error::other("commit thread died before acking")))
    }

    /// Queue a policy op; `done` runs once it is WAL-logged and applied.
    /// It commits in queue position, so a revocation or a mode declared
    /// before a batch governs that batch.
    pub fn submit_policy(
        &self,
        op: PolicyOp,
        done: impl FnOnce(io::Result<PolicyOutcome>) + Send + 'static,
    ) -> Result<(), Box<PolicyOp>> {
        self.tx
            .send(Job::Policy {
                op,
                done: Box::new(done),
            })
            .map_err(|e| match e.0 {
                Job::Policy { op, .. } => Box::new(op),
                _ => unreachable!("send returns the job it was given"),
            })
    }

    /// Queue a policy op and block until it is durable.
    pub fn policy(&self, op: PolicyOp) -> io::Result<PolicyOutcome> {
        let (tx, rx) = unbounded();
        self.submit_policy(op, move |result| {
            let _ = tx.send(result);
        })
        .map_err(|_| io::Error::other("commit thread is shut down"))?;
        rx.recv()
            .unwrap_or_else(|_| Err(io::Error::other("commit thread died before acking")))
    }
}

/// The owner of a running commit thread (see the [module docs](self)).
#[derive(Debug)]
pub struct GroupCommit {
    join: JoinHandle<DurableEngine>,
    /// Kept so `handle()` can mint more; dropped by `shutdown`.
    handle: CommitHandle,
}

impl GroupCommit {
    /// Move `engine` onto a new commit thread and return the owner plus
    /// the first submission handle.
    pub fn start(engine: DurableEngine, config: GroupCommitConfig) -> (GroupCommit, CommitHandle) {
        let (tx, rx) = unbounded::<Job>();
        let join = std::thread::Builder::new()
            .name("ltam-commit".into())
            .spawn(move || commit_loop(engine, rx, config))
            .expect("spawn commit thread");
        let handle = CommitHandle { tx };
        (
            GroupCommit {
                join,
                handle: handle.clone(),
            },
            handle,
        )
    }

    /// Mint another submission handle.
    pub fn handle(&self) -> CommitHandle {
        self.handle.clone()
    }

    /// Close the queue, drain every batch already submitted (each still
    /// acked after its fsync), and hand the engine back. Outstanding
    /// [`CommitHandle`] clones keep the queue open — drop them first or
    /// this blocks until they go away.
    pub fn shutdown(self) -> io::Result<DurableEngine> {
        drop(self.handle);
        self.join
            .join()
            .map_err(|_| io::Error::other("commit thread panicked"))
    }
}

fn commit_loop(
    mut engine: DurableEngine,
    rx: Receiver<Job>,
    config: GroupCommitConfig,
) -> DurableEngine {
    while let Ok(first) = rx.recv() {
        let mut total = first.event_count();
        let mut jobs = vec![first];
        // Natural batching: drain whatever queued while the previous
        // group's fsync ran. No linger timer — waiting for more work
        // when the disk is idle only adds latency; under load the queue
        // is never empty here.
        while total < config.max_group_events {
            match rx.try_recv() {
                Ok(job) => {
                    total += job.event_count();
                    jobs.push(job);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        // The group is formed: its shape and each member's time-in-queue
        // are the observables PR 6's p99 hunt wanted and lacked.
        if !ltam_obs::disabled() {
            let now = std::time::Instant::now();
            let wait = ltam_obs::histogram!(
                "store_group_queue_wait_seconds",
                "Time an ingest batch (or a follower's run of them) waited in the group-commit \
                 queue before its group formed",
                SecondsFromMicros
            );
            for job in &jobs {
                if let Job::Ingest { queued_at, .. } | Job::Run { queued_at, .. } = job {
                    wait.observe(now.duration_since(*queued_at).as_micros() as u64);
                }
            }
        }
        ltam_obs::counter!(
            "store_group_commits_total",
            "Commit groups flushed (one WAL write + one fsync each)"
        )
        .inc();
        ltam_obs::histogram!(
            "store_group_events",
            "Events coalesced into one commit group",
            None
        )
        .observe(total as u64);
        ltam_obs::histogram!(
            "store_group_batches",
            "Ingest batches coalesced into one commit group",
            None
        )
        .observe(jobs.len() as u64);
        // Walk the group in submission order. Consecutive ingest jobs
        // coalesce into one `commit_group` call (one WAL write, one
        // fsync, one shard dispatch); quarantine and policy jobs commit
        // where they stand so ordering against neighboring ingest is
        // preserved — a revocation submitted before a batch governs
        // that batch.
        let mut iter = jobs.into_iter().peekable();
        while let Some(job) = iter.next() {
            match job {
                Job::Ingest { .. } | Job::Run { .. } => {
                    let mut run = vec![job];
                    while iter.peek().is_some_and(Job::joins_run) {
                        run.push(iter.next().expect("peeked"));
                    }
                    let batches: Vec<&[Event]> = run
                        .iter()
                        .flat_map(|j| j.ingest_batches().iter().map(Vec::as_slice))
                        .collect();
                    let result = engine.commit_group(&batches);
                    match result {
                        Ok(outcomes) => {
                            debug_assert_eq!(outcomes.len(), batches.len());
                            let mut outcomes = outcomes.into_iter();
                            for job in run {
                                match job {
                                    Job::Ingest { done, .. } => {
                                        done(Ok(outcomes.next().expect("one outcome per batch")))
                                    }
                                    Job::Run { batches, done, .. } => {
                                        done(Ok(outcomes.by_ref().take(batches.len()).collect()))
                                    }
                                    _ => unreachable!("run holds only ingest jobs"),
                                }
                            }
                        }
                        Err(e) => {
                            // The run never reached the WAL: every
                            // submitter gets the same verdict and may
                            // retry.
                            let verdict = || io::Error::new(e.kind(), e.to_string());
                            for job in run {
                                match job {
                                    Job::Ingest { done, .. } => done(Err(verdict())),
                                    Job::Run { done, .. } => done(Err(verdict())),
                                    _ => unreachable!("run holds only ingest jobs"),
                                }
                            }
                        }
                    }
                }
                Job::Quarantine {
                    source,
                    level,
                    events,
                    done,
                } => done(engine.commit_quarantine(source, level, &events)),
                Job::Policy { op, done } => done(engine.apply_policy(&op)),
            }
        }
        // Acks are out; now the cadence work. A snapshot's encode and
        // write are backgrounded, but its imaging is not: it clones the
        // whole policy (every authorization row) and every shard's live
        // state on this thread, and the next group waits behind it.
        engine.maintain();
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::StoreConfig;
    use crate::scratch::ScratchDir;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_core::subject::SubjectId;
    use ltam_engine::batch::PolicyCore;
    use ltam_graph::examples::ntu_campus;
    use ltam_time::{Interval, Time};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn store(dir: &std::path::Path, fsync: bool) -> DurableEngine {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        for s in 0..64u32 {
            core.add_authorization(
                Authorization::new(
                    Interval::ALL,
                    Interval::ALL,
                    SubjectId(s),
                    cais,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let config = StoreConfig {
            snapshot_every: 0,
            fsync,
            ..StoreConfig::default()
        };
        DurableEngine::create(dir, core, 2, config).unwrap().0
    }

    fn request(t: u64, s: u32) -> Event {
        let cais = ntu_campus().cais;
        Event::Request {
            time: Time(t),
            subject: SubjectId(s),
            location: cais,
        }
    }

    #[test]
    fn concurrent_submitters_all_commit_with_far_fewer_fsyncs() {
        let dir = ScratchDir::new("group-basic");
        let engine = store(dir.path(), true);
        let fsyncs_before = engine.wal_fsyncs();
        let (gc, handle) = GroupCommit::start(engine, GroupCommitConfig::default());
        let submitters: Vec<_> = (0..8)
            .map(|thread| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let out = h.commit(vec![request(i, thread)]).unwrap();
                        assert_eq!(out.granted, 1);
                    }
                })
            })
            .collect();
        for t in submitters {
            t.join().unwrap();
        }
        drop(handle);
        let engine = gc.shutdown().unwrap();
        assert_eq!(engine.applied(), 200);
        let fsyncs = engine.wal_fsyncs() - fsyncs_before;
        assert!(
            fsyncs < 200,
            "200 one-event batches from 8 threads must share fsyncs (got {fsyncs})"
        );
    }

    #[test]
    fn acks_preserve_submission_order_and_outcomes_line_up() {
        let dir = ScratchDir::new("group-order");
        let engine = store(dir.path(), false);
        let (gc, handle) = GroupCommit::start(engine, GroupCommitConfig::default());
        let acked = Arc::new(AtomicUsize::new(0));
        let mut ranks = Vec::new();
        // One request in the middle is from a subject nobody authorized:
        // the group is applied through one shard dispatch, and that
        // batch alone must come back denied.
        const DENIED: u64 = 25;
        for i in 0..50u64 {
            let acked = Arc::clone(&acked);
            let (tx, rx) = unbounded();
            let subject = if i == DENIED { 999 } else { (i % 4) as u32 };
            handle
                .submit(vec![request(i, subject)], move |result| {
                    let rank = acked.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send((rank, result.unwrap().granted));
                })
                .unwrap();
            ranks.push(rx);
        }
        for (i, rx) in ranks.into_iter().enumerate() {
            let (rank, granted) = rx.recv().unwrap();
            assert_eq!(rank, i, "acks ran in submission order");
            assert_eq!(granted, usize::from(i as u64 != DENIED), "batch {i}");
        }
        drop(handle);
        let engine = gc.shutdown().unwrap();
        assert_eq!(engine.applied(), 50);
    }

    #[test]
    fn a_run_is_one_queue_entry_with_one_outcome_per_batch() {
        let dir = ScratchDir::new("group-run");
        let engine = store(dir.path(), true);
        let fsyncs_before = engine.wal_fsyncs();
        let (gc, handle) = GroupCommit::start(engine, GroupCommitConfig::default());
        // Four batches: the second denied, the third empty.
        let outcomes = handle
            .commit_run(vec![
                vec![request(1, 0), request(2, 1)],
                vec![request(3, 999)],
                vec![],
                vec![request(4, 2)],
            ])
            .unwrap();
        let shape: Vec<_> = outcomes
            .iter()
            .map(|o| (o.processed, o.granted, o.denied))
            .collect();
        assert_eq!(shape, [(2, 2, 0), (1, 0, 1), (0, 0, 0), (1, 1, 0)]);
        drop(handle);
        let engine = gc.shutdown().unwrap();
        assert_eq!(engine.applied(), 4);
        assert_eq!(engine.wal_fsyncs() - fsyncs_before, 1, "one run, one flush");
    }

    #[test]
    fn shutdown_drains_queued_batches_before_returning_the_engine() {
        let dir = ScratchDir::new("group-drain");
        let engine = store(dir.path(), false);
        let (gc, handle) = GroupCommit::start(engine, GroupCommitConfig::default());
        for i in 0..100u64 {
            handle.submit(vec![request(i, 0)], drop).unwrap();
        }
        drop(handle);
        let engine = gc.shutdown().unwrap();
        assert_eq!(engine.applied(), 100, "nothing queued is dropped");
    }
}
