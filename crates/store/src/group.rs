//! [`GroupCommit`] — a dedicated commit thread that coalesces records
//! from many submitters into one WAL write + one `fsync`.
//!
//! ## Why
//!
//! `DurableEngine::ingest` pays one `fsync` per batch. That is the
//! right call shape for a single in-process writer, but a serving tier
//! has *many* concurrent submitters (one per connection), and giving
//! each its own fsync serializes the whole tier on the disk's flush
//! latency. Group commit is the classic fix: submitters queue, a
//! single commit thread drains whatever has accumulated, commits every
//! record of every queued job in **one** [`DurableEngine::commit`] call
//! — one WAL write, one `fsync`, and one shard dispatch
//! (`ShardedEngine::ingest_group`) per run of event batches, so a run
//! of one-event batches pays one worker hop per shard, not one per
//! batch — and then acks every waiter. Under load, the queue is never
//! empty when the fsync returns, so the cost amortizes across more and
//! more records exactly when it matters.
//!
//! ## Ordering and atomicity
//!
//! Everything that mutates the engine flows through this queue as
//! [`WalRecord`]s — trusted batches, quarantine batches from
//! below-trust sensors, policy ops — and is committed and applied in
//! submission (queue) order on the single commit thread, so a
//! revocation or a mode declaration queued before a batch governs that
//! batch. Each record stays its own WAL record, so it is all-or-nothing
//! across a crash exactly as if it had been committed alone; a *job's*
//! records share one group, so `Err` means none of them (nor anything
//! else in the group) reached the WAL. A waiter is acked only after its
//! group's fsync returned — never before durability — and acks go out
//! **before** maintenance (retention, snapshot cadence), so a snapshot
//! stall delays the *next* group, not the acks of the one already
//! durable.
//!
//! ## Shutdown
//!
//! Dropping every [`CommitHandle`] closes the queue; the commit thread
//! drains what is left, runs a final maintenance pass, and parks the
//! engine for [`GroupCommit::shutdown`] to reclaim.

use crate::codec::WalRecord;
use crate::durable::{DurableEngine, RecordOutcome};
use crate::wal::WalBatch;
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

/// Stop draining the queue once a group holds this many **events**
/// (sequence numbers, not batches). Caps both ack latency under a flood
/// and the size of a single WAL write; the job that crosses the cap
/// still commits in full with its group.
const MAX_GROUP_EVENTS: u64 = 32 * 1024;

/// What a job's submitter gets back: one outcome per record it
/// submitted, in order — or the one error that kept the whole group out
/// of the WAL.
type Done = Box<dyn FnOnce(io::Result<Vec<RecordOutcome>>) + Send>;

/// One queued unit of durable work: the records one submitter wants
/// committed together, and the completion to run after their fsync (or
/// failure).
struct Job {
    records: Vec<WalRecord>,
    done: Done,
    /// When the job entered the queue — the start of its
    /// `store_group_queue_wait_seconds` span.
    queued_at: std::time::Instant,
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
    /// Queue `records` as **one** queue entry and return immediately;
    /// `done` runs on the commit thread once they are durable and
    /// applied (one outcome per record, in order) or failed. Keep the
    /// callback cheap — it delays every later waiter in the group —
    /// typically a channel send plus a waker poke.
    ///
    /// The records stay separate WAL records but ride one
    /// [`DurableEngine::commit`] call, so they are all-or-nothing at
    /// the WAL: `Err` means none of them was logged or applied.
    /// Separately submitted records could not promise that, since a
    /// later one may succeed after an earlier one failed.
    ///
    /// Errors only if the commit thread is gone (shut down), handing
    /// the records back.
    pub fn submit(
        &self,
        records: Vec<WalRecord>,
        done: impl FnOnce(io::Result<Vec<RecordOutcome>>) + Send + 'static,
    ) -> Result<(), Vec<WalRecord>> {
        self.tx
            .send(Job {
                records,
                done: Box::new(done),
                queued_at: std::time::Instant::now(),
            })
            .map_err(|e| e.0.records)
    }

    /// [`CommitHandle::submit`], blocking until the records are durable
    /// — the shape for callers replaying an ordered stream (a follower
    /// tailing its primary), tests and other non-event-loop callers.
    pub fn commit(&self, records: Vec<WalRecord>) -> io::Result<Vec<RecordOutcome>> {
        let (tx, rx) = channel();
        self.submit(records, move |result| {
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
}

impl GroupCommit {
    /// Move `engine` onto a new commit thread and return the owner plus
    /// the submission handle (clone it for more submitters).
    pub fn start(engine: DurableEngine) -> (GroupCommit, CommitHandle) {
        let (tx, rx) = channel::<Job>();
        let join = std::thread::Builder::new()
            .name("ltam-commit".into())
            .spawn(move || commit_loop(engine, rx))
            .expect("spawn commit thread");
        (GroupCommit { join }, CommitHandle { tx })
    }

    /// Wait for the queue to close, drain every batch already submitted
    /// (each still acked after its fsync), and hand the engine back.
    /// The queue closes when the last [`CommitHandle`] is dropped —
    /// drop them first or this blocks until they go away.
    pub fn shutdown(self) -> io::Result<DurableEngine> {
        self.join
            .join()
            .map_err(|_| io::Error::other("commit thread panicked"))
    }
}

fn commit_loop(mut engine: DurableEngine, rx: Receiver<Job>) -> DurableEngine {
    let slots = |job: &Job| job.records.iter().map(WalRecord::seq_count).sum::<u64>();
    while let Ok(first) = rx.recv() {
        let mut total = slots(&first);
        let mut jobs = vec![first];
        // Natural batching: drain whatever queued while the previous
        // group's fsync ran. No linger timer — waiting for more work
        // when the disk is idle only adds latency; under load the queue
        // is never empty here.
        while total < MAX_GROUP_EVENTS {
            match rx.try_recv() {
                Ok(job) => {
                    total += slots(&job);
                    jobs.push(job);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        // The group is formed, in submission order: every record of
        // every job, borrowed — no event is copied on the way to the
        // WAL or the shards.
        let records: Vec<WalBatch<'_>> = jobs
            .iter()
            .flat_map(|job| job.records.iter().map(WalBatch::from))
            .collect();
        // Its shape and each member's time-in-queue are the observables
        // PR 6's p99 hunt wanted and lacked.
        if !ltam_obs::disabled() {
            let now = std::time::Instant::now();
            let wait = ltam_obs::histogram!(
                "store_group_queue_wait_seconds",
                "Time a submission (a request's record, or a follower's chunk of them) waited \
                 in the group-commit queue before its group formed",
                SecondsFromMicros
            );
            for job in &jobs {
                wait.observe(now.duration_since(job.queued_at).as_micros() as u64);
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
        .observe(total);
        ltam_obs::histogram!(
            "store_group_batches",
            "WAL records coalesced into one commit group",
            None
        )
        .observe(records.len() as u64);
        match engine.commit(&records) {
            Ok(outcomes) => {
                let mut outcomes = outcomes.into_iter();
                for job in jobs {
                    let own = outcomes.by_ref().take(job.records.len()).collect();
                    (job.done)(Ok(own));
                }
            }
            // The group never reached the WAL: every submitter gets the
            // same verdict and may retry.
            Err(e) => {
                for job in jobs {
                    (job.done)(Err(io::Error::new(e.kind(), e.to_string())));
                }
            }
        }
        // Acks are out; now the cadence work. A snapshot's policy image,
        // encode and write run on the writer thread, but its shard and
        // quarantine exports do not: they copy every shard's live state
        // on this thread, and the next group waits behind them.
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
    use ltam_engine::batch::{BatchOutcome, Event, PolicyCore};
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

    /// One trusted one-event record.
    fn swipe(t: u64, s: u32) -> Vec<WalRecord> {
        vec![WalRecord::Events(vec![request(t, s)])]
    }

    /// The enforcement outcomes of an all-`Events` commit.
    fn batches(outcomes: Vec<RecordOutcome>) -> Vec<BatchOutcome> {
        outcomes
            .into_iter()
            .map(|o| match o {
                RecordOutcome::Events(outcome) => outcome,
                other => panic!("expected an enforcement outcome, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn concurrent_submitters_all_commit_with_far_fewer_fsyncs() {
        let dir = ScratchDir::new("group-basic");
        let engine = store(dir.path(), true);
        let fsyncs_before = engine.wal_fsyncs();
        let (gc, handle) = GroupCommit::start(engine);
        let submitters: Vec<_> = (0..8)
            .map(|thread| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let out = batches(h.commit(swipe(i, thread)).unwrap());
                        assert_eq!(out[0].granted, 1);
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
        let (gc, handle) = GroupCommit::start(engine);
        let acked = Arc::new(AtomicUsize::new(0));
        let mut ranks = Vec::new();
        // One request in the middle is from a subject nobody authorized:
        // the group is applied through one shard dispatch, and that
        // batch alone must come back denied.
        const DENIED: u64 = 25;
        for i in 0..50u64 {
            let acked = Arc::clone(&acked);
            let (tx, rx) = channel();
            let subject = if i == DENIED { 999 } else { (i % 4) as u32 };
            handle
                .submit(swipe(i, subject), move |result| {
                    let rank = acked.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send((rank, batches(result.unwrap())[0].granted));
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
        let (gc, handle) = GroupCommit::start(engine);
        // Four batches: the second denied, the third empty.
        let outcomes = handle
            .commit(vec![
                WalRecord::Events(vec![request(1, 0), request(2, 1)]),
                WalRecord::Events(vec![request(3, 999)]),
                WalRecord::Events(vec![]),
                WalRecord::Events(vec![request(4, 2)]),
            ])
            .unwrap();
        let shape: Vec<_> = batches(outcomes)
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
    fn a_mixed_job_commits_in_order_under_one_flush() {
        use ltam_core::capability::AdminOp;
        use ltam_engine::batch::{PolicyOp, PolicyOutcome};
        let dir = ScratchDir::new("group-mixed");
        let engine = store(dir.path(), true);
        let fsyncs_before = engine.wal_fsyncs();
        let auth = engine.engine().policy().db().iter().next().unwrap().0;
        let (gc, handle) = GroupCommit::start(engine);
        // Subject 0's only authorization is revoked between two of its
        // swipes, and a quarantine batch rides along: the revocation
        // governs exactly the records after it, and the quarantined
        // events never reach enforcement or the clock.
        let outcomes = handle
            .commit(vec![
                WalRecord::Events(vec![request(1, 0)]),
                WalRecord::Quarantine {
                    source: SubjectId(40),
                    level: 0,
                    events: vec![request(900, 0), request(901, 1)],
                },
                WalRecord::Policy(PolicyOp::Admin(AdminOp::RevokeAuthorization { id: auth })),
                WalRecord::Events(vec![request(2, 0)]),
            ])
            .unwrap();
        assert!(matches!(&outcomes[0], RecordOutcome::Events(o) if o.granted == 1));
        assert!(matches!(outcomes[1], RecordOutcome::Quarantined(2)));
        assert!(matches!(
            outcomes[2],
            RecordOutcome::Policy(Ok(PolicyOutcome::Admin(_)))
        ));
        assert!(matches!(&outcomes[3], RecordOutcome::Events(o) if o.denied == 1));
        drop(handle);
        let engine = gc.shutdown().unwrap();
        assert_eq!(engine.applied(), 5, "1 + 2 + 1 + 1 sequence numbers");
        assert_eq!(engine.policy_epoch(), 1);
        assert_eq!(engine.clock(), Time(2), "quarantine never moves the clock");
        assert_eq!(engine.engine().quarantine_len(), 2);
        // One append + one marker write; the marker is not a WAL fsync.
        assert_eq!(
            engine.wal_fsyncs() - fsyncs_before,
            1,
            "one group, one flush"
        );
    }

    #[test]
    fn shutdown_drains_queued_batches_before_returning_the_engine() {
        let dir = ScratchDir::new("group-drain");
        let engine = store(dir.path(), false);
        let (gc, handle) = GroupCommit::start(engine);
        for i in 0..100u64 {
            handle.submit(swipe(i, 0), drop).unwrap();
        }
        drop(handle);
        let engine = gc.shutdown().unwrap();
        assert_eq!(engine.applied(), 100, "nothing queued is dropped");
    }

    #[test]
    fn a_group_stops_draining_at_the_event_cap() {
        let dir = ScratchDir::new("group-cap");
        let engine = store(dir.path(), true);
        let fsyncs_before = engine.wal_fsyncs();
        // Three 20 000-event jobs queued before the loop runs: the first
        // two take the group past the cap, so the third waits for the
        // next one.
        let (tx, rx) = channel();
        for job in 0..3u64 {
            let events = (0..20_000u64)
                .map(|i| request(job * 20_000 + i, (i % 64) as u32))
                .collect();
            let job = Job {
                records: vec![WalRecord::Events(events)],
                done: Box::new(|result| assert!(result.is_ok())),
                queued_at: std::time::Instant::now(),
            };
            assert!(tx.send(job).is_ok(), "the receiver is alive");
        }
        drop(tx);
        let engine = commit_loop(engine, rx);
        assert_eq!(engine.applied(), 60_000);
        assert_eq!(
            engine.wal_fsyncs() - fsyncs_before,
            2,
            "jobs 1 and 2 share a group, job 3 gets its own"
        );
    }
}
