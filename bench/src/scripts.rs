//! What each wire workload's connections send, and how they check the
//! replies: streamed 64-event frames, one-event door swipes, and the
//! security desk's query mix beside a write trickle.

use crate::gen::LapCursor;
use crate::load::{push_frame, Script};
use crate::verify::{Reference, ViolationDigest};
use ltam::core::subject::SubjectId;
use ltam::engine::batch::Event;
use ltam::engine::movement::Contact;
use ltam::engine::Violation;
use ltam::graph::LocationId;
use ltam::serve::wire::{ErrorCode, HistoryQuery, Request, Response};
use ltam::time::{Interval, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One connection's share of the lap, replayed endlessly.
pub struct Stream {
    events: Arc<Vec<Event>>,
    cursor: LapCursor,
    span: u64,
}

impl Stream {
    /// A stream over `events` with lap span `span`, starting at the
    /// first event of lap `lap`.
    pub fn new(events: Arc<Vec<Event>>, span: u64, lap: u64) -> Stream {
        Stream {
            events,
            cursor: LapCursor::starting_at(span, lap),
            span,
        }
    }

    fn next(&mut self) -> Event {
        self.cursor.next(&self.events)
    }

    /// Events handed out so far (counted from lap 0).
    pub fn consumed(&self) -> u64 {
        self.cursor.consumed(self.events.len())
    }

    /// Replay everything handed out so far (from lap 0) into
    /// `reference`; `on_request` sees each sampled access request's
    /// reference decision in order.
    fn replay(&self, reference: &mut Reference, mut on_request: impl FnMut(bool)) {
        let mut cursor = LapCursor::new(self.span);
        for _ in 0..self.consumed() {
            if let Some(granted) = reference.apply(&cursor.next(&self.events)) {
                on_request(granted);
            }
        }
    }
}

/// The violations the server reported must be the ones the reference
/// raised since its digest was last drained.
fn same_violations(reported: &ViolationDigest, reference: &mut Reference) -> Result<(), String> {
    let want = reference.drain_digest();
    if want != *reported {
        return Err(format!(
            "violation multiset diverged from the reference: {} reported, {} expected",
            reported.count(),
            want.count()
        ));
    }
    Ok(())
}

/// A script whose operations are writes that the reference can replay.
pub trait WriteScript: Script {
    /// Operations sent so far.
    fn sent(&self) -> u64;
    /// Compare everything the server answered with the reference.
    fn verify(&self, reference: &mut Reference) -> Result<(), String>;
}

fn unexpected(what: &str, reply: &Response) -> String {
    let mut text = format!("{reply:?}");
    text.truncate(200);
    format!("expected {what}, got {text}")
}

/// `stream_ingest`: frames of `batch` events.
pub struct IngestScript {
    stream: Stream,
    batch: usize,
    digest: ViolationDigest,
    scratch: Vec<Event>,
}

impl IngestScript {
    /// Script over `stream`.
    pub fn new(stream: Stream, batch: usize, stride: u32) -> IngestScript {
        IngestScript {
            stream,
            batch,
            digest: ViolationDigest::new(stride),
            scratch: Vec::with_capacity(batch),
        }
    }
}

impl WriteScript for IngestScript {
    fn sent(&self) -> u64 {
        self.stream.consumed()
    }

    /// The violations reported for sampled subjects, over everything
    /// sent, must be the reference's.
    fn verify(&self, reference: &mut Reference) -> Result<(), String> {
        self.stream.replay(reference, |_| ());
        same_violations(&self.digest, reference)
    }
}

fn push_ingest(stream: &mut Stream, n: usize, scratch: &mut Vec<Event>, out: &mut Vec<u8>) {
    scratch.clear();
    for _ in 0..n {
        scratch.push(stream.next());
    }
    // The request owns its events; take the buffer back afterwards.
    let request = Request::Ingest(std::mem::take(scratch));
    push_frame(out, &request);
    if let Request::Ingest(events) = request {
        *scratch = events;
    }
}

/// The violations of an `Ingested` reply that processed `want` events.
fn ingested(reply: Response, want: usize) -> Result<Vec<Violation>, String> {
    match reply {
        Response::Ingested {
            processed,
            violations,
            ..
        } if processed == want => Ok(violations),
        other => Err(unexpected("Ingested", &other)),
    }
}

impl Script for IngestScript {
    fn next_frame(&mut self, out: &mut Vec<u8>) -> u32 {
        push_ingest(&mut self.stream, self.batch, &mut self.scratch, out);
        self.batch as u32
    }

    fn check(&mut self, reply: Response) -> Result<u32, String> {
        let violations = ingested(reply, self.batch)?;
        violations.iter().for_each(|v| self.digest.add(v));
        Ok(self.batch as u32)
    }
}

/// `door_swipe`: one event per frame — `Check` for a request, a
/// one-event `Ingest` for an enter or exit.
pub struct SwipeScript {
    stream: Stream,
    digest: ViolationDigest,
    /// For each frame in flight: was it a `Check`?
    checks: VecDeque<bool>,
    /// Every `Check`'s decision, in send order.
    decisions: Vec<bool>,
}

impl SwipeScript {
    /// Script over `stream`.
    pub fn new(stream: Stream, stride: u32) -> SwipeScript {
        SwipeScript {
            stream,
            digest: ViolationDigest::new(stride),
            checks: VecDeque::new(),
            decisions: Vec::new(),
        }
    }
}

impl WriteScript for SwipeScript {
    fn sent(&self) -> u64 {
        self.stream.consumed()
    }

    /// Every grant/deny must equal the reference's decision, and the
    /// reported violations its violations. Needs `stride == 1`.
    fn verify(&self, reference: &mut Reference) -> Result<(), String> {
        let mut at = 0usize;
        let mut wrong = 0usize;
        self.stream.replay(reference, |granted| {
            if self.decisions.get(at) != Some(&granted) {
                wrong += 1;
            }
            at += 1;
        });
        if wrong > 0 || at != self.decisions.len() {
            return Err(format!(
                "{wrong} of {at} door decisions differ from the reference ({} recorded)",
                self.decisions.len()
            ));
        }
        same_violations(&self.digest, reference)
    }
}

impl Script for SwipeScript {
    fn next_frame(&mut self, out: &mut Vec<u8>) -> u32 {
        let event = self.stream.next();
        let is_check = matches!(event, Event::Request { .. });
        self.checks.push_back(is_check);
        if is_check {
            push_frame(out, &Request::Check(event));
        } else {
            push_frame(out, &Request::Ingest(vec![event]));
        }
        1
    }

    fn check(&mut self, reply: Response) -> Result<u32, String> {
        if self.checks.pop_front().ok_or("reply without a request")? {
            match reply {
                Response::Access { granted } => self.decisions.push(granted),
                other => return Err(unexpected("Access", &other)),
            }
        } else {
            let violations = ingested(reply, 1)?;
            violations.iter().for_each(|v| self.digest.add(v));
        }
        Ok(1)
    }
}

/// Query window lengths, chronons.
const PRESENT_WINDOW: u64 = 50;
const CONTACTS_WINDOW: u64 = 200;
const VIOLATIONS_WINDOW: u64 = 20;
/// One answer in this many is kept for comparison with the reference.
const ANSWER_SAMPLE: u32 = 100;

/// Where `history_query` aims its questions.
#[derive(Debug, Clone, Copy)]
pub struct QueryPlan {
    /// Population size.
    pub subjects: u32,
    /// Locations in the world.
    pub locations: u32,
    /// Query times below this chronon are in the archive tier.
    pub archived_below: u64,
    /// Query times from this chronon on are in the live tier; windows
    /// end before `history_end`.
    pub live_from: u64,
    /// First chronon of the write trickle (end of preloaded history).
    pub history_end: u64,
    /// A trickle frame is due this often on each connection.
    pub trickle_every: Duration,
    /// Events per trickle frame.
    pub trickle_batch: usize,
    /// A question refused as `Unarchived` is asked again this much
    /// later (a refusal costs the server nothing, so asking at once
    /// would only spin against it).
    pub retry_after: Duration,
    /// A question still refused this long after its first refusal has
    /// failed.
    pub give_up_after: Duration,
}

/// `history_query`: 40% `Whereabouts`, 25% `PresentDuring`, 20%
/// `Contacts`, 15% `ViolationsIn`, half the times in the archive tier
/// and half in the live tier — and an ingest frame in place of a query
/// whenever the trickle is due. Only queries count as operations.
pub struct QueryScript {
    plan: QueryPlan,
    trickle: Stream,
    rng: StdRng,
    next_trickle: Instant,
    scratch: Vec<Event>,
    /// The frames in flight: `None` marks a trickle frame; a question
    /// travels with when it was first refused, if it has been.
    in_flight: VecDeque<Option<(HistoryQuery, Option<Instant>)>>,
    /// Sampled `(question, answer)` pairs.
    sampled: Vec<(HistoryQuery, Response)>,
    /// Questions the server refused as `Unarchived`, waiting to be
    /// asked again, in the order they fall due.
    retry: VecDeque<Refused>,
    refusals: u64,
}

/// A refused question waiting to be asked again.
struct Refused {
    question: HistoryQuery,
    /// When it was first refused.
    since: Instant,
    /// When to ask again.
    due: Instant,
}

impl QueryScript {
    /// Script over the trickle stream; `seed` differs per connection.
    pub fn new(plan: QueryPlan, trickle: Stream, seed: u64) -> QueryScript {
        QueryScript {
            plan,
            trickle,
            rng: StdRng::seed_from_u64(seed),
            next_trickle: Instant::now(),
            scratch: Vec::new(),
            in_flight: VecDeque::new(),
            sampled: Vec::new(),
            retry: VecDeque::new(),
            refusals: 0,
        }
    }

    /// `Unarchived` refusals that were retried (see `check`).
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Refused questions the run ended before asking again: counted as
    /// attempted when first asked, never answered.
    pub fn unanswered(&self) -> u64 {
        self.retry.len() as u64
    }

    fn draw(&mut self) -> HistoryQuery {
        let p = &self.plan;
        let longest = CONTACTS_WINDOW + 1;
        let t = if self.rng.gen_bool(0.5) {
            self.rng.gen_range(0..p.archived_below - longest)
        } else {
            self.rng.gen_range(p.live_from..p.history_end - longest)
        };
        let subject = SubjectId(self.rng.gen_range(0..p.subjects));
        let location = LocationId(self.rng.gen_range(0..p.locations));
        let window = |len: u64| Interval::lit(t, t + len);
        match self.rng.gen_range(0..100u32) {
            0..=39 => HistoryQuery::Whereabouts {
                subject,
                at: Time(t),
            },
            40..=64 => HistoryQuery::PresentDuring {
                location,
                window: window(PRESENT_WINDOW),
            },
            65..=84 => HistoryQuery::Contacts {
                subject,
                window: window(CONTACTS_WINDOW),
            },
            _ => HistoryQuery::ViolationsIn {
                window: window(VIOLATIONS_WINDOW),
            },
        }
    }

    /// Compare the sampled answers with the unpruned reference (which
    /// must hold the preloaded history); returns how many were compared.
    pub fn verify(&self, reference: &Reference) -> Result<usize, String> {
        let engine = reference.engine();
        let moves = engine.movements();
        for (question, answer) in &self.sampled {
            let same = match (*question, answer) {
                (HistoryQuery::Whereabouts { subject, at }, Response::Whereabouts { location }) => {
                    *location == moves.whereabouts(subject, at)
                }
                (HistoryQuery::PresentDuring { location, window }, Response::Present { rows }) => {
                    let key = |r: &(SubjectId, Interval)| (r.0, r.1.start());
                    let mut got = rows.clone();
                    let mut want = moves.present_during(location, window);
                    got.sort_by_key(key);
                    want.sort_by_key(key);
                    got == want
                }
                (
                    HistoryQuery::Contacts { subject, window },
                    Response::Contacts { contacts, .. },
                ) => {
                    let key = |c: &Contact| (c.other, c.location, c.overlap.start());
                    let mut got = contacts.clone();
                    let mut want = moves.contacts(subject, window);
                    got.sort_by_key(key);
                    want.sort_by_key(key);
                    got == want
                }
                (HistoryQuery::ViolationsIn { window }, Response::Violations { violations }) => {
                    let key = |v: &Violation| (v.time(), v.subject(), v.location());
                    let mut got = violations.clone();
                    let mut want: Vec<_> = engine
                        .violations()
                        .iter()
                        .filter(|v| window.contains(v.time()))
                        .copied()
                        .collect();
                    got.sort_by_key(key);
                    want.sort_by_key(key);
                    got == want
                }
                _ => false,
            };
            if !same {
                return Err(format!("answer to {question:?} differs from the reference"));
            }
        }
        Ok(self.sampled.len())
    }
}

impl Script for QueryScript {
    fn next_frame(&mut self, out: &mut Vec<u8>) -> u32 {
        let now = Instant::now();
        if now >= self.next_trickle {
            self.next_trickle = now + self.plan.trickle_every;
            let n = self.plan.trickle_batch;
            push_ingest(&mut self.trickle, n, &mut self.scratch, out);
            self.in_flight.push_back(None);
            return 0;
        }
        // A refused question that has fallen due goes before any new
        // one; it was counted as attempted when first asked.
        let (question, refused_since, ops) = match self.retry.front() {
            Some(r) if r.due <= now => {
                let r = self.retry.pop_front().expect("front exists");
                (r.question, Some(r.since), 0)
            }
            _ => (self.draw(), None, 1),
        };
        push_frame(out, &Request::Query(question));
        self.in_flight.push_back(Some((question, refused_since)));
        ops
    }

    fn check(&mut self, reply: Response) -> Result<u32, String> {
        let Some((question, refused_since)) = self
            .in_flight
            .pop_front()
            .ok_or("reply without a request")?
        else {
            return ingested(reply, self.plan.trickle_batch).map(|_| 0);
        };
        // A retention run moves the live watermark before it refreshes
        // the archive coverage the read path caches, so a question
        // that lands in between is refused although the history is
        // there. A console would ask again a moment later; so does
        // this one: the refusal completes no operation and is counted
        // (`client.unarchived_retries`). A question the server keeps
        // refusing for `give_up_after` has failed, and fails the run.
        if let Response::Error {
            code: ErrorCode::Unarchived,
            ..
        } = &reply
        {
            let now = Instant::now();
            let since = refused_since.unwrap_or(now);
            if now - since >= self.plan.give_up_after {
                return Err(format!(
                    "{question:?} still refused as Unarchived after {:?}",
                    now - since
                ));
            }
            self.refusals += 1;
            self.retry.push_back(Refused {
                question,
                since,
                due: now + self.plan.retry_after,
            });
            return Ok(0);
        }
        let shape_ok = matches!(
            (&question, &reply),
            (
                HistoryQuery::Whereabouts { .. },
                Response::Whereabouts { .. }
            ) | (HistoryQuery::PresentDuring { .. }, Response::Present { .. })
                | (HistoryQuery::Contacts { .. }, Response::Contacts { .. })
                | (
                    HistoryQuery::ViolationsIn { .. },
                    Response::Violations { .. }
                )
        );
        if !shape_ok {
            return Err(unexpected("an answer to the query", &reply));
        }
        if self.rng.gen_range(0..ANSWER_SAMPLE) == 0 {
            self.sampled.push((question, reply));
        }
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(give_up_after: Duration) -> QueryScript {
        let lap = vec![Event::Request {
            time: Time(1),
            subject: SubjectId(0),
            location: LocationId(0),
        }];
        let plan = QueryPlan {
            subjects: 4,
            locations: 4,
            archived_below: 1_000,
            live_from: 2_000,
            history_end: 3_000,
            trickle_every: Duration::from_secs(3600),
            trickle_batch: 1,
            retry_after: Duration::ZERO,
            give_up_after,
        };
        let mut s = QueryScript::new(plan, Stream::new(Arc::new(lap), 10, 0), 7);
        // The first frame is the trickle's; get it out of the way.
        assert_eq!(s.next_frame(&mut Vec::new()), 0);
        let reply = Response::Ingested {
            processed: 1,
            granted: 0,
            denied: 0,
            violations: Vec::new(),
        };
        assert_eq!(s.check(reply), Ok(0));
        s
    }

    fn unarchived() -> Response {
        Response::Error {
            code: ErrorCode::Unarchived,
            message: "archive ends below the live watermark".into(),
            role: None,
        }
    }

    #[test]
    fn a_refused_question_is_asked_again_until_the_script_gives_up() {
        let give_up_after = Duration::from_millis(20);
        let mut s = script(give_up_after);
        let mut out = Vec::new();
        assert_eq!(s.next_frame(&mut out), 1);
        let first = out.clone();
        // Refused three times: no operation completes, the same frame
        // goes out again and is not counted as a new attempt.
        for refusals in 1..=3 {
            assert_eq!(s.check(unarchived()), Ok(0));
            assert_eq!(s.refusals(), refusals);
            out.clear();
            assert_eq!(s.next_frame(&mut out), 0);
            assert_eq!(out, first);
        }
        // A server that never stops refusing fails the question.
        std::thread::sleep(give_up_after);
        assert!(s.check(unarchived()).is_err());
    }

    #[test]
    fn two_refusals_in_flight_are_both_asked_again() {
        let mut s = script(Duration::from_secs(60));
        let (mut a, mut b, mut again) = (Vec::new(), Vec::new(), Vec::new());
        assert_eq!(s.next_frame(&mut a), 1);
        assert_eq!(s.next_frame(&mut b), 1);
        assert_ne!(a, b);
        assert_eq!(s.check(unarchived()), Ok(0));
        assert_eq!(s.check(unarchived()), Ok(0));
        assert_eq!(s.next_frame(&mut again), 0);
        assert_eq!(again, a);
        again.clear();
        assert_eq!(s.next_frame(&mut again), 0);
        assert_eq!(again, b);
        // Nothing is left to retry: the next frame is a new question.
        assert_eq!(s.next_frame(&mut again), 1);
    }
}
