//! The closed-loop wire load generator: one thread per connection,
//! each keeping a fixed number of requests in flight and sending the
//! next only when a reply arrives — the backpressure model
//! `ltam-serve` assumes of gateways, door controllers and consoles,
//! each of which waits for its own answer.
//!
//! A request's latency runs from its frame's write to its reply's
//! arrival; every operation in the frame is charged that latency.

use crate::stats::{Phase, SliceLog};
use crate::trace::Tracer;
use ltam::serve::wire::{self, Request, Response, DEFAULT_MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// In trace mode one request in this many becomes a span: every one
/// would be tens of megabytes of spans per run.
pub const SPAN_SAMPLE: u64 = 16;

/// What a connection sends and how it checks what comes back.
pub trait Script: Send {
    /// Append the next request frame to `out`; returns the operations
    /// it attempts for the first time (0 for a background frame or a
    /// question asked again).
    fn next_frame(&mut self, out: &mut Vec<u8>) -> u32;
    /// Check the next reply (replies arrive in send order); returns
    /// the operations it completes.
    fn check(&mut self, reply: Response) -> Result<u32, String>;
}

/// Operations attempted and failed on one connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations whose reply was missing, an error, or wrong.
    pub failed: u64,
}

/// One client connection.
pub struct Conn {
    stream: BufReader<TcpStream>,
    frames: Vec<u8>,
}

/// Append `request` to `out` as one wire frame.
pub fn push_frame(out: &mut Vec<u8>, request: &Request) {
    wire::write_frame(out, &wire::encode_request(request)).expect("writing to a Vec cannot fail");
}

impl Conn {
    /// Connect to `addr`; with a `token`, authenticate first.
    pub fn open(addr: &str, token: Option<&str>) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream: BufReader::with_capacity(64 * 1024, stream),
            frames: Vec::new(),
        };
        if let Some(token) = token {
            let hello = Request::Hello {
                token: token.to_string(),
            };
            match conn.call(&hello)? {
                Response::Welcome { .. } => {}
                other => return Err(format!("handshake refused: {other:?}")),
            }
        }
        Ok(conn)
    }

    /// One request, one reply (control-plane calls between phases).
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.frames.clear();
        push_frame(&mut self.frames, request);
        self.send()?;
        wire::decode_response(&self.receive()?).map_err(|e| format!("bad reply: {e}"))
    }

    fn send(&mut self) -> Result<(), String> {
        self.stream
            .get_mut()
            .write_all(&self.frames)
            .map_err(|e| format!("send: {e}"))
    }

    fn receive(&mut self) -> Result<Vec<u8>, String> {
        wire::read_frame(&mut self.stream, DEFAULT_MAX_FRAME_BYTES)
            .map_err(|e| format!("receive: {e}"))
    }

    /// Keep `depth` requests of `script` in flight — each reply read
    /// is answered with the next request, the way a bank of doors or
    /// gateways each waits for its own answer — until `stop` says so,
    /// then drain. `on_reply` sees each reply's `(arrival, latency,
    /// operations completed)`; a request's latency runs from its
    /// frame's write to its reply's arrival.
    fn slide<S: Script>(
        &mut self,
        script: &mut S,
        depth: usize,
        mut stop: impl FnMut(u64) -> bool,
        mut on_reply: impl FnMut(Instant, Duration, u32),
    ) -> (Tally, Result<(), String>) {
        let mut tally = Tally::default();
        let mut in_flight: VecDeque<(Instant, u32)> = VecDeque::with_capacity(depth);
        let mut sent = 0u64;
        let mut run = || -> Result<(), String> {
            loop {
                self.frames.clear();
                let mut batch = 0;
                while in_flight.len() + batch < depth && !stop(sent) {
                    let ops = script.next_frame(&mut self.frames);
                    tally.attempted += ops as u64;
                    in_flight.push_back((Instant::now(), ops));
                    batch += 1;
                    sent += 1;
                }
                if batch > 0 {
                    self.send()?;
                }
                let Some((written, ops)) = in_flight.pop_front() else {
                    return Ok(());
                };
                let raw = self.receive()?;
                let arrived = Instant::now();
                let reply = wire::decode_response(&raw).map_err(|e| format!("bad reply: {e}"))?;
                match script.check(reply) {
                    Ok(completed) => on_reply(arrived, arrived - written, completed),
                    Err(e) => {
                        tally.failed += ops.max(1) as u64;
                        return Err(e);
                    }
                }
            }
        };
        let result = run();
        if result.is_err() {
            // Whatever was still in flight is lost with the stream.
            tally.failed += in_flight.iter().map(|&(_, ops)| ops as u64).sum::<u64>();
        }
        (tally, result)
    }

    /// Run `script` at `depth` until `until`, recording replies that
    /// arrive inside `phase` into `log` (earlier ones are warm-up).
    /// With a tracer, one request in [`SPAN_SAMPLE`] that arrives after
    /// `trace_from` is recorded as a span.
    pub fn run_until<S: Script>(
        &mut self,
        script: &mut S,
        depth: usize,
        until: Instant,
        phase: &Phase,
        log: &mut SliceLog,
        mut tracer: Option<(&mut Tracer, Instant)>,
    ) -> (Tally, Result<(), String>) {
        let mut replies = 0u64;
        self.slide(
            script,
            depth,
            |_| Instant::now() >= until,
            |arrived, latency, ops| {
                log.record(phase, arrived, latency, ops);
                replies += 1;
                if let Some((t, trace_from)) = tracer.as_mut() {
                    if replies.is_multiple_of(SPAN_SAMPLE) && arrived >= *trace_from {
                        t.span_ending("client.request", arrived, latency, None);
                    }
                }
            },
        )
    }

    /// Send exactly `n` frames of `script` at `depth` and wait for
    /// every reply (cool-down and first-op-after-restart).
    pub fn run_frames<S: Script>(
        &mut self,
        script: &mut S,
        depth: usize,
        n: u64,
    ) -> (Tally, Result<(), String>) {
        self.slide(script, depth, |sent| sent >= n, |_, _, _| ())
    }
}
