//! End-to-end serving tests over loopback: the full stack (client →
//! wire → server → durable engine → store) in one process.

use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore};
use ltam_graph::examples::ntu_campus;
use ltam_graph::LocationId;
use ltam_serve::wire::{self, Request};
use ltam_serve::{ClientError, ErrorCode, LtamClient, Server, ServerConfig, ServerRole};
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
use ltam_time::{Interval, Time};
use std::io::{Read, Write};
use std::time::Duration;

/// The §3.2 campus policy: Alice may enter CAIS during [5, 40] and
/// must leave during [20, 100], once.
fn campus_core() -> (PolicyCore, SubjectId, LocationId) {
    let ntu = ntu_campus();
    let cais = ntu.cais;
    let mut core = PolicyCore::new(ntu.model);
    let alice = SubjectId(0);
    core.add_authorization(
        Authorization::new(
            Interval::lit(5, 40),
            Interval::lit(20, 100),
            alice,
            cais,
            EntryLimit::Finite(1),
        )
        .unwrap(),
    );
    (core, alice, cais)
}

fn store_config() -> StoreConfig {
    StoreConfig {
        segment_bytes: 64 * 1024,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    }
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    }
}

fn start_server(dir: &ScratchDir, config: ServerConfig) -> (Server, SubjectId, LocationId) {
    let (core, alice, cais) = campus_core();
    let (engine, _alerts) = DurableEngine::create(dir.path(), core, 2, store_config()).unwrap();
    let server = Server::start(engine, "127.0.0.1:0", config).unwrap();
    (server, alice, cais)
}

#[test]
fn serves_swipes_ingest_and_queries_end_to_end() {
    let dir = ScratchDir::new("serve-e2e");
    let (server, alice, cais) = start_server(&dir, quick_config());
    let addr = server.local_addr().to_string();
    let mut client = LtamClient::connect(&addr).unwrap();

    // A door swipe inside the entry window is granted...
    assert!(client.check_access(Time(10), alice, cais).unwrap());
    // ...and entering, then leaving before the exit window opens, is a
    // violation the ingest response reports.
    let summary = client
        .ingest(&[
            Event::Enter {
                time: Time(11),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(15),
                subject: alice,
                location: cais,
            },
        ])
        .unwrap();
    assert_eq!(summary.processed, 2);
    assert_eq!(summary.violations.len(), 1);

    // History queries answer over the wire.
    assert_eq!(client.whereabouts(alice, Time(12)).unwrap(), Some(cais));
    assert_eq!(client.whereabouts(alice, Time(20)).unwrap(), None);
    let rows = client.present_during(cais, Interval::lit(0, 100)).unwrap();
    assert_eq!(rows, vec![(alice, Interval::lit(11, 15))]);
    assert_eq!(client.violations_in(Interval::ALL).unwrap().len(), 1);

    // The status RPC reports the durable position and this connection.
    let status = client.status().unwrap();
    assert_eq!(status.events_ingested, 3); // swipe + enter + exit
    assert_eq!(status.engine.live_violations, 1);
    assert_eq!(status.connections_active, 1);
    assert_eq!(status.protocol_errors, 0);
    assert_eq!(status.per_connection.len(), 1);
    assert!(status.requests_served >= 6);

    // Graceful shutdown drains and returns the engine, snapshotted.
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.applied(), 3);
    assert_eq!(engine.last_snapshot_seq(), 3);
    assert_eq!(engine.engine().violations().len(), 1);
}

#[test]
fn over_the_connection_limit_is_refused_busy() {
    let dir = ScratchDir::new("serve-busy");
    let (server, alice, cais) = start_server(
        &dir,
        ServerConfig {
            max_connections: 1,
            ..quick_config()
        },
    );
    let addr = server.local_addr().to_string();
    let mut first = LtamClient::connect(&addr).unwrap();
    // Complete one round trip so the slot is definitely taken.
    assert!(first.check_access(Time(10), alice, cais).unwrap());
    // The second connection's first call sees the Busy refusal.
    let mut second = LtamClient::connect(&addr).unwrap();
    // The refusal keeps its typed context across the forced reconnect:
    // code AND which role said no (a Busy primary means back off; a
    // Busy follower would mean "read elsewhere").
    let busy = |r: Result<bool, ClientError>| {
        matches!(
            r,
            Err(ClientError::Server {
                code: ErrorCode::Busy,
                role: Some(ServerRole::Primary),
                ..
            })
        )
    };
    assert!(busy(second.check_access(Time(11), alice, cais)));
    // A retry reconnects and is refused again — a typed Busy, not a
    // spurious transport error on the closed socket.
    assert!(busy(second.check_access(Time(11), alice, cais)));
    // The first connection keeps working; the refusals were counted.
    let status = first.status().unwrap();
    assert_eq!(status.refused_busy, 2);
    assert_eq!(status.connections_active, 1);
    // Once the slot frees (the worker notices the disconnect within
    // its read-timeout poll), the waiting client gets in.
    drop(first);
    let mut admitted = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        match second.check_access(Time(12), alice, cais) {
            Ok(_) => {
                admitted = true;
                break;
            }
            Err(ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }) => continue,
            Err(other) => panic!("expected admission or Busy, got {other:?}"),
        }
    }
    assert!(admitted, "freed slot admits the backed-off client");
    server.shutdown().unwrap();
}

#[test]
fn malformed_frames_get_an_error_and_a_clean_disconnect() {
    let dir = ScratchDir::new("serve-malformed");
    let (server, alice, cais) = start_server(&dir, quick_config());
    let addr = server.local_addr();

    // A frame whose CRC does not match its payload.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &wire::encode_request(&Request::Ingest(vec![]))).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    raw.write_all(&frame).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server answers, then closes
    let payload = wire::read_frame(
        &mut std::io::Cursor::new(reply),
        wire::DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    match wire::decode_response(&payload).unwrap() {
        wire::Response::Error {
            code: ErrorCode::BadRequest,
            ..
        } => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // A frame announcing an absurd payload size: same treatment.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    raw.write_all(&header).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(!reply.is_empty(), "oversized announcement gets an answer");

    // An intact frame whose body is not a request: answered in-band,
    // connection stays usable.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &[0x7F, 1, 2, 3]).unwrap();
    raw.write_all(&frame).unwrap();
    let payload = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert!(matches!(
        wire::decode_response(&payload).unwrap(),
        wire::Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // The server survived all three abuses.
    let mut client = LtamClient::connect(&addr.to_string()).unwrap();
    assert!(client.check_access(Time(10), alice, cais).unwrap());
    let status = client.status().unwrap();
    assert!(status.protocol_errors >= 3);
    server.shutdown().unwrap();
}

#[test]
fn idle_connections_are_reaped_and_the_client_reconnects() {
    let dir = ScratchDir::new("serve-idle");
    let (server, alice, cais) = start_server(
        &dir,
        ServerConfig {
            idle_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(25),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr().to_string();
    let mut client = LtamClient::connect(&addr).unwrap();
    assert!(client.check_access(Time(10), alice, cais).unwrap());
    // Go idle past the server's limit: the server frees the slot.
    std::thread::sleep(Duration::from_millis(400));
    // The next call fails (the connection is gone)...
    assert!(client.status().is_err());
    assert!(!client.is_connected());
    // ...and the one after reconnects transparently.
    let status = client.status().unwrap();
    assert_eq!(status.connections_active, 1);
    assert_eq!(status.connections_total, 2);
    server.shutdown().unwrap();
}

#[test]
fn slow_readers_and_mid_frame_stalls_never_block_the_poll_loop() {
    // One poll thread owns *every* connection — if a misbehaving peer
    // could block the loop, nothing else would be served. Both valves
    // are set low so the abuse trips them quickly: a connection with
    // too many requests in flight, or too many unread response bytes,
    // stops being read (never stops the loop).
    let dir = ScratchDir::new("serve-slow-reader");
    let (server, alice, cais) = start_server(
        &dir,
        ServerConfig {
            max_pipeline: 8,
            write_buffer_bytes: 1024,
            ..quick_config()
        },
    );
    let addr = server.local_addr();

    // Peer 1 stalls mid-frame: three bytes of header, then silence.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(&[0x10, 0x00, 0x00]).unwrap();

    // Peer 2 is a slow reader: it pours ingest requests in and never
    // reads a single response. Responses jam up its socket and the
    // server's write buffer until the valve closes its read side; its
    // own sends then hit WouldBlock (nonblocking, so the test never
    // wedges itself).
    let mut deaf = std::net::TcpStream::connect(addr).unwrap();
    deaf.set_nonblocking(true).unwrap();
    let batch: Vec<Event> = (0..24u64)
        .map(|i| Event::Request {
            time: Time(1_000 + i),
            subject: alice,
            location: cais,
        })
        .collect();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &wire::encode_request(&Request::Ingest(batch))).unwrap();
    let mut poured = 0usize;
    'pour: for _ in 0..2048 {
        let mut at = 0usize;
        let mut retries = 0u32;
        while at < frame.len() {
            match deaf.write(&frame[at..]) {
                Ok(0) => break 'pour,
                Ok(n) => at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if at == 0 || retries > 200 {
                        break 'pour; // jammed: the valve closed
                    }
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected send error: {e:?}"),
            }
        }
        poured += 1;
    }

    // While both peers sit there, a well-behaved client gets full
    // service from the same poll thread, promptly.
    let start = std::time::Instant::now();
    let mut client = LtamClient::connect(&addr.to_string()).unwrap();
    for i in 0..50u64 {
        assert!(client.check_access(Time(10 + i % 20), alice, cais).is_ok());
    }
    let status = client.status().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "round trips stayed prompt alongside the stalled peers"
    );
    // The abusive peers may by now have been cut off (a valve-closed
    // connection looks like a mid-frame stall and times out) — that is
    // a defense, not a failure. What matters: the loop stayed live.
    assert!(status.connections_active >= 1);
    assert!(
        poured > 8,
        "the slow reader got past the pipeline cap before jamming"
    );
    drop(stalled);
    drop(deaf);
    server.shutdown().unwrap();
}

#[test]
fn ingest_is_all_or_nothing_per_batch_over_the_wire() {
    // A batch the engine refuses to make durable is fully refused: the
    // response is the Error, and the WAL position does not move. (Here
    // the failure is injected by dropping the WAL directory's write
    // permission — the closest portable stand-in for a full disk.)
    let dir = ScratchDir::new("serve-atomic");
    let (server, alice, cais) = start_server(&dir, quick_config());
    let addr = server.local_addr().to_string();
    let mut client = LtamClient::connect(&addr).unwrap();
    assert!(client.check_access(Time(10), alice, cais).unwrap());

    let mut perms = std::fs::metadata(dir.path()).unwrap().permissions();
    let original = perms.clone();
    use std::os::unix::fs::PermissionsExt;
    perms.set_mode(0o555);
    std::fs::set_permissions(dir.path(), perms).unwrap();
    // Rotation-on-append will need to create a segment and fail; large
    // batches force rotation by exceeding the segment threshold.
    let big: Vec<Event> = (0..20_000u64)
        .map(|i| Event::Request {
            time: Time(11 + i),
            subject: alice,
            location: cais,
        })
        .collect();
    let result = client.ingest(&big);
    std::fs::set_permissions(dir.path(), original).unwrap();
    let status = client.status().unwrap();
    match result {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            ..
        }) => {
            assert_eq!(status.events_ingested, 1, "refused batch left no trace");
        }
        Ok(_) => {
            // The OS let the append through (e.g. running as root, where
            // permission bits don't bind): the batch must then be fully
            // applied — never partially.
            assert_eq!(status.events_ingested, 1 + big.len() as u64);
        }
        Err(other) => panic!("expected a server-reported refusal, got {other:?}"),
    }
    server.shutdown().unwrap();
}

/// Eight subjects at CAIS: the even ones hold an open-ended
/// authorization, the odd ones none — their swipes are denied and
/// their entries are tailgates.
fn swipe_core() -> (PolicyCore, LocationId) {
    let ntu = ntu_campus();
    let cais = ntu.cais;
    let mut core = PolicyCore::new(ntu.model);
    for s in (0..8u32).step_by(2) {
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
    (core, cais)
}

/// `connections` peers each write 256 one-event frames — swipes
/// (`Check`), entries and exits (`Ingest`) — before any of them reads a
/// byte, so the server commits them in large groups: one shard
/// dispatch, one wake and one socket write for many frames. Replies
/// must still come back in request order, each carrying exactly its own
/// frame's decision and violations — what a reference engine fed the
/// same frames one by one reports.
fn pipelined_one_event_frames_keep_their_own_replies(connections: u32) {
    const FRAMES: u64 = 256;
    let dir = ScratchDir::new(&format!("serve-attribution-{connections}"));
    let (core, cais) = swipe_core();
    let (reference, _reference_alerts) = ltam_engine::batch::ShardedEngine::new(core.clone(), 2);
    let (engine, _alerts) = DurableEngine::create(dir.path(), core, 2, store_config()).unwrap();
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            max_pipeline: 512,
            ..quick_config()
        },
    )
    .unwrap();

    // Each connection owns its own subjects, so a frame's outcome does
    // not depend on how the server interleaves the connections.
    let per_conn = 8 / connections;
    let mut peers = Vec::new();
    for c in 0..connections {
        let mut frames = Vec::new();
        let mut expected = Vec::new();
        for i in 0..FRAMES {
            let subject = SubjectId(c * per_conn + (i % per_conn as u64) as u32);
            let (time, location) = (Time(10 + i), cais);
            // Per subject: swipe, walk in, walk out, swipe, ...
            let event = match (i / per_conn as u64) % 3 {
                0 => Event::Request {
                    time,
                    subject,
                    location,
                },
                1 => Event::Enter {
                    time,
                    subject,
                    location,
                },
                _ => Event::Exit {
                    time,
                    subject,
                    location,
                },
            };
            let request = match event {
                Event::Request { .. } => Request::Check(event),
                _ => Request::Ingest(vec![event]),
            };
            let outcome = reference.ingest(&[event]);
            expected.push(match request {
                Request::Check(_) => wire::Response::Access {
                    granted: outcome.granted == 1,
                },
                _ => wire::Response::Ingested {
                    processed: outcome.processed,
                    granted: outcome.granted,
                    denied: outcome.denied,
                    violations: outcome.violations,
                },
            });
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, &wire::encode_request(&request)).unwrap();
            frames.push(frame);
        }
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        peers.push((stream, frames, expected));
    }
    for (_, _, expected) in &peers {
        // The script is worth running: grants, denials and tailgates.
        use wire::Response::{Access, Ingested};
        let has = |p: fn(&wire::Response) -> bool| expected.iter().any(p);
        assert!(has(|r| matches!(r, Access { granted: true })));
        assert!(has(|r| matches!(r, Access { granted: false })));
        assert!(has(
            |r| matches!(r, Ingested { violations, .. } if !violations.is_empty())
        ));
    }

    // Everything is written, interleaved across the connections in
    // bursts, before anything is read.
    for burst in 0..4 {
        for (stream, frames, _) in &mut peers {
            for frame in &frames[burst * 64..(burst + 1) * 64] {
                stream.write_all(frame).unwrap();
            }
        }
    }
    for (stream, _, expected) in &mut peers {
        for (i, want) in expected.iter().enumerate() {
            let payload = wire::read_frame(stream, wire::DEFAULT_MAX_FRAME_BYTES).unwrap();
            let got = wire::decode_response(&payload).unwrap();
            assert_eq!(&got, want, "reply {i} is not frame {i}'s own");
        }
    }
    drop(peers);
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.applied(), FRAMES * connections as u64);
    assert_eq!(
        engine.engine().violations().len(),
        reference.violations().len()
    );
}

#[test]
fn pipelined_one_event_frames_get_their_own_replies_in_order() {
    pipelined_one_event_frames_keep_their_own_replies(1);
    pipelined_one_event_frames_keep_their_own_replies(2);
}

#[test]
fn completions_never_wait_for_the_poll_tick() {
    // A completion pokes the poll thread's waker only when it is the
    // first since the thread last took its inbox. If that hand-off
    // dropped wake-ups, replies would sit in the inbox until other
    // traffic or the poll tick (100 ms here) turned the loop over, and
    // at depth 1 a stalled client sends nothing that could. Four
    // clients keep completions racing the poll thread's inbox takes.
    // (A timing test cannot force the one interleaving that the
    // clear-before-take order in `poll_loop` exists for; it does catch
    // a flag that is cleared late enough, or never, to matter.)
    const CLIENTS: u32 = 4;
    const SWIPES: u64 = 5_000;
    let wakeups = || {
        ltam_obs::counter_value(ltam_obs::registry(), "serve_poll_wakeups_total", &[]).unwrap_or(0)
    };
    let dir = ScratchDir::new("serve-lost-wakeup");
    let (core, cais) = swipe_core();
    let (engine, _alerts) = DurableEngine::create(dir.path(), core, 2, store_config()).unwrap();
    // The default read timeout leaves the poll tick at its 100 ms cap.
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let before = wakeups();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = LtamClient::connect(&addr).unwrap();
                let mut slow = 0usize;
                for i in 0..SWIPES {
                    let sent = std::time::Instant::now();
                    let granted = client.check_access(Time(i), SubjectId(c), cais).unwrap();
                    assert_eq!(granted, c % 2 == 0);
                    if sent.elapsed() >= Duration::from_millis(100) {
                        slow += 1;
                    }
                }
                slow
            })
        })
        .collect();
    let slow: usize = clients.into_iter().map(|t| t.join().unwrap()).sum();
    let woke = wakeups() - before;
    assert!(
        slow <= 2,
        "{slow} round trips took a whole poll tick: a completion's wake-up was lost"
    );
    // Nor may the loop spin: a pass needs a request to arrive or a
    // completion's poke, and there is at most one poke per completion.
    // (Passes share arrivals and pokes, so the count is usually near
    // one per swipe; how near is the scheduler's business.)
    let completions = CLIENTS as u64 * SWIPES;
    assert!(
        woke <= 2 * completions + 1_000,
        "{woke} poll passes for {completions} swipes: more than one per arrival and poke"
    );
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.applied(), completions);
}
