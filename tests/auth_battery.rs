//! Adversarial auth battery: every wire frame kind is thrown at a
//! policy-governed server by connections that are unauthenticated,
//! expired, revoked mid-connection, or scoped for the wrong
//! capability. Each must be refused with the right [`ErrorCode`], the
//! connection state machine must survive the refusal, and a correct
//! token presented on the *same* socket must still be serviced.

use ltam::core::capability::{AdminOp, AdminOutcome, Scope, TokenId};
use ltam::core::model::{Authorization, EntryLimit};
use ltam::core::subject::SubjectId;
use ltam::engine::batch::{Event, PolicyCore};
use ltam::graph::examples::ntu_campus;
use ltam::graph::LocationId;
use ltam::serve::wire::{self, HistoryQuery, ReplRequest, Request, Response};
use ltam::serve::{
    bootstrap_follower_as, ClientError, ErrorCode, IngestReply, LtamClient, ReplicaConfig,
    ReplicaState, Server, ServerConfig, ServerRole,
};
use ltam::store::{DurableEngine, ScratchDir, StoreConfig};
use ltam::time::{Interval, Time};
use std::net::TcpStream;
use std::time::Duration;

const ROOT_SECRET: &str = "root-recovery-secret";

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

fn auth_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(25),
        root_token: Some(ROOT_SECRET.to_string()),
        ..ServerConfig::default()
    }
}

/// Start a server with wire auth switched ON (over the wire, via the
/// root recovery token) and return it plus a root-authenticated admin
/// client.
fn start_locked_server(dir: &ScratchDir) -> (Server, LtamClient, SubjectId, LocationId) {
    let (core, alice, cais) = campus_core();
    let (engine, _alerts) = DurableEngine::create(dir.path(), core, 2, store_config()).unwrap();
    let server = Server::start(engine, "127.0.0.1:0", auth_config()).unwrap();
    let mut root = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    root.hello(ROOT_SECRET).unwrap();
    let outcome = root
        .admin(AdminOp::SetAuthRequired { required: true })
        .unwrap();
    assert_eq!(outcome, AdminOutcome::AuthRequiredSet);
    (server, root, alice, cais)
}

fn mint(
    root: &mut LtamClient,
    subject: SubjectId,
    scopes: Vec<Scope>,
    validity: Interval,
    secret: &str,
) -> TokenId {
    match root
        .admin(AdminOp::MintToken {
            subject,
            scopes,
            validity,
            secret: secret.to_string(),
        })
        .unwrap()
    {
        AdminOutcome::TokenMinted { id } => id,
        other => panic!("unexpected mint outcome {other:?}"),
    }
}

fn enter(time: u64, subject: SubjectId, location: LocationId) -> Event {
    Event::Enter {
        time: Time(time),
        subject,
        location,
    }
}

/// Assert `result` is a server refusal with `code`, returning the
/// redacted-or-not role for further pinning.
fn expect_refusal<T: std::fmt::Debug>(
    result: Result<T, ClientError>,
    code: ErrorCode,
    context: &str,
) -> Option<ServerRole> {
    match result {
        Err(ClientError::Server {
            code: got, role, ..
        }) => {
            assert_eq!(got, code, "{context}: wrong error code");
            role
        }
        other => panic!("{context}: expected {code:?} refusal, got {other:?}"),
    }
}

/// Drive every frame kind through `client` and assert each is refused
/// with `code`. Returns the roles the refusals disclosed.
fn refuse_every_frame_kind(
    client: &mut LtamClient,
    alice: SubjectId,
    cais: LocationId,
    code: ErrorCode,
    context: &str,
) -> Vec<Option<ServerRole>> {
    let mut roles = Vec::new();
    roles.push(expect_refusal(
        client.ingest(&[enter(11, alice, cais)]),
        code,
        &format!("{context}: ingest"),
    ));
    roles.push(expect_refusal(
        client.check_access(Time(10), alice, cais),
        code,
        &format!("{context}: check"),
    ));
    roles.push(expect_refusal(
        client.whereabouts(alice, Time(12)),
        code,
        &format!("{context}: query"),
    ));
    roles.push(expect_refusal(
        client.digest(),
        code,
        &format!("{context}: digest"),
    ));
    roles.push(expect_refusal(
        client.metrics(),
        code,
        &format!("{context}: metrics"),
    ));
    roles.push(expect_refusal(
        client.repl_manifest(),
        code,
        &format!("{context}: repl"),
    ));
    roles.push(expect_refusal(
        client.admin(AdminOp::SetTrustThreshold { threshold: 0 }),
        code,
        &format!("{context}: admin"),
    ));
    roles
}

/// No handshake at all: every frame kind is refused `Unauthenticated`,
/// the refusals disclose nothing about the server's role, the
/// connection survives, and a valid `Hello` on the same socket
/// upgrades it to full service.
#[test]
fn no_handshake_refuses_every_frame_kind_then_same_socket_recovers() {
    let dir = ScratchDir::new("auth-no-handshake");
    let (server, mut root, alice, cais) = start_locked_server(&dir);
    mint(
        &mut root,
        SubjectId(77),
        vec![
            Scope::Ingest { locations: None },
            Scope::Query,
            Scope::Replicate,
        ],
        Interval::ALL,
        "ops-secret",
    );

    let mut anon = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    let roles = refuse_every_frame_kind(
        &mut anon,
        alice,
        cais,
        ErrorCode::Unauthenticated,
        "anonymous",
    );
    for role in roles {
        assert_eq!(role, None, "pre-handshake refusal leaked the server role");
    }
    assert!(anon.is_connected(), "refusals must not tear the connection");

    // The same socket, now authenticated, is serviced end to end.
    let (_, subject, scopes) = anon.hello("ops-secret").unwrap();
    assert_eq!(subject, SubjectId(77));
    assert_eq!(scopes.len(), 3);
    let summary = anon.ingest(&[enter(11, alice, cais)]).unwrap();
    assert_eq!(summary.processed, 1);
    assert_eq!(anon.whereabouts(alice, Time(12)).unwrap(), Some(cais));
    assert!(anon.repl_manifest().is_ok());
    drop(server);
}

/// Satellite: pre-handshake `Error` frames are fully redacted at the
/// raw-frame level — no role — while the same refusal on an open
/// (auth-not-required) wire still names the refusing role. Pins the
/// information-leak fix.
#[test]
fn pre_handshake_error_frames_are_redacted() {
    // Locked server: raw frame, no Hello -> Error with role == None.
    let dir = ScratchDir::new("auth-redaction");
    let (server, _root, alice, _cais) = start_locked_server(&dir);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let request = Request::Query(HistoryQuery::Whereabouts {
        subject: alice,
        at: Time(5),
    });
    wire::write_frame(&mut raw, &wire::encode_request(&request)).unwrap();
    let payload = wire::read_frame(&mut raw, 1 << 20).unwrap();
    match wire::decode_response(&payload).unwrap() {
        Response::Error { code, role, .. } => {
            assert_eq!(code, ErrorCode::Unauthenticated);
            assert_eq!(role, None, "pre-handshake error frame leaked the role");
        }
        other => panic!("expected redacted refusal, got {other:?}"),
    }
    // A replication probe pre-handshake is just as silent.
    wire::write_frame(
        &mut raw,
        &wire::encode_request(&Request::Repl(ReplRequest::Manifest)),
    )
    .unwrap();
    let payload = wire::read_frame(&mut raw, 1 << 20).unwrap();
    match wire::decode_response(&payload).unwrap() {
        Response::Error { role, .. } => assert_eq!(role, None),
        other => panic!("expected redacted refusal, got {other:?}"),
    }
    drop(server);

    // Open server (auth not required): the always-gated admin path
    // still refuses anonymous callers, but may name its role — the
    // wire is open, so the role is not a secret.
    let dir = ScratchDir::new("auth-open-role");
    let (core, _, _) = campus_core();
    let (engine, _alerts) = DurableEngine::create(dir.path(), core, 2, store_config()).unwrap();
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut anon = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    let role = expect_refusal(
        anon.admin(AdminOp::SetTrustThreshold { threshold: 1 }),
        ErrorCode::Unauthenticated,
        "open-wire admin",
    );
    assert_eq!(role, Some(ServerRole::Primary));
}

/// A token whose validity window the monitoring clock has left behind
/// dies `Unauthenticated` on every frame kind, and a freshly minted
/// token on the same socket restores service.
#[test]
fn expired_tokens_are_refused_on_every_frame_kind() {
    let dir = ScratchDir::new("auth-expired");
    let (server, mut root, alice, cais) = start_locked_server(&dir);
    mint(
        &mut root,
        SubjectId(8),
        vec![
            Scope::Ingest { locations: None },
            Scope::Query,
            Scope::Replicate,
        ],
        Interval::lit(0, 10),
        "short-lived",
    );

    let mut sensor = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    sensor.hello("short-lived").unwrap();
    assert_eq!(
        sensor.ingest(&[enter(6, alice, cais)]).unwrap().processed,
        1
    );

    // The monitoring clock (max trusted event time) marches past the
    // token's validity; the next frame on the live connection dies.
    root.ingest(&[enter(50, SubjectId(3), cais)]).unwrap();
    refuse_every_frame_kind(
        &mut sensor,
        alice,
        cais,
        ErrorCode::Unauthenticated,
        "expired",
    );

    // Re-presenting the stale secret is itself refused...
    expect_refusal(
        sensor.hello("short-lived"),
        ErrorCode::Unauthenticated,
        "expired re-hello",
    );
    // ...but a fresh token on the same socket recovers service.
    mint(
        &mut root,
        SubjectId(8),
        vec![Scope::Query],
        Interval::ALL,
        "fresh",
    );
    sensor.hello("fresh").unwrap();
    assert_eq!(sensor.whereabouts(alice, Time(7)).unwrap(), Some(cais));
}

/// Revocation over the wire bites on the very next frame of an
/// already-authenticated connection — no restart, no reconnect —
/// with `PermissionDenied`.
#[test]
fn revoked_mid_connection_dies_on_the_next_frame() {
    let dir = ScratchDir::new("auth-revoked");
    let (server, mut root, alice, cais) = start_locked_server(&dir);
    let id = mint(
        &mut root,
        SubjectId(9),
        vec![Scope::Ingest { locations: None }, Scope::Query],
        Interval::ALL,
        "field-sensor",
    );

    let mut sensor = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    sensor.hello("field-sensor").unwrap();
    assert_eq!(
        sensor.ingest(&[enter(11, alice, cais)]).unwrap().processed,
        1
    );

    // An admin RPC on a *different* connection revokes the token...
    assert_eq!(
        root.admin(AdminOp::RevokeToken { id }).unwrap(),
        AdminOutcome::TokenRevoked { existed: true }
    );
    // ...and the very next frame on the sensor's live socket is refused.
    refuse_every_frame_kind(
        &mut sensor,
        alice,
        cais,
        ErrorCode::PermissionDenied,
        "revoked",
    );
    assert!(sensor.is_connected());

    // The socket itself is not poisoned: a valid replacement identity
    // presented on it is serviced.
    mint(
        &mut root,
        SubjectId(9),
        vec![Scope::Query],
        Interval::ALL,
        "field-sensor-2",
    );
    sensor.hello("field-sensor-2").unwrap();
    assert_eq!(sensor.whereabouts(alice, Time(12)).unwrap(), Some(cais));
}

/// A live identity holding the wrong grants: every frame kind outside
/// its scopes is `PermissionDenied`, everything inside them still
/// works, and location-restricted ingest scopes are enforced per
/// batch.
#[test]
fn wrong_scope_tokens_are_refused_per_frame_kind() {
    let dir = ScratchDir::new("auth-scopes");
    let (server, mut root, alice, cais) = start_locked_server(&dir);
    let lobby = ntu_campus().sce_go;
    assert_ne!(lobby, cais);
    mint(
        &mut root,
        SubjectId(21),
        vec![Scope::Query],
        Interval::ALL,
        "read-only",
    );
    mint(
        &mut root,
        SubjectId(22),
        vec![Scope::Ingest {
            locations: Some(vec![lobby]),
        }],
        Interval::ALL,
        "lobby-door",
    );

    // Query-scoped: reads work, every write/replication/admin path dies.
    let mut reader = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    reader.hello("read-only").unwrap();
    assert_eq!(reader.whereabouts(alice, Time(3)).unwrap(), None);
    assert!(reader.metrics().unwrap().contains("serve_"));
    expect_refusal(
        reader.ingest(&[enter(11, alice, cais)]),
        ErrorCode::PermissionDenied,
        "read-only ingest",
    );
    expect_refusal(
        reader.check_access(Time(10), alice, cais),
        ErrorCode::PermissionDenied,
        "read-only check",
    );
    expect_refusal(
        reader.repl_manifest(),
        ErrorCode::PermissionDenied,
        "read-only repl",
    );
    expect_refusal(
        reader.admin(AdminOp::SetTrustThreshold { threshold: 0 }),
        ErrorCode::PermissionDenied,
        "read-only admin",
    );
    // The refusals left the connection serviceable for in-scope work.
    assert_eq!(reader.whereabouts(alice, Time(3)).unwrap(), None);

    // Ingest-scoped-to-lobby: covered locations ingest, others die,
    // and reads are out of scope entirely.
    let mut door = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    door.hello("lobby-door").unwrap();
    assert_eq!(door.ingest(&[enter(2, alice, lobby)]).unwrap().processed, 1);
    expect_refusal(
        door.ingest(&[enter(11, alice, cais)]),
        ErrorCode::PermissionDenied,
        "out-of-coverage ingest",
    );
    expect_refusal(
        door.whereabouts(alice, Time(2)),
        ErrorCode::PermissionDenied,
        "ingest-only query",
    );
    expect_refusal(
        door.metrics(),
        ErrorCode::PermissionDenied,
        "ingest-only metrics",
    );
}

/// Below-threshold sensors: their events are diverted to the durable
/// quarantine ledger (never the trusted history), the ledger is
/// queryable and flagged in contact-tracing answers, and raising the
/// sensor's trust level over the wire restores normal ingest.
#[test]
fn low_trust_sensor_events_are_quarantined_and_flagged() {
    let dir = ScratchDir::new("auth-trust");
    let (server, mut root, alice, cais) = start_locked_server(&dir);
    let sensor_id = SubjectId(40);
    assert_eq!(
        root.admin(AdminOp::SetTrustThreshold { threshold: 2 })
            .unwrap(),
        AdminOutcome::TrustSet
    );
    mint(
        &mut root,
        sensor_id,
        vec![Scope::Ingest { locations: None }, Scope::Query],
        Interval::ALL,
        "rookie-sensor",
    );

    let mut sensor = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    sensor.hello("rookie-sensor").unwrap();
    match sensor.ingest_flagged(&[enter(11, alice, cais)]).unwrap() {
        IngestReply::Quarantined { held } => assert_eq!(held, 1),
        other => panic!("low-trust ingest must quarantine, got {other:?}"),
    }

    // Nothing reached the trusted history...
    assert_eq!(root.whereabouts(alice, Time(12)).unwrap(), None);
    // ...but the ledger is queryable and tags its source and level.
    let held = root.quarantined(None, Interval::ALL).unwrap();
    assert_eq!(held.len(), 1);
    assert_eq!(held[0].source, sensor_id);
    assert_eq!(held[0].event, enter(11, alice, cais));
    assert_eq!(
        root.quarantined(Some(sensor_id), Interval::ALL)
            .unwrap()
            .len(),
        1
    );
    assert!(root
        .quarantined(Some(SubjectId(99)), Interval::ALL)
        .unwrap()
        .is_empty());

    // Contact tracing flags the quarantined sighting instead of
    // silently mixing it into trusted contacts.
    let (contacts, flagged) = root.contacts_flagged(alice, Interval::ALL).unwrap();
    assert!(contacts.is_empty());
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].source, sensor_id);

    // Status reports the locked wire and the held count.
    let status = root.status().unwrap();
    assert!(status.auth_required);
    assert_eq!(status.quarantined_events, 1);

    // Promoting the sensor over the wire restores normal ingest.
    assert_eq!(
        root.admin(AdminOp::SetTrust {
            subject: sensor_id,
            level: 3,
        })
        .unwrap(),
        AdminOutcome::TrustSet
    );
    match sensor.ingest_flagged(&[enter(12, alice, cais)]).unwrap() {
        IngestReply::Ingested(summary) => assert_eq!(summary.processed, 1),
        other => panic!("trusted ingest must apply, got {other:?}"),
    }
    assert_eq!(root.whereabouts(alice, Time(13)).unwrap(), Some(cais));
}

/// Auth state is durable: tokens minted, revocations issued, and
/// trust edits made over the wire all survive a hard restart of the
/// store — a revoked token stays dead after crash + recovery.
#[test]
fn revocations_and_trust_edits_survive_restart() {
    let dir = ScratchDir::new("auth-durable");
    let live_id;
    let alice;
    let cais;
    {
        let (server, mut root, a, c) = start_locked_server(&dir);
        alice = a;
        cais = c;
        let _ = &server;
        let dead_id = mint(
            &mut root,
            SubjectId(5),
            vec![Scope::Ingest { locations: None }],
            Interval::ALL,
            "doomed",
        );
        live_id = mint(
            &mut root,
            SubjectId(6),
            vec![Scope::Query],
            Interval::ALL,
            "survivor",
        );
        root.admin(AdminOp::RevokeToken { id: dead_id }).unwrap();
        root.admin(AdminOp::SetTrustThreshold { threshold: 1 })
            .unwrap();
        root.ingest(&[enter(11, alice, cais)]).unwrap();
        // Server drops here without any orderly flush beyond the WAL.
    }

    let (engine, _alerts, _report) =
        DurableEngine::open_with_shards(dir.path(), store_config(), 2).unwrap();
    let server = Server::start(engine, "127.0.0.1:0", auth_config()).unwrap();
    let mut doomed = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    // A revoked secret no longer resolves to any identity at all.
    expect_refusal(
        doomed.hello("doomed"),
        ErrorCode::Unauthenticated,
        "revoked secret after restart",
    );
    let mut survivor = LtamClient::connect(&server.local_addr().to_string()).unwrap();
    let (id, subject, _) = survivor.hello("survivor").unwrap();
    assert_eq!(id, live_id);
    assert_eq!(subject, SubjectId(6));
    // The movement history ingested before the crash recovered too.
    assert_eq!(survivor.whereabouts(alice, Time(12)).unwrap(), Some(cais));
    let status = survivor.status().unwrap();
    assert!(
        status.auth_required,
        "auth-required flag must survive restart"
    );
}

/// The monitoring clock is durable: a token that expired stays expired
/// across a clean restart and at a freshly bootstrapped follower, even
/// though the snapshot either comes up from leaves no WAL tail whose
/// events could re-advance the clock past the expiry.
#[test]
fn an_expired_token_stays_expired_across_restart_and_bootstrap() {
    let p_dir = ScratchDir::new("auth-clock-p");
    let f_dir = ScratchDir::new("auth-clock-f");
    let (server, mut root, _alice, _cais) = start_locked_server(&p_dir);
    mint(
        &mut root,
        SubjectId(900),
        vec![Scope::Replicate],
        Interval::ALL,
        "repl-secret",
    );
    mint(
        &mut root,
        SubjectId(8),
        vec![Scope::Query],
        Interval::lit(0, 100),
        "short-lived",
    );
    let hello = |addr: &str| LtamClient::connect(addr).unwrap().hello("short-lived");
    let addr = server.local_addr().to_string();
    hello(&addr).expect("valid until the clock passes 100");
    root.ingest(&[Event::Tick { now: Time(250) }]).unwrap();
    expect_refusal(hello(&addr), ErrorCode::Unauthenticated, "before restart");

    // A clean shutdown ends with a snapshot: the reopen replays nothing.
    drop(root);
    drop(server.shutdown().unwrap());
    let (engine, _alerts, report) = DurableEngine::open(p_dir.path(), store_config()).unwrap();
    assert_eq!(report.replayed, 0, "the snapshot covers the whole log");
    assert_eq!(engine.clock(), Time(250), "the clock rode the snapshot");
    let primary = Server::start(engine, "127.0.0.1:0", auth_config()).unwrap();
    let p_addr = primary.local_addr().to_string();
    expect_refusal(hello(&p_addr), ErrorCode::Unauthenticated, "after restart");

    // A follower bootstrapped from that snapshot judges the same way.
    let f_engine =
        bootstrap_follower_as(f_dir.path(), &p_addr, Some("repl-secret"), store_config()).unwrap();
    let mut replica = ReplicaConfig::new(&p_addr);
    replica.token = Some("repl-secret".to_string());
    let follower = Server::start_follower(f_engine, "127.0.0.1:0", auth_config(), replica).unwrap();
    expect_refusal(
        hello(&follower.local_addr().to_string()),
        ErrorCode::Unauthenticated,
        "at a freshly bootstrapped follower",
    );

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}

/// The follower leg: every enforcement point judges a token under the
/// same registry. A follower tailing a locked primary comes up locked
/// (the bootstrap replays the logged policy ops), refuses a token on
/// every frame kind once the primary's `RevokeToken` record has passed
/// its watermark, and honours a token minted after it was bootstrapped
/// — all from the replicated WAL, without ever re-bootstrapping.
#[test]
fn a_tailing_follower_refuses_a_revoked_token_and_honours_a_fresh_one() {
    let p_dir = ScratchDir::new("auth-follower-p");
    let f_dir = ScratchDir::new("auth-follower-f");
    let (primary, mut root, alice, cais) = start_locked_server(&p_dir);
    let p_addr = primary.local_addr().to_string();
    mint(
        &mut root,
        SubjectId(900),
        vec![Scope::Replicate],
        Interval::ALL,
        "repl-secret",
    );
    let victim = mint(
        &mut root,
        SubjectId(9),
        vec![Scope::Ingest { locations: None }, Scope::Query],
        Interval::ALL,
        "field-sensor",
    );
    root.ingest(&[enter(11, alice, cais)]).unwrap();

    let f_engine =
        bootstrap_follower_as(f_dir.path(), &p_addr, Some("repl-secret"), store_config()).unwrap();
    let mut replica = ReplicaConfig::new(&p_addr);
    replica.poll_interval = Duration::from_millis(2);
    replica.token = Some("repl-secret".to_string());
    let follower = Server::start_follower(f_engine, "127.0.0.1:0", auth_config(), replica).unwrap();
    let f_addr = follower.local_addr().to_string();
    let mut probe = LtamClient::connect(&f_addr).unwrap();
    probe.hello(ROOT_SECRET).unwrap();

    // Locked from its first frame, and the primary's tokens resolve.
    let mut anon = LtamClient::connect(&f_addr).unwrap();
    expect_refusal(
        anon.whereabouts(alice, Time(12)),
        ErrorCode::Unauthenticated,
        "anonymous at the follower",
    );
    let mut sensor = LtamClient::connect(&f_addr).unwrap();
    sensor.hello("field-sensor").unwrap();
    assert_eq!(sensor.whereabouts(alice, Time(12)).unwrap(), Some(cais));

    // Revoked on the primary: dead at the follower on every frame kind
    // as soon as the record is behind its watermark. (The capability
    // gate runs before the follower's read-only refusals, so writes and
    // admin frames die `PermissionDenied` too, not `NotPrimary`.)
    root.admin(AdminOp::RevokeToken { id: victim }).unwrap();
    let revoked_at = root.status().unwrap().events_ingested;
    probe
        .wait_for_watermark(revoked_at, Duration::from_secs(20))
        .unwrap();
    refuse_every_frame_kind(
        &mut sensor,
        alice,
        cais,
        ErrorCode::PermissionDenied,
        "revoked on the primary, asked at the follower",
    );
    expect_refusal(
        LtamClient::connect(&f_addr).unwrap().hello("field-sensor"),
        ErrorCode::Unauthenticated,
        "revoked secret re-presented at the follower",
    );

    // Minted on the primary after the bootstrap: honoured at the
    // follower, on the same socket the revocation just refused.
    mint(
        &mut root,
        SubjectId(9),
        vec![Scope::Query],
        Interval::ALL,
        "field-sensor-2",
    );
    let p_status = root.status().unwrap();
    probe
        .wait_for_watermark(p_status.events_ingested, Duration::from_secs(20))
        .unwrap();
    sensor.hello("field-sensor-2").unwrap();
    assert_eq!(sensor.whereabouts(alice, Time(12)).unwrap(), Some(cais));

    // Same policy log position on both sides, and nobody was parked.
    let f_status = probe.status().unwrap();
    assert_eq!(f_status.policy_epoch, p_status.policy_epoch);
    assert_eq!(f_status.replica.unwrap().state, ReplicaState::Streaming);

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}
