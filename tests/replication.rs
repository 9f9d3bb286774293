//! Watermark monotonicity: a follower's published read watermark may
//! stall, but it must never move backward — not across network cuts
//! and reconnects, not across a follower kill + re-bootstrap, not
//! across a policy edit of any kind (each is a WAL record the follower
//! tails), and not across the primary compacting its log past the
//! follower's position (which parks the follower for re-bootstrap
//! rather than risking divergence).

use std::time::{Duration, Instant};

use ltam::core::capability::{AdminOp, AdminOutcome, Scope, TokenId};
use ltam::core::prohibition::Prohibition;
use ltam::core::subject::SubjectId;
use ltam::engine::batch::Event;
use ltam::serve::wire::ErrorCode;
use ltam::serve::{
    bootstrap_follower, bootstrap_follower_as, ClientError, LtamClient, ReplicaConfig,
    ReplicaState, Server, ServerConfig,
};
use ltam::store::{DurableEngine, ScratchDir, StoreConfig};
use ltam::time::{Interval, Time};
use ltam_bench::relay::TcpRelay;
use ltam_bench::serve_workload;
use ltam_sim::multi_shard_trace;

fn primary_store() -> StoreConfig {
    StoreConfig {
        segment_bytes: 16 * 1024,
        snapshot_every: 0,
        fsync: true,
        retention: None,
    }
}

fn follower_store() -> StoreConfig {
    StoreConfig {
        segment_bytes: 16 * 1024,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    }
}

fn fast_replica(primary_addr: &str, floor: u64) -> ReplicaConfig {
    let mut config = ReplicaConfig::new(primary_addr);
    config.poll_interval = Duration::from_millis(2);
    config.watermark_floor = floor;
    config
}

/// Assert the probed watermark never drops below `last`, returning the
/// new high-water mark.
fn assert_monotone(probe: &mut LtamClient, last: u64, context: &str) -> u64 {
    let watermark = probe
        .watermark()
        .expect("follower answers watermark probes");
    assert!(
        watermark >= last,
        "watermark regressed {last} -> {watermark} ({context})"
    );
    watermark
}

/// The follower's link to the primary is severed and re-established
/// repeatedly while a loader streams events. The watermark, sampled
/// continuously, never regresses, and the follower converges once the
/// stream ends.
#[test]
fn watermark_is_monotone_across_reconnects() {
    let trace = multi_shard_trace(&serve_workload(32, 2_400));
    let n = trace.events.len();

    let p_dir = ScratchDir::new("reconnect-primary");
    let f_dir = ScratchDir::new("reconnect-follower");
    let (engine, _alerts) =
        DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store()).unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p_addr = primary.local_addr().to_string();
    let relay = TcpRelay::start(&p_addr).unwrap();

    let f_engine = bootstrap_follower(f_dir.path(), relay.addr(), follower_store()).unwrap();
    let follower = Server::start_follower(
        f_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(relay.addr(), 0),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();

    let mut loader = LtamClient::connect(&p_addr).unwrap();
    let mut last = 0u64;
    for (i, chunk) in trace.events.chunks(64).enumerate() {
        loader.ingest(chunk).unwrap();
        last = assert_monotone(&mut probe, last, "while streaming");
        if i % 8 == 7 {
            relay.sever(); // cut the follower's link mid-stream
            last = assert_monotone(&mut probe, last, "just after a cut");
        }
    }

    probe
        .wait_for_watermark(n as u64, Duration::from_secs(30))
        .expect("follower reconnects through every cut and converges");
    assert_monotone(&mut probe, last, "after convergence");

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
    relay.stop();
}

/// A follower is killed mid-stream and a replacement is bootstrapped
/// with the dead follower's watermark as its floor: the replacement
/// never publishes a watermark below that floor, even before it has
/// caught up.
#[test]
fn watermark_is_monotone_across_a_rebootstrap() {
    let trace = multi_shard_trace(&serve_workload(32, 2_400));
    let n = trace.events.len();

    let p_dir = ScratchDir::new("rebootstrap-primary");
    let (engine, _alerts) =
        DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store()).unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p_addr = primary.local_addr().to_string();

    let f1_dir = ScratchDir::new("rebootstrap-follower1");
    let f1_engine = bootstrap_follower(f1_dir.path(), &p_addr, follower_store()).unwrap();
    let follower1 = Server::start_follower(
        f1_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(&p_addr, 0),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower1.local_addr().to_string()).unwrap();

    let mut loader = LtamClient::connect(&p_addr).unwrap();
    let half = n / 2;
    for chunk in trace.events[..half].chunks(64) {
        loader.ingest(chunk).unwrap();
    }
    probe
        .wait_for_watermark(half as u64, Duration::from_secs(20))
        .unwrap();
    let floor = probe.watermark().unwrap();
    drop(follower1.abort().unwrap()); // the follower dies

    // Its replacement inherits the served watermark as a floor.
    let f2_dir = ScratchDir::new("rebootstrap-follower2");
    let f2_engine = bootstrap_follower(f2_dir.path(), &p_addr, follower_store()).unwrap();
    let follower2 = Server::start_follower(
        f2_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(&p_addr, floor),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower2.local_addr().to_string()).unwrap();
    let mut last = assert_monotone(&mut probe, floor, "first sample after re-bootstrap");

    for chunk in trace.events[half..].chunks(64) {
        loader.ingest(chunk).unwrap();
        last = assert_monotone(&mut probe, last, "while catching up");
    }
    probe
        .wait_for_watermark(n as u64, Duration::from_secs(30))
        .unwrap();

    drop(follower2.abort().unwrap());
    drop(primary.abort().unwrap());
}

/// The digest is a history query: a follower below its watermark floor
/// refuses it `Stale`, as it refuses the others, while `Status` (how an
/// operator watches the catch-up) still answers.
#[test]
fn a_follower_below_its_floor_refuses_the_digest() {
    let trace = multi_shard_trace(&serve_workload(8, 100));
    let p_dir = ScratchDir::new("digest-floor-primary");
    let (engine, _alerts) =
        DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store()).unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p_addr = primary.local_addr().to_string();
    let f_dir = ScratchDir::new("digest-floor-follower");
    let f_engine = bootstrap_follower(f_dir.path(), &p_addr, follower_store()).unwrap();
    let follower = Server::start_follower(
        f_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(&p_addr, 1_000),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
    match probe.digest() {
        Err(ClientError::Server {
            code: ErrorCode::Stale,
            ..
        }) => {}
        other => panic!("expected a Stale refusal, got {other:?}"),
    }
    assert_eq!(probe.status().unwrap().events_ingested, 0);

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}

/// A bootstrap killed mid-fetch leaves its partial file under the
/// store's temp naming, never the final name; the next bootstrap's open
/// deletes it like any orphan (and leaves a file that is not the
/// store's alone).
#[test]
fn a_killed_bootstraps_fetch_temps_are_removed_by_the_next() {
    let trace = multi_shard_trace(&serve_workload(8, 100));
    let p_dir = ScratchDir::new("fetch-temp-primary");
    let (engine, _alerts) =
        DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store()).unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p_addr = primary.local_addr().to_string();
    let f_dir = ScratchDir::new("fetch-temp-follower");
    let partial = [
        format!("snap-{:020}-{:010}.tmp", 90, 3),
        format!("arch-{:020}-{:020}.tmp", 0, 40),
        format!("wal-{:020}.tmp", 90),
    ];
    for name in &partial {
        std::fs::write(f_dir.path().join(name), b"partial").unwrap();
    }
    std::fs::write(f_dir.path().join("notes.tmp"), b"not the store's").unwrap();
    let f_engine = bootstrap_follower(f_dir.path(), &p_addr, follower_store()).unwrap();
    let mut temps: Vec<String> = std::fs::read_dir(f_dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    temps.sort();
    assert_eq!(temps, ["notes.tmp"]);
    drop(f_engine);
    drop(primary.abort().unwrap());
}

/// Times the replication loop entered `NeedsBootstrap` in this process.
fn parks() -> u64 {
    ltam::obs::counter_value(
        ltam::obs::registry(),
        "repl_state_transitions_total",
        &[("state", "needs_bootstrap")],
    )
    .unwrap_or(0)
}

/// A closure edit lands mid-trace as one `Install` record, and the
/// *same* follower process tails across it: watermark monotone, never
/// parked, and at the primary's watermark it holds the primary's digest
/// and policy epoch. What still parks a follower is losing its place in
/// the log: the primary then compacts past the follower's position, the
/// follower parks `NeedsBootstrap` — watermark frozen, reads still
/// served — and a re-bootstrap with that watermark as the floor
/// converges without ever regressing.
///
/// One test on purpose: the transition counter is process-global, and
/// this is the only test here that parks a follower.
#[test]
fn watermark_is_monotone_across_a_policy_epoch_swap() {
    let trace = multi_shard_trace(&serve_workload(32, 2_400));
    let n = trace.events.len();
    let quarter = n / 4;
    let parks_before = parks();

    let p_dir = ScratchDir::new("epoch-primary");
    let core = trace.build_policy_core();
    // Blocking a door the trace's own subjects use changes how later
    // events are judged, so digest equality below also proves the edit
    // was replayed at its position.
    let (_, blocked, _) = core.db().iter().next().expect("the trace grants something");
    let prohibition = Prohibition {
        subject: blocked.subject(),
        location: blocked.location(),
        window: Interval::ALL,
    };
    let (engine, _alerts) = DurableEngine::create(p_dir.path(), core, 2, primary_store()).unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let relay = TcpRelay::start(&primary.local_addr().to_string()).unwrap();

    let f1_dir = ScratchDir::new("epoch-follower1");
    let f1_engine = bootstrap_follower(f1_dir.path(), relay.addr(), follower_store()).unwrap();
    let follower1 = Server::start_follower(
        f1_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(relay.addr(), 0),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower1.local_addr().to_string()).unwrap();

    let mut loader = LtamClient::connect(&primary.local_addr().to_string()).unwrap();
    for chunk in trace.events[..quarter].chunks(64) {
        loader.ingest(chunk).unwrap();
    }
    let mut last = probe
        .wait_for_watermark(quarter as u64, Duration::from_secs(20))
        .unwrap();

    // The administrator edits the policy: stop the primary, apply the
    // closure edit durably, bring it back.
    let mut engine = primary.abort().unwrap();
    engine
        .update_policy(|p| p.add_prohibition(prohibition))
        .unwrap();
    assert_eq!(engine.policy_epoch(), 1);
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    relay.set_upstream(&primary.local_addr().to_string());

    let mut loader = LtamClient::connect(&primary.local_addr().to_string()).unwrap();
    for chunk in trace.events[quarter..2 * quarter].chunks(64) {
        loader.ingest(chunk).unwrap();
        last = assert_monotone(&mut probe, last, "while tailing across the closure edit");
    }
    let p_status = loader.status().unwrap();
    assert_eq!(p_status.events_ingested, 2 * quarter as u64 + 1);
    probe
        .wait_for_watermark(p_status.events_ingested, Duration::from_secs(30))
        .expect("the same follower tails across the closure edit");
    last = assert_monotone(&mut probe, last, "after the closure edit");
    let f_status = probe.status().unwrap();
    assert_eq!(f_status.events_ingested, p_status.events_ingested);
    assert_eq!(probe.digest().unwrap(), loader.digest().unwrap());
    assert_eq!((f_status.policy_epoch, p_status.policy_epoch), (1, 1));
    assert_eq!(f_status.replica.unwrap().primary_epoch, 1);
    assert_eq!(
        parks(),
        parks_before,
        "a policy edit never parks a follower"
    );

    // Compaction trails the older of the two retained snapshots: two
    // snapshots past the follower's position, taken while it cannot
    // reach the primary, drop every segment that covers that position.
    let mut engine = primary.abort().unwrap();
    let (third, fourth) = trace.events[2 * quarter..].split_at(quarter);
    let (before, between) = third.split_at(quarter / 2);
    engine.ingest(before).unwrap();
    engine.snapshot().unwrap();
    engine.ingest(between).unwrap();
    engine.snapshot().unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    relay.set_upstream(&primary.local_addr().to_string());

    // The follower finds no segment covering its position and parks —
    // watermark frozen, reads still served.
    let deadline = Instant::now() + Duration::from_secs(20);
    let frozen = loop {
        let replica = probe.status().unwrap().replica.unwrap();
        if replica.state == ReplicaState::NeedsBootstrap {
            break replica.watermark;
        }
        assert!(
            Instant::now() < deadline,
            "follower never parked on the compacted log: {replica:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(frozen, last);
    assert!(parks() > parks_before);
    assert_monotone(&mut probe, frozen, "while parked");
    drop(follower1.abort().unwrap());

    // Re-bootstrap with the frozen watermark as the floor; finish the
    // trace and converge.
    let f2_dir = ScratchDir::new("epoch-follower2");
    let f2_engine = bootstrap_follower(f2_dir.path(), relay.addr(), follower_store()).unwrap();
    assert_eq!(f2_engine.policy_epoch(), 1, "the snapshot carries the edit");
    let follower2 = Server::start_follower(
        f2_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(relay.addr(), frozen),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower2.local_addr().to_string()).unwrap();
    let mut last = assert_monotone(&mut probe, frozen, "first sample after re-bootstrap");

    let mut loader = LtamClient::connect(&primary.local_addr().to_string()).unwrap();
    for chunk in fourth.chunks(64) {
        loader.ingest(chunk).unwrap();
        last = assert_monotone(&mut probe, last, "while catching up");
    }
    probe
        .wait_for_watermark(n as u64 + 1, Duration::from_secs(30))
        .unwrap();
    assert_monotone(&mut probe, last, "after convergence");
    assert_eq!(probe.digest().unwrap(), loader.digest().unwrap());

    drop(follower2.abort().unwrap());
    drop(primary.abort().unwrap());
    relay.stop();
}

/// Mint a replicate-scoped token over the wire and return its id.
fn mint_repl_token(root: &mut LtamClient, secret: &str) -> TokenId {
    match root
        .admin(AdminOp::MintToken {
            subject: SubjectId(900),
            scopes: vec![Scope::Replicate],
            validity: Interval::ALL,
            secret: secret.to_string(),
        })
        .unwrap()
    {
        AdminOutcome::TokenMinted { id } => id,
        other => panic!("unexpected mint outcome {other:?}"),
    }
}

/// A policy-op storm concurrent with a tailing follower: wire-auth
/// edits (mint/trust), authorization revocations and re-grants of the
/// trace's own authorizations, and situation ops (responders,
/// declarations, constraints) are each one WAL record — no snapshot, no
/// rotation — so the follower replays every one at its stream position. It must never park `NeedsBootstrap`,
/// and it converges to the same state digest *and* the same policy
/// epoch as the primary.
#[test]
fn admin_and_situation_storm_never_parks_a_tailing_follower() {
    use ltam::situate::{IncidentId, SituationMode, SituationOp, WorkflowConstraint};

    const ROOT: &str = "storm-root";
    let trace = multi_shard_trace(&serve_workload(16, 1_200));
    let n = trace.events.len();

    let p_dir = ScratchDir::new("storm-primary");
    let core = trace.build_policy_core();
    // Authorizations the trace's own subjects enter under: revoking and
    // re-granting them mid-stream changes how later events are judged,
    // so digest equality below also proves in-position replay.
    let mut live: Vec<_> = core
        .db()
        .iter()
        .take(8)
        .map(|(id, auth, _)| (id, *auth))
        .collect();
    let mut revoked = Vec::new();
    let (engine, _alerts) = DurableEngine::create(p_dir.path(), core, 2, primary_store()).unwrap();
    let config = ServerConfig {
        root_token: Some(ROOT.to_string()),
        ..ServerConfig::default()
    };
    let primary = Server::start(engine, "127.0.0.1:0", config.clone()).unwrap();
    let p_addr = primary.local_addr().to_string();
    let mut root = LtamClient::connect(&p_addr).unwrap();
    root.hello(ROOT).unwrap();

    let f_dir = ScratchDir::new("storm-follower");
    let f_engine = bootstrap_follower(f_dir.path(), &p_addr, follower_store()).unwrap();
    let follower =
        Server::start_follower(f_engine, "127.0.0.1:0", config, fast_replica(&p_addr, 0)).unwrap();
    let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
    probe.hello(ROOT).unwrap();

    // Interleave the event stream with the storm: every chunk of 64
    // events is followed by one admin op and one situation op. The
    // 16 KiB segments mean the WAL rotates often — if any of these
    // edits compacted the log behind the follower's cursor it would
    // park NeedsBootstrap within a few chunks.
    let mut last = 0u64;
    let mut policy_ops = 0u64;
    for (i, chunk) in trace.events.chunks(64).enumerate() {
        root.ingest(chunk).unwrap();
        match i % 4 {
            0 => {
                root.admin(AdminOp::MintToken {
                    subject: SubjectId(5_000 + i as u32),
                    scopes: vec![Scope::Ingest { locations: None }],
                    validity: Interval::ALL,
                    secret: format!("storm-{i}"),
                })
                .unwrap();
            }
            1 => {
                root.admin(AdminOp::SetTrust {
                    subject: SubjectId(5_000 + i as u32),
                    level: 3,
                })
                .unwrap();
            }
            2 => {
                let (id, auth) = live.remove(0);
                revoked.push(auth);
                root.admin(AdminOp::RevokeAuthorization { id }).unwrap();
            }
            _ => {
                let auth = revoked.remove(0);
                match root.admin(AdminOp::AddAuthorization(auth)).unwrap() {
                    AdminOutcome::AuthorizationAdded { id } => live.push((id, auth)),
                    other => panic!("unexpected grant outcome {other:?}"),
                }
            }
        }
        let op = match i % 4 {
            0 => SituationOp::AddResponder(SubjectId(6_000 + i as u32)),
            1 => SituationOp::Declare(SituationMode::Emergency {
                incident: IncidentId(i as u64),
                until: Time(u64::MAX),
            }),
            2 => SituationOp::AddConstraint(WorkflowConstraint::SeparationOfDuty {
                first: ltam::graph::LocationId(1),
                second: ltam::graph::LocationId(2),
                window: 10,
            }),
            _ => SituationOp::Declare(SituationMode::Normal),
        };
        root.situation(op).unwrap();
        policy_ops += 2;

        let replica = probe.status().unwrap().replica.unwrap();
        assert_ne!(
            replica.state,
            ReplicaState::NeedsBootstrap,
            "a policy-op storm must never park the follower (chunk {i})"
        );
        last = assert_monotone(&mut probe, last, "during the storm");
    }

    // Policy ops consume WAL sequence numbers like events, so the
    // convergence target is the primary's own applied count.
    let p_status = root.status().unwrap();
    assert_eq!(p_status.events_ingested, n as u64 + policy_ops);
    assert_eq!(p_status.policy_epoch, policy_ops);
    probe
        .wait_for_watermark(p_status.events_ingested, Duration::from_secs(30))
        .expect("the follower tails through the whole storm");

    // Every op replayed in-stream: same judged history, same policy
    // log position — and the follower reports the primary's.
    let f_status = probe.status().unwrap();
    assert_eq!(probe.digest().unwrap(), root.digest().unwrap());
    assert_eq!(f_status.policy_epoch, p_status.policy_epoch);
    let replica = f_status.replica.unwrap();
    assert_ne!(replica.state, ReplicaState::NeedsBootstrap);
    assert_eq!(replica.primary_epoch, p_status.policy_epoch);

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}

/// Replication against a locked wire: an anonymous bootstrap is
/// refused outright; a replicate-scoped token bootstraps and tails
/// (straight through the admin ops in the stream); revoking the
/// token mid-tail parks the follower `Disconnected` — *not*
/// `NeedsBootstrap`, its store is not suspect, only its credential —
/// and re-minting the same secret resumes the tail with a monotone
/// watermark and a matching digest.
#[test]
fn replication_under_auth_revocation_parks_disconnected_and_remint_resumes() {
    const ROOT: &str = "root-secret";
    const REPL: &str = "repl-secret";
    let trace = multi_shard_trace(&serve_workload(16, 1_200));
    let n = trace.events.len();

    let p_dir = ScratchDir::new("auth-repl-primary");
    let (engine, _alerts) =
        DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store()).unwrap();
    let config = ServerConfig {
        root_token: Some(ROOT.to_string()),
        ..ServerConfig::default()
    };
    let primary = Server::start(engine, "127.0.0.1:0", config.clone()).unwrap();
    let p_addr = primary.local_addr().to_string();

    let mut root = LtamClient::connect(&p_addr).unwrap();
    root.hello(ROOT).unwrap();
    root.admin(AdminOp::SetAuthRequired { required: true })
        .unwrap();
    let token_id = mint_repl_token(&mut root, REPL);

    // An anonymous bootstrap cannot even read the manifest.
    let anon_dir = ScratchDir::new("auth-repl-anon");
    assert!(
        bootstrap_follower(anon_dir.path(), &p_addr, follower_store()).is_err(),
        "anonymous bootstrap must be refused by a locked primary"
    );

    // A replicate-scoped bootstrap succeeds, and the tail authenticates.
    let f_dir = ScratchDir::new("auth-repl-follower");
    let f_engine =
        bootstrap_follower_as(f_dir.path(), &p_addr, Some(REPL), follower_store()).unwrap();
    let mut replica_config = fast_replica(&p_addr, 0);
    replica_config.token = Some(REPL.to_string());
    let follower =
        Server::start_follower(f_engine, "127.0.0.1:0", config.clone(), replica_config).unwrap();
    let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
    probe.hello(ROOT).unwrap();

    let half = n / 2;
    for chunk in trace.events[..half].chunks(64) {
        root.ingest(chunk).unwrap();
    }
    probe
        .wait_for_watermark(half as u64, Duration::from_secs(20))
        .unwrap();

    // An admin op (another mint) is one more WAL record: the follower
    // replays it in-stream instead of parking for re-bootstrap.
    mint_repl_token(&mut root, "bystander-secret");
    let three_quarters = half + (n - half) / 2;
    for chunk in trace.events[half..three_quarters].chunks(64) {
        root.ingest(chunk).unwrap();
    }
    probe
        .wait_for_watermark(three_quarters as u64, Duration::from_secs(20))
        .unwrap();

    // Revocation mid-tail: the follower's next fetch is refused and it
    // parks Disconnected. Its store is intact, so it must NOT demand a
    // re-bootstrap.
    root.admin(AdminOp::RevokeToken { id: token_id }).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let frozen = loop {
        let replica = probe.status().unwrap().replica.unwrap();
        assert_ne!(
            replica.state,
            ReplicaState::NeedsBootstrap,
            "a credential refusal must not be mistaken for store divergence"
        );
        if replica.state == ReplicaState::Disconnected {
            break replica.watermark;
        }
        assert!(
            Instant::now() < deadline,
            "follower never parked on revocation: {replica:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // While parked, new primary traffic does not leak across: the
    // watermark holds and the state stays Disconnected.
    for chunk in trace.events[three_quarters..].chunks(64) {
        root.ingest(chunk).unwrap();
    }
    for _ in 0..20 {
        let replica = probe.status().unwrap().replica.unwrap();
        assert_ne!(replica.state, ReplicaState::NeedsBootstrap);
        assert_eq!(
            replica.watermark, frozen,
            "a revoked follower must not keep applying the tail"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Re-minting the *same secret* under a fresh token id is the
    // operator's rotation story: the follower's retry loop
    // re-authenticates and the tail resumes, monotone, to convergence.
    let new_id = mint_repl_token(&mut root, REPL);
    assert_ne!(new_id, token_id);
    // Policy ops consume WAL sequence numbers like events, so the
    // convergence target is the primary's own applied count.
    let p_status = root.status().unwrap();
    let target = p_status.events_ingested;
    assert!(target > n as u64);
    let mut last = frozen;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        last = assert_monotone(&mut probe, last, "while resuming after re-mint");
        if last >= target {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged after re-mint (watermark {last}/{target})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // No divergence: digests match across primary and follower.
    let f_status = probe.status().unwrap();
    assert_eq!(probe.digest().unwrap(), root.digest().unwrap());
    assert_eq!(f_status.replica.unwrap().state, ReplicaState::Streaming);

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}

/// A primary serving swipes emits one-event WAL records by the
/// thousand. A follower that paid one commit round trip — queue hop,
/// WAL write, `fsync`, shard dispatch — per tailed record could not
/// keep up with it; consecutive event records of a fetched chunk are
/// committed as one run instead. 2 000 one-event records, tailed with
/// `fsync` on: the follower converges to the primary's digest on a
/// small fraction of 2 000 flushes, its watermark monotone throughout.
#[test]
fn follower_commits_tailed_one_event_records_in_runs() {
    const RECORDS: usize = 2_000;
    let trace = multi_shard_trace(&serve_workload(32, 2_400));
    let events = &trace.events[..RECORDS];

    let p_dir = ScratchDir::new("runs-primary");
    let f_dir = ScratchDir::new("runs-follower");
    // The primary's flushes are not under test (and 2 000 of them are
    // slow); the follower's are.
    let (engine, _alerts) =
        DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, follower_store())
            .unwrap();
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p_addr = primary.local_addr().to_string();

    // Bootstrap from the still-empty primary, then write the records
    // before the follower starts tailing: every one of them reaches it
    // through the tail, a chunk at a time.
    let f_engine = bootstrap_follower(f_dir.path(), &p_addr, primary_store()).unwrap();
    let mut loader = LtamClient::connect(&p_addr).unwrap();
    let frames: Vec<&[Event]> = events.chunks(1).collect();
    for window in frames.chunks(100) {
        loader.ingest_pipelined(window).unwrap();
    }
    let follower = Server::start_follower(
        f_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        fast_replica(&p_addr, 0),
    )
    .unwrap();
    let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = 0u64;
    while last < RECORDS as u64 {
        assert!(Instant::now() < deadline, "follower stuck at {last}");
        last = assert_monotone(&mut probe, last, "while tailing");
        std::thread::sleep(Duration::from_millis(1));
    }
    let f_status = probe.status().unwrap();
    assert_eq!(f_status.events_ingested, RECORDS as u64);
    assert_eq!(probe.digest().unwrap(), loader.digest().unwrap());
    assert!(
        f_status.wal_fsyncs < 500,
        "{} fsyncs for {RECORDS} tailed records: the follower is committing them one by one",
        f_status.wal_fsyncs
    );

    drop(follower.abort().unwrap());
    drop(primary.abort().unwrap());
}
