//! Failure injection: malformed inputs, impossible sensor streams,
//! mid-flight revocations, and structural validation errors must be
//! rejected or flagged — never silently accepted.

use ltam::core::model::{AuthError, Authorization, EntryLimit};
use ltam::core::subject::SubjectId;
use ltam::engine::engine::AccessControlEngine;
use ltam::engine::movement::MovementsDb;
use ltam::engine::violation::Violation;
use ltam::graph::{GraphError, LocationId, LocationModel};
use ltam::sim::grid_building;
use ltam::store::binval;
use ltam::time::{Interval, Time};
use serde::Value;

#[test]
fn out_of_order_sensor_stream_is_flagged_not_stored() {
    let world = grid_building(2, 2);
    let mut engine = AccessControlEngine::new(world.model.clone());
    let s = engine.profiles_mut().add_user("S", "staff");
    let entry = world.graph.global_entries()[0];
    for l in world.graph.locations() {
        engine.add_authorization(
            Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded).unwrap(),
        );
    }
    engine.request_enter(Time(10), s, entry);
    engine.observe_enter(Time(10), s, entry);
    // The sensor replays an old exit (time regression).
    let v = engine.observe_exit(Time(4), s, entry);
    assert!(matches!(v, Some(Violation::InconsistentMovement { .. })));
    // The log keeps only the consistent prefix.
    assert_eq!(engine.movements().len(), 1);
    assert_eq!(engine.movements().current_location(s), Some(entry));
}

#[test]
fn teleporting_subject_is_flagged() {
    let world = grid_building(2, 2);
    let mut engine = AccessControlEngine::new(world.model.clone());
    let s = engine.profiles_mut().add_user("S", "staff");
    let locs: Vec<LocationId> = world.graph.locations().collect();
    for &l in &locs {
        engine.add_authorization(
            Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded).unwrap(),
        );
    }
    engine.request_enter(Time(1), s, locs[0]);
    engine.observe_enter(Time(1), s, locs[0]);
    // A second enter without an exit: physically impossible.
    let v = engine.observe_enter(Time(2), s, locs[1]);
    assert!(matches!(v, Some(Violation::InconsistentMovement { .. })));
}

#[test]
fn movement_db_rejects_impossible_sequences_directly() {
    let mut db = MovementsDb::new();
    let s = SubjectId(0);
    let l = LocationId(0);
    assert!(db.record_exit(Time(0), s, l).is_err());
    db.record_enter(Time(1), s, l).unwrap();
    assert!(db.record_enter(Time(2), s, LocationId(1)).is_err());
    assert!(db.record_exit(Time(0), s, l).is_err()); // regression
    assert_eq!(db.len(), 1);
}

#[test]
fn definition4_violations_cannot_enter_the_db() {
    // Exit before entry start.
    let bad = Authorization::new(
        Interval::lit(10, 20),
        Interval::lit(5, 25),
        SubjectId(0),
        LocationId(0),
        EntryLimit::Finite(1),
    );
    assert!(matches!(bad, Err(AuthError::ExitStartsBeforeEntry { .. })));
    // And not through a decoded wire frame or snapshot either: the same
    // row with its exit window starting at entry start decodes.
    let row = |exit_start| {
        object(vec![
            ("entry_window", interval_value(10, 20)),
            ("exit_window", interval_value(exit_start, 25)),
            ("subject", Value::U64(0)),
            ("location", Value::U64(0)),
            ("limit", object(vec![("Finite", Value::U64(1))])),
        ])
    };
    assert!(decoded::<Authorization>(&row(10)).is_ok());
    assert!(decoded::<Authorization>(&row(5)).is_err());
}

/// `value` through the binary codec wire frames and snapshots use.
fn decoded<T: serde::Deserialize>(value: &Value) -> Result<T, serde::Error> {
    binval::decode(&binval::encode(value))
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An interval as `[start, end]` serializes: `{"start": s, "end": {"At": e}}`.
fn interval_value(start: u64, end: u64) -> Value {
    object(vec![
        ("start", Value::U64(start)),
        ("end", object(vec![("At", Value::U64(end))])),
    ])
}

#[test]
fn structural_graph_errors_are_descriptive() {
    let mut m = LocationModel::new("B");
    let a = m.add_primitive(m.root(), "a").unwrap();
    let b = m.add_primitive(m.root(), "b").unwrap();
    // Disconnected (no edge): validation names the unreachable location.
    m.set_entry(a).unwrap();
    match m.validate() {
        Err(GraphError::Disconnected { unreachable, .. }) => assert_eq!(unreachable, "b"),
        other => panic!("expected Disconnected, got {other:?}"),
    }
    m.add_edge(a, b).unwrap();
    assert!(m.validate().is_ok());
    // A nested graph without an entry is caught too.
    let wing = m.add_composite(m.root(), "wing").unwrap();
    let _c = m.add_primitive(wing, "c").unwrap();
    m.add_edge(wing, a).unwrap();
    assert!(matches!(m.validate(), Err(GraphError::NoEntry(n)) if n == "wing"));
}

#[test]
fn malformed_queries_fail_cleanly() {
    let world = grid_building(2, 2);
    let mut engine = AccessControlEngine::new(world.model.clone());
    engine.profiles_mut().add_user("A", "staff");
    for q in [
        "",
        "CAN A ENTER",
        "WHO IN R0_0 DURING [9, 2]",
        "ACCESSIBLE A",
        "WHERE A AT notanumber",
        "VIOLATIONS DURING [1",
    ] {
        assert!(engine.query(q).is_err(), "query {q:?} should fail");
    }
    // Unknown names are evaluation (not parse) errors.
    assert!(matches!(
        engine.query("WHERE Ghost AT 1"),
        Err(ltam::engine::query::QueryError::Eval(_))
    ));
    assert!(matches!(
        engine.query("WHO IN Nowhere AT 1"),
        Err(ltam::engine::query::QueryError::Eval(_))
    ));
}

#[test]
fn revocation_mid_stay_keeps_monitoring_consistent() {
    let world = grid_building(2, 2);
    let entry = world.graph.global_entries()[0];
    let mut engine = AccessControlEngine::new(world.model.clone());
    let s = engine.profiles_mut().add_user("S", "staff");
    let auth_id = engine.add_authorization(
        Authorization::new(
            Interval::lit(0, 10),
            Interval::lit(0, 10),
            s,
            entry,
            EntryLimit::Finite(1),
        )
        .unwrap(),
    );
    assert!(engine.request_enter(Time(1), s, entry).is_granted());
    engine.observe_enter(Time(1), s, entry);
    // The administrator revokes the authorization while S is inside.
    engine.revoke_authorization(auth_id);
    // The overstay scan has no window to enforce any more — no panic, no
    // spurious alert.
    assert!(engine.tick(Time(50)).is_empty());
    // The exit is still recorded; no exit-window violation can be checked
    // against a revoked authorization.
    assert_eq!(engine.observe_exit(Time(50), s, entry), None);
    assert_eq!(engine.movements().current_location(s), None);
}

#[test]
fn empty_and_inverted_intervals_are_unrepresentable() {
    assert!(Interval::closed(9u64, 2u64).is_err());
    assert!(decoded::<Interval>(&interval_value(2, 9)).is_ok());
    assert!(decoded::<Interval>(&interval_value(9, 2)).is_err());
}

/// Follower-side faults: the primary dies mid-snapshot-transfer,
/// mid-segment, and exactly on a group-commit batch boundary. In every
/// case the follower must resume cleanly or refuse loudly — never
/// diverge from the primary's history.
mod follower_faults {
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    use ltam::core::subject::SubjectId;
    use ltam::engine::batch::{apply_to_engine, Event};
    use ltam::serve::wire::{
        decode_request, encode_repl_chunk, encode_response, read_frame, write_frame, ReplChunk,
        ReplChunkMeta, ReplManifest, ReplRequest, ReplicaState, Request, Response,
        DEFAULT_MAX_FRAME_BYTES,
    };
    use ltam::serve::{bootstrap_follower, LtamClient, ReplicaConfig, Server, ServerConfig};
    use ltam::situate::SituationOp;
    use ltam::store::{DurableEngine, ReplFile, ReplFileId, ScratchDir, StoreConfig};
    use ltam::time::{Interval, Time};
    use ltam_bench::relay::TcpRelay;
    use ltam_bench::{serve_workload, violation_multiset};
    use ltam_sim::multi_shard_trace;

    fn primary_store() -> StoreConfig {
        StoreConfig {
            segment_bytes: 16 * 1024,
            snapshot_every: 0,
            fsync: true, // acked writes survive the kill; replication of lost acks is out of scope
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

    fn fast_replica(primary_addr: &str) -> ReplicaConfig {
        let mut config = ReplicaConfig::new(primary_addr);
        config.poll_interval = Duration::from_millis(2);
        config
    }

    /// Poll the follower until its replication loop reaches `want`.
    fn wait_for_state(probe: &mut LtamClient, want: ReplicaState) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let replica = probe
                .status()
                .expect("follower keeps serving status")
                .replica
                .expect("follower reports a replica block");
            if replica.state == want {
                return replica.watermark;
            }
            assert!(
                Instant::now() < deadline,
                "follower never reached {want:?}; stuck at {replica:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The primary dies halfway through shipping the bootstrap
    /// snapshot. The follower must fail the bootstrap loudly, and the
    /// partial directory must not be openable as a store — a torn
    /// snapshot can never become a serving replica.
    #[test]
    fn primary_death_mid_snapshot_transfer_is_a_clean_refusal() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let snapshot = ReplFileId::Snapshot { seq: 64, epoch: 0 };
        let fake_primary = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let payload = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert!(matches!(
                decode_request(&payload),
                Ok(Request::Repl(ReplRequest::Manifest))
            ));
            let manifest = ReplManifest {
                applied: 64,
                policy_epoch: 0,
                retention_watermark: 0,
                snapshot: Some(ReplFile {
                    file: snapshot,
                    len: 1 << 20,
                }),
                archives: Vec::new(),
                wal_segments: vec![0],
                epoch_marker: None,
            };
            write_frame(
                &mut sock,
                &encode_response(&Response::ReplManifest { manifest }),
            )
            .unwrap();
            let payload = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES).unwrap();
            let Ok(Request::Repl(ReplRequest::Fetch { file, offset, len })) =
                decode_request(&payload)
            else {
                panic!("expected a snapshot fetch");
            };
            assert_eq!(file, snapshot);
            assert_eq!(offset, 0);
            let chunk = ReplChunk {
                meta: ReplChunkMeta {
                    file,
                    offset,
                    file_len: 1 << 20,
                    sealed: true,
                    applied: 64,
                    policy_epoch: 0,
                    retention_watermark: 0,
                },
                bytes: vec![0xAB; (len as usize).min(4096)],
            };
            let mut frame = Vec::new();
            write_frame(&mut frame, &encode_repl_chunk(&chunk)).unwrap();
            // Half a frame, then death: the socket drops here.
            sock.write_all(&frame[..frame.len() / 2]).unwrap();
        });

        let dir = ScratchDir::new("follower-mid-snapshot");
        let err = bootstrap_follower(dir.path(), &addr, follower_store())
            .expect_err("a torn snapshot transfer must fail the bootstrap");
        fake_primary.join().unwrap();
        assert!(!err.to_string().is_empty());
        DurableEngine::open(dir.path(), follower_store())
            .expect_err("the partial bootstrap directory must not open as a store");
    }

    /// The primary dies while the follower is tailing the middle of an
    /// active WAL segment, with a loader still streaming. The follower
    /// parks `Disconnected` at a watermark no higher than what the
    /// primary durably holds, keeps serving reads, and — once the
    /// primary returns — resumes from its cursor and converges on the
    /// identical state.
    #[test]
    fn primary_death_mid_segment_parks_then_resumes_without_divergence() {
        let trace = multi_shard_trace(&serve_workload(48, 3_000));
        let n = trace.events.len();
        let final_tick = Event::Tick {
            now: Time(trace.max_time().get() + 1),
        };
        let mut reference = trace.build_engine();
        for e in trace.events.iter().chain(std::iter::once(&final_tick)) {
            apply_to_engine(&mut reference, e);
        }
        let expected = violation_multiset(reference.violations().to_vec());

        let p_dir = ScratchDir::new("mid-segment-primary");
        let f_dir = ScratchDir::new("mid-segment-follower");
        let (engine, _alerts) =
            DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store())
                .unwrap();
        let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let p_addr = primary.local_addr().to_string();
        let relay = TcpRelay::start(&p_addr).unwrap();

        let mut loader = LtamClient::connect(&p_addr).unwrap();
        for chunk in trace.events[..n / 3].chunks(64) {
            loader.ingest(chunk).unwrap();
        }

        let f_engine = bootstrap_follower(f_dir.path(), relay.addr(), follower_store()).unwrap();
        let follower = Server::start_follower(
            f_engine,
            "127.0.0.1:0",
            ServerConfig::default(),
            fast_replica(relay.addr()),
        )
        .unwrap();
        let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
        probe
            .wait_for_watermark(n as u64 / 3, Duration::from_secs(20))
            .unwrap();

        // Stream the second third and kill the primary while the
        // follower is still tailing it — mid-active-segment, not at a
        // tidy stopping point.
        for chunk in trace.events[n / 3..2 * n / 3].chunks(64) {
            loader.ingest(chunk).unwrap();
        }
        drop(primary.abort().unwrap());

        let wm_at_death = wait_for_state(&mut probe, ReplicaState::Disconnected);
        // Parked, but still serving reads at its watermark.
        probe
            .violations_in(Interval::ALL)
            .expect("a parked follower keeps serving reads");

        // The primary returns on a fresh port behind the same relay
        // address; the follower must pick up where it left off.
        let (engine, _alerts, _report) =
            DurableEngine::open(p_dir.path(), primary_store()).unwrap();
        assert!(
            wm_at_death <= engine.applied(),
            "follower applied {} but the recovered primary only holds {}",
            wm_at_death,
            engine.applied()
        );
        let resumed = engine.applied() as usize;
        assert!(resumed >= 2 * (n / 3), "fsync'd acks survived the kill");
        let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        relay.set_upstream(&primary.local_addr().to_string());

        let mut loader = LtamClient::connect(&primary.local_addr().to_string()).unwrap();
        for chunk in trace.events[resumed..].chunks(64) {
            loader.ingest(chunk).unwrap();
        }
        loader.ingest(&[final_tick]).unwrap();

        probe
            .wait_for_watermark(n as u64 + 1, Duration::from_secs(30))
            .unwrap();
        let status = probe.status().unwrap();
        let replica = status.replica.clone().unwrap();
        assert!(
            replica.watermark >= wm_at_death,
            "watermark regressed across the outage"
        );
        assert_eq!(
            violation_multiset(probe.violations_in(Interval::ALL).unwrap()),
            expected,
            "follower diverged from the uninterrupted reference"
        );
        let p_digest = LtamClient::connect(&primary.local_addr().to_string())
            .unwrap()
            .digest()
            .unwrap();
        assert_eq!(
            probe.digest().unwrap(),
            p_digest,
            "follower state digest differs from the primary's"
        );

        drop(follower.abort().unwrap());
        drop(primary.abort().unwrap());
        relay.stop();
    }

    /// The primary dies exactly on a group-commit batch boundary: every
    /// acked batch is fully in the WAL, nothing is in flight, and the
    /// follower has confirmed it is caught up to precisely that
    /// sequence. Resume must continue from the boundary — no replays,
    /// no gaps, no divergence.
    #[test]
    fn primary_death_on_a_group_commit_boundary_resumes_exactly() {
        let trace = multi_shard_trace(&serve_workload(32, 2_000));
        let n = trace.events.len();
        let final_tick = Event::Tick {
            now: Time(trace.max_time().get() + 1),
        };
        let mut reference = trace.build_engine();
        for e in trace.events.iter().chain(std::iter::once(&final_tick)) {
            apply_to_engine(&mut reference, e);
        }
        let expected = violation_multiset(reference.violations().to_vec());

        let p_dir = ScratchDir::new("boundary-primary");
        let f_dir = ScratchDir::new("boundary-follower");
        let (engine, _alerts) =
            DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store())
                .unwrap();
        let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let relay = TcpRelay::start(&primary.local_addr().to_string()).unwrap();

        let f_engine = bootstrap_follower(f_dir.path(), relay.addr(), follower_store()).unwrap();
        let follower = Server::start_follower(
            f_engine,
            "127.0.0.1:0",
            ServerConfig::default(),
            fast_replica(relay.addr()),
        )
        .unwrap();
        let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();

        // First half: every batch acked, then the follower confirmed at
        // exactly the boundary sequence before the kill.
        let half = n / 2;
        let mut loader = LtamClient::connect(&primary.local_addr().to_string()).unwrap();
        for chunk in trace.events[..half].chunks(64) {
            loader.ingest(chunk).unwrap();
        }
        probe
            .wait_for_watermark(half as u64, Duration::from_secs(20))
            .unwrap();
        let engine = primary.abort().unwrap();
        assert_eq!(
            engine.applied(),
            half as u64,
            "the kill landed exactly on the last acked batch boundary"
        );
        drop(engine);

        let wm_at_death = wait_for_state(&mut probe, ReplicaState::Disconnected);
        assert_eq!(wm_at_death, half as u64);

        let (engine, _alerts, _report) =
            DurableEngine::open(p_dir.path(), primary_store()).unwrap();
        assert_eq!(engine.applied(), half as u64, "recovery kept the boundary");
        let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        relay.set_upstream(&primary.local_addr().to_string());

        let mut loader = LtamClient::connect(&primary.local_addr().to_string()).unwrap();
        for chunk in trace.events[half..].chunks(64) {
            loader.ingest(chunk).unwrap();
        }
        loader.ingest(&[final_tick]).unwrap();

        probe
            .wait_for_watermark(n as u64 + 1, Duration::from_secs(30))
            .unwrap();
        let status = probe.status().unwrap();
        assert_eq!(status.events_ingested, n as u64 + 1, "no replays, no gaps");
        assert_eq!(
            violation_multiset(probe.violations_in(Interval::ALL).unwrap()),
            expected
        );
        let p_digest = LtamClient::connect(&primary.local_addr().to_string())
            .unwrap()
            .digest()
            .unwrap();
        assert_eq!(probe.digest().unwrap(), p_digest);

        drop(follower.abort().unwrap());
        drop(primary.abort().unwrap());
        relay.stop();
    }

    /// A primary's commit appends to its WAL before its apply publishes
    /// `applied` / `policy_epoch`, so a chunk can carry a policy record
    /// its meta does not count yet. This fake primary relays a real one
    /// but always reports the counters as they stood before its last
    /// policy op. The follower applies that op all the same, and must
    /// then report the primary at least where it stands itself — not one
    /// epoch behind until some later poll.
    #[test]
    fn a_chunk_whose_meta_lags_its_records_never_reports_the_primary_behind() {
        let trace = multi_shard_trace(&serve_workload(16, 600));
        let half = trace.events.len() / 2;
        let p_dir = ScratchDir::new("lagging-meta-primary");
        let f_dir = ScratchDir::new("lagging-meta-follower");
        let (engine, _alerts) =
            DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, primary_store())
                .unwrap();
        let config = ServerConfig {
            root_token: Some("lagging-meta-root".to_string()),
            ..ServerConfig::default()
        };
        let primary = Server::start(engine, "127.0.0.1:0", config).unwrap();
        let p_addr = primary.local_addr().to_string();
        let mut loader = LtamClient::connect(&p_addr).unwrap();
        loader.hello("lagging-meta-root").unwrap();
        for chunk in trace.events[..half].chunks(64) {
            loader.ingest(chunk).unwrap();
        }
        let f_engine = bootstrap_follower(f_dir.path(), &p_addr, follower_store()).unwrap();
        let lagging = loader.status().unwrap();
        loader
            .situation(SituationOp::AddResponder(SubjectId(9_000)))
            .unwrap();
        for chunk in trace.events[half..].chunks(64) {
            loader.ingest(chunk).unwrap();
        }
        let p_status = loader.status().unwrap();
        assert_eq!(p_status.policy_epoch, lagging.policy_epoch + 1);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let upstream_addr = p_addr.clone();
        std::thread::spawn(move || {
            for sock in listener.incoming() {
                let Ok(mut sock) = sock else { return };
                let mut upstream = LtamClient::connect(&upstream_addr).unwrap();
                while let Ok(payload) = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES) {
                    let frame = match decode_request(&payload).unwrap() {
                        Request::Repl(ReplRequest::Fetch { file, offset, len }) => {
                            let mut chunk = upstream.repl_fetch(file, offset, len).unwrap();
                            chunk.meta.applied = lagging.events_ingested;
                            chunk.meta.policy_epoch = lagging.policy_epoch;
                            encode_repl_chunk(&chunk)
                        }
                        request => {
                            let mut response = upstream.call(&request).unwrap();
                            if let Response::ReplManifest { manifest } = &mut response {
                                manifest.applied = lagging.events_ingested;
                                manifest.policy_epoch = lagging.policy_epoch;
                            }
                            encode_response(&response)
                        }
                    };
                    if write_frame(&mut sock, &frame).is_err() {
                        break;
                    }
                }
            }
        });

        let follower = Server::start_follower(
            f_engine,
            "127.0.0.1:0",
            ServerConfig::default(),
            fast_replica(&addr),
        )
        .unwrap();
        let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
        probe
            .wait_for_watermark(p_status.events_ingested, Duration::from_secs(20))
            .unwrap();
        let f_status = probe.status().unwrap();
        assert_eq!(f_status.policy_epoch, p_status.policy_epoch);
        let replica = f_status.replica.unwrap();
        assert_eq!(
            (replica.primary_applied, replica.primary_epoch),
            (p_status.events_ingested, p_status.policy_epoch),
            "the follower reports the primary behind what it applied from it"
        );

        drop(follower.abort().unwrap());
        drop(primary.abort().unwrap());
    }
}

/// Auth-flavored follower faults: the wrong *kind* of credential. A
/// follower whose token authenticates but lacks the replicate scope
/// must park `Disconnected` (a credential problem, fixable by the
/// operator) and never `NeedsBootstrap` (a store problem, fixable
/// only by re-seeding) — the two recovery stories must not blur.
mod auth_faults {
    use std::time::{Duration, Instant};

    use ltam::core::capability::{AdminOp, AdminOutcome, Scope};
    use ltam::core::subject::SubjectId;
    use ltam::serve::wire::ReplicaState;
    use ltam::serve::{bootstrap_follower_as, LtamClient, ReplicaConfig, Server, ServerConfig};
    use ltam::store::{DurableEngine, ScratchDir, StoreConfig};
    use ltam::time::Interval;
    use ltam_bench::serve_workload;
    use ltam_sim::multi_shard_trace;

    const ROOT: &str = "root-secret";

    fn store(fsync: bool) -> StoreConfig {
        StoreConfig {
            segment_bytes: 16 * 1024,
            snapshot_every: 0,
            fsync,
            retention: None,
        }
    }

    fn mint(root: &mut LtamClient, scopes: Vec<Scope>, secret: &str) {
        let outcome = root
            .admin(AdminOp::MintToken {
                subject: SubjectId(901),
                scopes,
                validity: Interval::ALL,
                secret: secret.to_string(),
            })
            .unwrap();
        assert!(matches!(outcome, AdminOutcome::TokenMinted { .. }));
    }

    #[test]
    fn wrong_scope_token_parks_disconnected_never_needs_bootstrap() {
        let trace = multi_shard_trace(&serve_workload(8, 600));

        let p_dir = ScratchDir::new("authfault-primary");
        let (engine, _alerts) =
            DurableEngine::create(p_dir.path(), trace.build_policy_core(), 2, store(true)).unwrap();
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
        mint(&mut root, vec![Scope::Replicate], "repl-secret");

        // Seed some history, then bootstrap legitimately: the bootstrap
        // ships the WAL behind the snapshot, so the follower starts with
        // the seeded history and every policy op (the lock, both mints).
        let half = trace.events.len() / 2;
        for chunk in trace.events[..half].chunks(64) {
            root.ingest(chunk).unwrap();
        }
        mint(&mut root, vec![Scope::Query], "query-only-secret");
        let f_dir = ScratchDir::new("authfault-follower");
        let f_engine =
            bootstrap_follower_as(f_dir.path(), &p_addr, Some("repl-secret"), store(false))
                .unwrap();
        let bootstrapped = f_engine.applied();
        assert_eq!(bootstrapped, root.status().unwrap().events_ingested);

        // ...but tail with a token that can only *query*. The identity
        // is real, the scope is wrong: every manifest probe dies
        // PermissionDenied and the loop parks Disconnected.
        let mut replica_config = ReplicaConfig::new(&p_addr);
        replica_config.poll_interval = Duration::from_millis(2);
        replica_config.token = Some("query-only-secret".to_string());
        let follower =
            Server::start_follower(f_engine, "127.0.0.1:0", config, replica_config).unwrap();
        let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
        probe.hello(ROOT).unwrap();

        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let replica = probe.status().unwrap().replica.unwrap();
            assert_ne!(
                replica.state,
                ReplicaState::NeedsBootstrap,
                "a scope refusal must not demand a re-seed"
            );
            if replica.state == ReplicaState::Disconnected {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "follower never parked: {replica:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // The parked follower still serves authenticated reads from
        // its intact bootstrap-time store.
        assert_eq!(probe.status().unwrap().events_ingested, bootstrapped);

        // Swapping in the replicate-scoped secret — a pure credential
        // fix, no re-bootstrap — lets the same store resume the tail.
        drop(follower.abort().unwrap()); // release the store; restart with the right secret
        let (f_engine, _alerts, _report) =
            DurableEngine::open_with_shards(f_dir.path(), store(false), 2).unwrap();
        let mut replica_config = ReplicaConfig::new(&p_addr);
        replica_config.poll_interval = Duration::from_millis(2);
        replica_config.token = Some("repl-secret".to_string());
        let follower = Server::start_follower(
            f_engine,
            "127.0.0.1:0",
            ServerConfig {
                root_token: Some(ROOT.to_string()),
                ..ServerConfig::default()
            },
            replica_config,
        )
        .unwrap();
        let mut probe = LtamClient::connect(&follower.local_addr().to_string()).unwrap();
        probe.hello(ROOT).unwrap();
        for chunk in trace.events[half..].chunks(64) {
            root.ingest(chunk).unwrap();
        }
        // Policy ops consume WAL sequence numbers like events, so the
        // convergence target is the primary's own applied count.
        let p_status = root.status().unwrap();
        probe
            .wait_for_watermark(p_status.events_ingested, Duration::from_secs(30))
            .unwrap();
        assert_eq!(probe.digest().unwrap(), root.digest().unwrap());

        drop(follower.abort().unwrap());
        drop(primary.abort().unwrap());
    }
}

/// Policy-log faults, for every [`PolicyOp`] variant: a crash between
/// the op's WAL append and its apply, and a crash that leaves only a
/// pre-edit snapshot on disk, must both recover to exactly what an
/// uninterrupted run reaches — same enforcement digest, same violation
/// multiset, same policy, same policy epoch — and a crash that tears
/// the op's record to what a run that never issued the op reaches.
mod policy_log_faults {
    use ltam::core::capability::{AdminOp, Scope, TokenId};
    use ltam::core::prohibition::Prohibition;
    use ltam::core::subject::SubjectId;
    use ltam::engine::batch::{Event, PolicyOp};
    use ltam::engine::violation::Violation;
    use ltam::graph::LocationId;
    use ltam::situate::{ConstraintId, IncidentId, SituationMode, SituationOp, WorkflowConstraint};
    use ltam::store::wal::WalBatch;
    use ltam::store::{DurableEngine, ScratchDir, StoreConfig, Wal, WalConfig};
    use ltam::time::{Interval, Time};
    use ltam_bench::{serve_workload, violation_multiset};
    use ltam_sim::{multi_shard_trace, TraceWorld};

    const SEGMENT_BYTES: u64 = 16 * 1024;

    fn store() -> StoreConfig {
        StoreConfig {
            segment_bytes: SEGMENT_BYTES,
            snapshot_every: 0,
            fsync: false,
            retention: None,
        }
    }

    fn constraint() -> WorkflowConstraint {
        WorkflowConstraint::SeparationOfDuty {
            first: LocationId(1),
            second: LocationId(2),
            window: 50,
        }
    }

    /// Edits every run applies before the op under test, so the
    /// removing variants (revoke, unpin, remove) have something to hit.
    fn prelude(trace: &TraceWorld) -> Vec<PolicyOp> {
        let pinned = trace.build_policy_core().db().iter().nth(1).unwrap().0;
        vec![
            PolicyOp::Admin(AdminOp::MintToken {
                subject: SubjectId(700),
                scopes: vec![Scope::Query],
                validity: Interval::ALL,
                secret: "prelude".into(),
            }),
            PolicyOp::Situation(SituationOp::AddResponder(SubjectId(1))),
            PolicyOp::Situation(SituationOp::Pin(pinned)),
            PolicyOp::Situation(SituationOp::AddConstraint(constraint())),
        ]
    }

    /// One op per `AdminOp` and `SituationOp` variant, and an `Install`
    /// of what a closure edit (a prohibition, a bulk grant, a revocation)
    /// makes of the policy the prelude leaves.
    fn every_variant(trace: &TraceWorld) -> Vec<PolicyOp> {
        let core = trace.build_policy_core();
        let mut grants = core.db().iter();
        let (revoked, regrant, _) = grants.next().unwrap();
        let (pinned, _, _) = grants.next().unwrap();
        let mut edited = core.clone();
        for edit in prelude(trace) {
            edited.apply_op(&edit);
        }
        edited.add_prohibition(Prohibition {
            subject: regrant.subject(),
            location: regrant.location(),
            window: Interval::lit(0, 1_000),
        });
        edited.add_authorization(*regrant);
        edited.revoke_authorization(pinned);
        let admin = [
            AdminOp::MintToken {
                subject: SubjectId(701),
                scopes: vec![Scope::Ingest { locations: None }, Scope::Admin],
                validity: Interval::lit(0, 1_000_000),
                secret: "minted-mid-stream".into(),
            },
            AdminOp::RevokeToken { id: TokenId(0) },
            AdminOp::SetTrust {
                subject: SubjectId(3),
                level: 2,
            },
            AdminOp::SetTrustThreshold { threshold: 1 },
            AdminOp::SetAuthRequired { required: true },
            AdminOp::AddAuthorization(*regrant),
            AdminOp::RevokeAuthorization { id: revoked },
        ];
        let situation = [
            SituationOp::Declare(SituationMode::Emergency {
                incident: IncidentId(4),
                until: Time(u64::MAX),
            }),
            SituationOp::AddResponder(SubjectId(2)),
            SituationOp::RemoveResponder(SubjectId(1)),
            SituationOp::Pin(revoked),
            SituationOp::Unpin(pinned),
            SituationOp::AddConstraint(constraint()),
            SituationOp::RemoveConstraint(ConstraintId(0)),
        ];
        admin
            .into_iter()
            .map(PolicyOp::Admin)
            .chain(situation.into_iter().map(PolicyOp::Situation))
            .chain([PolicyOp::Install(Box::new(edited.image()))])
            .collect()
    }

    #[derive(Clone, Copy)]
    enum Crash {
        /// No crash: the reference run.
        Never,
        /// No crash and no op — what a torn record must recover to.
        OpNeverIssued,
        /// The process died inside the op's WAL append: the record is
        /// on disk short of its last byte.
        MidAppend,
        /// The op's record reached the WAL; the process died before the
        /// engine applied it (and before any ack).
        AfterAppendBeforeApply,
        /// The op was applied and acked; the process died with only the
        /// creation-time snapshot on disk.
        AfterAck,
    }

    fn ingest(engine: &mut DurableEngine, events: &[Event]) {
        for chunk in events.chunks(64) {
            engine.ingest(chunk).unwrap();
        }
    }

    /// What two runs must agree on: the enforcement digest, the
    /// violation multiset, everything a policy op can edit (token
    /// registry and trust, situation overlay, authorization rows and
    /// the id high-water mark, prohibitions, tunables), and the policy
    /// epoch.
    fn fingerprint(engine: &DurableEngine) -> (u64, Vec<Violation>, String, u64) {
        let policy = engine.engine().policy();
        (
            ltam::store::digest(engine.engine()),
            violation_multiset(engine.engine().violations()),
            format!(
                "{:?} {:?} {:?} {} {} {:?}",
                policy.wire(),
                policy.situation(),
                policy.db().export_rows(),
                policy.db().next_id(),
                policy.prohibitions().len(),
                policy.config()
            ),
            engine.policy_epoch(),
        )
    }

    fn run(trace: &TraceWorld, op: &PolicyOp, crash: Crash) -> (u64, Vec<Violation>, String, u64) {
        let dir = ScratchDir::new("policy-log-fault");
        let half = trace.events.len() / 2;
        let (mut engine, _alerts) =
            DurableEngine::create(dir.path(), trace.build_policy_core(), 2, store()).unwrap();
        for edit in prelude(trace) {
            engine.apply_policy(&edit).unwrap();
        }
        ingest(&mut engine, &trace.events[..half]);
        let mut engine = match crash {
            Crash::Never => {
                engine.apply_policy(op).unwrap();
                engine
            }
            Crash::OpNeverIssued => engine,
            Crash::AfterAppendBeforeApply | Crash::MidAppend => {
                drop(engine);
                let wal_config = WalConfig {
                    segment_bytes: SEGMENT_BYTES,
                    fsync: false,
                };
                let (mut wal, _) = Wal::open(dir.path(), wal_config).unwrap();
                wal.append_mixed(&[WalBatch::Policy(op)]).unwrap();
                drop(wal);
                let torn = matches!(crash, Crash::MidAppend);
                if torn {
                    let segment = Wal::segment_files(dir.path()).unwrap().pop().unwrap();
                    let len = std::fs::metadata(&segment).unwrap().len();
                    let file = std::fs::OpenOptions::new().write(true).open(segment);
                    file.unwrap().set_len(len - 1).unwrap();
                }
                let (engine, _alerts, report) = DurableEngine::open(dir.path(), store()).unwrap();
                let replayed = if torn { 4 } else { 5 };
                assert_eq!(report.replayed_policy_ops, replayed, "prelude + the op");
                engine
            }
            Crash::AfterAck => {
                engine.apply_policy(op).unwrap();
                drop(engine);
                let (engine, _alerts, report) = DurableEngine::open(dir.path(), store()).unwrap();
                assert_eq!(report.snapshot_seq, 0, "only the pre-edit snapshot exists");
                engine
            }
        };
        ingest(&mut engine, &trace.events[half..]);
        fingerprint(&engine)
    }

    #[test]
    fn every_policy_op_recovers_to_the_uninterrupted_runs_state() {
        let trace = multi_shard_trace(&serve_workload(8, 600));
        let ops = every_variant(&trace);
        // The same run whichever op it is that was never issued.
        let unissued = run(&trace, &ops[0], Crash::OpNeverIssued);
        for op in ops {
            let reference = run(&trace, &op, Crash::Never);
            for (crash, name) in [
                (Crash::AfterAppendBeforeApply, "after append, before apply"),
                (Crash::AfterAck, "with only a pre-edit snapshot"),
            ] {
                assert_eq!(
                    run(&trace, &op, crash),
                    reference,
                    "{op:?}: a crash {name} diverged from the uninterrupted run"
                );
            }
            assert_eq!(
                run(&trace, &op, Crash::MidAppend),
                unissued,
                "{op:?}: a torn record did not recover to the run without the op"
            );
        }
    }
}
