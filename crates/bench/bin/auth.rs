//! `repro auth`: the policy-governed-wire drill.

use crate::{
    banner, final_tick, match_mismatch, print_json, reference_run, refused_with,
    served_whereabouts_match, yes_no, Verdict,
};
use ltam_bench::args::Command;
use ltam_bench::violation_multiset;
use ltam_core::capability::{AdminOp, AdminOutcome, Scope};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::Event;
use ltam_serve::{ClientError, ErrorCode, IngestReply, LtamClient, Server, ServerConfig};
use ltam_sim::multi_shard_trace;
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
use ltam_time::{Interval, Time};

const HELP: &str = "\
usage: repro auth [--json] [--events N] [--subjects N] [--shards N] [--batch N]

Extension drill: the policy-governed wire. Locks the server (auth
required), throws every frame kind at it unauthenticated, feeds the
trace through a minted ingest-scoped token, quarantines a low-trust
sensor, revokes the ingest token over the wire (the very next frame on
the live connection must die PermissionDenied), crashes and recovers
the store (the revocation must survive), and wire-verifies the served
history against an in-process reference engine. Exits non-zero if any
unauthenticated frame is serviced or a quarantined event reaches the
trusted history.

  --json          emit one machine-readable JSON object
  --events N      trace length (default 4000)
  --subjects N    moving subjects (default 64)
  --shards N      engine shards (default 2)
  --batch N       ingest batch size (default 64)
  --help          this text
";

/// The `repro auth --json` report.
#[derive(serde::Serialize)]
struct AuthReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    /// Unauthenticated frames refused (out of the full frame-kind matrix).
    unauthenticated_refused: usize,
    /// Unauthenticated frames the locked server actually serviced (MUST be 0).
    unauthenticated_serviced: usize,
    /// Every pre-handshake refusal was role-redacted.
    redaction_ok: bool,
    /// Events the ingest-scoped token fed into the trusted history.
    token_ingested: u64,
    /// Probe events the low-trust sensor submitted.
    quarantine_submitted: usize,
    /// Probe events held on the quarantine ledger.
    quarantine_held: usize,
    /// The ledger query returned exactly the held probes, tagged with
    /// their source and trust level.
    quarantine_query_match: bool,
    /// Contact tracing flags the quarantined sighting instead of
    /// mixing it into trusted contacts.
    quarantine_flagged_in_contacts: bool,
    /// A quarantined event leaked into trusted query answers (MUST be false).
    quarantine_leaked: bool,
    /// The revoked token's very next frame on its live connection died
    /// PermissionDenied.
    revocation_immediate: bool,
    /// The revoked secret stayed dead across crash + recovery.
    revocation_durable: bool,
    /// The auth-required switch survived crash + recovery.
    auth_required_survives: bool,
    /// Served violations match the in-process reference multiset.
    violations_match: bool,
    /// Sampled whereabouts match the in-process reference.
    whereabouts_match: bool,
}

const COMMAND: Command = Command {
    name: "auth",
    help: HELP,
    flags: &["--json"],
    values: &["--events", "--subjects", "--shards", "--batch"],
};

/// Extension: the policy-governed wire — capability tokens, remote
/// admin RPCs, trust-based quarantine, and durable revocation.
pub fn run(args: &[String]) {
    let (json, events, subjects, shards, batch) = COMMAND.options(args, |a| {
        Ok((
            a.flag("--json"),
            a.at_least("--events", 4_000usize, 1)?,
            a.at_least("--subjects", 64usize, 1)?,
            a.at_least("--shards", 2usize, 1)?,
            a.at_least("--batch", 64usize, 1)?,
        ))
    });

    const ROOT_SECRET: &str = "repro-root-secret";
    const SENSOR_SECRET: &str = "repro-sensor-secret";
    const LOW_TRUST_SECRET: &str = "repro-low-trust-secret";

    let trace = multi_shard_trace(&ltam_bench::serve_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time();
    let final_tick = final_tick(&trace);

    // The in-process reference: the trusted trace and nothing else —
    // in particular, none of the quarantined probes.
    let (reference, expected) = reference_run(&trace, &[final_tick]);

    let dir = ScratchDir::new("repro-auth");
    let store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0,
        fsync: true,
        retention: None,
    };
    let (engine, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, store)
            .expect("create store");
    let config = ServerConfig {
        root_token: Some(ROOT_SECRET.to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config.clone()).expect("bind on loopback");
    let addr = server.local_addr().to_string();

    // Lock the wire over the wire.
    let mut root = LtamClient::connect(&addr).expect("root client");
    root.hello(ROOT_SECRET).expect("root handshake");
    root.admin(AdminOp::SetAuthRequired { required: true })
        .expect("lock the wire");

    // Phase 1: the unauthenticated matrix. Every frame kind, no
    // handshake — each must be refused, and each refusal must be
    // role-redacted.
    let probe_subject = SubjectId(subjects as u32 + 7);
    let probe_location = trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Enter { location, .. } => Some(*location),
            _ => None,
        })
        .expect("trace contains an Enter event");
    let mut anon = LtamClient::connect(&addr).expect("anonymous client");
    let mut unauthenticated_refused = 0usize;
    let mut unauthenticated_serviced = 0usize;
    let mut redaction_ok = true;
    let mut tally = |name: &str, refused: Option<bool>| match refused {
        Some(redacted) => {
            unauthenticated_refused += 1;
            if !redacted {
                eprintln!("auth drill: unauthenticated {name} refusal leaked the server role");
                redaction_ok = false;
            }
        }
        None => {
            eprintln!("auth drill: unauthenticated {name} frame was SERVICED");
            unauthenticated_serviced += 1;
        }
    };
    // A refusal is only counted when it is the auth refusal; anything
    // else (including success) counts as serviced.
    fn auth_refusal<T>(r: Result<T, ClientError>) -> Option<bool> {
        match r {
            Err(ClientError::Server {
                code: ErrorCode::Unauthenticated,
                role,
                ..
            }) => Some(role.is_none()),
            _ => None,
        }
    }
    tally(
        "ingest",
        auth_refusal(anon.ingest(&[Event::Enter {
            time: Time(1),
            subject: probe_subject,
            location: probe_location,
        }])),
    );
    tally(
        "check",
        auth_refusal(anon.check_access(Time(1), probe_subject, probe_location)),
    );
    tally(
        "query",
        auth_refusal(anon.whereabouts(probe_subject, Time(1))),
    );
    tally("metrics", auth_refusal(anon.metrics()));
    tally("repl", auth_refusal(anon.repl_manifest()));
    tally(
        "admin",
        auth_refusal(anon.admin(AdminOp::SetTrustThreshold { threshold: 0 })),
    );
    drop(anon);

    // Phase 2: a minted ingest-scoped token feeds the whole trace.
    let sensor_subject = SubjectId(subjects as u32 + 1);
    let sensor_id = match root
        .admin(AdminOp::MintToken {
            subject: sensor_subject,
            scopes: vec![Scope::Ingest { locations: None }],
            validity: Interval::ALL,
            secret: SENSOR_SECRET.to_string(),
        })
        .expect("mint sensor token")
    {
        AdminOutcome::TokenMinted { id } => id,
        other => panic!("unexpected mint outcome {other:?}"),
    };
    let mut sensor = LtamClient::connect(&addr).expect("sensor client");
    sensor.hello(SENSOR_SECRET).expect("sensor handshake");
    let mut token_ingested = 0u64;
    for chunk in trace.events.chunks(batch) {
        token_ingested += sensor
            .ingest(chunk)
            .expect("token-authenticated batch")
            .processed as u64;
    }
    token_ingested += sensor.ingest(&[final_tick]).expect("final tick").processed as u64;

    // Phase 3: trust-based quarantine. Raise the threshold, mint a
    // token for a sensor that sits below it, and watch its events land
    // on the ledger — and ONLY the ledger.
    root.admin(AdminOp::SetTrustThreshold { threshold: 1 })
        .expect("raise the trust threshold");
    root.admin(AdminOp::MintToken {
        subject: probe_subject,
        scopes: vec![Scope::Ingest { locations: None }],
        validity: Interval::ALL,
        secret: LOW_TRUST_SECRET.to_string(),
    })
    .expect("mint low-trust token");
    let mut low = LtamClient::connect(&addr).expect("low-trust client");
    low.hello(LOW_TRUST_SECRET).expect("low-trust handshake");
    let probe_times = [span.get() + 10, span.get() + 11, span.get() + 12];
    let probes: Vec<Event> = probe_times
        .iter()
        .map(|&t| Event::Enter {
            time: Time(t),
            subject: probe_subject,
            location: probe_location,
        })
        .collect();
    let mut quarantine_held = 0usize;
    for probe in &probes {
        match low
            .ingest_flagged(std::slice::from_ref(probe))
            .expect("low-trust ingest answers")
        {
            IngestReply::Quarantined { held } => quarantine_held += held,
            IngestReply::Ingested(_) => {
                eprintln!("auth drill: low-trust event reached the trusted ingest path");
            }
        }
    }
    let held = root
        .quarantined(Some(probe_subject), Interval::ALL)
        .expect("quarantine triage query");
    let quarantine_query_match = held.len() == probes.len()
        && held
            .iter()
            .zip(&probes)
            .all(|(q, e)| q.event == *e && q.source == probe_subject && q.level < 1);
    // The leak check, wire-verified: the probe subject must be nowhere
    // in the trusted history, at any probed chronon.
    let mut quarantine_leaked = false;
    for &t in &probe_times {
        if root
            .whereabouts(probe_subject, Time(t))
            .expect("trusted whereabouts")
            .is_some()
        {
            quarantine_leaked = true;
        }
    }
    // ...while contact tracing *flags* the held sighting.
    let (_, flagged) = root
        .contacts_flagged(probe_subject, Interval::ALL)
        .expect("flagged contact tracing");
    let quarantine_flagged_in_contacts = flagged.iter().any(|q| q.source == probe_subject);

    // Phase 4: revocation over the wire. The sensor's connection is
    // live and half-way through its day; the very next frame dies.
    root.admin(AdminOp::RevokeToken { id: sensor_id })
        .expect("revoke sensor token");
    let revocation_immediate =
        refused_with(sensor.ingest(&[final_tick]), ErrorCode::PermissionDenied);
    if !revocation_immediate {
        eprintln!("auth drill: revoked token's next frame was not refused PermissionDenied");
    }

    // Wire-verify the served history against the reference before the
    // crash: the trusted answers must owe nothing to the quarantine.
    let got = violation_multiset(root.violations_in(Interval::ALL).expect("violation report"));
    let violations_match = got == expected;
    let whereabouts_match = served_whereabouts_match(&mut root, &reference, subjects, span);

    // Phase 5: crash + recovery. No orderly shutdown beyond the WAL's
    // own durability; the revocation and the lock must both survive.
    let engine = server.abort().expect("abort server");
    drop(engine);
    let (engine, _alerts, _report) =
        DurableEngine::open_with_shards(dir.path(), store, shards).expect("recover store");
    let server = Server::start(engine, "127.0.0.1:0", config).expect("rebind after recovery");
    let addr = server.local_addr().to_string();
    let mut revived = LtamClient::connect(&addr).expect("post-recovery client");
    let revocation_durable = refused_with(revived.hello(SENSOR_SECRET), ErrorCode::Unauthenticated);
    if !revocation_durable {
        eprintln!("auth drill: revoked secret authenticated after crash + recovery");
    }
    let mut root = LtamClient::connect(&addr).expect("root client after recovery");
    root.hello(ROOT_SECRET).expect("root recovery handshake");
    let status = root.status().expect("post-recovery status");
    let auth_required_survives = status.auth_required;
    let quarantine_survived = status.quarantined_events == quarantine_held;

    drop(server.abort().expect("stop server"));

    if json {
        let report = AuthReport {
            experiment: "auth",
            events: n_events,
            subjects,
            shards,
            unauthenticated_refused,
            unauthenticated_serviced,
            redaction_ok,
            token_ingested,
            quarantine_submitted: probes.len(),
            quarantine_held,
            quarantine_query_match,
            quarantine_flagged_in_contacts,
            quarantine_leaked,
            revocation_immediate,
            revocation_durable,
            auth_required_survives,
            violations_match,
            whereabouts_match,
        };
        print_json(&report);
    } else {
        banner("Extension: policy-governed wire — token, trust & revocation drill");
        println!(
            "{n_events} events, {subjects} subjects, {shards} shards; wire locked via root admin RPC"
        );
        println!(
            "unauthenticated frame matrix: {unauthenticated_refused}/6 refused, {unauthenticated_serviced} serviced; redaction {}",
            if redaction_ok { "OK" } else { "LEAKED" }
        );
        println!("ingest-scoped token fed {token_ingested} events into the trusted history");
        println!(
            "low-trust sensor: {}/{} probes quarantined; ledger query {}; flagged in contacts: {}; leaked into trusted history: {}",
            quarantine_held,
            probes.len(),
            match_mismatch(quarantine_query_match),
            yes_no(quarantine_flagged_in_contacts),
            if quarantine_leaked { "YES (BUG)" } else { "no" }
        );
        println!(
            "revocation: next frame on live connection {}; survives crash+recovery: {}; auth lock survives: {}",
            if revocation_immediate { "refused PermissionDenied" } else { "NOT refused" },
            yes_no(revocation_durable),
            yes_no(auth_required_survives)
        );
        println!(
            "served vs reference: violations {} ({} of them), whereabouts {}",
            match_mismatch(violations_match),
            got.len(),
            match_mismatch(whereabouts_match)
        );
    }

    let mut verdict = Verdict::of("auth");
    verdict.require(
        unauthenticated_serviced == 0,
        "a locked server serviced an unauthenticated frame",
    );
    verdict.require(
        redaction_ok,
        "a pre-handshake refusal leaked the server role",
    );
    verdict.require(
        !quarantine_leaked && quarantine_held == probes.len(),
        "quarantined events reached (or skipped) the trusted history",
    );
    verdict.require(
        quarantine_query_match && quarantine_flagged_in_contacts,
        "the quarantine ledger is not honestly queryable",
    );
    verdict.require(
        quarantine_survived,
        "the quarantine ledger did not survive recovery",
    );
    verdict.require(
        revocation_immediate && revocation_durable && auth_required_survives,
        "revocation or the auth lock did not hold",
    );
    verdict.require(
        violations_match && whereabouts_match,
        "served answers diverge from the in-process reference",
    );
    verdict.exit_if_failed();
}
