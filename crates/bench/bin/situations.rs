//! `repro situations`: the situation-aware enforcement drill.

use crate::{banner, print_json, refused_with, yes_no, Verdict};
use ltam_bench::args::Command;
use ltam_bench::violation_multiset;
use ltam_core::capability::{AdminOp, AdminOutcome, Scope};
use ltam_core::decision::Decision;
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore};
use ltam_graph::examples::ntu_campus;
use ltam_graph::LocationId;
use ltam_serve::{bootstrap_follower, ErrorCode, LtamClient, ReplicaConfig, Server, ServerConfig};
use ltam_situate::{IncidentId, SituationMode, SituationOp, SituationOutcome, WorkflowConstraint};
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
use ltam_time::{Interval, Time};
use std::time::Duration;

const HELP: &str = "\
usage: repro situations [--json] [--staff N] [--responders N] [--shards N]

Extension drill: situation-aware enforcement over the wire. On the
paper's NTU campus, an admin declares an emergency mid-shift
(KIND_SITUATION frames, Admin-gated): registered responders' denials
become audit-flagged override grants carrying the incident id, the
declaration auto-expires on the event-time clock, a later lockdown
default-denies everything except a pinned guard authorization, and a
separation-of-duty constraint refuses a tainted entry in every mode.
All situation ops — and the grant and token revocation issued
mid-drill — are durable WAL records: a follower tails them in-stream
(policy_epoch bumps on both — it must never park NeedsBootstrap),
converges to the primary's state digest and policy epoch and refuses
the revoked token; a crash + recovery must restore the declared mode,
pins and constraints.
Exits non-zero if any override lacks its incident id, any rewrite
leaks past its mode, the follower re-bootstraps, or recovery loses the
declaration.

  --json          emit one machine-readable JSON object
  --staff N       authorized staff subjects (default 8, min 2)
  --responders N  emergency responders without authorizations (default 4)
  --shards N      engine shards (default 2)
  --help          this text
";

/// The `repro situations --json` report.
#[derive(serde::Serialize)]
struct SituationsReport {
    experiment: &'static str,
    staff: usize,
    responders: usize,
    shards: usize,
    /// An ingest-scoped token's KIND_SITUATION frame was refused
    /// PermissionDenied (the Admin gate).
    scoped_token_refused: bool,
    /// Every situation op bumped policy_epoch by exactly one.
    policy_epoch_bumps: u64,
    /// Responder denials rewritten into override grants while the
    /// emergency was live.
    overrides_granted: usize,
    /// Every audited override decision carries the declared incident id
    /// (checked against the engine's audit trail after shutdown).
    override_audit_complete: bool,
    /// A non-responder stayed denied during the emergency.
    bystander_still_denied: bool,
    /// The same responder was denied again once the event-time clock
    /// passed the declaration's `until` (auto-expiry, no operator op).
    override_expired_denied: bool,
    /// Lockdown refused an ordinarily granted staff request.
    lockdown_refused: bool,
    /// The pinned guard authorization kept granting under lockdown.
    pinned_grant_survives_lockdown: bool,
    /// Separation-of-duty refused the tainted subject...
    sod_refused: bool,
    /// ...and admitted the untainted one.
    sod_clean_subject_granted: bool,
    /// The follower converged to the primary's watermark with the
    /// situation records in-stream.
    follower_converged: bool,
    /// Follower and primary agree: violation multisets and state
    /// digests at the matched watermark, and both epochs.
    follower_state_match: bool,
    /// The follower never entered NeedsBootstrap while tailing the
    /// situation ops (delta of the state-transition counter).
    follower_rebootstraps: u64,
    /// Crash + recovery restored the declared mode, the pin and the
    /// installed constraint, at the pre-crash policy epoch.
    recovery_restores_declaration: bool,
    /// Post-recovery wire decisions still honor the recovered lockdown.
    recovered_decisions_hold: bool,
    metrics: SituationsMetricsBlock,
}

/// The registry-sourced `metrics` block of [`SituationsReport`].
/// Counter values are deltas over the drill (primary + follower: the
/// follower replays the same judged stream in this process, so each
/// rewrite counts exactly twice). `-1` marks an absent series.
#[derive(serde::Serialize, Clone, Copy)]
struct SituationsMetricsBlock {
    scrape_valid: bool,
    /// `situate_mode` gauge at scrape time (2 = lockdown).
    mode_gauge: i64,
    overrides_total: i64,
    override_expired_total: i64,
    lockdown_refusals_total: i64,
    constraint_refusals_total: i64,
    /// `store_policy_epoch` gauge vs the wire-reported status value.
    policy_epoch_gauge_matches_status: bool,
}

/// An authorization to be at `location` at any time, any number of times.
fn always(subject: SubjectId, location: LocationId) -> Authorization {
    Authorization::new(
        Interval::ALL,
        Interval::ALL,
        subject,
        location,
        EntryLimit::Unbounded,
    )
    .expect("valid authorization")
}

/// One requested visit: swipe and walk in at `enter`, leave at `exit`.
fn visit(subject: SubjectId, location: LocationId, enter: u64, exit: u64) -> [Event; 3] {
    let time = Time(enter);
    [
        Event::Request {
            time,
            subject,
            location,
        },
        Event::Enter {
            time,
            subject,
            location,
        },
        Event::Exit {
            time: Time(exit),
            subject,
            location,
        },
    ]
}

const COMMAND: Command = Command {
    name: "situations",
    help: HELP,
    flags: &["--json"],
    values: &["--staff", "--responders", "--shards"],
};

/// Extension: situation-aware enforcement — emergency overrides,
/// lockdown, workflow constraints, replicated and recovered.
pub fn run(args: &[String]) {
    let (json, staff, responders, shards) = COMMAND.options(args, |a| {
        Ok((
            a.flag("--json"),
            a.at_least("--staff", 8usize, 2)?,
            a.at_least("--responders", 4usize, 1)?,
            a.at_least("--shards", 2usize, 1)?,
        ))
    });

    const ROOT_SECRET: &str = "repro-situations-root";
    const SENSOR_SECRET: &str = "repro-situations-sensor";
    const INCIDENT: u64 = 7;

    // Counter baselines: the registry is process-global ("repro all"
    // runs other drills first) and the follower below replays the same
    // judged stream, so every rewrite is counted once per engine.
    let registry = ltam_obs::registry();
    let base = |name: &str| ltam_obs::counter_value(registry, name, &[]).unwrap_or(0);
    let base_overrides = base("situate_overrides_total");
    let base_expired = base("situate_override_expired_total");
    let base_lockdown = base("situate_lockdown_refusals_total");
    let base_constraint = base("situate_constraint_refusals_total");
    let base_parked = ltam_obs::counter_value(
        registry,
        "repl_state_transitions_total",
        &[("state", "needs_bootstrap")],
    )
    .unwrap_or(0);

    // The world: the paper's NTU campus. Staff hold unbounded
    // authorizations for the general office, the corridors and the
    // CAIS lab; the guard holds the (soon pinned) general-office
    // authorization; responders and the bystander hold nothing at all.
    let ntu = ntu_campus();
    let (office, lab) = (ntu.sce_go, ntu.cais);
    let corridors = [ntu.sce_a, ntu.sce_b];
    let staff_id = |i: usize| SubjectId(i as u32);
    let medic_id = |i: usize| SubjectId((staff + i) as u32);
    let bystander = SubjectId((staff + responders) as u32);
    let guard = SubjectId((staff + responders + 1) as u32);
    let mut core = PolicyCore::new(ntu.model);
    for i in 0..staff {
        for l in [office, lab, corridors[0], corridors[1]] {
            core.add_authorization(always(staff_id(i), l));
        }
    }
    let guard_auth = core.add_authorization(always(guard, office));

    let dir = ScratchDir::new("repro-situations");
    let store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0,
        fsync: true,
        retention: None,
    };
    let (engine, _alerts) =
        DurableEngine::create(dir.path(), core, shards, store).expect("create store");
    let config = ServerConfig {
        root_token: Some(ROOT_SECRET.to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config.clone()).expect("bind on loopback");
    let addr = server.local_addr().to_string();
    let mut root = LtamClient::connect(&addr).expect("root client");
    root.hello(ROOT_SECRET).expect("root handshake");

    // Baseline shift: every staff member requests, enters and leaves
    // the general office — all granted, no violations, real movement
    // history for the workflow constraint to consult later (and nobody
    // left inside, so later entries stay consistent).
    let baseline: Vec<Event> = (0..staff)
        .flat_map(|i| visit(staff_id(i), office, 1 + i as u64, 1 + i as u64))
        .collect();
    root.ingest(&baseline).expect("baseline shift");

    // The Admin gate: an ingest-scoped token may feed events but its
    // KIND_SITUATION frame dies PermissionDenied.
    let sensor_token = match root
        .admin(AdminOp::MintToken {
            subject: guard,
            scopes: vec![Scope::Ingest { locations: None }],
            validity: Interval::ALL,
            secret: SENSOR_SECRET.to_string(),
        })
        .expect("mint ingest token")
    {
        AdminOutcome::TokenMinted { id } => id,
        other => panic!("unexpected mint outcome {other:?}"),
    };
    let mut sensor = LtamClient::connect(&addr).expect("sensor client");
    sensor.hello(SENSOR_SECRET).expect("sensor handshake");
    let scoped_token_refused = refused_with(
        sensor.situation(SituationOp::Declare(SituationMode::Normal)),
        ErrorCode::PermissionDenied,
    );
    drop(sensor);

    // A follower starts tailing BEFORE any situation is declared: every
    // situation record must reach it in-stream, through the replicated
    // WAL, without tripping a re-bootstrap.
    let follower_store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    };
    let f_dir = ScratchDir::new("repro-situations-follower");
    let f_engine =
        bootstrap_follower(f_dir.path(), &addr, follower_store).expect("bootstrap follower");
    let follower = Server::start_follower(
        f_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        ReplicaConfig {
            poll_interval: Duration::from_millis(3),
            ..ReplicaConfig::new(&addr)
        },
    )
    .expect("bind follower");
    let mut f_probe =
        LtamClient::connect(&follower.local_addr().to_string()).expect("follower probe");

    let epoch_before = root.status().expect("status before situations");
    let mut situation_ops = 0u64;
    let mut op = |root: &mut LtamClient, op: SituationOp| -> SituationOutcome {
        situation_ops += 1;
        root.situation(op).expect("situation op over the wire")
    };

    // Phase 1 — emergency. Responders registered, incident declared
    // with an expiry on the event-time clock; their denials become
    // override grants, the bystander's does not.
    for i in 0..responders {
        op(&mut root, SituationOp::AddResponder(medic_id(i)));
    }
    op(
        &mut root,
        SituationOp::Declare(SituationMode::Emergency {
            incident: IncidentId(INCIDENT),
            until: Time(100),
        }),
    );
    let mut overrides_granted = 0usize;
    for i in 0..responders {
        if root
            .check_access(Time(50), medic_id(i), lab)
            .expect("responder check")
        {
            overrides_granted += 1;
        }
    }
    let bystander_still_denied = !root
        .check_access(Time(50), bystander, lab)
        .expect("bystander check");

    // Phase 2 — auto-expiry: the same responder, one chronon past
    // `until`. Nobody cleared anything; the event-time clock did.
    let override_expired_denied = !root
        .check_access(Time(101), medic_id(0), lab)
        .expect("post-expiry check");

    // Phase 3 — lockdown with a pinned exception.
    op(&mut root, SituationOp::Declare(SituationMode::Lockdown));
    op(&mut root, SituationOp::Pin(guard_auth));
    let lockdown_refused = !root
        .check_access(Time(120), staff_id(0), office)
        .expect("staff check under lockdown");
    let pinned_grant_survives_lockdown = root
        .check_access(Time(120), guard, office)
        .expect("guard check under lockdown");
    // An unrequested entry during the lockdown: a violation both the
    // primary and the follower must record identically.
    root.ingest(&[Event::Enter {
        time: Time(125),
        subject: staff_id(1),
        location: lab,
    }])
    .expect("unauthorized entry");

    // Phase 4 — separation of duty, binding in every mode: whoever
    // opened the general office this window cannot also enter the lab.
    op(&mut root, SituationOp::Declare(SituationMode::Normal));
    // Two admin edits mid-drill ride the same policy log: the bystander
    // is granted the lab and walks in (a follower that missed the grant
    // would flag the entry and digest differently), and the sensor's
    // token is revoked (the follower must stop resolving its secret).
    root.admin(AdminOp::AddAuthorization(always(bystander, lab)))
        .expect("grant over the wire");
    root.admin(AdminOp::RevokeToken { id: sensor_token })
        .expect("revoke over the wire");
    let admin_ops = 2u64;
    root.ingest(&visit(bystander, lab, 126, 127))
        .expect("granted bystander visit");
    match op(
        &mut root,
        SituationOp::AddConstraint(WorkflowConstraint::SeparationOfDuty {
            first: office,
            second: lab,
            window: 100,
        }),
    ) {
        SituationOutcome::ConstraintAdded { .. } => {}
        other => panic!("unexpected constraint outcome {other:?}"),
    }
    root.ingest(&visit(staff_id(0), office, 130, 131))
        .expect("tainting entry");
    let sod_refused = !root
        .check_access(Time(150), staff_id(0), lab)
        .expect("tainted check");
    let sod_clean_subject_granted = root
        .check_access(Time(150), staff_id(1), lab)
        .expect("untainted check");

    // Phase 5 — the declaration the crash must not lose.
    op(&mut root, SituationOp::Declare(SituationMode::Lockdown));

    let status = root.status().expect("status after situations");
    let policy_epoch_bumps = status.policy_epoch - epoch_before.policy_epoch;

    // Phase 6 — the follower: situation records consumed WAL sequence
    // numbers, so converging to the primary's applied count means it
    // replayed them in-stream, at the same positions.
    let follower_converged = f_probe
        .wait_for_watermark(status.events_ingested, Duration::from_secs(30))
        .is_ok();
    let p_violations = violation_multiset(
        root.violations_in(Interval::ALL)
            .expect("primary violations"),
    );
    let f_violations = violation_multiset(
        f_probe
            .violations_in(Interval::ALL)
            .expect("follower violations"),
    );
    let f_status = f_probe.status().expect("follower status");
    let digests_match =
        root.digest().expect("primary digest") == f_probe.digest().expect("follower digest");
    let revoked_at_follower =
        refused_with(f_probe.hello(SENSOR_SECRET), ErrorCode::Unauthenticated);
    let follower_state_match = follower_converged
        && p_violations == f_violations
        && digests_match
        && status.policy_epoch == f_status.policy_epoch
        && revoked_at_follower;
    let follower_rebootstraps = ltam_obs::counter_value(
        registry,
        "repl_state_transitions_total",
        &[("state", "needs_bootstrap")],
    )
    .unwrap_or(0)
        - base_parked;

    // Metrics, scraped over the wire AFTER convergence: the follower
    // replayed the same judged stream in this process, so each rewrite
    // counted exactly twice.
    let scrape = root.metrics().expect("metrics scrape");
    let scrape_valid = match ltam_obs::validate(&scrape) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("situations drill: metrics exposition rejected: {e}");
            false
        }
    };
    let delta = |name: &str, base: u64| -> i64 {
        ltam_obs::counter_value(registry, name, &[]).map_or(-1, |v| (v - base) as i64)
    };
    let metrics = SituationsMetricsBlock {
        scrape_valid,
        mode_gauge: ltam_obs::gauge_value(registry, "situate_mode", &[]).unwrap_or(-1),
        overrides_total: delta("situate_overrides_total", base_overrides),
        override_expired_total: delta("situate_override_expired_total", base_expired),
        lockdown_refusals_total: delta("situate_lockdown_refusals_total", base_lockdown),
        constraint_refusals_total: delta("situate_constraint_refusals_total", base_constraint),
        policy_epoch_gauge_matches_status: ltam_obs::gauge_value(
            registry,
            "store_policy_epoch",
            &[],
        ) == Some(status.policy_epoch as i64),
    };

    drop(f_probe);
    drop(follower.abort().expect("stop follower"));
    drop(f_dir);

    // Phase 7 — audit completeness, read from the engine itself: every
    // audited override decision must carry the declared incident, and
    // there must be exactly as many as the wire granted.
    let engine = server.abort().expect("abort server");
    let mut audited_overrides: Vec<(SubjectId, u64)> = Vec::new();
    {
        let sharded = engine.engine();
        for s in 0..sharded.shard_count() {
            sharded.read_shard(s, |st| {
                for r in st.audit() {
                    if let Decision::GrantedOverride { incident } = r.decision {
                        audited_overrides.push((r.request.subject, incident));
                    }
                }
            });
        }
    }
    let override_audit_complete = audited_overrides.len() == overrides_granted
        && audited_overrides
            .iter()
            .all(|&(s, i)| i == INCIDENT && (0..responders).any(|m| medic_id(m) == s));
    let pre_crash_epoch = engine.policy_epoch();
    drop(engine);

    // Phase 8 — crash + recovery: the declared lockdown, the pin and
    // the constraint all come back, at the pre-crash policy epoch.
    let (engine, _alerts, _report) =
        DurableEngine::open_with_shards(dir.path(), store, shards).expect("recover store");
    let recovered = engine.engine().policy();
    let recovery_restores_declaration = recovered.situation().mode() == SituationMode::Lockdown
        && recovered.situation().is_pinned(guard_auth)
        && recovered.situation().constraints().count() == 1
        && engine.policy_epoch() == pre_crash_epoch;
    drop(recovered);
    let server = Server::start(engine, "127.0.0.1:0", config).expect("rebind after recovery");
    let addr = server.local_addr().to_string();
    let mut root = LtamClient::connect(&addr).expect("post-recovery client");
    root.hello(ROOT_SECRET).expect("post-recovery handshake");
    let recovered_decisions_hold = !root
        .check_access(Time(200), staff_id(0), office)
        .expect("staff check after recovery")
        && root
            .check_access(Time(200), guard, office)
            .expect("guard check after recovery");
    drop(server.abort().expect("stop server"));

    if json {
        let report = SituationsReport {
            experiment: "situations",
            staff,
            responders,
            shards,
            scoped_token_refused,
            policy_epoch_bumps,
            overrides_granted,
            override_audit_complete,
            bystander_still_denied,
            override_expired_denied,
            lockdown_refused,
            pinned_grant_survives_lockdown,
            sod_refused,
            sod_clean_subject_granted,
            follower_converged,
            follower_state_match,
            follower_rebootstraps,
            recovery_restores_declaration,
            recovered_decisions_hold,
            metrics,
        };
        print_json(&report);
    } else {
        banner("Extension: situation-aware enforcement drill");
        println!(
            "{staff} staff, {responders} responders, {shards} shards; {situation_ops} situation ops and {admin_ops} admin ops issued over the wire"
        );
        println!(
            "admin gate: ingest-scoped KIND_SITUATION frame {}",
            if scoped_token_refused {
                "refused PermissionDenied"
            } else {
                "NOT refused (BUG)"
            }
        );
        println!(
            "epochs: policy +{policy_epoch_bumps} (expected {situation_ops} situation ops + {admin_ops} admin ops)"
        );
        println!(
            "emergency I{INCIDENT}: {overrides_granted}/{responders} responder denials overridden; audit complete: {}; bystander denied: {}",
            yes_no(override_audit_complete),
            yes_no(bystander_still_denied)
        );
        println!(
            "auto-expiry at t>until: responder denied again: {}",
            yes_no(override_expired_denied)
        );
        println!(
            "lockdown: staff refused: {}; pinned guard grant survives: {}",
            yes_no(lockdown_refused),
            yes_no(pinned_grant_survives_lockdown)
        );
        println!(
            "separation of duty: tainted refused: {}; untainted granted: {}",
            yes_no(sod_refused),
            yes_no(sod_clean_subject_granted)
        );
        println!(
            "follower: converged: {}; state match (violations, digest, epochs, revoked token refused): {}; re-bootstraps: {follower_rebootstraps}",
            yes_no(follower_converged),
            yes_no(follower_state_match)
        );
        println!(
            "crash + recovery: declaration restored: {}; recovered wire decisions hold: {}",
            yes_no(recovery_restores_declaration),
            yes_no(recovered_decisions_hold)
        );
        println!(
            "metrics: scrape {}; mode gauge {}; overrides {} / expired {} / lockdown {} / constraint {} (x2: primary + follower); epoch gauge matches status: {}",
            if metrics.scrape_valid { "VALID" } else { "INVALID" },
            metrics.mode_gauge,
            metrics.overrides_total,
            metrics.override_expired_total,
            metrics.lockdown_refusals_total,
            metrics.constraint_refusals_total,
            yes_no(metrics.policy_epoch_gauge_matches_status)
        );
    }

    let mut verdict = Verdict::of("situations");
    verdict.require(
        scoped_token_refused,
        "a non-admin token declared a situation",
    );
    verdict.require(
        policy_epoch_bumps == situation_ops + admin_ops,
        format_args!(
            "epochs moved wrong (policy +{policy_epoch_bumps} for {situation_ops} + {admin_ops} ops)"
        ),
    );
    verdict.require(
        overrides_granted == responders && override_audit_complete && bystander_still_denied,
        "overrides leaked, went missing, or lost their incident id",
    );
    verdict.require(
        override_expired_denied,
        "the emergency did not auto-expire on the event clock",
    );
    verdict.require(
        lockdown_refused && pinned_grant_survives_lockdown,
        "lockdown default-deny or the pinned exception broke",
    );
    verdict.require(
        sod_refused && sod_clean_subject_granted,
        "separation of duty misfired",
    );
    verdict.require(
        follower_converged && follower_state_match && follower_rebootstraps == 0,
        "the follower diverged or re-bootstrapped on a policy record",
    );
    verdict.require(
        recovery_restores_declaration && recovered_decisions_hold,
        "crash + recovery lost the declaration",
    );
    verdict.require(
        metrics.scrape_valid
            && metrics.mode_gauge == 2
            && metrics.overrides_total == 2 * responders as i64
            && metrics.override_expired_total == 2
            && metrics.lockdown_refusals_total == 2
            && metrics.constraint_refusals_total == 2
            && metrics.policy_epoch_gauge_matches_status,
        "the situation metrics do not tell the same story",
    );
    verdict.exit_if_failed();
}
