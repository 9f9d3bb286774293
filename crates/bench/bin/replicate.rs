//! `repro replicate`: the read-replica kill & re-bootstrap drill.

use crate::{
    banner, final_tick, match_mismatch, print_json, reference_run, served_whereabouts_match,
    Verdict,
};
use ltam_bench::args::Command;
use ltam_bench::violation_multiset;
use ltam_serve::{
    bootstrap_follower, ClientError, ErrorCode, LtamClient, ReplicaConfig, Server, ServerConfig,
    ServerRole,
};
use ltam_sim::multi_shard_trace;
use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
use ltam_time::Interval;
use std::time::{Duration, Instant};

const HELP: &str = "\
usage: repro replicate [--json] [--events N] [--subjects N] [--shards N]
                       [--batch N]

Read-replica drill. Starts a primary over a fresh durable store,
ingests a quarter of the canonical trace, then bootstraps a follower
over the wire (snapshot + archive chain) and starts it tailing the
primary's WAL while a loader thread streams the rest of the trace.
Staleness lag (primary sequence minus follower watermark) is sampled
throughout. Mid-load the follower is KILLED (abort, no shutdown) and a
fresh one is re-bootstrapped with the dead follower's watermark as its
floor — the monotone-read guarantee across the generation change.
After a final deterministic overstay tick, the drill waits for the
follower to converge and then verifies OVER THE WIRE that the follower
and primary agree at the same watermark: identical violation
multisets, identical sampled whereabouts, identical engine state
digests — and that the follower refuses a write with a typed
NotPrimary redirect. Exits non-zero on any divergence, any watermark
regression, or convergence timeout.

options:
  --json           emit one machine-readable JSON object
  --events N       trace length in events                 [default 20000]
  --subjects N     simulated population size              [default 256]
  --shards N       engine shard count                     [default 4]
  --batch N        events per ingest request              [default 64]
  --help           this text
";

/// The `repro replicate --json` report.
#[derive(serde::Serialize)]
struct ReplicateReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    batch: usize,
    staleness_samples: usize,
    staleness_p50_events: u64,
    staleness_p90_events: u64,
    staleness_max_events: u64,
    watermark_floor_at_kill: u64,
    rebootstraps: u32,
    convergence_ms: u64,
    final_watermark: u64,
    watermark_monotone: bool,
    violations: usize,
    violations_match: bool,
    whereabouts_match: bool,
    digest_match: bool,
    write_refused_with_redirect: bool,
    metrics: ReplicateMetricsBlock,
}

/// The registry-sourced `metrics` block of [`ReplicateReport`].
/// `lag_events_after_converge` is the follower's wire-scraped
/// `repl_lag_events` gauge AFTER `wait_for_watermark` returned — the
/// drill requires exactly 0; `-1` marks an absent series. Fetch time
/// is raw histogram units (microseconds).
#[derive(serde::Serialize)]
struct ReplicateMetricsBlock {
    scrape_valid: bool,
    lag_events_after_converge: i64,
    fetch_p50_us: i64,
    state_transitions: u64,
}

const COMMAND: Command = Command {
    name: "replicate",
    help: HELP,
    flags: &["--json"],
    values: &["--events", "--subjects", "--shards", "--batch"],
};

/// Extension: read replicas — snapshot + WAL shipping with a
/// mid-stream follower kill and re-bootstrap.
pub fn run(args: &[String]) {
    let (json, events, subjects, shards, batch) = COMMAND.options(args, |a| {
        Ok((
            a.flag("--json"),
            a.at_least("--events", 20_000usize, 1)?,
            a.at_least("--subjects", 256usize, 1)?,
            a.at_least("--shards", 4usize, 1)?,
            a.at_least("--batch", 64usize, 1)?,
        ))
    });

    let trace = multi_shard_trace(&ltam_bench::serve_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time();
    let final_tick = final_tick(&trace);

    // The in-process reference (same trace + tick, proven-equivalent
    // engine) — what BOTH primary and follower must agree with.
    let (reference, expected) = reference_run(&trace, &[final_tick]);

    // Primary: small segments on purpose — the follower must cross
    // segment hops, and snapshot rotation must prune under it at least
    // potentially. (The serve drill optimizes the opposite way.)
    let primary_dir = ScratchDir::new("repro-replicate-primary");
    let primary_store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: (n_events as u64 / 4).max(1),
        fsync: true,
        retention: None,
    };
    let (engine, _alerts) = DurableEngine::create(
        primary_dir.path(),
        trace.build_policy_core(),
        shards,
        primary_store,
    )
    .expect("create primary store");
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("bind primary on loopback");
    let primary_addr = primary.local_addr().to_string();

    // Followers replay through their own group commit; their local
    // fsync cadence is their own durability choice, not the primary's.
    let follower_store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0, // manual; the drill store is scratch
        fsync: false,
        retention: None,
    };
    let replica_config = |floor: u64| ReplicaConfig {
        poll_interval: Duration::from_millis(3),
        watermark_floor: floor,
        ..ReplicaConfig::new(&primary_addr)
    };
    // A bootstrap can race the primary's snapshot rotation (the fetched
    // snapshot pruned mid-transfer): retry into a fresh directory.
    let bootstrap = |tag: &str| -> (ScratchDir, DurableEngine) {
        let mut last_err = None;
        for attempt in 0..3 {
            let dir = ScratchDir::new(&format!("repro-replicate-{tag}-{attempt}"));
            match bootstrap_follower(dir.path(), &primary_addr, follower_store) {
                Ok(engine) => return (dir, engine),
                Err(e) => last_err = Some(e),
            }
        }
        panic!("follower bootstrap failed 3 times: {last_err:?}");
    };

    // Phase 1: a quarter of the trace lands before any follower exists
    // — the bootstrap must carry real state, not an empty store.
    let mut loader = LtamClient::connect(&primary_addr).expect("loader client");
    let preload = n_events / 4;
    for chunk in trace.events[..preload].chunks(batch) {
        loader.ingest(chunk).expect("preload batch");
    }

    let (f1_dir, f1_engine) = bootstrap("f1");
    let follower1 = Server::start_follower(
        f1_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        replica_config(0),
    )
    .expect("bind follower 1");
    let f1_addr = follower1.local_addr().to_string();

    // Phase 2: loader thread streams the rest, lightly throttled so
    // staleness sampling sees a live stream rather than one burst.
    let stream_trace = trace.events[preload..].to_vec();
    let loader_thread = std::thread::spawn(move || {
        for chunk in stream_trace.chunks(batch) {
            loader.ingest(chunk).expect("streamed batch");
            std::thread::sleep(Duration::from_micros(500));
        }
    });

    let mut primary_probe = LtamClient::connect(&primary_addr).expect("primary probe");
    let mut f_probe = LtamClient::connect(&f1_addr).expect("follower probe");
    // Sample staleness lag (primary sequence minus follower watermark)
    // until the primary has ingested `until` events, checking that the
    // watermark never moves backward from `last_watermark`.
    let mut lags: Vec<u64> = Vec::new();
    let mut watermark_monotone = true;
    let mut sample_until = |follower: &mut LtamClient, mut last_watermark: u64, until: u64| loop {
        let p = primary_probe
            .status()
            .expect("primary status")
            .events_ingested;
        let w = follower.watermark().expect("follower watermark");
        watermark_monotone &= w >= last_watermark;
        last_watermark = w;
        lags.push(p.saturating_sub(w));
        if p >= until {
            return last_watermark;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let kill_at = (n_events as u64 * 3) / 5;
    sample_until(&mut f_probe, 0, kill_at);

    // The kill: no shutdown, no parting snapshot — the follower simply
    // stops existing mid-stream. Its published watermark is the floor
    // its replacement must honor before serving a single read.
    let floor = f_probe.watermark().expect("watermark at kill");
    drop(f_probe);
    drop(follower1.abort().expect("kill follower 1"));
    drop(f1_dir);

    let (f2_dir, f2_engine) = bootstrap("f2");
    let follower2 = Server::start_follower(
        f2_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        replica_config(floor),
    )
    .expect("bind follower 2");
    let f2_addr = follower2.local_addr().to_string();
    let mut f_probe = LtamClient::connect(&f2_addr).expect("follower 2 probe");

    // The replacement publishes a watermark that never dips below the
    // dead follower's — monotone reads across the generation change.
    let last_watermark = sample_until(&mut f_probe, floor, n_events as u64);
    loader_thread.join().expect("loader thread");

    // Final deterministic overstay tick, then convergence.
    primary_probe.ingest(&[final_tick]).expect("final tick");
    let target = n_events as u64 + 1;
    let converge_start = Instant::now();
    let final_watermark = f_probe
        .wait_for_watermark(target, Duration::from_secs(30))
        .expect("follower converges to the final tick");
    let convergence_ms = converge_start.elapsed().as_millis() as u64;
    watermark_monotone &= final_watermark >= last_watermark;

    // The honesty battery: follower answers vs the in-process
    // reference AND vs the primary, at the same watermark.
    let got = violation_multiset(
        f_probe
            .violations_in(Interval::ALL)
            .expect("follower violation report"),
    );
    let violations_match = got == expected;
    let whereabouts_match = served_whereabouts_match(&mut f_probe, &reference, subjects, span);
    let p_status = primary_probe.status().expect("primary final status");
    let f_status = f_probe.status().expect("follower final status");
    let digest_match = primary_probe.digest().expect("primary digest")
        == f_probe.digest().expect("follower digest");

    // Writes at the follower: refused loudly, with the typed redirect.
    let write_refused_with_redirect = matches!(
        f_probe.ingest(&[final_tick]),
        Err(ClientError::Server {
            code: ErrorCode::NotPrimary,
            role: Some(ServerRole::Follower),
            ref message,
        }) if message.contains(&primary_addr)
    );

    let roles_ok = p_status.role == ServerRole::Primary && f_status.role == ServerRole::Follower;

    // Scrape the follower over the wire: its `repl_lag_events` gauge is
    // refreshed from monotone atomics at every watermark publish, so
    // once `wait_for_watermark` has returned it must read EXACTLY 0 —
    // convergence as the metrics layer tells it, not just as the drill
    // measured it. (Both servers share this process's registry; the
    // scrape goes through the follower's own KIND_METRICS path anyway
    // to exercise the frame.)
    let f_scrape = f_probe.metrics().expect("follower metrics scrape");
    let (lag_scrape_valid, lag_after_converge) = match ltam_obs::validate(&f_scrape) {
        Ok(expo) => (
            true,
            expo.value("repl_lag_events", &[]).map_or(-1, |v| v as i64),
        ),
        Err(e) => {
            eprintln!("follower metrics scrape rejected by validator: {e}");
            (false, -1)
        }
    };
    let registry = ltam_obs::registry();
    let repl_metrics = ReplicateMetricsBlock {
        scrape_valid: lag_scrape_valid,
        lag_events_after_converge: lag_after_converge,
        fetch_p50_us: ltam_obs::histogram_snapshot(registry, "repl_fetch_seconds", &[])
            .filter(|h| h.count > 0)
            .map_or(-1, |h| h.percentile(50.0) as i64),
        state_transitions: ltam_obs::counter_family_sum(registry, "repl_state_transitions_total"),
    };

    drop(follower2.abort().expect("stop follower 2"));
    drop(f2_dir);
    drop(primary.abort().expect("stop primary"));

    lags.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lags.is_empty() {
            return 0;
        }
        let idx = ((lags.len() - 1) as f64 * p / 100.0).round() as usize;
        lags[idx]
    };
    let (p50, p90, max) = (pct(50.0), pct(90.0), *lags.last().unwrap_or(&0));

    if json {
        let report = ReplicateReport {
            experiment: "replicate",
            events: n_events,
            subjects,
            shards,
            batch,
            staleness_samples: lags.len(),
            staleness_p50_events: p50,
            staleness_p90_events: p90,
            staleness_max_events: max,
            watermark_floor_at_kill: floor,
            rebootstraps: 1,
            convergence_ms,
            final_watermark,
            watermark_monotone,
            violations: got.len(),
            violations_match,
            whereabouts_match,
            digest_match,
            write_refused_with_redirect,
            metrics: repl_metrics,
        };
        print_json(&report);
    } else {
        banner("Extension: read replicas — kill & re-bootstrap drill");
        println!(
            "{n_events} events, {subjects} subjects, {shards} shards, batch {batch}; follower killed at primary seq ~{kill_at}, floor {floor}"
        );
        println!(
            "staleness lag over {} samples: p50 {p50} events, p90 {p90} events, max {max} events",
            lags.len()
        );
        println!(
            "convergence after final tick: {convergence_ms} ms to watermark {final_watermark}; monotone: {}",
            if watermark_monotone { "YES" } else { "VIOLATED" }
        );
        println!(
            "follower vs reference: violations {} ({} of them), whereabouts {}; follower vs primary digest: {}",
            match_mismatch(violations_match),
            got.len(),
            match_mismatch(whereabouts_match),
            match_mismatch(digest_match)
        );
        println!(
            "write at follower: {}",
            if write_refused_with_redirect {
                "refused with NotPrimary redirect (correct)"
            } else {
                "NOT refused correctly"
            }
        );
        println!(
            "metrics: scrape {}; repl_lag_events after convergence {}; fetch p50 {} us; {} state transitions",
            if repl_metrics.scrape_valid { "VALID" } else { "INVALID" },
            repl_metrics.lag_events_after_converge,
            repl_metrics.fetch_p50_us,
            repl_metrics.state_transitions
        );
    }
    let mut verdict = Verdict::of("replicate");
    verdict.require(
        violations_match && whereabouts_match && digest_match,
        "follower diverges from the primary/reference",
    );
    verdict.require(lag_scrape_valid, "follower exposition is malformed");
    verdict.require(
        lag_after_converge == 0,
        format_args!(
            "scraped repl_lag_events is {lag_after_converge}, expected 0 after convergence"
        ),
    );
    verdict.require(watermark_monotone, "follower watermark moved backward");
    verdict.require(
        write_refused_with_redirect,
        "follower accepted (or mis-refused) a write",
    );
    verdict.require(roles_ok, "served roles are wrong");
    verdict.exit_if_failed();
}
