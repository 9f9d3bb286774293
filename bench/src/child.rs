//! The system under test, run as a child process of the harness so
//! that CPU time and resident set are the program's alone and a crash
//! is a real `SIGKILL`.
//!
//! * `serve-child` — a durable engine behind the wire (`Server` over
//!   `DurableEngine`): creates a store from the generated policy (or
//!   recovers the one already in `--dir`), optionally preloads history,
//!   prints `READY`, and serves until its stdin closes.
//! * `engine-child` — the embedded library: a `ShardedEngine` fed
//!   1024-event batches from this process's main thread, driven by
//!   commands on stdin.
//!
//! Both speak one line-oriented protocol on stdout; every line the
//! harness acts on starts with an upper-case keyword.

use crate::args::Args;
use crate::gen::{self, LapCursor};
use crate::inputs;
use crate::stats::{merge_slices, Phase, SliceLog};
use crate::verify::ViolationDigest;
use ltam::core::capability::Scope;
use ltam::core::retention::RetentionPolicy;
use ltam::core::subject::SubjectId;
use ltam::engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam::engine::shard::{ShardState, ShardStateImage};
use ltam::graph::LocationId;
use ltam::serve::{Server, ServerConfig};
use ltam::situate::{SituationOp, WorkflowConstraint};
use ltam::store::{DurableEngine, StoreConfig};
use ltam::time::{Interval, Time};
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Shards in every workload (`nproc` on the reference container).
pub const SHARDS: usize = 2;
/// Events per `ShardedEngine::ingest` call in `engine-child`.
pub const ENGINE_BATCH: usize = 1024;
/// The subject the door bank's ingest token authenticates as.
const DOOR_BANK: SubjectId = SubjectId(u32::MAX - 1);

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    // The harness went away if this fails; there is nobody to tell.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Build the policy core from the generated policy file.
fn load_core(policy: &Path) -> std::io::Result<PolicyCore> {
    Ok(gen::policy_core(&inputs::read_policy(policy)?))
}

/// The two workflow constraints `decide_inproc` runs under, so that
/// `ltam_situate::judge` is on the decision path: one separation of
/// duty and one ordered-steps rule over grid rooms, mode Normal.
pub fn workflow_constraints() -> [WorkflowConstraint; 2] {
    let rooms: Vec<LocationId> = gen::world().graph.locations().collect();
    let pick = |i: usize| rooms[i % rooms.len()];
    [
        WorkflowConstraint::SeparationOfDuty {
            first: pick(3),
            second: pick(4),
            window: 30,
        },
        WorkflowConstraint::OrderedSteps {
            steps: vec![pick(10), pick(11), pick(12)],
            window: 40,
        },
    ]
}

/// `serve-child`: see the module docs.
pub fn serve_child(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "dir",
            "mode",
            "policy",
            "preload",
            "preload-laps",
            "snapshot-every",
            "retention",
            "min-advance",
            "token",
        ],
    )?;
    let dir = Path::new(args.required("dir")?);
    let retention: u64 = args.parsed("retention", 0)?;
    let config = StoreConfig {
        segment_bytes: 8 * 1024 * 1024,
        snapshot_every: args.parsed("snapshot-every", 0)?,
        // Off: the sandbox's disk is a rate-limited virtual device whose
        // flush latency swings tenfold within the hour, so a flush in
        // the timed path measures the neighbours, not the program. What
        // a flush costs is reported per layer by the stage replay.
        fsync: false,
        // One retention run per `min-advance` chronons of progress, so
        // the workload decides how often the archive tier cycles.
        retention: (retention > 0).then_some(RetentionPolicy {
            min_advance: args.parsed("min-advance", retention / 4)?,
            ..RetentionPolicy::keep_last(retention)
        }),
    };
    let io = |e: std::io::Error| e.to_string();
    let (engine, alerts, replayed) = match args.required("mode")? {
        "create" => {
            let mut core = load_core(Path::new(args.required("policy")?)).map_err(io)?;
            if let Some(secret) = args.get("token") {
                let wire = core.wire_mut();
                wire.required = true;
                wire.mint(
                    DOOR_BANK,
                    vec![Scope::Ingest { locations: None }, Scope::Query],
                    Interval::ALL,
                    secret.to_string(),
                );
            }
            let (mut engine, alerts) =
                DurableEngine::create(dir, core, SHARDS, config).map_err(io)?;
            if let Some(preload) = args.get("preload") {
                let (lap, span) = inputs::read_events(Path::new(preload)).map_err(io)?;
                let laps: u64 = args.parsed("preload-laps", 1)?;
                let mut cursor = LapCursor::new(span);
                let mut batch = Vec::with_capacity(ENGINE_BATCH);
                let mut left = lap.len() as u64 * laps;
                while left > 0 {
                    batch.clear();
                    cursor.fill(&lap, ENGINE_BATCH.min(left as usize), &mut batch);
                    left -= batch.len() as u64;
                    engine.ingest(&batch).map_err(io)?;
                }
                engine.snapshot().map_err(io)?;
            }
            (engine, alerts, 0)
        }
        "open" => {
            let (engine, alerts, report) = DurableEngine::open(dir, config).map_err(io)?;
            (engine, alerts, report.replayed)
        }
        other => return Err(format!("--mode: create or open, not {other:?}")),
    };
    let applied = engine.applied();
    let totals = engine_totals(engine.engine());
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).map_err(io)?;
    // The security desk: alerts are consumed, not left to pile up.
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(50));
        alerts.try_iter().for_each(drop);
    });
    say(&format!(
        "READY addr={} applied={applied} replayed={replayed} {totals}",
        server.local_addr()
    ));
    // Serve until the harness closes our stdin (or kills us).
    let mut sink = String::new();
    while matches!(std::io::stdin().lock().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    server.abort().map_err(io)?;
    Ok(())
}

/// Totals both children report when ready, so a restart can be
/// checked against the state the killed process had acknowledged.
fn engine_totals(engine: &ShardedEngine) -> String {
    let status = engine.status();
    format!(
        "entries={} violations={}",
        status.total_entries,
        status.live_violations as u64 + status.violations_pruned
    )
}

/// `engine-child`: see the module docs. Commands on stdin:
///
/// * `RUN <warm-up seconds> <seconds> <digest stride>` — replay laps:
///   the warm-up untimed, then `seconds` cut into slices. Prints
///   `START` when the timed phase begins, one `SLICE` line per slice
///   (operations, latency percentiles, retention runs), then `DONE`
///   with the totals.
/// * `EXPORT <path>` — run on to the end of the current lap, prune,
///   then write the shards' state images to `path`; prints `EXPORTED`
///   with the totals the rebuilt engine must show.
pub fn engine_child(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "policy",
            "lap",
            "retention",
            "retention-every",
            "restore",
            "skip",
        ],
    )?;
    let io = |e: std::io::Error| e.to_string();
    let mut core = load_core(Path::new(args.required("policy")?)).map_err(io)?;
    for constraint in workflow_constraints() {
        core.apply_situation(&SituationOp::AddConstraint(constraint));
    }
    let (lap, span) = inputs::read_events(Path::new(args.required("lap")?)).map_err(io)?;
    let mut cursor = LapCursor::new(span);
    let (engine, alerts) = match args.get("restore") {
        None => ShardedEngine::new(core, SHARDS),
        Some(path) => {
            let bytes = std::fs::read(path).map_err(io)?;
            let images: Vec<ShardStateImage> =
                ltam::store::binval::decode(&bytes).map_err(|e| format!("{path}: {e:?}"))?;
            let states = images.into_iter().map(ShardState::from_image).collect();
            // Resume the stream where the exporting process stopped.
            cursor = LapCursor::resuming(span, args.parsed("skip", 0)?, lap.len());
            ShardedEngine::with_states(core, states)
        }
    };
    let mut batch: Vec<Event> = Vec::with_capacity(ENGINE_BATCH);
    let first = if args.get("restore").is_some() {
        // A restart is over when the first op is answered.
        cursor.fill(&lap, ENGINE_BATCH, &mut batch);
        engine.ingest(&batch).processed
    } else {
        0
    };
    say(&format!("READY first={first} {}", engine_totals(&engine)));

    let retention = RetentionPolicy::keep_last(args.parsed("retention", 2_000)?);
    let retention_every: u64 = args.parsed("retention-every", 1_000_000)?;
    let mut clock = Time::ZERO;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        if !matches!(stdin.lock().read_line(&mut line), Ok(n) if n > 0) {
            return Ok(());
        }
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        match words.as_slice() {
            ["RUN", warm, seconds, stride] => {
                let warm: f64 = warm.parse().map_err(|_| "RUN: bad warm-up")?;
                let seconds: f64 = seconds.parse().map_err(|_| "RUN: bad seconds")?;
                let stride: u32 = stride.parse().map_err(|_| "RUN: bad stride")?;
                let mut digest = ViolationDigest::new(stride);
                let (mut sent, mut processed, mut granted, mut denied) = (0u64, 0u64, 0u64, 0u64);
                let mut since_retention = 0u64;
                // When each retention run of this command happened.
                let mut retention_runs: Vec<Instant> = Vec::new();
                let mut step = |sent: &mut u64| -> Duration {
                    batch.clear();
                    cursor.fill(&lap, ENGINE_BATCH, &mut batch);
                    let start = Instant::now();
                    let outcome = engine.ingest(&batch);
                    let took = start.elapsed();
                    *sent += batch.len() as u64;
                    processed += outcome.processed as u64;
                    granted += outcome.granted as u64;
                    denied += outcome.denied as u64;
                    outcome.violations.iter().for_each(|v| digest.add(v));
                    clock = batch.iter().map(Event::time).fold(clock, Time::max);
                    since_retention += batch.len() as u64;
                    if since_retention >= retention_every {
                        since_retention = 0;
                        // The embedding discards what it prunes; the
                        // durable workloads archive it instead.
                        drop(engine.run_retention(&retention, clock));
                        alerts.try_iter().for_each(drop);
                        retention_runs.push(Instant::now());
                    }
                    took
                };
                let warm_end = Instant::now() + Duration::from_secs_f64(warm);
                while Instant::now() < warm_end {
                    step(&mut sent);
                }
                let phase = Phase::new(Instant::now(), seconds);
                say("START");
                let mut log = SliceLog::default();
                while Instant::now() < phase.end() {
                    let took = step(&mut sent);
                    log.record(&phase, Instant::now(), took, ENGINE_BATCH as u32);
                }
                for (i, s) in merge_slices(&[log], phase.slice).iter().enumerate() {
                    let runs = retention_runs
                        .iter()
                        .filter(|&&at| phase.slice_of(at) == Some(i))
                        .count();
                    say(&format!(
                        "SLICE {i} ops={} p50_ms={} p90_ms={} p99_ms={} retention_runs={runs}",
                        s.ops, s.p50_ms, s.p90_ms, s.p99_ms
                    ));
                }
                say(&format!(
                    "DONE sent={sent} processed={processed} granted={granted} denied={denied} \
                     digest={} sampled={} {}",
                    digest.sum(),
                    digest.count(),
                    engine_totals(&engine)
                ));
            }
            ["EXPORT", path] => {
                // How much history is live depends on where in the lap
                // the stream stands, and rebuild time on how much there
                // is: run on to the lap's end, then prune, so that every
                // run exports at the same point of the stream.
                let mut left =
                    (lap.len() - cursor.consumed(lap.len()) as usize % lap.len()) % lap.len();
                while left > 0 {
                    batch.clear();
                    cursor.fill(&lap, ENGINE_BATCH.min(left), &mut batch);
                    left -= batch.len();
                    engine.ingest(&batch);
                    clock = batch.iter().map(Event::time).fold(clock, Time::max);
                    alerts.try_iter().for_each(drop);
                }
                drop(engine.run_retention(&retention, clock));
                let bytes = ltam::store::binval::encode(&engine.export_images());
                std::fs::write(path, &bytes).map_err(io)?;
                say(&format!(
                    "EXPORTED bytes={} sent={} {}",
                    bytes.len(),
                    cursor.consumed(lap.len()),
                    engine_totals(&engine)
                ));
            }
            other => return Err(format!("engine-child: unknown command {other:?}")),
        }
    }
}
