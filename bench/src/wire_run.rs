//! The run shape of the three wire workloads: generate inputs, start
//! the host-speed probe, set the server up (several times, for a
//! steady `setup_s`), warm up, measure in slices — the child's CPU and
//! the program's own background-job counters sampled at slice edges —
//! bring the WAL tail to a fixed length, `SIGKILL`, restart (several
//! times) and check durability, then check every reply against the
//! reference.

use crate::gen;
use crate::inputs;
use crate::load::{Conn, Script, Tally};
use crate::probe::{HostSpeed, Probe};
use crate::proc::{self, ChildProc, Line};
use crate::procfs;
use crate::scripts::{IngestScript, QueryPlan, QueryScript, Stream, SwipeScript, WriteScript};
use crate::spec::{Kind, Workload, CONNECTIONS};
use crate::stats::{merge_slices, Phase, SliceLog, SliceStats, SLICES};
use crate::trace::Tracer;
use crate::verify::Reference;
use ltam::engine::batch::Event;
use ltam::serve::wire::{HistoryQuery, Request, Response, ServerStatus};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The token door controllers present (`door_swipe` requires one).
const TOKEN: &str = "door-bank-secret";
/// `history_query`: a trickle frame is due this often per connection.
const TRICKLE_EVERY: Duration = Duration::from_millis(12);
/// `history_query`: a question refused as `Unarchived` is asked again
/// this much later, and has failed if it is still refused after
/// [`GIVE_UP_AFTER`].
const RETRY_AFTER: Duration = Duration::from_millis(2);
const GIVE_UP_AFTER: Duration = Duration::from_secs(1);

/// What the harness was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Where inputs and stores go (inside the checkout).
    pub data_dir: PathBuf,
    /// Per-layer mode: scrape series, record spans, run the replay.
    pub trace: bool,
    /// How often set-up and restart are repeated (medians reported).
    pub repeats: usize,
    /// Leave slices in which a background job did not cycle out of the
    /// estimators (and fail the run when fewer than three are left).
    /// Off in the smoke test only: a debug build at a fraction of the
    /// size says nothing about cadences.
    pub check_cycles: bool,
}

impl RunConfig {
    /// Set-ups and restarts in this run: a traced run needs no steady
    /// `setup_s`, so it does each once.
    pub fn repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            self.repeats.max(1)
        }
    }
}

/// A stretch of wall-clock time something was measured over.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When it began.
    pub from: Instant,
    /// When it ended.
    pub to: Instant,
}

impl Window {
    /// The window from `from` until now.
    pub fn since(from: Instant) -> Window {
        Window {
            from,
            to: Instant::now(),
        }
    }

    /// Its length, seconds.
    pub fn seconds(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }
}

/// How often the program's periodic background jobs have run so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jobs {
    /// Snapshots taken.
    pub snapshots: u64,
    /// Retention runs.
    pub retention_runs: u64,
}

/// Everything one run measured, before it is boiled down to metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Input generation time (excluded from set-up).
    pub gen_s: f64,
    /// Spawn → ready, once per set-up.
    pub setup: Vec<Window>,
    /// The measured phase.
    pub phase: Option<Phase>,
    /// Per-slice client-side figures.
    pub slices: Vec<SliceStats>,
    /// The child's CPU time at each slice edge (`SLICES + 1` samples).
    pub child_cpu: Vec<Duration>,
    /// This process's CPU time at the same edges.
    pub own_cpu: Vec<Duration>,
    /// The program's background-job counters at the same edges.
    pub jobs: Vec<Jobs>,
    /// The child's `VmHWM` at the end of the measured phase.
    pub peak_rss_mib: f64,
    /// `SIGKILL` → first correct reply, once per restart.
    pub restart: Vec<Window>,
    /// The host's speed over the whole run.
    pub host: HostSpeed,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub errors: Vec<String>,
    /// Spans recorded in trace mode.
    pub tracer: Option<Tracer>,
    /// Scraped exposition before and after the measured phase.
    pub scrapes: Option<(String, String)>,
    /// The server's status at the end of load.
    pub status: Option<ServerStatus>,
    /// How long the end-of-load `Status` and `Metrics` calls took, ms.
    pub control_ms: Option<(f64, f64)>,
    /// Bytes in the store directory at the end of load.
    pub dir_bytes: u64,
    /// `Unarchived` refusals the query script retried.
    pub unarchived_retries: u64,
}

impl Measured {
    /// Record why the run is not correct.
    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
        self.failed = self.failed.max(1);
    }

    /// Slice `i`'s wall-clock window.
    pub fn slice_window(&self, i: usize) -> Option<Window> {
        let phase = self.phase?;
        Some(Window {
            from: phase.start + phase.slice * i as u32,
            to: phase.start + phase.slice * (i + 1) as u32,
        })
    }

    /// Did every periodic background job of `w` complete at least one
    /// cycle inside slice `i`? Only such slices enter the estimators:
    /// a slice that happened to fall between two snapshots would hide
    /// what snapshots cost.
    pub fn cycled(&self, w: &Workload, i: usize) -> bool {
        let (Some(a), Some(b)) = (self.jobs.get(i), self.jobs.get(i + 1)) else {
            return false;
        };
        let snapshots_due = w.snapshot_every > 0;
        (!snapshots_due || b.snapshots > a.snapshots) && b.retention_runs > a.retention_runs
    }
}

/// The CPU the host-speed probe runs on: the program's.
pub fn start_probe() -> Probe {
    Probe::start(proc::child_cpu())
}

/// The generated inputs of a wire run.
pub struct Inputs {
    /// The base lap.
    pub lap: gen::Lap,
    /// The lap split per connection.
    pub streams: Vec<Arc<Vec<Event>>>,
    /// The workload's directory.
    pub dir: PathBuf,
}

/// Generate the lap for `w` and write the child's input files.
pub fn prepare(w: &Workload, cfg: &RunConfig) -> Result<Inputs, String> {
    let dir = cfg.data_dir.join(w.name);
    // A previous run's stores are this run's garbage.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let lap = gen::base_lap(cfg.seed, w.subjects, w.lap_events);
    inputs::write_policy(&dir.join("policy.bin"), &lap.authorizations)
        .and_then(|()| inputs::write_events(&dir.join("lap.bin"), &lap.events, lap.span))
        .map_err(|e| format!("writing inputs: {e}"))?;
    let streams = gen::partition(&lap.events, CONNECTIONS)
        .into_iter()
        .map(Arc::new)
        .collect();
    Ok(Inputs { lap, streams, dir })
}

/// `sync(1)`: wait until the file system has nothing left to write.
pub fn flush_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// Spawn `serve-child` over `store`; returns it with its `READY` line.
fn spawn_server(
    w: &Workload,
    inputs: &Inputs,
    store: &Path,
    mode: &str,
) -> Result<(ChildProc, Line), String> {
    let path = |p: PathBuf| p.to_string_lossy().into_owned();
    let mut args = vec![
        "--dir".to_string(),
        path(store.to_path_buf()),
        "--mode".into(),
        mode.into(),
        "--policy".into(),
        path(inputs.dir.join("policy.bin")),
        "--snapshot-every".into(),
        w.snapshot_every.to_string(),
        "--retention".into(),
        w.retention(inputs.lap.span).to_string(),
        "--min-advance".into(),
        w.min_advance(inputs.lap.span).to_string(),
    ];
    if w.preload_laps > 0 {
        args.extend([
            "--preload".into(),
            path(inputs.dir.join("lap.bin")),
            "--preload-laps".into(),
            w.preload_laps.to_string(),
        ]);
    }
    if w.auth {
        args.extend(["--token".into(), TOKEN.into()]);
    }
    let mut child = ChildProc::spawn("serve-child", &args)?;
    let ready = child.expect("READY")?;
    Ok((child, ready))
}

fn connect(w: &Workload, ready: &Line) -> Result<Conn, String> {
    Conn::open(&ready.field::<String>("addr")?, w.auth.then_some(TOKEN))
}

fn status(control: &mut Conn) -> Result<ServerStatus, String> {
    match control.call(&Request::Query(HistoryQuery::Status))? {
        Response::Status { status } => Ok(status),
        other => Err(format!("Status answered with {other:?}")),
    }
}

fn scrape(control: &mut Conn) -> Result<String, String> {
    match control.call(&Request::Metrics)? {
        Response::Metrics { text } => Ok(text),
        other => Err(format!("Metrics answered with {other:?}")),
    }
}

/// Violations ever raised, pruned ones included.
fn violations_total(s: &ServerStatus) -> u64 {
    s.engine.live_violations as u64 + s.engine.violations_pruned
}

/// Has the snapshot covering `seq` been renamed into place?
fn snapshot_landed(store: &Path, seq: u64) -> bool {
    let prefix = format!("snap-{seq:020}-");
    std::fs::read_dir(store).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with(&prefix) && name.ends_with(".snap")
        })
    })
}

/// Bring the store to a repeatable crash point: keep one connection
/// writing until the WAL tail behind the newest snapshot is half a
/// snapshot interval long and that snapshot's file has landed. Restart
/// time then replays the same amount of log on every run. Returns the
/// quiescent status the restart is checked against.
fn settle<S: Script>(
    w: &Workload,
    store: &Path,
    control: &mut Conn,
    conn: &mut Conn,
    script: &mut S,
    frame_events: u64,
    tally: &mut Tally,
) -> Result<ServerStatus, String> {
    let target = w.snapshot_every / 2;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let st = status(control)?;
        let tail = st.events_ingested - st.snapshot_seq;
        let writes = w.kind != Kind::HistoryQuery;
        if !writes || (tail >= target && tail < target + frame_events) {
            while !snapshot_landed(store, st.snapshot_seq) {
                if Instant::now() > deadline {
                    return Err(format!("snapshot {} never landed", st.snapshot_seq));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            return Ok(st);
        }
        if Instant::now() > deadline {
            return Err(format!("WAL tail stuck at {tail}, wanted {target}"));
        }
        let need = if tail < target {
            target - tail
        } else {
            // Past the mark: run on to the next snapshot first.
            w.snapshot_every.saturating_sub(tail).max(frame_events)
        };
        let (t, result) = conn.run_frames(script, w.depth, need.div_ceil(frame_events));
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        result?;
    }
}

/// What was sampled at the slice edges of a phase.
pub struct Edges {
    /// The child's CPU time.
    pub child_cpu: Vec<Duration>,
    /// This process's CPU time.
    pub own_cpu: Vec<Duration>,
    /// The program's background-job counters.
    pub jobs: Vec<Jobs>,
}

/// Sleep to each slice edge of `phase`; sample both processes' CPU
/// there and ask `jobs` for the program's background-job counters.
pub fn sample_edges(
    pid: u32,
    phase: &Phase,
    mut jobs: impl FnMut() -> Result<Jobs, String>,
) -> Result<Edges, String> {
    let own = std::process::id();
    let mut edges = Edges {
        child_cpu: Vec::with_capacity(SLICES + 1),
        own_cpu: Vec::with_capacity(SLICES + 1),
        jobs: Vec::with_capacity(SLICES + 1),
    };
    for i in 0..=SLICES {
        let edge = phase.start + phase.slice * i as u32;
        std::thread::sleep(edge.saturating_duration_since(Instant::now()));
        edges
            .child_cpu
            .push(procfs::cpu_time(pid).unwrap_or_default());
        edges
            .own_cpu
            .push(procfs::cpu_time(own).unwrap_or_default());
        edges.jobs.push(jobs()?);
    }
    Ok(edges)
}

/// The server's background-job counters, from its own metric registry
/// (`Request::Metrics` — a cheap scrape, unlike `Status`, which walks
/// the live history).
fn scrape_jobs(control: &mut Conn) -> Result<Jobs, String> {
    let text = scrape(control)?;
    let series = ltam::obs::parse_text(&text).map_err(|e| format!("scrape: {e}"))?;
    Ok(Jobs {
        snapshots: series.family_sum("store_snapshots_total") as u64,
        retention_runs: series.family_sum("store_retention_run_seconds_count") as u64,
    })
}

/// [`drive`] the server while the host-speed probe runs.
fn measure<S: Script>(
    w: &Workload,
    cfg: &RunConfig,
    inputs: &Inputs,
    scripts: Vec<S>,
) -> Result<(Measured, Vec<S>), String> {
    let probe = start_probe();
    let driven = drive(w, cfg, inputs, scripts);
    let host = probe.finish();
    let (mut m, scripts) = driven?;
    m.host = host;
    Ok((m, scripts))
}

/// Set up, load, crash and restart the server with `scripts` (one per
/// connection); hands the scripts back for verification.
fn drive<S: Script>(
    w: &Workload,
    cfg: &RunConfig,
    inputs: &Inputs,
    mut scripts: Vec<S>,
) -> Result<(Measured, Vec<S>), String> {
    let mut m = Measured::default();
    // Start from a quiet disk: earlier runs' dirty pages are not ours.
    flush_disk();

    // Set-up, repeated on fresh directories; the last server stays.
    // The others' directories stay too, until the run ends: deleting
    // tens of megabytes now would put the file system's discards into
    // the measured phase.
    let repeats = cfg.repeats();
    let mut live = None;
    for i in 0..repeats {
        // Dropping the previous server kills and reaps it.
        drop(live.take());
        let store = inputs.dir.join(format!("store-{i}"));
        let start = Instant::now();
        let (child, ready) = spawn_server(w, inputs, &store, "create")?;
        m.setup.push(Window::since(start));
        live = Some((child, ready, store));
    }
    let (mut child, ready, store) = live.expect("at least one set-up");

    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        conns.push(connect(w, &ready)?);
    }
    let mut control = connect(w, &ready)?;

    // Warm-up, then the measured phase, in one uninterrupted stream.
    let before = if cfg.trace {
        Some(scrape(&mut control)?)
    } else {
        None
    };
    let epoch = Instant::now();
    let phase = Phase::new(epoch + Duration::from_secs_f64(w.warm_seconds), cfg.seconds);
    let pid = child.pid();
    let trace = cfg.trace;
    let (results, edges) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(scripts.iter_mut())
            .map(|(conn, script)| {
                scope.spawn(move || {
                    let mut log = SliceLog::default();
                    let mut tracer = trace.then(|| Tracer::at(epoch));
                    // Spans only in the second half of the phase: the
                    // first half is the untraced pass it is compared with.
                    let trace_from = phase.start + phase.slice * (SLICES / 2) as u32;
                    let (tally, result) = conn.run_until(
                        script,
                        w.depth,
                        phase.end(),
                        &phase,
                        &mut log,
                        tracer.as_mut().map(|t| (t, trace_from)),
                    );
                    (log, tally, result, tracer)
                })
            })
            .collect();
        let edges = sample_edges(pid, &phase, || scrape_jobs(&mut control));
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (results, edges)
    });
    m.peak_rss_mib = procfs::peak_rss_mib(pid).unwrap_or(0.0);
    m.phase = Some(phase);
    let edges = edges?;
    m.child_cpu = edges.child_cpu;
    m.own_cpu = edges.own_cpu;
    m.jobs = edges.jobs;
    let mut logs = Vec::with_capacity(CONNECTIONS);
    let mut tally = Tally::default();
    for (log, t, result, tracer) in results {
        logs.push(log);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        if let Err(e) = result {
            m.errors.push(e);
        }
        if let Some(t) = tracer {
            match &mut m.tracer {
                Some(all) => all.absorb(t),
                None => m.tracer = Some(t),
            }
        }
    }
    m.slices = merge_slices(&logs, phase.slice);
    if !m.errors.is_empty() {
        m.attempted = tally.attempted;
        m.failed = tally.failed.max(1);
        return Ok((m, scripts));
    }
    if let Some(before) = before {
        let after = scrape(&mut control)?;
        m.scrapes = Some((before, after));
        let t = Instant::now();
        status(&mut control)?;
        let status_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        scrape(&mut control)?;
        m.control_ms = Some((status_ms, t.elapsed().as_secs_f64() * 1e3));
    }

    // Crash and restart, several times over the same directory.
    let mut before = settle(
        w,
        &store,
        &mut control,
        &mut conns[0],
        &mut scripts[0],
        w.batch as u64,
        &mut tally,
    )?;
    m.status = Some(before.clone());
    m.dir_bytes = std::fs::read_dir(&store)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0);
    for _ in 0..repeats {
        drop(control);
        conns.clear();
        child.kill();
        let start = Instant::now();
        let (revived, ready) = spawn_server(w, inputs, &store, "open")?;
        child = revived;
        let mut conn = connect(w, &ready)?;
        let (t, result) = conn.run_frames(&mut scripts[0], 1, 1);
        m.restart.push(Window::since(start));
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        result?;
        // Durability under SIGKILL: every acknowledged event is back,
        // and so is every entry and violation they produced.
        let applied: u64 = ready.field("applied")?;
        let entries: u64 = ready.field("entries")?;
        let violations: u64 = ready.field("violations")?;
        if applied < before.events_ingested
            || entries != before.engine.total_entries
            || violations != violations_total(&before)
        {
            m.errors.push(format!(
                "restart lost acknowledged state: applied {applied} (acked {}), entries {entries} \
                 (had {}), violations {violations} (had {})",
                before.events_ingested,
                before.engine.total_entries,
                violations_total(&before)
            ));
        }
        conns.push(conn);
        control = connect(w, &ready)?;
        before = status(&mut control)?;
    }
    drop(control);
    conns.clear();
    child.kill();
    m.attempted = tally.attempted;
    m.failed = tally.failed;
    Ok((m, scripts))
}

/// [`measure`] a write workload, then replay everything it sent into
/// the reference and compare.
fn measure_writes<S: WriteScript>(
    w: &Workload,
    cfg: &RunConfig,
    inputs: &Inputs,
    scripts: Vec<S>,
) -> Result<Measured, String> {
    let (mut m, scripts) = measure(w, cfg, inputs, scripts)?;
    let mut reference = Reference::new(&inputs.lap.authorizations, w.stride, &[]);
    for s in &scripts {
        if let Err(e) = s.verify(&mut reference) {
            m.fail(e);
        }
    }
    let sent: u64 = scripts.iter().map(S::sent).sum();
    if m.errors.is_empty() && sent != m.attempted {
        m.fail(format!("sent {sent} operations, counted {}", m.attempted));
    }
    Ok(m)
}

/// Run wire workload `w` end to end and verify it.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<(Measured, Inputs), String> {
    let start = Instant::now();
    let inputs = prepare(w, cfg)?;
    let gen_s = start.elapsed().as_secs_f64();
    let span = inputs.lap.span;
    let stream = |i: usize, lap: u64| Stream::new(Arc::clone(&inputs.streams[i]), span, lap);
    let mut m = match w.kind {
        Kind::StreamIngest => {
            let scripts = (0..CONNECTIONS)
                .map(|i| IngestScript::new(stream(i, 0), w.batch, w.stride))
                .collect();
            measure_writes(w, cfg, &inputs, scripts)?
        }
        Kind::DoorSwipe => {
            let scripts = (0..CONNECTIONS)
                .map(|i| SwipeScript::new(stream(i, 0), w.stride))
                .collect();
            measure_writes(w, cfg, &inputs, scripts)?
        }
        Kind::HistoryQuery => {
            let history_end = w.preload_laps * span;
            if w.retention(span) + w.min_advance(span) + span >= history_end {
                return Err("history_query needs more preloaded laps than it keeps live".into());
            }
            let plan = QueryPlan {
                subjects: w.subjects as u32,
                locations: (gen::GRID * gen::GRID) as u32,
                // Retention runs when the watermark can move by
                // `min_advance`, so at the end of the preload the
                // archive reaches at least this far.
                archived_below: history_end - w.retention(span) - w.min_advance(span),
                live_from: history_end - w.retention(span) / 4,
                history_end,
                trickle_every: TRICKLE_EVERY,
                trickle_batch: w.batch,
                retry_after: RETRY_AFTER,
                give_up_after: GIVE_UP_AFTER,
            };
            let scripts = (0..CONNECTIONS)
                .map(|i| {
                    let seed = cfg.seed.wrapping_mul(CONNECTIONS as u64) + i as u64;
                    QueryScript::new(plan, stream(i, w.preload_laps), seed)
                })
                .collect();
            let (mut m, scripts) = measure(w, cfg, &inputs, scripts)?;
            // The unpruned reference holds exactly the preloaded
            // history; the trickle is later than every question.
            let mut reference = Reference::new(&inputs.lap.authorizations, 1, &[]);
            let mut cursor = gen::LapCursor::new(span);
            for _ in 0..w.preload_laps * inputs.lap.events.len() as u64 {
                reference.apply(&cursor.next(&inputs.lap.events));
            }
            m.unarchived_retries = scripts.iter().map(QueryScript::refusals).sum();
            // A question the run ended on, between a refusal and its
            // retry, was neither answered nor failed: not an attempt.
            m.attempted -= scripts.iter().map(QueryScript::unanswered).sum::<u64>();
            for s in &scripts {
                match s.verify(&reference) {
                    Ok(0) if m.errors.is_empty() => m.fail("no answer was sampled".into()),
                    Ok(_) => {}
                    Err(e) => m.fail(e),
                }
            }
            m
        }
        Kind::DecideInproc => unreachable!("decide_inproc has no wire"),
    };
    m.gen_s = gen_s;
    Ok((m, inputs))
}
