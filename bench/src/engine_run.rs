//! The run shape of `decide_inproc`: the embedded library in a child
//! process (`engine-child`) that replays the generated lap through
//! `ShardedEngine::ingest` on its own main thread. The harness times
//! set-up and restart from outside, runs the host-speed probe, samples
//! the child's CPU at slice edges, and checks the child's violation
//! digest against the reference engine.

use crate::child::workflow_constraints;
use crate::gen::LapCursor;
use crate::proc::ChildProc;
use crate::procfs;
use crate::spec::Workload;
use crate::stats::{Phase, SliceStats, SLICES};
use crate::verify::Reference;
use crate::wire_run::{
    prepare, sample_edges, start_probe, Inputs, Jobs, Measured, RunConfig, Window,
};
use std::time::Instant;

fn spawn_engine(
    w: &Workload,
    inputs: &Inputs,
    restore: Option<(&str, u64)>,
) -> Result<ChildProc, String> {
    let path = |name: &str| inputs.dir.join(name).to_string_lossy().into_owned();
    let mut args = vec![
        "--policy".to_string(),
        path("policy.bin"),
        "--lap".into(),
        path("lap.bin"),
        "--retention".into(),
        w.retention(inputs.lap.span).to_string(),
        "--retention-every".into(),
        ((w.min_advance_laps * inputs.lap.events.len() as f64) as u64).to_string(),
    ];
    if let Some((images, skip)) = restore {
        args.extend([
            "--restore".into(),
            path(images),
            "--skip".into(),
            skip.to_string(),
        ]);
    }
    ChildProc::spawn("engine-child", &args)
}

/// Run `decide_inproc` end to end and verify it.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<(Measured, Inputs), String> {
    let start = Instant::now();
    let inputs = prepare(w, cfg)?;
    let gen_s = start.elapsed().as_secs_f64();
    let probe = start_probe();
    let driven = drive(w, cfg, &inputs);
    let host = probe.finish();
    let mut m = driven?;
    m.gen_s = gen_s;
    m.host = host;
    Ok((m, inputs))
}

/// Set the engine up, load it, kill it and rebuild it from its images.
fn drive(w: &Workload, cfg: &RunConfig, inputs: &Inputs) -> Result<Measured, String> {
    let mut m = Measured::default();

    let repeats = cfg.repeats();
    let mut child = None;
    for _ in 0..repeats {
        // Dropping the previous child kills and reaps it.
        drop(child.take());
        let start = Instant::now();
        let mut c = spawn_engine(w, inputs, None)?;
        c.expect("READY")?;
        m.setup.push(Window::since(start));
        child = Some(c);
    }
    let mut child = child.expect("at least one set-up");

    child.send(&format!(
        "RUN {} {} {}",
        w.warm_seconds, cfg.seconds, w.stride
    ))?;
    child.expect("START")?;
    let phase = Phase::new(Instant::now(), cfg.seconds);
    m.phase = Some(phase);
    // The child counts its own retention runs (the `SLICE` lines).
    let edges = sample_edges(child.pid(), &phase, || Ok(Jobs::default()))?;
    m.child_cpu = edges.child_cpu;
    m.own_cpu = edges.own_cpu;
    m.jobs = edges.jobs;
    for i in 0..SLICES {
        let line = child.expect("SLICE")?;
        let ops: u64 = line.field("ops")?;
        if !line.text().starts_with(&format!("SLICE {i} ")) {
            return Err(format!("slice {i} out of order: {}", line.text()));
        }
        m.slices.push(SliceStats {
            ops,
            throughput: ops as f64 / phase.slice.as_secs_f64(),
            p50_ms: line.field("p50_ms")?,
            p90_ms: line.field("p90_ms")?,
            p99_ms: line.field("p99_ms")?,
        });
        m.jobs[i + 1].retention_runs =
            m.jobs[i].retention_runs + line.field::<u64>("retention_runs")?;
    }
    let done = child.expect("DONE")?;
    m.peak_rss_mib = procfs::peak_rss_mib(child.pid()).unwrap_or(0.0);
    let sent: u64 = done.field("sent")?;
    let processed: u64 = done.field("processed")?;
    m.attempted = sent;
    if processed != sent {
        m.failed = sent - processed.min(sent);
        m.errors
            .push(format!("sent {sent} events, engine processed {processed}"));
    }

    // Crash and restart from the exported shard images.
    child.send(&format!(
        "EXPORT {}",
        inputs.dir.join("images.bin").display()
    ))?;
    let exported = child.expect("EXPORTED")?;
    // The child ran on to the end of its lap before exporting.
    let resume_at: u64 = exported.field("sent")?;
    let (entries, violations): (u64, u64) =
        (exported.field("entries")?, exported.field("violations")?);
    for _ in 0..repeats {
        child.kill();
        let start = Instant::now();
        child = spawn_engine(w, inputs, Some(("images.bin", resume_at)))?;
        let ready = child.expect("READY")?;
        m.restart.push(Window::since(start));
        // READY is printed after the first batch, which can only add.
        let batch = crate::child::ENGINE_BATCH as u64;
        let (e, v): (u64, u64) = (ready.field("entries")?, ready.field("violations")?);
        let first: u64 = ready.field("first")?;
        if first != batch
            || e < entries
            || e > entries + batch
            || v < violations
            || v > violations + batch
        {
            m.errors.push(format!(
                "restart lost state: first batch {first}, entries {e} (had {entries}), \
                 violations {v} (had {violations})"
            ));
        }
    }
    child.kill();

    // The sampled subjects' violations over the whole run.
    let mut reference = Reference::new(
        &inputs.lap.authorizations,
        w.stride,
        &workflow_constraints(),
    );
    let mut cursor = LapCursor::new(inputs.lap.span);
    for _ in 0..sent {
        reference.apply(&cursor.next(&inputs.lap.events));
    }
    let want = reference.drain_digest();
    let (digest, sampled): (u64, u64) = (done.field("digest")?, done.field("sampled")?);
    if (want.sum(), want.count()) != (digest, sampled) {
        m.errors.push(format!(
            "violation multiset diverged from the reference: {sampled} reported, {} expected",
            want.count()
        ));
    }
    if !m.errors.is_empty() {
        m.failed = m.failed.max(1);
    }
    Ok(m)
}
