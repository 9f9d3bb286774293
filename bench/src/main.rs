//! `ltam-perf` — the LTAM perf ledger.
//!
//! ```text
//! ltam-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ltam-perf --repeat <n> [--workload <name>] [--seed <n>] [--seconds <s>]
//! ltam-perf --quick 1
//! ```
//!
//! The first form is the driver's: one run of one workload, and the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`; the exit code
//! is 0 only for a correct run. `--repeat` is the noise self-check:
//! `n` runs with consecutive seeds, then each metric's median and
//! quartile spread against a third of its bound. `--quick` is the
//! smoke test: every workload at a fraction of its size for one
//! second, every correctness check on. Progress and diagnostics go to
//! stderr; inputs, stores and span files go to `ltam-bench/` beside
//! the build's `release/` directory. See `bench/README.md`.

mod args;
mod child;
mod engine_run;
mod gen;
mod inputs;
mod layers;
mod load;
mod probe;
mod proc;
mod procfs;
mod replay;
mod scripts;
mod spec;
mod stats;
mod trace;
mod verify;
mod wire_run;

use args::Args;
use spec::{Kind, Metric, Workload, END_TO_END, WORKLOADS};
use stats::{median, quartile_spread, third_best};
use std::path::PathBuf;
use wire_run::{Measured, RunConfig, Window};

/// Frozen default seed (the driver passes its own).
const DEFAULT_SEED: u64 = 20_040_830;
/// Default length of the measured phase, seconds — `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The result of one run of one workload.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The per-slice values the timing metrics are estimated from: one
/// entry per slice in which every background job of the workload
/// cycled, each in quiet-host time (see `probe.rs`).
struct Slices {
    throughput: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    /// The host's slowdown in each of those slices.
    slowdown: Vec<f64>,
}

fn eligible_slices(w: &Workload, m: &Measured, check_cycles: bool) -> Slices {
    let mut out = Slices {
        throughput: Vec::new(),
        p50_ms: Vec::new(),
        p90_ms: Vec::new(),
        p99_ms: Vec::new(),
        cpu_us_per_op: Vec::new(),
        slowdown: Vec::new(),
    };
    for (i, s) in m.slices.iter().enumerate() {
        let (Some(window), Some(cpu)) = (m.slice_window(i), m.child_cpu.get(i..i + 2)) else {
            continue;
        };
        if s.ops == 0 || (check_cycles && !m.cycled(w, i)) {
            continue;
        }
        let slowdown = m.host.slowdown(window.from, window.to);
        out.throughput.push(s.throughput * slowdown);
        out.p50_ms.push(s.p50_ms / slowdown);
        out.p90_ms.push(s.p90_ms / slowdown);
        out.p99_ms.push(s.p99_ms / slowdown);
        out.cpu_us_per_op
            .push((cpu[1] - cpu[0]).as_secs_f64() * 1e6 / s.ops as f64 / slowdown);
        out.slowdown.push(slowdown);
    }
    out
}

/// The median of `windows`' lengths in quiet-host seconds.
fn quiet_seconds(m: &Measured, windows: &[Window]) -> f64 {
    let seconds: Vec<f64> = windows
        .iter()
        .map(|w| w.seconds() / m.host.slowdown(w.from, w.to))
        .collect();
    median(&seconds)
}

/// Boil the measurements down to the end-to-end metrics.
fn end_to_end(m: &Measured, slices: &Slices) -> Vec<Metric> {
    let value = |e: &spec::EndToEnd| match e.name {
        "setup_s" => quiet_seconds(m, &m.setup),
        "throughput_per_s" => third_best(&slices.throughput, e.higher_is_better),
        "latency_p50_ms" => third_best(&slices.p50_ms, e.higher_is_better),
        "latency_p90_ms" => third_best(&slices.p90_ms, e.higher_is_better),
        "cpu_us_per_op" => third_best(&slices.cpu_us_per_op, e.higher_is_better),
        "peak_rss_mb" => m.peak_rss_mib,
        "restart_s" => quiet_seconds(m, &m.restart),
        other => unreachable!("no such end-to-end metric: {other}"),
    };
    END_TO_END
        .iter()
        .map(|e| Metric::new(e.name, value(e), e.unit))
        .collect()
}

fn run_workload(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    let (mut m, inputs) = match w.kind {
        Kind::DecideInproc => engine_run::run(w, cfg)?,
        _ => wire_run::run(w, cfg)?,
    };
    let slices = eligible_slices(w, &m, cfg.check_cycles);
    if m.errors.is_empty() && cfg.check_cycles && slices.throughput.len() < 3 {
        m.fail(format!(
            "only {} of {} slices saw every background job cycle; the estimators need 3",
            slices.throughput.len(),
            m.slices.len()
        ));
    }
    if m.errors.is_empty() && m.attempted == 0 {
        m.fail("no operation was attempted".into());
    }
    for e in &m.errors {
        eprintln!("{}: INCORRECT: {e}", w.name);
    }
    let seconds = |windows: &[Window]| windows.iter().map(Window::seconds).collect::<Vec<_>>();
    eprintln!("{}: {}", w.name, w.why);
    eprintln!(
        "{}: seed {}, generation {:.2}s, set-up {:.3?}s, restart {:.3?}s",
        w.name,
        cfg.seed,
        m.gen_s,
        seconds(&m.setup),
        seconds(&m.restart)
    );
    for (i, (s, cpu)) in m.slices.iter().zip(m.child_cpu.windows(2)).enumerate() {
        let window = m.slice_window(i).expect("a measured run has a phase");
        eprintln!(
            "{}: slice {i}: {:>9.0} op/s  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  program cpu {:.2}s  \
             host slowdown {:.3}  snapshots {}  retention runs {}{}",
            w.name,
            s.throughput,
            s.p50_ms,
            s.p90_ms,
            s.p99_ms,
            (cpu[1] - cpu[0]).as_secs_f64(),
            m.host.slowdown(window.from, window.to),
            m.jobs[i + 1].snapshots - m.jobs[i].snapshots,
            m.jobs[i + 1].retention_runs - m.jobs[i].retention_runs,
            if m.cycled(w, i) || !cfg.check_cycles {
                ""
            } else {
                "  (a background job did not cycle: left out)"
            }
        );
    }
    let mut metrics = end_to_end(&m, &slices);
    if cfg.trace && m.errors.is_empty() {
        // The per-layer pass: replay the workload's inputs stage by
        // stage, then read the scraped series and reconcile.
        let mut tracer = m.tracer.take().unwrap_or_else(trace::Tracer::new);
        let scratch = inputs.dir.join("replay");
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let replayed = replay::run(&inputs.lap, &scratch, &mut tracer)?;
        let path = cfg.data_dir.join(format!("trace-{}.jsonl", w.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        m.tracer = Some(tracer);
        match layers::per_layer(w, &m, &slices, replayed) {
            Ok(layered) => metrics = layered,
            Err(e) => {
                eprintln!("{}: INCORRECT: {e}", w.name);
                m.fail(e);
            }
        }
    }
    // Stores and inputs are garbage now; the span file stays. Let the
    // deletion reach the disk before the next run starts.
    let _ = std::fs::remove_dir_all(&inputs.dir);
    wire_run::flush_disk();
    Ok(Outcome {
        correct: m.errors.is_empty() && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    })
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// `--repeat n`: run each of `workloads` `n` times with consecutive
/// seeds and print, per end-to-end metric, the median and the quartile
/// spread (inter-quartile distance over the median, as the acceptance
/// check computes it). Passes when every spread is within a third of
/// the metric's bound.
fn repeat(workloads: &[&Workload], cfg: &RunConfig, n: usize) -> Result<bool, String> {
    let mut steady = true;
    println!("| workload | metric | median | spread | bound / 3 | |");
    println!("|---|---|---|---|---|---|");
    for w in workloads {
        let mut values = vec![Vec::with_capacity(n); END_TO_END.len()];
        for i in 0..n {
            let cfg = RunConfig {
                seed: cfg.seed + i as u64,
                ..cfg.clone()
            };
            let outcome = run_workload(w, &cfg)?;
            if !outcome.correct {
                return Err(format!(
                    "{}: run with seed {} is incorrect",
                    w.name, cfg.seed
                ));
            }
            for (v, m) in values.iter_mut().zip(&outcome.metrics) {
                v.push(m.value);
            }
        }
        for (e, v) in END_TO_END.iter().zip(&values) {
            let spread = quartile_spread(v);
            let ok = spread <= e.bound / 3.0;
            steady &= ok;
            println!(
                "| {} | {} | {:.5} {} | {spread:.4} | {:.4} | {} |",
                w.name,
                e.name,
                median(v),
                e.unit,
                e.bound / 3.0,
                if ok { "ok" } else { "NOISY" }
            );
        }
    }
    Ok(steady)
}

/// `--quick`: every workload at an eighth of its size for two seconds
/// (snapshots sped up to match, so that several still happen), one
/// set-up and one restart, every correctness check on; prints one JSON
/// document with each workload's result.
fn quick(cfg: &RunConfig) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let small = Workload {
            subjects: w.subjects / 8,
            lap_events: w.lap_events / 8,
            snapshot_every: w.snapshot_every / 64,
            warm_seconds: 0.3,
            ..*w
        };
        let cfg = RunConfig {
            seconds: 2.0,
            repeats: 1,
            check_cycles: false,
            ..cfg.clone()
        };
        let outcome = run_workload(&small, &cfg)?;
        all_correct &= outcome.correct;
        results.push(format!("\"{}\": {}", w.name, json(&outcome)));
    }
    println!("{{{}}}", results.join(", "));
    Ok(all_correct)
}

/// The harness command line; returns the process's exit code.
fn harness(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(
        argv,
        &["workload", "seed", "seconds", "trace", "repeat", "quick"],
    )?;
    let cfg = RunConfig {
        seed: args.parsed("seed", DEFAULT_SEED)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        data_dir: data_dir()?,
        trace: args.parsed("trace", 0u8)? != 0,
        repeats: spec::REPEATS,
        check_cycles: true,
    };
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.5) {
        return Err("--seconds must be at least 0.5".into());
    }
    let named = match args.get("workload") {
        None => None,
        Some(name) => Some(spec::workload(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {names:?}")
        })?),
    };
    if args.parsed("quick", 0u8)? != 0 {
        return Ok(if quick(&cfg)? { 0 } else { 1 });
    }
    let repeats: usize = args.parsed("repeat", 0)?;
    if repeats > 0 {
        if repeats < 2 {
            return Err("--repeat needs at least 2 runs".into());
        }
        let workloads: Vec<&Workload> = match named {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        };
        return Ok(if repeat(&workloads, &cfg, repeats)? {
            0
        } else {
            1
        });
    }
    let w = named.ok_or("--workload is required")?;
    let outcome = run_workload(w, &cfg)?;
    println!("{}", json(&outcome));
    Ok(if outcome.correct { 0 } else { 1 })
}

/// Where inputs, stores and span files go: `ltam-bench/` in the build
/// directory this binary was built into (`<target>/release/ltam-perf`
/// → `<target>/ltam-bench`), so a run writes only where its build
/// already did.
fn data_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| format!("{} is not inside a build directory", exe.display()))?;
    Ok(target.join("ltam-bench"))
}

/// Give the program under test and the load generator a processor
/// each: the child (and every thread its libraries spawn) runs on the
/// first allowed CPU, the harness on the last. On a two-CPU box the
/// alternative is six threads migrating between two CPUs, and
/// run-to-run differences of 20% that no estimator removes. With one
/// CPU there is nothing to partition.
fn partition_cpus(is_child: bool) {
    let cpu = if is_child {
        // The harness names the child's CPU: the child inherits the
        // harness's own narrowed mask and cannot work it out itself.
        proc::child_cpu()
    } else {
        procfs::allowed_cpus()
            .filter(|cpus| cpus.len() >= 2)
            .map(|cpus| {
                std::env::set_var(proc::CHILD_CPU_ENV, cpus[0].to_string());
                cpus[cpus.len() - 1]
            })
    };
    if let Some(cpu) = cpu {
        if !procfs::pin_to_cpu(cpu) {
            eprintln!("ltam-perf: could not pin to CPU {cpu}; results will be noisier");
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv.first().map(String::as_str);
    partition_cpus(matches!(mode, Some("serve-child" | "engine-child")));
    let result = match mode {
        Some("serve-child") => child::serve_child(&argv[1..]).map(|()| 0),
        Some("engine-child") => child::engine_child(&argv[1..]).map(|()| 0),
        _ => harness(&argv),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ltam-perf: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the tables in `spec.rs` and
    /// `layers.rs` are what the harness reports. They must agree entry
    /// for entry.
    #[test]
    fn the_committed_manifest_lists_exactly_what_the_tables_define() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(manifest.len() <= 64 * 1024);
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(manifest.contains(&entry), "missing or different: {entry}");
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for e in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                better(e.higher_is_better),
                e.bound
            );
            assert!(manifest.contains(&entry), "missing or different: {entry}");
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        for l in &layers::PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name,
                l.unit,
                better(l.higher_is_better)
            );
            assert!(manifest.contains(&entry), "missing or different: {entry}");
        }
        // Nothing beyond the tables.
        assert_eq!(
            manifest.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + layers::PER_LAYER.len()
        );
        assert!(manifest.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
        assert_eq!(DEFAULT_SECONDS.fract(), 0.0);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers::PER_LAYER.len()));
        // Set-up carries the largest bound.
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s" && e.unit == "s" && !e.higher_is_better)
            .expect("setup_s is an end-to-end metric");
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    }

    #[test]
    fn results_print_as_one_json_line() {
        let line = json(&Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.8127, "s")],
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
