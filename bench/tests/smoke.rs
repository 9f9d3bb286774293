//! The smoke test: `ltam-perf --quick 1` runs all four workloads at a
//! fraction of their size — child processes, wire, `SIGKILL`, restart,
//! reference checks and all — and must call every one of them correct.

use std::process::Command;

#[test]
fn quick_mode_runs_every_workload_correctly() {
    let output = Command::new(env!("CARGO_BIN_EXE_ltam-perf"))
        .args(["--quick", "1", "--seed", "11"])
        .output()
        .expect("the harness binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "quick mode failed:\n{stderr}");
    let result = stdout.lines().last().unwrap_or_default();
    for workload in [
        "stream_ingest",
        "door_swipe",
        "history_query",
        "decide_inproc",
    ] {
        assert!(
            result.contains(&format!("\"{workload}\": {{\"correct\": true")),
            "{workload} missing or incorrect in {result}\n{stderr}"
        );
    }
    assert!(!result.contains("\"correct\": false"), "{result}");
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_ltam-perf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the harness binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
