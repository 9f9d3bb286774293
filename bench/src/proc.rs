//! Child-process plumbing: spawn this binary again as the system under
//! test, follow its stdout protocol, and kill it for real.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::str::FromStr;

/// Environment variable through which the harness tells a child which
/// CPU to pin itself to (children inherit the harness's environment).
pub const CHILD_CPU_ENV: &str = "LTAM_PERF_CHILD_CPU";

/// The CPU the children run on, once the harness has partitioned the
/// box (`None` on a one-CPU box).
pub fn child_cpu() -> Option<usize> {
    std::env::var(CHILD_CPU_ENV).ok()?.parse().ok()
}

/// One protocol line: a keyword and its `key=value` fields.
#[derive(Debug, Clone)]
pub struct Line(String);

impl Line {
    /// The line's text.
    pub fn text(&self) -> &str {
        &self.0
    }

    /// Field `key` parsed as `T`.
    pub fn field<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.0
            .split_ascii_whitespace()
            .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("no field {key} in {:?}", self.0))?
            .parse()
            .map_err(|_| format!("bad field {key} in {:?}", self.0))
    }
}

/// A running child. Dropping it kills the process and reaps it, so no
/// process outlives the harness on any path.
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Re-execute this binary as `mode` with `args`.
    pub fn spawn(mode: &str, args: &[String]) -> Result<ChildProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(mode)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {mode}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(ChildProc {
            child,
            stdin,
            stdout,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Block until the child prints a line starting with `keyword`.
    pub fn expect(&mut self, keyword: &str) -> Result<Line, String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err(format!("child exited while waiting for {keyword}")),
                Ok(_) if line.starts_with(keyword) => return Ok(Line(line.trim_end().to_string())),
                Ok(_) => {}
                Err(e) => return Err(format!("reading child stdout: {e}")),
            }
        }
    }

    /// Send one command line to the child's stdin.
    pub fn send(&mut self, command: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin already closed")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing child stdin: {e}"))
    }

    /// `SIGKILL` the child and wait until it is gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_by_exact_key() {
        let line = Line("READY addr=127.0.0.1:9 applied=42 replayed=7".into());
        assert_eq!(line.field::<u64>("applied"), Ok(42));
        assert_eq!(line.field::<String>("addr").unwrap(), "127.0.0.1:9");
        assert!(line.field::<u64>("app").is_err());
        assert!(line.field::<u64>("addr").is_err());
    }
}
