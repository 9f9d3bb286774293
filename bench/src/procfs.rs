//! `/proc` readers — a process's CPU time and peak resident set, read
//! from outside so the figures are the program's, not the generator's —
//! and CPU pinning, which keeps the program and the generator off each
//! other's processor.

use std::time::Duration;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them.
/// `USER_HZ` is 100 on every Linux ABI this benchmark runs on.
const USER_HZ: u64 = 100;

/// User + system CPU time out of a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 1000 / USER_HZ))
}

/// `VmHWM` (peak resident set) in KiB out of `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU time process `pid` has used so far (all threads, exited ones
/// included).
pub fn cpu_time(pid: u32) -> Option<Duration> {
    parse_stat_cpu(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of process `pid`, MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_hwm_kib(&status)? as f64 / 1024.0)
}

/// The CPUs of a `Cpus_allowed_list` value such as `0-1,4`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        let (first, last): (usize, usize) = (first.parse().ok()?, last.parse().ok()?);
        if first > last || last >= MAX_CPUS {
            return None;
        }
        cpus.extend(first..=last);
    }
    Some(cpus)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    parse_cpu_list(line.split_once(':')?.1)
}

/// CPUs a `cpu_set_t` holds.
const MAX_CPUS: usize = 1024;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and every thread it spawns from now on —
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to_cpu(cpu: usize) -> bool {
    if cpu >= MAX_CPUS {
        return false;
    }
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly the
    // `cpusetsize` bytes passed alongside it, which is the layout of
    // glibc's `cpu_set_t`; the call only reads it. Pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 1200 0 3 0 \
                    150 50 0 0 20 0 7 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(Duration::from_millis(2000)));
        assert_eq!(parse_stat_cpu("no parens here"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_hwm_is_read_in_kib() {
        let status = "Name:\tltam-perf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(20480));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-4"), Some(vec![0, 2, 3, 4]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("2-1"), None);
        assert_eq!(parse_cpu_list("x"), None);
        assert_eq!(parse_cpu_list("0-99999"), None);
        assert!(!allowed_cpus().unwrap().is_empty());
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_time(pid).is_some());
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
