//! Process memory and CPU time read from `/proc/self` (no libc crate).

use std::fs;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time this process has consumed, in nanoseconds: the scheduler's
/// nanosecond run-time counter when the kernel exposes it, otherwise
/// `utime + stime` from `/proc/self/stat` at the usual 100 ticks a second.
pub fn cpu_ns() -> u64 {
    if let Some(ns) = fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
    {
        return ns;
    }
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0, |ticks| ticks * 10_000_000)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces, so count from its closing `)`.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"),
            Some(12345)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 7 3 0 0 20 0 1 0 5 1 1";
        assert_eq!(parse_stat_ticks(stat), Some(10));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb().unwrap() > 0.1);
        let a = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns() >= a);
    }
}
