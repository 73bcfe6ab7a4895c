//! Minimal wall-clock benchmark runner for `harness = false` bench targets.
//!
//! A deliberate, dependency-free replacement for the statistical harness the
//! benches previously used: each benchmark runs a fixed warmup followed by a
//! fixed number of timed iterations, and reports median / min / max / mean
//! wall time. That is enough to spot order-of-magnitude regressions in the
//! simulator's hot paths while keeping the workspace fully self-contained.
//!
//! Each result is printed twice: a human-readable line and a single-line
//! JSON record (prefixed `BENCH_JSON`) that scripts can grep out of the
//! output and parse without a separate report directory.
//!
//! Usage from a bench target:
//!
//! ```no_run
//! use pro_bench::runner::Runner;
//!
//! let mut r = Runner::from_args("fig4");
//! r.bench("aesEncrypt128/pro", || 2 + 2);
//! r.finish();
//! ```
//!
//! `cargo bench -p pro-bench -- <substring>` runs only the benchmarks whose
//! `group/name` contains `<substring>`. Iteration counts can be overridden
//! with `PRO_BENCH_ITERS` and `PRO_BENCH_WARMUP` (e.g. in CI smoke runs).

use std::time::Instant;

/// Default number of timed iterations per benchmark.
pub const DEFAULT_ITERS: u32 = 10;
/// Default number of untimed warmup iterations per benchmark.
pub const DEFAULT_WARMUP: u32 = 2;

/// Timing summary of one benchmark: nanoseconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Timed iterations measured.
    pub iters: u32,
    /// Median of the per-iteration wall times, in nanoseconds.
    pub median_ns: u128,
    /// Fastest iteration, in nanoseconds.
    pub min_ns: u128,
    /// Slowest iteration, in nanoseconds.
    pub max_ns: u128,
    /// Arithmetic mean, in nanoseconds.
    pub mean_ns: u128,
}

/// Summarize a list of per-iteration durations (nanoseconds).
///
/// The median of an even-length list is the mean of the two middle
/// elements. Panics on an empty list.
pub fn summarize(samples: &[u128]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let median_ns = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    };
    Summary {
        iters: n as u32,
        median_ns,
        min_ns: sorted[0],
        max_ns: sorted[n - 1],
        mean_ns: sorted.iter().sum::<u128>() / n as u128,
    }
}

/// Render nanoseconds in a human-friendly unit (ns / µs / ms / s).
pub fn human_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Fixed-iteration benchmark runner; one per bench target (group).
pub struct Runner {
    group: String,
    filter: Option<String>,
    warmup: u32,
    iters: u32,
    ran: usize,
    skipped: usize,
}

impl Runner {
    /// Build a runner for `group`, reading CLI args and env overrides.
    ///
    /// `cargo bench` invokes `harness = false` targets with `--bench` (and
    /// any user-supplied trailing args); every argument starting with `-`
    /// is ignored, and the first remaining argument becomes a substring
    /// filter on `group/name`. `--jobs N` (or `--jobs=N`) sets the
    /// experiment-pool worker count ([`pro_core::pool::set_default_jobs`])
    /// and its value is *not* treated as the filter.
    /// `PRO_BENCH_ITERS` / `PRO_BENCH_WARMUP` override the iteration
    /// counts.
    pub fn from_args(group: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut filter: Option<String> = None;
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a == "--jobs" {
                if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                    pro_core::pool::set_default_jobs(n);
                }
                i += 2;
                continue;
            }
            if let Some(v) = a.strip_prefix("--jobs=") {
                if let Ok(n) = v.parse::<usize>() {
                    pro_core::pool::set_default_jobs(n);
                }
            } else if !a.starts_with('-') && filter.is_none() {
                filter = Some(a.clone());
            }
            i += 1;
        }
        Self::with_options(group, filter, env_u32("PRO_BENCH_WARMUP", DEFAULT_WARMUP), env_u32("PRO_BENCH_ITERS", DEFAULT_ITERS))
    }

    /// Build a runner with explicit options (used by tests; `from_args` is
    /// the normal entry point).
    pub fn with_options(group: &str, filter: Option<String>, warmup: u32, iters: u32) -> Self {
        Runner {
            group: group.to_string(),
            filter,
            warmup: warmup.min(1_000),
            iters: iters.clamp(1, 100_000),
            ran: 0,
            skipped: 0,
        }
    }

    /// True if `name` passes the CLI substring filter.
    pub fn selected(&self, name: &str) -> bool {
        match &self.filter {
            Some(f) => format!("{}/{}", self.group, name).contains(f.as_str()),
            None => true,
        }
    }

    /// Run one benchmark: warmup, then timed iterations, then report.
    ///
    /// The closure's return value is passed through [`std::hint::black_box`]
    /// so the measured work is not optimized away. Returns the summary, or
    /// `None` if the benchmark was filtered out.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Option<Summary> {
        if !self.selected(name) {
            self.skipped += 1;
            return None;
        }
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples.push(t0.elapsed().as_nanos());
        }
        let s = summarize(&samples);
        self.ran += 1;
        println!(
            "{:<40} median {:>10}   (min {}, max {}, {} iters)",
            format!("{}/{}", self.group, name),
            human_ns(s.median_ns),
            human_ns(s.min_ns),
            human_ns(s.max_ns),
            s.iters
        );
        println!(
            "BENCH_JSON {{\"group\":\"{}\",\"bench\":\"{}\",\"iters\":{},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
            self.group, name, s.iters, s.median_ns, s.min_ns, s.max_ns, s.mean_ns
        );
        Some(s)
    }

    /// Print the closing tally. Call once after the last `bench`.
    pub fn finish(self) {
        println!(
            "[{}] {} benchmark(s) run, {} filtered out",
            self.group, self.ran, self.skipped
        );
    }
}

fn env_u32(key: &str, default: u32) -> u32 {
    match std::env::var(key) {
        Ok(v) => v.parse().unwrap_or(default),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_list_is_middle_element() {
        let s = summarize(&[5, 1, 9]);
        assert_eq!(s.median_ns, 5);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 9);
        assert_eq!(s.mean_ns, 5);
        assert_eq!(s.iters, 3);
    }

    #[test]
    fn summary_of_even_list_averages_middle_pair() {
        let s = summarize(&[10, 20, 30, 40]);
        assert_eq!(s.median_ns, 25);
        assert_eq!(s.mean_ns, 25);
    }

    #[test]
    fn filter_matches_group_slash_name() {
        let r = Runner::with_options("fig4", Some("fig4/aes".into()), 0, 1);
        assert!(r.selected("aesEncrypt128/pro"));
        assert!(!r.selected("laplace3d/pro"));
        let all = Runner::with_options("fig4", None, 0, 1);
        assert!(all.selected("anything"));
    }

    #[test]
    fn bench_runs_warmup_plus_iters_times() {
        let mut count = 0u32;
        let mut r = Runner::with_options("t", None, 2, 5);
        let s = r.bench("counting", || count += 1).unwrap();
        assert_eq!(count, 7); // 2 warmup + 5 timed
        assert_eq!(s.iters, 5);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn filtered_bench_does_not_run() {
        let mut count = 0u32;
        let mut r = Runner::with_options("t", Some("nomatch".into()), 1, 1);
        assert!(r.bench("other", || count += 1).is_none());
        assert_eq!(count, 0);
    }

    #[test]
    fn human_units_scale() {
        assert_eq!(human_ns(999), "999 ns");
        assert_eq!(human_ns(1_500), "1.50 µs");
        assert_eq!(human_ns(2_000_000), "2.00 ms");
        assert_eq!(human_ns(3_000_000_000), "3.00 s");
    }
}
