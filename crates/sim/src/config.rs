//! The machine: what a simulated GPU is made of ([`GpuConfig`], the paper's
//! Table I by default), the one check every configuration passes before a
//! [`crate::Gpu`] is built from it (`GpuConfig::check`), and text
//! configuration files — the GPGPU-Sim workflow of editing a config file
//! per machine model, without recompiling. `key = value` lines, `#`
//! comments; unknown keys are errors (typos should not silently run the
//! default machine).
//!
//! ```text
//! # configs/gtx480.cfg
//! num_sms           = 14
//! max_tbs_per_sm    = 8
//! l1_bytes          = 16384
//! dram_policy       = frfcfs
//! ```
//!
//! Every component sizes itself from the configuration it is built with:
//! an SM its warp and TB slots, a cache its sets, a DRAM channel its banks,
//! and each event queue its wheel, from the longest latency it schedules
//! at. The check holds a configuration to what those components assume, so
//! none of them checks it again, and a checkpoint records the machine only
//! as a fingerprint (`DESIGN.md` §12).

use pro_mem::{CacheConfig, DramPolicy, MemConfig, LINE_BYTES};
use pro_sm::SmConfig;

/// Whole-GPU configuration (defaults = the paper's Table I).
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Number of SMs (Table I: 14).
    pub num_sms: u32,
    /// Per-SM microarchitecture.
    pub sm: SmConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Abort threshold for the run loop (simulator-bug guard).
    pub max_cycles: u64,
    /// Inert: the worker-thread engine this once sized is gone and nothing
    /// reads the value. The field stays so existing struct literals keep
    /// compiling; the machine fingerprint a checkpoint carries zeroes it.
    pub sm_workers: usize,
}

/// The longest latency a configuration may name, in cycles: far past any
/// GPU's, and short enough that an event wheel — one bucket per cycle of
/// the longest latency its queue schedules at — stays a few pages.
const MAX_LATENCY: u64 = 4096;

/// The largest L1, L2 slice or DRAM row a configuration may name.
const MAX_STORAGE_BYTES: u64 = 64 << 20;

impl GpuConfig {
    /// NVIDIA Fermi GTX480 as configured in the paper (Table I).
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 14,
            sm: SmConfig::gtx480(),
            mem: MemConfig::gtx480(),
            max_cycles: 200_000_000,
            sm_workers: 1,
        }
    }

    /// A scaled-down GPU for fast unit/integration tests: `num_sms` SMs,
    /// otherwise Fermi-like.
    pub fn small(num_sms: u32) -> Self {
        GpuConfig {
            num_sms,
            ..Self::gtx480()
        }
    }

    /// Hold the machine to what the simulator's components assume: nothing
    /// they divide by is zero, no allocation is sized by a typo, every
    /// latency an event queue schedules at is a cycle or more and fits its
    /// wheel, and every resource a warp can wait for exists. (A kernel too
    /// large for the machine is not a configuration error: it never
    /// launches a TB, and the run times out.) The first rule broken comes
    /// back as a [`ConfigError`] on line 0, the configuration as a whole.
    /// [`parse_config`] ends with this check and [`crate::Gpu::new`]
    /// asserts it.
    pub(crate) fn check(&self) -> Result<(), ConfigError> {
        let (sm, mem, dram) = (&self.sm, &self.mem, &self.mem.dram);
        // An event lands a cycle or more after the drain that scheduled
        // it; a latency no queue schedules at may be zero.
        let scheduled = |lats: &[u64]| lats.iter().all(|lat| (1..=MAX_LATENCY).contains(lat));
        let bounded = |lats: &[u64]| lats.iter().all(|&lat| lat <= MAX_LATENCY);
        let cache = |c: &CacheConfig| {
            c.line_bytes == LINE_BYTES
                && c.ways >= 1
                && (c.line_bytes * u64::from(c.ways)..=MAX_STORAGE_BYTES).contains(&c.bytes)
                && c.mshr_entries >= 1
                && c.mshr_merge >= 1
        };
        // A cache is built as `bytes / (line × ways)` sets: a remainder
        // would be silently dropped.
        let whole_sets = |c: &CacheConfig| c.bytes.checked_rem(c.line_bytes * u64::from(c.ways)) == Some(0);
        let rules = [
            ((1..=1024).contains(&self.num_sms), "`num_sms` must be positive and at most 1024"),
            (
                (1..=64).contains(&sm.max_warps),
                "`max_warps_per_sm` must be 1 to 64: the issue path packs an SM's warp slots into a u64",
            ),
            ((1..=sm.max_warps).contains(&sm.max_tbs), "`max_tbs_per_sm` must be 1 to `max_warps_per_sm`"),
            (
                (1..=sm.max_warps).contains(&(sm.units as usize)),
                "`schedulers_per_sm` must be 1 to `max_warps_per_sm`",
            ),
            (sm.lsu_queue >= 1, "`lsu_queue` must be positive"),
            (
                scheduled(&[sm.lat_int_simple, sm.lat_int_mul, sm.lat_float, sm.lat_convert, sm.sfu_lat, sm.shared_lat]),
                "`lat_int_simple`, `lat_int_mul`, `lat_float`, `lat_convert`, `sfu_lat` and `shared_lat` must be 1 to 4096 cycles",
            ),
            (bounded(&[sm.fetch_lat, sm.sfu_ii]), "`fetch_lat` and `sfu_ii` must be at most 4096 cycles"),
            ((1..=256).contains(&mem.partitions), "`partitions` must be positive and at most 256"),
            (
                cache(&mem.l1),
                "the L1 (`l1_bytes`, `l1_ways`, `l1_mshr_entries`, `l1_mshr_merge`) needs a way, a set of 128-byte lines, an MSHR entry and at most 64 MiB",
            ),
            (
                cache(&mem.l2),
                "an L2 slice (`l2_bytes_total` over `partitions`, `l2_ways`) needs a way, a set of 128-byte lines, an MSHR entry and at most 64 MiB",
            ),
            (whole_sets(&mem.l1), "`l1_bytes` must be a whole number of sets: a multiple of 128 × `l1_ways`"),
            (
                whole_sets(&mem.l2),
                "an L2 slice (`l2_bytes_total` over `partitions`) must be a whole number of sets: a multiple of 128 × `l2_ways`",
            ),
            (
                scheduled(&[mem.l1_hit_lat, mem.icnt_lat, dram.t_cas]),
                "`l1_hit_lat`, `icnt_lat` and `dram_t_cas` must be 1 to 4096 cycles",
            ),
            (
                bounded(&[mem.l2_lat, dram.t_rp_rcd, dram.t_burst]),
                "`l2_lat`, `dram_t_rp_rcd` and `dram_t_burst` must be at most 4096 cycles",
            ),
            ((1..=1024).contains(&dram.banks), "`dram_banks` must be positive and at most 1024"),
            (
                (LINE_BYTES..=MAX_STORAGE_BYTES).contains(&dram.row_bytes),
                "`dram_row_bytes` must hold a 128-byte line and be at most 64 MiB",
            ),
            (dram.queue_depth >= 1, "`dram_queue_depth` must be positive"),
        ];
        match rules.into_iter().find(|&(holds, _)| !holds) {
            Some((_, rule)) => Err(err(0, rule)),
            None => Ok(()),
        }
    }
}

/// Configuration failure with its 1-based line number (0: the
/// configuration as a whole, from `GpuConfig::check`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Source line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, msg: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        msg: msg.into(),
    }
}

/// Parse a config document, applying overrides on top of `base`. The
/// result has passed `GpuConfig::check`.
pub fn parse_config(text: &str, base: GpuConfig) -> Result<GpuConfig, ConfigError> {
    let mut cfg = base;
    // The L2 is configured in total and built per partition. It is split
    // once every line is read, so the two keys may come in either order;
    // an error names the later of them.
    let mut l2_total = base.mem.l2.bytes.saturating_mul(u64::from(base.mem.partitions));
    let mut l2_line = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find('#') {
            Some(h) => &raw[..h],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(line_no, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        let val = line[eq + 1..].trim();
        let int = || -> Result<u64, ConfigError> {
            val.parse()
                .map_err(|_| err(line_no, format!("`{key}` expects an integer, got `{val}`")))
        };
        // A count or size the machine keeps in 32 bits: a larger value is
        // refused, not wrapped.
        let int32 = || -> Result<u32, ConfigError> {
            u32::try_from(int()?)
                .map_err(|_| err(line_no, format!("`{key}` expects an integer below 2^32, got `{val}`")))
        };
        match key {
            "num_sms" => cfg.num_sms = int32()?,
            "max_cycles" => cfg.max_cycles = int()?,
            // SM
            "max_warps_per_sm" => cfg.sm.max_warps = int32()? as usize,
            "max_tbs_per_sm" => cfg.sm.max_tbs = int32()? as usize,
            "max_threads_per_sm" => cfg.sm.max_threads = int32()?,
            "shared_per_sm" => cfg.sm.shared_capacity = int32()?,
            "regs_per_sm" => cfg.sm.regs_per_sm = int32()?,
            "schedulers_per_sm" => cfg.sm.units = int32()?,
            "fetch_lat" => cfg.sm.fetch_lat = int()?,
            "lat_int_simple" => cfg.sm.lat_int_simple = int()?,
            "lat_int_mul" => cfg.sm.lat_int_mul = int()?,
            "lat_float" => cfg.sm.lat_float = int()?,
            "lat_convert" => cfg.sm.lat_convert = int()?,
            "sfu_lat" => cfg.sm.sfu_lat = int()?,
            "sfu_ii" => cfg.sm.sfu_ii = int()?,
            "shared_lat" => cfg.sm.shared_lat = int()?,
            "lsu_queue" => cfg.sm.lsu_queue = int32()? as usize,
            // Memory
            "l1_bytes" => cfg.mem.l1.bytes = int()?,
            "l1_ways" => cfg.mem.l1.ways = int32()?,
            "l1_mshr_entries" => cfg.mem.l1.mshr_entries = int32()?,
            "l1_mshr_merge" => cfg.mem.l1.mshr_merge = int32()?,
            "l1_hit_lat" => cfg.mem.l1_hit_lat = int()?,
            "l2_bytes_total" => {
                l2_total = int()?;
                l2_line = Some(line_no);
            }
            "l2_ways" => cfg.mem.l2.ways = int32()?,
            "l2_lat" => cfg.mem.l2_lat = int()?,
            "partitions" => {
                cfg.mem.partitions = int32()?;
                l2_line = Some(line_no);
            }
            "icnt_lat" => cfg.mem.icnt_lat = int()?,
            "dram_banks" => cfg.mem.dram.banks = int32()?,
            "dram_row_bytes" => cfg.mem.dram.row_bytes = int()?,
            "dram_t_cas" => cfg.mem.dram.t_cas = int()?,
            "dram_t_rp_rcd" => cfg.mem.dram.t_rp_rcd = int()?,
            "dram_t_burst" => cfg.mem.dram.t_burst = int()?,
            "dram_queue_depth" => cfg.mem.dram.queue_depth = int32()? as usize,
            "dram_policy" => {
                cfg.mem.dram.policy = match val.to_ascii_lowercase().as_str() {
                    "frfcfs" | "fr-fcfs" | "fr_fcfs" => DramPolicy::FrFcfs,
                    "fcfs" => DramPolicy::Fcfs,
                    other => {
                        return Err(err(
                            line_no,
                            format!("`dram_policy` expects frfcfs|fcfs, got `{other}`"),
                        ))
                    }
                }
            }
            other => return Err(err(line_no, format!("unknown key `{other}`"))),
        }
    }
    if let Some(line_no) = l2_line {
        let parts = u64::from(cfg.mem.partitions);
        cfg.mem.l2.bytes = match l2_total.checked_rem(parts) {
            None => return Err(err(line_no, "`partitions` must be positive")),
            Some(0) => l2_total / parts,
            Some(_) => {
                let msg = format!("`partitions` ({parts}) must divide `l2_bytes_total` ({l2_total})");
                return Err(err(line_no, msg));
            }
        };
    }
    cfg.check()?;
    Ok(cfg)
}

/// Load a config file on top of the GTX480 defaults.
pub fn load_config(path: &std::path::Path) -> Result<GpuConfig, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_config(&text, GpuConfig::gtx480())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpu, SimError, TraceOptions};
    use pro_isa::{Kernel, LaunchConfig, ProgramBuilder};

    /// Two TBs of one warp, each thread storing its global id.
    fn smoke_kernel(gpu: &mut Gpu) -> Kernel {
        let base = gpu.gmem.alloc(64 * 4);
        let mut b = ProgramBuilder::new("cfg_smoke");
        let (g, a) = (b.reg(), b.reg());
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.st_global(g, a, 0);
        b.exit();
        Kernel::new(b.build().unwrap(), LaunchConfig::linear(2, 32), vec![base as u32])
    }

    #[test]
    fn empty_config_is_the_base() {
        let cfg = parse_config("", GpuConfig::gtx480()).unwrap();
        assert_eq!(cfg.num_sms, 14);
        assert_eq!(cfg.sm.max_warps, 48);
    }

    #[test]
    fn overrides_apply() {
        let text = r"
            # a Kepler-ish machine
            num_sms = 8
            max_threads_per_sm = 2048   # bigger SMs
            dram_policy = fcfs
            l1_bytes = 32768
        ";
        let cfg = parse_config(text, GpuConfig::gtx480()).unwrap();
        assert_eq!(cfg.num_sms, 8);
        assert_eq!(cfg.sm.max_threads, 2048);
        assert_eq!(cfg.mem.dram.policy, DramPolicy::Fcfs);
        assert_eq!(cfg.mem.l1.bytes, 32768);
    }

    #[test]
    fn removed_worker_key_is_rejected_as_unknown() {
        let e = parse_config("num_sms = 14\nsm_workers = 4", GpuConfig::gtx480()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown key `sm_workers`"), "{e}");
    }

    #[test]
    fn l2_total_is_split_over_partitions() {
        let cfg = parse_config("l2_bytes_total = 786432", GpuConfig::gtx480()).unwrap();
        assert_eq!(cfg.mem.l2.bytes, 786432 / 6);
        // Changing partitions preserves the total.
        let cfg = parse_config("partitions = 4", GpuConfig::gtx480()).unwrap();
        assert_eq!(cfg.mem.partitions, 4);
        assert_eq!(cfg.mem.l2.bytes * 4, 768 * 1024);
    }

    #[test]
    fn an_l1_of_partial_sets_is_an_error() {
        // 16 KB over 3 ways of 128-byte lines is 42.67 sets: the L1 was
        // built with 42 (16 128 B) while `repro config` printed 16 KB.
        let e = parse_config("l1_ways = 3", GpuConfig::gtx480()).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("`l1_bytes` must be a whole number of sets"), "{e}");
    }

    #[test]
    fn an_l2_slice_of_partial_sets_is_an_error() {
        // A 128 KB L2 slice over 3 ways: 785 664 B of L2 were built.
        let e = parse_config("l2_ways = 3", GpuConfig::gtx480()).unwrap_err();
        assert!(e.msg.contains("an L2 slice") && e.msg.contains("whole number of sets"), "{e}");
    }

    #[test]
    fn partitions_must_divide_the_l2_in_either_order() {
        // 786 432 B over 5 partitions built 153-set slices, 783 360 B.
        let e = parse_config("partitions = 5", GpuConfig::gtx480()).unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (1, "`partitions` (5) must divide `l2_bytes_total` (786432)"));
        let e = parse_config("partitions = 5\nl2_bytes_total = 786432", GpuConfig::gtx480()).unwrap_err();
        assert_eq!(e.line, 2);
        // A total that 5 divides into whole sets is accepted, whichever
        // key comes last.
        for text in ["partitions = 5\nl2_bytes_total = 655360", "l2_bytes_total = 655360\npartitions = 5"] {
            let cfg = parse_config(text, GpuConfig::gtx480()).unwrap();
            assert_eq!((cfg.mem.partitions, cfg.mem.l2.bytes), (5, 131072), "{text}");
        }
    }

    #[test]
    fn unknown_key_is_an_error_with_line() {
        let e = parse_config("num_sms = 14\nnonsense = 3", GpuConfig::gtx480()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown key"));
    }

    #[test]
    fn bad_integer_reports_key() {
        let e = parse_config("num_sms = lots", GpuConfig::gtx480()).unwrap_err();
        assert!(e.msg.contains("num_sms"));
    }

    #[test]
    fn missing_equals_is_an_error() {
        let e = parse_config("num_sms 14", GpuConfig::gtx480()).unwrap_err();
        assert!(e.msg.contains("key = value"));
    }

    #[test]
    fn zero_sms_rejected() {
        let e = parse_config("num_sms = 0", GpuConfig::gtx480()).unwrap_err();
        assert!(e.msg.contains("positive"));
    }

    #[test]
    fn every_rule_names_its_keys() {
        // One line per rule, each breaking it alone on top of the GTX480.
        for (line, key) in [
            ("num_sms = 1025", "num_sms"),
            ("max_warps_per_sm = 65", "max_warps_per_sm"),
            ("max_tbs_per_sm = 0", "max_tbs_per_sm"),
            ("schedulers_per_sm = 49", "schedulers_per_sm"),
            ("lsu_queue = 0", "lsu_queue"),
            ("sfu_lat = 0", "sfu_lat"),
            ("fetch_lat = 4097", "fetch_lat"),
            ("partitions = 257", "partitions"),
            ("l1_ways = 0", "l1_ways"),
            ("l1_mshr_entries = 0", "l1_mshr_entries"),
            ("l2_bytes_total = 0", "l2_bytes_total"),
            ("icnt_lat = 0", "icnt_lat"),
            ("dram_t_rp_rcd = 4097", "dram_t_rp_rcd"),
            ("dram_banks = 0", "dram_banks"),
            ("dram_row_bytes = 64", "dram_row_bytes"),
            ("dram_queue_depth = 0", "dram_queue_depth"),
        ] {
            let e = parse_config(line, GpuConfig::gtx480()).unwrap_err();
            assert!(e.msg.contains(&format!("`{key}`")), "{line}: {e}");
        }
    }

    #[test]
    fn values_that_used_to_panic_or_wrap_are_errors() {
        // `partitions = 0` divided the L2's total by zero, 65 warp slots
        // panicked building the issue path, and 2^32 + 1 SMs wrapped to one.
        let e = parse_config("partitions = 0", GpuConfig::gtx480()).unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (1, "`partitions` must be positive"));
        let e = parse_config("max_warps_per_sm = 65", GpuConfig::gtx480()).unwrap_err();
        assert!(e.msg.contains("u64"), "{e}");
        let e = parse_config("num_sms = 4294967297", GpuConfig::gtx480()).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("below 2^32"), "{e}");
    }

    #[test]
    #[should_panic(expected = "`num_sms` must be positive")]
    fn a_gpu_is_not_built_from_a_config_that_fails_the_check() {
        Gpu::new(GpuConfig::small(0), 1 << 20);
    }

    #[test]
    fn parsed_config_actually_runs() {
        // One unit, and the widest SM the check admits: a unit per warp
        // slot and the longest writeback latency.
        let widest = "max_warps_per_sm = 64\nschedulers_per_sm = 64\nsfu_lat = 4096\nshared_lat = 4096";
        for (text, units) in [("schedulers_per_sm = 1", 1), (widest, 64)] {
            let cfg = parse_config(&format!("num_sms = 2\n{text}"), GpuConfig::gtx480()).unwrap();
            let mut gpu = Gpu::new(cfg, 1 << 20);
            let k = smoke_kernel(&mut gpu);
            let r = gpu
                .launch(&k, pro_core::SchedulerKind::Pro, TraceOptions::default())
                .unwrap();
            // units x 2 SMs
            assert_eq!(r.sm.unit_cycles, r.cycles * 2 * units, "{text}");
        }
    }

    /// Any `.cfg` text over the real keys, with values at and past each
    /// rule's edges, is a typed error or a machine that runs a kernel — to
    /// completion, or to its cycle limit when the kernel does not fit:
    /// never a panic.
    #[test]
    fn any_config_text_is_an_error_or_a_machine_that_runs() {
        use pro_core::prop::{check, select, vec_of, CaseError, Config};
        const KEYS: [&str; 34] = [
            "num_sms", "max_cycles", "max_warps_per_sm", "max_tbs_per_sm", "max_threads_per_sm",
            "shared_per_sm", "regs_per_sm", "schedulers_per_sm", "fetch_lat", "lat_int_simple",
            "lat_int_mul", "lat_float", "lat_convert", "sfu_lat", "sfu_ii", "shared_lat", "lsu_queue",
            "l1_bytes", "l1_ways", "l1_mshr_entries", "l1_mshr_merge", "l1_hit_lat", "l2_bytes_total",
            "l2_ways", "l2_lat", "partitions", "icnt_lat", "dram_banks", "dram_row_bytes", "dram_t_cas",
            "dram_t_rp_rcd", "dram_t_burst", "dram_queue_depth", "dram_policy",
        ];
        const VALUES: [&str; 16] = [
            "0", "1", "2", "3", "7", "32", "64", "65", "128", "4096", "4097", "65536", "786432",
            "4294967296", "-1", "fcfs",
        ];
        let lines = vec_of((select(KEYS.to_vec()), select(VALUES.to_vec())), 0..6);
        check(Config::with_cases(48), lines, |lines| {
            let mut text: String = lines.iter().map(|(key, value)| format!("{key} = {value}\n")).collect();
            text.push_str("max_cycles = 5000\n");
            let Ok(cfg) = parse_config(&text, GpuConfig::small(2)) else {
                return Ok(());
            };
            let mut gpu = Gpu::new(cfg, 1 << 20);
            let kernel = smoke_kernel(&mut gpu);
            match gpu.launch(&kernel, pro_core::SchedulerKind::Pro, TraceOptions::default()) {
                Ok(_) | Err(SimError::Timeout { .. }) => Ok(()),
                Err(e) => Err(CaseError::fail(format!("{text}: {e}"))),
            }
        });
    }
}
