//! Text configuration files — the GPGPU-Sim workflow of editing a config
//! file per machine model, without recompiling. `key = value` lines,
//! `#` comments; unknown keys are errors (typos should not silently run
//! the default machine).
//!
//! ```text
//! # configs/gtx480.cfg
//! num_sms           = 14
//! max_tbs_per_sm    = 8
//! l1_bytes          = 16384
//! dram_policy       = frfcfs
//! ```

use crate::gpu::GpuConfig;
use pro_mem::DramPolicy;

/// Configuration parse failure with its 1-based line number.
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

/// Parse a config document, applying overrides on top of `base`.
pub fn parse_config(text: &str, base: GpuConfig) -> Result<GpuConfig, ConfigError> {
    let mut cfg = base;
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
        let as_u64 = || -> Result<u64, ConfigError> {
            val.parse()
                .map_err(|_| err(line_no, format!("`{key}` expects an integer, got `{val}`")))
        };
        match key {
            "num_sms" => cfg.num_sms = as_u64()? as u32,
            "max_cycles" => cfg.max_cycles = as_u64()?,
            // SM
            "max_warps_per_sm" => cfg.sm.max_warps = as_u64()? as usize,
            "max_tbs_per_sm" => cfg.sm.max_tbs = as_u64()? as usize,
            "max_threads_per_sm" => cfg.sm.max_threads = as_u64()? as u32,
            "shared_per_sm" => cfg.sm.shared_capacity = as_u64()? as u32,
            "regs_per_sm" => cfg.sm.regs_per_sm = as_u64()? as u32,
            "schedulers_per_sm" => cfg.sm.units = as_u64()? as u32,
            "fetch_lat" => cfg.sm.fetch_lat = as_u64()?,
            "lat_int_simple" => cfg.sm.lat_int_simple = as_u64()?,
            "lat_int_mul" => cfg.sm.lat_int_mul = as_u64()?,
            "lat_float" => cfg.sm.lat_float = as_u64()?,
            "lat_convert" => cfg.sm.lat_convert = as_u64()?,
            "sfu_lat" => cfg.sm.sfu_lat = as_u64()?,
            "sfu_ii" => cfg.sm.sfu_ii = as_u64()?,
            "shared_lat" => cfg.sm.shared_lat = as_u64()?,
            "lsu_queue" => cfg.sm.lsu_queue = as_u64()? as usize,
            // Memory
            "l1_bytes" => cfg.mem.l1.bytes = as_u64()?,
            "l1_ways" => cfg.mem.l1.ways = as_u64()? as u32,
            "l1_mshr_entries" => cfg.mem.l1.mshr_entries = as_u64()? as u32,
            "l1_mshr_merge" => cfg.mem.l1.mshr_merge = as_u64()? as u32,
            "l1_hit_lat" => cfg.mem.l1_hit_lat = as_u64()?,
            "l2_bytes_total" => {
                let total = as_u64()?;
                cfg.mem.l2.bytes = total / cfg.mem.partitions as u64;
            }
            "l2_ways" => cfg.mem.l2.ways = as_u64()? as u32,
            "l2_lat" => cfg.mem.l2_lat = as_u64()?,
            "partitions" => {
                let total = cfg.mem.l2.bytes * cfg.mem.partitions as u64;
                cfg.mem.partitions = as_u64()? as u32;
                cfg.mem.l2.bytes = total / cfg.mem.partitions as u64;
            }
            "icnt_lat" => cfg.mem.icnt_lat = as_u64()?,
            "dram_banks" => cfg.mem.dram.banks = as_u64()? as u32,
            "dram_row_bytes" => cfg.mem.dram.row_bytes = as_u64()?,
            "dram_t_cas" => cfg.mem.dram.t_cas = as_u64()?,
            "dram_t_rp_rcd" => cfg.mem.dram.t_rp_rcd = as_u64()?,
            "dram_t_burst" => cfg.mem.dram.t_burst = as_u64()?,
            "dram_queue_depth" => cfg.mem.dram.queue_depth = as_u64()? as usize,
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
    // Basic sanity.
    if cfg.num_sms == 0 {
        return Err(err(0, "num_sms must be positive"));
    }
    if cfg.sm.units == 0 {
        return Err(err(0, "schedulers_per_sm must be positive"));
    }
    if cfg.mem.partitions == 0 {
        return Err(err(0, "partitions must be positive"));
    }
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
    fn parsed_config_actually_runs() {
        use crate::{Gpu, TraceOptions};
        use pro_isa::{Kernel, LaunchConfig, ProgramBuilder};
        let cfg = parse_config("num_sms = 2\nschedulers_per_sm = 1", GpuConfig::gtx480()).unwrap();
        let mut gpu = Gpu::new(cfg, 1 << 20);
        let base = gpu.gmem.alloc(64 * 4);
        let mut b = ProgramBuilder::new("cfg_smoke");
        let (g, a) = (b.reg(), b.reg());
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.st_global(g, a, 0);
        b.exit();
        let k = Kernel::new(
            b.build().unwrap(),
            LaunchConfig::linear(2, 32),
            vec![base as u32],
        );
        let r = gpu
            .launch(&k, pro_core::SchedulerKind::Pro, TraceOptions::default())
            .unwrap();
        // 1 unit x 2 SMs
        assert_eq!(r.sm.unit_cycles, r.cycles * 2);
    }
}
