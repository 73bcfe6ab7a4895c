//! The `repro` command line, driven as a process: what it refuses (exit 2)
//! and how it splits options from operands. No case here simulates
//! anything — each one ends in the argument parse, a registry lookup, or a
//! table that needs no run.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Exit code and stderr of `repro <args>`.
fn refused(args: &[&str]) -> (Option<i32>, String) {
    let out = repro(args);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_option_is_a_usage_error() {
    // Every flag here existed once: the worker-thread SM array, the sweep's
    // recovery ladder and its telemetry are removed, not ignored.
    for removed in [
        "--sm-workers",
        "--checkpoint-delta",
        "--checkpoint-keep",
        "--checkpoint-path",
        "--checkpoint-every",
        "--resume",
        "--heartbeat",
    ] {
        let (code, err) = refused(&["json", "--quick", removed, "1"]);
        assert_eq!(code, Some(2), "{removed}");
        assert!(err.contains(&format!("unknown option {removed}")), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
    }
}

#[test]
fn an_options_value_is_not_an_operand() {
    // `2` belongs to `--jobs`: the kernel is `laplace3d` and the scheduler
    // is the name that does not exist.
    let (code, err) = refused(&["trace", "--jobs", "2", "laplace3d", "fifo"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown scheduler `fifo`"), "{err}");
    let (code, err) = refused(&["trace", "--jobs", "2", "nope"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown kernel `nope`"), "{err}");
}

#[test]
fn an_option_before_the_operand_does_not_displace_it() {
    let out = repro(&["disasm", "--quick", "laplace3d"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(".kernel laplace3d"), "{text}");
    assert!(text.contains("# static mix:"), "{text}");
}

#[test]
fn unknown_kernel_is_refused_with_the_list() {
    let (code, err) = refused(&["disasm", "nope"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown kernel `nope`; pick one of:"), "{err}");
    assert!(err.contains("aesEncrypt128"), "{err}");
}

#[test]
fn config_prints_table_one() {
    let out = repro(&["config"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table I: GPGPU-Sim-equivalent configuration"), "{text}");
    assert!(text.contains("Number of SMs                     14"), "{text}");
    assert!(text.contains("DRAM Scheduler                    FR-FCFS"), "{text}");
}
