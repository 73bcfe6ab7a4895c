//! Crash-recovering sweep cells.
//!
//! A long `repro json` sweep runs 100 independent (kernel × scheduler)
//! simulations. With checkpointing enabled (`--checkpoint-path DIR`), each
//! cell leaves two kinds of state in `DIR`:
//!
//! * `<app>_<kernel>_<sched>.done` — the finished [`RunResult`], wrapped in
//!   the same versioned container as GPU snapshots (DESIGN.md §12), so a
//!   re-run (`--resume DIR`) loads it instead of simulating again.
//! * `<app>_<kernel>_<sched>.ckpt` — the latest mid-run [`GpuSnapshot`],
//!   refreshed every `--checkpoint-every N` cycles and deleted once the
//!   cell finishes. A resumed sweep picks the simulation up from here.
//!
//! Both files are written atomically (temp file + rename), so a worker
//! killed mid-write never leaves a torn file — [`FileReader::parse`]'s CRC
//! check rejects anything short of a complete snapshot, and a rejected
//! `.ckpt` falls back to re-running the cell from cycle 0.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pro_core::codec::{CodecError, FileReader, FileWriter, Snapshot, Writer};
use pro_core::SchedulerKind;
use pro_sim::{
    snapshot_matches, CheckpointOptions, GpuConfig, GpuSnapshot, ProgressFn, RunResult, SimError,
    SnapshotChain, TraceOptions,
};
use pro_trace::NoopTracer;
use pro_workloads::{Scale, Workload};

use crate::Cell;

/// Section id of the [`RunResult`] payload inside a `.done` file.
const SEC_RESULT: u32 = 1;

/// Checkpoint interval (cycles) used when a sweep enables checkpointing
/// without an explicit `--checkpoint-every`.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// How often (kernel-relative cycles) a monitored cell reports progress to
/// its heartbeat hook. Coarse enough to be free (one callback per 10k
/// simulated cycles), fine enough that `status.json`'s cycle totals lag a
/// live cell by well under a second.
pub const HEARTBEAT_PROGRESS_EVERY: u64 = 10_000;

/// File stem identifying one (workload, scheduler) cell inside the
/// checkpoint directory. App + kernel + scheduler name is unique across
/// the Table II registry.
pub fn cell_stem(w: &Workload, sched: SchedulerKind) -> String {
    format!("{}_{}_{}", w.app, w.kernel, sched.name())
}

/// Path of the cell's finished-result marker.
pub fn done_path(dir: &Path, w: &Workload, sched: SchedulerKind) -> PathBuf {
    dir.join(format!("{}.done", cell_stem(w, sched)))
}

/// Path of the cell's mid-run snapshot.
pub fn ckpt_path(dir: &Path, w: &Workload, sched: SchedulerKind) -> PathBuf {
    dir.join(format!("{}.ckpt", cell_stem(w, sched)))
}

/// Directory holding the cell's delta-checkpoint chain (`--checkpoint-delta`).
pub fn chain_dir(dir: &Path, w: &Workload, sched: SchedulerKind) -> PathBuf {
    dir.join(format!("{}.chain", cell_stem(w, sched)))
}

/// Serialize a finished [`RunResult`] to `path` atomically, in the
/// versioned container format.
fn write_done(path: &Path, result: &RunResult) -> std::io::Result<()> {
    let mut w = Writer::new();
    result.save(&mut w);
    let mut f = FileWriter::new();
    f.add_section(SEC_RESULT, w);
    let tmp = path.with_extension("tmp");
    {
        let mut out = File::create(&tmp)?;
        out.write_all(&f.finish())?;
        out.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Load a `.done` file back into a [`RunResult`]. Any failure (missing
/// file, torn write, version drift) returns `None` and the cell re-runs.
fn read_done(path: &Path) -> Option<RunResult> {
    let bytes = fs::read(path).ok()?;
    let fr = FileReader::parse(&bytes).ok()?;
    let mut r = fr.section(SEC_RESULT).ok()?;
    let result = RunResult::load(&mut r).ok()?;
    r.finish().ok()?;
    Some(result)
}

/// Abort the sweep when on-disk state demonstrably belongs to a different
/// experiment: restoring it would silently produce wrong results, and
/// discarding it would silently throw away hours of someone else's run.
/// Any *other* failure (torn file, truncated chain tail) stays a silent
/// restart — corruption is recoverable, a wrong identity is operator error.
fn identity_gate(what: &Path, err: &CodecError) {
    if let CodecError::Mismatch(why) = err {
        panic!(
            "{}: checkpoint identity mismatch — {why}. \
             The checkpoint directory holds state from a different \
             kernel/config/scheduler; point --resume at the directory the \
             original sweep used, or remove it to start over.",
            what.display()
        );
    }
}

/// Where and how a sweep checkpoints its cells: the `--checkpoint-*` /
/// `--resume` options.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Directory holding every cell's `.done` / `.ckpt` / `.chain` state.
    pub dir: PathBuf,
    /// Snapshot interval in cycles (0 selects [`DEFAULT_CHECKPOINT_EVERY`]).
    pub every: u64,
    /// Write delta chains instead of rewriting one full snapshot.
    pub delta: bool,
    /// Cap on a chain's files before it rolls over (0 = unbounded).
    pub keep: usize,
}

/// Launch options that only report to `progress` (the `--heartbeat` hook),
/// every [`HEARTBEAT_PROGRESS_EVERY`] cycles; with `None` they are the
/// defaults, under which `launch_checkpointed` is a plain launch.
pub fn progress_options(progress: Option<ProgressFn>) -> CheckpointOptions {
    CheckpointOptions {
        progress_every: if progress.is_some() {
            HEARTBEAT_PROGRESS_EVERY
        } else {
            0
        },
        progress,
        ..Default::default()
    }
}

/// Run one (workload, scheduler) cell with crash recovery.
///
/// Recovery ladder, cheapest first:
///
/// 1. a valid `.done` file short-circuits the simulation entirely;
/// 2. a valid mid-run snapshot resumes the simulation — a single `.ckpt`
///    file, or with `delta` the longest valid prefix of the cell's
///    `.chain/` directory (truncated or corrupt tail deltas are discarded,
///    not fatal);
/// 3. otherwise the cell runs from cycle 0, checkpointing every `every`
///    cycles.
///
/// A snapshot whose recorded identity (kernel, machine config, scheduler)
/// contradicts this cell is *not* silently discarded: that is foreign
/// state, and the sweep fails loudly instead of clobbering it.
///
/// Because snapshots are deterministic and bit-exact, a recovered cell's
/// [`RunResult`] is identical to an uninterrupted run's, so the sweep's
/// aggregate output does not depend on whether a crash happened.
pub fn run_cell_recoverable(
    w: &Workload,
    sched: SchedulerKind,
    scale: Scale,
    cfg: GpuConfig,
    trace: TraceOptions,
    ckpt: &Checkpointing,
    progress: Option<ProgressFn>,
) -> Cell {
    let done = done_path(&ckpt.dir, w, sched);
    if let Some(result) = read_done(&done) {
        return Cell::new(w, sched, result);
    }

    let ckpt_file = ckpt_path(&ckpt.dir, w, sched);
    let chain_d = chain_dir(&ckpt.dir, w, sched);
    let opts = CheckpointOptions {
        every: if ckpt.every == 0 {
            DEFAULT_CHECKPOINT_EVERY
        } else {
            ckpt.every
        },
        path: Some(if ckpt.delta { chain_d.clone() } else { ckpt_file.clone() }),
        delta: ckpt.delta,
        keep: ckpt.keep,
        ..progress_options(progress)
    };

    let cell = crate::run_cell(w, sched, scale, cfg, |gpu, kernel| {
        // Try to resume from a mid-run snapshot; on corruption (torn file,
        // broken chain) fall back to a fresh run — correctness never depends
        // on the checkpoint being usable. Identity mismatches abort instead
        // (see `identity_gate`).
        let mut status = None;
        if ckpt.delta {
            if let Some(chain) = SnapshotChain::load_dir(&chain_d) {
                if let Err(e) = snapshot_matches(chain.newest(), &cfg, kernel, sched.name()) {
                    identity_gate(&chain_d, &e);
                }
                match gpu.resume_chain(&chain, kernel, sched, trace, &opts, &mut NoopTracer) {
                    Ok(s) => status = Some(s),
                    Err(e) => {
                        if let SimError::Snapshot(ce) = &e {
                            identity_gate(&chain_d, ce);
                        }
                        eprintln!(
                            "warning: {}: stale checkpoint chain ({e}); restarting cell",
                            chain_d.display()
                        );
                        let _ = fs::remove_dir_all(&chain_d);
                    }
                }
            }
        } else if ckpt_file.exists() {
            match GpuSnapshot::read_from(&ckpt_file) {
                Ok(snap) => {
                    if let Err(e) = snapshot_matches(&snap, &cfg, kernel, sched.name()) {
                        identity_gate(&ckpt_file, &e);
                    }
                    match gpu.resume(&snap, kernel, sched, trace, &opts) {
                        Ok(s) => status = Some(s),
                        Err(e) => {
                            if let SimError::Snapshot(ce) = &e {
                                identity_gate(&ckpt_file, ce);
                            }
                            eprintln!(
                                "warning: {}: stale checkpoint ({e}); restarting cell",
                                ckpt_file.display()
                            );
                            let _ = fs::remove_file(&ckpt_file);
                        }
                    }
                }
                Err(e) => {
                    eprintln!(
                        "warning: {}: unreadable checkpoint ({e}); restarting cell",
                        ckpt_file.display()
                    );
                    let _ = fs::remove_file(&ckpt_file);
                }
            }
        }
        let status = match status {
            Some(s) => s,
            None => gpu.launch_checkpointed(kernel, sched, trace, &opts)?,
        };
        // Sweep cells run with `pause_at = 0`.
        Ok(status.expect_completed())
    });
    write_done(&done, &cell.result)
        .unwrap_or_else(|e| panic!("writing {}: {e}", done.display()));
    let _ = fs::remove_file(&ckpt_file);
    let _ = fs::remove_dir_all(&chain_d);
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_workloads::find;

    fn small_cfg() -> GpuConfig {
        GpuConfig::small(4)
    }

    /// Checkpointing every 1000 cycles into a fresh temp directory.
    fn tmp_ckpt(tag: &str) -> Checkpointing {
        let dir = std::env::temp_dir().join(format!("pro-sweep-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        Checkpointing {
            dir,
            every: 1_000,
            delta: false,
            keep: 0,
        }
    }

    #[test]
    fn done_file_short_circuits_second_run() {
        let ckpt = tmp_ckpt("done");
        let dir = &ckpt.dir;
        let w = &find("laplace3d").expect("laplace3d in registry");
        let scale = Scale::Capped(16);
        let trace = TraceOptions::default();

        let first = run_cell_recoverable(w, SchedulerKind::Lrr, scale, small_cfg(), trace, &ckpt, None);
        assert!(done_path(dir, w, SchedulerKind::Lrr).exists());
        assert!(!ckpt_path(dir, w, SchedulerKind::Lrr).exists());

        // Second call must load the .done rather than re-simulate; the
        // results agree field-for-field either way.
        let second = run_cell_recoverable(w, SchedulerKind::Lrr, scale, small_cfg(), trace, &ckpt, None);
        assert_eq!(first.result, second.result);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn garbage_checkpoint_falls_back_to_fresh_run() {
        let ckpt = tmp_ckpt("garbage");
        let dir = &ckpt.dir;
        let w = &find("laplace3d").expect("laplace3d in registry");
        let scale = Scale::Capped(16);
        let trace = TraceOptions::default();

        fs::write(ckpt_path(dir, w, SchedulerKind::Pro), b"not a snapshot")
            .expect("plant garbage ckpt");
        let cell = run_cell_recoverable(w, SchedulerKind::Pro, scale, small_cfg(), trace, &ckpt, None);
        assert!(cell.result.cycles > 0);
        assert!(done_path(dir, w, SchedulerKind::Pro).exists());
        let _ = fs::remove_dir_all(dir);
    }
}
