//! Crash-recovering sweep cells.
//!
//! A long `repro json` sweep runs 100 independent (kernel × scheduler)
//! simulations. With checkpointing enabled (`--checkpoint-path DIR`), each
//! cell leaves two kinds of state in `DIR`:
//!
//! * `<app>_<kernel>_<sched>.done` — the finished [`RunResult`], wrapped in
//!   the same versioned container as GPU snapshots (DESIGN.md §12), so a
//!   re-run (`--resume DIR`) loads it instead of simulating again.
//! * `<app>_<kernel>_<sched>.chain/` — the cell's mid-run state as a
//!   delta-checkpoint chain (a full `base.ckpt` plus numbered deltas),
//!   extended every `--checkpoint-every N` cycles and deleted once the cell
//!   finishes. A resumed sweep picks the simulation up from its tip.
//!
//! Every file is written atomically (temp file + rename), so a worker
//! killed mid-write never leaves a torn file — [`FileReader::parse`]'s CRC
//! check rejects anything short of a complete container, a rejected tail
//! delta shortens the chain, and a rejected base falls back to re-running
//! the cell from cycle 0.

use std::fs::{self, File};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use pro_core::codec::{CodecError, FileReader, FileWriter, Snapshot, Writer};
use pro_core::SchedulerKind;
use pro_sim::{
    snapshot_matches, CheckpointOptions, GpuConfig, ProgressFn, Run, RunResult, SimError,
    SnapshotChain, TraceOptions,
};
use pro_workloads::{Scale, Workload};

use crate::Cell;

/// Section id of the [`RunResult`] payload inside a `.done` file.
const SEC_RESULT: u32 = 1;

/// Checkpoint interval (cycles) used when a sweep enables checkpointing
/// without an explicit `--checkpoint-every`.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// Files (base + deltas) a cell's chain may hold before it rolls over into
/// a fresh base: bounds the directory and the restore's replay at a full
/// snapshot's cost per eight intervals.
const CHAIN_KEEP: usize = 8;

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

/// Directory holding the cell's mid-run delta-checkpoint chain.
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

/// Where and how often a sweep checkpoints its cells: the
/// `--checkpoint-path` / `--resume` directory and `--checkpoint-every`.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Directory holding every cell's `.done` / `.chain` state.
    pub dir: PathBuf,
    /// Checkpoint interval in cycles (0 selects [`DEFAULT_CHECKPOINT_EVERY`]).
    pub every: u64,
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
/// 2. the longest valid prefix of the cell's `.chain/` directory resumes
///    the simulation (truncated or corrupt tail deltas are discarded, not
///    fatal), and the run goes on appending to that chain;
/// 3. otherwise the cell runs from cycle 0, checkpointing every `every`
///    cycles.
///
/// A cell that panics on the way is retried once: this is the one place
/// where a retry has a checkpoint to resume from. A second panic is a
/// genuinely broken cell and takes the sweep down.
///
/// A chain whose recorded identity (kernel, machine config, scheduler)
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

    let chain_d = chain_dir(&ckpt.dir, w, sched);
    let opts = CheckpointOptions {
        every: if ckpt.every == 0 {
            DEFAULT_CHECKPOINT_EVERY
        } else {
            ckpt.every
        },
        path: Some(chain_d.clone()),
        delta: true,
        keep: CHAIN_KEEP,
        ..progress_options(progress)
    };

    let attempt = || {
        crate::run_cell(w, sched, scale, cfg, |gpu, kernel| {
            // Resume from the chain if there is one; on corruption beyond
            // what `load_dir` can see, fall back to a fresh run —
            // correctness never depends on the checkpoint being usable.
            // Identity mismatches abort instead (see `identity_gate`).
            let chain = SnapshotChain::load_dir(&chain_d);
            let mut run = |resume| {
                let run = Run { trace, ckpt: Some(&opts), resume, ..Run::new(sched) };
                gpu.run(kernel, run)
            };
            let mut resumed = None;
            if let Some(chain) = &chain {
                if let Err(e) = snapshot_matches(chain.newest(), &cfg, kernel, sched.name()) {
                    identity_gate(&chain_d, &e);
                }
                match run(Some(chain.into())) {
                    Ok(status) => resumed = Some(status),
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
            let status = match resumed {
                Some(status) => status,
                None => run(None)?,
            };
            // Sweep cells run with `pause_at = 0`.
            Ok(status.expect_completed())
        })
    };
    let cell = catch_unwind(AssertUnwindSafe(attempt)).unwrap_or_else(|_| {
        eprintln!(
            "{}: cell panicked; retrying once from its last checkpoint",
            cell_stem(w, sched)
        );
        attempt()
    });
    write_done(&done, &cell.result)
        .unwrap_or_else(|e| panic!("writing {}: {e}", done.display()));
    let _ = fs::remove_dir_all(&chain_d);
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_sim::{Gpu, LaunchStatus};
    use pro_workloads::find;
    use std::sync::{Arc, Mutex};

    fn small_cfg() -> GpuConfig {
        GpuConfig::small(4)
    }

    /// Checkpointing every 1000 cycles into a fresh temp directory.
    fn tmp_ckpt(tag: &str) -> Checkpointing {
        let dir = std::env::temp_dir().join(format!("pro-sweep-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        Checkpointing { dir, every: 1_000 }
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
        assert!(!chain_dir(dir, w, SchedulerKind::Lrr).exists());

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

        let chain_d = chain_dir(dir, w, SchedulerKind::Pro);
        fs::create_dir_all(&chain_d).expect("create chain dir");
        fs::write(chain_d.join(pro_sim::CHAIN_BASE_FILE), b"not a snapshot").expect("plant garbage base");
        let cell = run_cell_recoverable(w, SchedulerKind::Pro, scale, small_cfg(), trace, &ckpt, None);
        assert!(cell.result.cycles > 0);
        assert!(done_path(dir, w, SchedulerKind::Pro).exists());
        let _ = fs::remove_dir_all(dir);
    }

    /// A cell long enough to report progress twice: the workload, its
    /// scale and machine, and the straight run's result.
    fn long_cell() -> (Workload, Scale, GpuConfig, RunResult) {
        let w = find("laplace3d").expect("laplace3d in registry");
        let (scale, cfg) = (Scale::Capped(64), GpuConfig::small(1));
        let pro = SchedulerKind::Pro;
        let straight = crate::run_cell(&w, pro, scale, cfg, |gpu, k| gpu.launch(k, pro, TraceOptions::default()));
        assert!(straight.result.cycles > 2 * HEARTBEAT_PROGRESS_EVERY, "{} cycles", straight.result.cycles);
        (w, scale, cfg, straight.result)
    }

    /// A progress hook that logs the cycle count of every report, and
    /// panics on the first one if `crash_once`.
    fn logging_hook(crash_once: bool) -> (ProgressFn, Arc<Mutex<Vec<u64>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let hook: ProgressFn = Arc::new(move |ev| {
            let first = {
                let mut seen = seen.lock().expect("no panic holds the log");
                seen.push(ev.cycles);
                seen.len() == 1
            };
            if crash_once && first {
                panic!("simulated worker crash at cycle {}", ev.cycles);
            }
        });
        (hook, log)
    }

    #[test]
    fn a_mid_run_chain_is_resumed_not_restarted() {
        let ckpt = tmp_ckpt("midrun");
        let (w, scale, cfg, straight) = long_cell();
        let (pro, trace) = (SchedulerKind::Pro, TraceOptions::default());
        // What a killed sweep leaves behind: a chain extended every 1000
        // cycles whose tip is past the first progress report.
        let tip = HEARTBEAT_PROGRESS_EVERY + 2 * ckpt.every;
        let chain_d = chain_dir(&ckpt.dir, &w, pro);
        let mut gpu = Gpu::new(cfg, w.recommended_gmem(scale));
        let built = w.build_scaled(&mut gpu.gmem, scale);
        let opts = CheckpointOptions {
            every: ckpt.every,
            path: Some(chain_d.clone()),
            delta: true,
            pause_at: tip,
            ..Default::default()
        };
        let status = gpu.launch_checkpointed(&built.kernel, pro, trace, &opts).expect("runs");
        assert!(matches!(status, LaunchStatus::Paused(_)));
        assert!(SnapshotChain::load_dir(&chain_d).expect("chain on disk").deltas() > 0);

        let (hook, reported) = logging_hook(false);
        let cell = run_cell_recoverable(&w, pro, scale, cfg, trace, &ckpt, Some(hook));
        let reported = reported.lock().unwrap();
        assert!(reported[0] > tip, "restarted from cycle 0: first report at {}", reported[0]);
        assert_eq!(cell.result, straight);
        assert!(done_path(&ckpt.dir, &w, pro).exists());
        assert!(!chain_d.exists());
        let _ = fs::remove_dir_all(&ckpt.dir);
    }

    #[test]
    fn a_panicking_cell_is_retried_once_from_its_checkpoint() {
        let ckpt = tmp_ckpt("retry");
        let (w, scale, cfg, straight) = long_cell();
        let (pro, trace) = (SchedulerKind::Pro, TraceOptions::default());
        // The hook's first report panics, just after that boundary's
        // checkpoint landed; the retry must pick up from there.
        let (hook, reported) = logging_hook(true);
        let cell = run_cell_recoverable(&w, pro, scale, cfg, trace, &ckpt, Some(hook));
        assert_eq!(cell.result, straight);
        let reported = reported.lock().unwrap();
        let every = HEARTBEAT_PROGRESS_EVERY;
        assert_eq!(reported[..2], [every, 2 * every], "the cell ran twice, the second time from its checkpoint");
        let _ = fs::remove_dir_all(&ckpt.dir);
    }
}
