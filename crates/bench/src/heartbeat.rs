//! Live sweep telemetry: the `--heartbeat N` status file.
//!
//! A full-scale `repro json` sweep runs for hours and, before this module,
//! emitted nothing until it finished. [`Heartbeat`] makes such a run
//! watchable from the outside: every `N` seconds (rate-limited, not
//! scheduled — writes piggyback on progress callbacks from the run loop)
//! it atomically rewrites a small `status.json` and prints a one-line
//! summary to stderr. `tail` the file or `watch -n1 cat status.json`; a
//! SIGKILL mid-write never leaves a torn file because writes go through
//! the same temp-file + rename protocol as checkpoints.
//!
//! `status.json` schema (all keys always present):
//!
//! ```json
//! {
//!   "cells_done": 12,          // finished (kernel × scheduler) cells
//!   "cells_total": 108,        // cells in this sweep
//!   "current": "AES_aes_PRO",  // most recently started cell stem
//!   "cycles": 123456,          // simulated cycles observed so far
//!   "cycles_per_sec": 2.1e6,   // cycles / wall-clock elapsed
//!   "elapsed_sec": 12.5,       // wall-clock since sweep start
//!   "checkpoint_age_sec": 3.0, // since the last checkpoint write (null: none)
//!   "eta_sec": 240.0,          // cell-rate estimate (null until 1 done)
//!   "done": false              // true in the final write
//! }
//! ```
//!
//! The heartbeat observes through [`pro_sim::CheckpointOptions::progress`]
//! hooks and cell start/finish notifications; it never reads simulator
//! state, so it cannot perturb determinism.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pro_sim::{ProgressEvent, ProgressFn};

use crate::json::{obj, s, Json};

/// Shared progress tracker behind the `--heartbeat N` flag.
///
/// One instance is shared (via `Arc`) by every pool worker of a sweep;
/// counters are atomics and the rarely-touched strings sit behind mutexes,
/// so reporting from `--jobs N` workers needs no coordination beyond what
/// the run loop already does.
pub struct Heartbeat {
    path: PathBuf,
    every_secs: u64,
    started: Instant,
    cells_total: u64,
    cells_done: AtomicU64,
    /// Simulated cycles observed so far, summed across cells. Progress
    /// callbacks deliver per-launch absolute cycle counts; each cell's
    /// closure turns those into deltas before adding here.
    cycles: AtomicU64,
    current: Mutex<String>,
    last_ckpt: Mutex<Option<Instant>>,
    last_write: Mutex<Option<Instant>>,
}

impl Heartbeat {
    /// A heartbeat writing `path` at most every `every_secs` seconds for a
    /// sweep of `cells_total` cells. Writes an initial status immediately
    /// so watchers see the file as soon as the sweep starts.
    pub fn new(path: impl Into<PathBuf>, every_secs: u64, cells_total: u64) -> Self {
        let hb = Heartbeat {
            path: path.into(),
            every_secs: every_secs.max(1),
            started: Instant::now(),
            cells_total,
            cells_done: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            current: Mutex::new(String::new()),
            last_ckpt: Mutex::new(None),
            last_write: Mutex::new(None),
        };
        hb.write_status(false);
        hb
    }

    /// Where the status file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Note that cell `stem` started simulating.
    pub fn cell_started(&self, stem: &str) {
        stem.clone_into(&mut self.current.lock().expect("heartbeat lock"));
        self.maybe_write();
    }

    /// Note that one cell finished (its remaining cycles folded in by the
    /// caller through [`Heartbeat::add_cycles`]).
    pub fn cell_finished(&self) {
        self.cells_done.fetch_add(1, Ordering::Relaxed);
        self.maybe_write();
    }

    /// Fold `delta` simulated cycles into the running total.
    pub fn add_cycles(&self, delta: u64) {
        self.cycles.fetch_add(delta, Ordering::Relaxed);
    }

    /// Note that a checkpoint file was just written.
    pub fn checkpoint_written(&self) {
        *self.last_ckpt.lock().expect("heartbeat lock") = Some(Instant::now());
    }

    /// Observe one run-loop progress event routed from a cell's
    /// [`ProgressFn`] (the closure built by [`Heartbeat::progress_fn`]).
    pub fn on_progress(&self, ev: &ProgressEvent, cycle_delta: u64) {
        self.add_cycles(cycle_delta);
        if ev.checkpointed {
            self.checkpoint_written();
        }
        self.maybe_write();
    }

    /// Build the per-cell [`ProgressFn`] hook: tracks the launch's last
    /// absolute cycle count so the shared totals receive deltas. One hook
    /// per cell — hooks must not be shared across concurrent launches.
    pub fn progress_fn(self: &std::sync::Arc<Self>, stem: String) -> ProgressFn {
        let hb = std::sync::Arc::clone(self);
        hb.cell_started(&stem);
        let last = AtomicU64::new(0);
        std::sync::Arc::new(move |ev: ProgressEvent| {
            let prev = last.swap(ev.cycles, Ordering::Relaxed);
            // A resumed launch starts past zero; count the full first
            // report. A fresh launch reports monotonically.
            let delta = ev.cycles.saturating_sub(prev);
            hb.on_progress(&ev, delta);
        })
    }

    /// Rate-limited write: at most one status rewrite per `every_secs`.
    pub fn maybe_write(&self) {
        {
            let mut lw = self.last_write.lock().expect("heartbeat lock");
            match *lw {
                Some(t) if t.elapsed().as_secs() < self.every_secs => return,
                _ => *lw = Some(Instant::now()),
            }
        }
        self.write_status(false);
    }

    /// Final write: marks the sweep done and always hits the disk.
    pub fn finish(&self) {
        self.write_status(true);
    }

    fn status_json(&self, done: bool) -> Json {
        let cells_done = self.cells_done.load(Ordering::Relaxed);
        let cycles = self.cycles.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        let ckpt_age = self
            .last_ckpt
            .lock()
            .expect("heartbeat lock")
            .map(|t| t.elapsed().as_secs_f64());
        let eta = if done {
            Some(0.0)
        } else if cells_done > 0 && self.cells_total > cells_done {
            Some(elapsed / cells_done as f64 * (self.cells_total - cells_done) as f64)
        } else {
            None
        };
        let rate = if elapsed > 0.0 { cycles as f64 / elapsed } else { 0.0 };
        obj(vec![
            ("cells_done", Json::Num(cells_done as f64)),
            ("cells_total", Json::Num(self.cells_total as f64)),
            ("current", s(self.current.lock().expect("heartbeat lock").clone())),
            ("cycles", Json::Num(cycles as f64)),
            ("cycles_per_sec", Json::Num(rate)),
            ("elapsed_sec", Json::Num(elapsed)),
            ("checkpoint_age_sec", ckpt_age.map_or(Json::Null, Json::Num)),
            ("eta_sec", eta.map_or(Json::Null, Json::Num)),
            ("done", Json::Bool(done)),
        ])
    }

    /// Atomically replace the status file and print the one-line summary.
    fn write_status(&self, done: bool) {
        let doc = self.status_json(done).to_string();
        let tmp = self.path.with_extension("json.tmp");
        // Telemetry must never kill the sweep: IO errors degrade to a
        // missing/stale status file, nothing more.
        let write = std::fs::write(&tmp, doc.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = write {
            eprintln!("warning: heartbeat {}: {e}", self.path.display());
            return;
        }
        let cells_done = self.cells_done.load(Ordering::Relaxed);
        let cycles = self.cycles.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { cycles as f64 / elapsed } else { 0.0 };
        eprintln!(
            "[heartbeat] {cells_done}/{} cells  {:.2} Mcyc  {:.2} Mcyc/s  elapsed {elapsed:.0}s{}",
            self.cells_total,
            cycles as f64 / 1e6,
            rate / 1e6,
            if done { "  done" } else { "" },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pro-hb-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn status_file_is_written_and_parses() {
        let path = tmp_path("basic");
        let hb = std::sync::Arc::new(Heartbeat::new(&path, 1, 4));
        let hook = hb.progress_fn("app_kernel_LRR".into());
        hook(ProgressEvent { cycles: 1_000, checkpointed: true });
        hook(ProgressEvent { cycles: 3_000, checkpointed: false });
        hb.cell_finished();
        hb.finish();

        let text = std::fs::read_to_string(&path).expect("status.json exists");
        // Round-trip through pro-trace's JSON *parser* (the writer here is
        // pro-bench's): the schema check is on real bytes, not intent.
        let doc = pro_trace::json::parse(&text).expect("status.json parses");
        assert_eq!(doc.get("cells_done").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("cells_total").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(doc.get("cycles").and_then(|v| v.as_u64()), Some(3_000));
        assert_eq!(
            doc.get("current").and_then(|v| v.as_str()),
            Some("app_kernel_LRR")
        );
        assert!(doc.get("checkpoint_age_sec").is_some());
        assert!(doc.get("cycles_per_sec").is_some());
        assert!(doc.get("eta_sec").is_some());
        assert_eq!(doc.get("done").and_then(|v| v.as_bool()), Some(true));
        assert!(!path.with_extension("json.tmp").exists(), "tmp renamed away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_deltas_accumulate_not_absolute() {
        let path = tmp_path("delta");
        let hb = std::sync::Arc::new(Heartbeat::new(&path, 1000, 2));
        let a = hb.progress_fn("a".into());
        let b = hb.progress_fn("b".into());
        a(ProgressEvent { cycles: 500, checkpointed: false });
        a(ProgressEvent { cycles: 900, checkpointed: false });
        b(ProgressEvent { cycles: 250, checkpointed: false });
        assert_eq!(hb.cycles.load(Ordering::Relaxed), 1_150);
        let _ = std::fs::remove_file(&path);
    }
}
