//! The memory half of an SM's cycle: load completions and due writebacks
//! release scoreboard registers, and the LSU head feeds one line
//! transaction per cycle to the memory subsystem (or counts down
//! shared-memory bank-conflict occupancy).

use super::Sm;
use crate::scoreboard::WriteSet;
use pro_isa::WARP_SIZE;
use pro_mem::{AccessId, AccessOutcome, MemSubsystem, QUEUE_SAMPLE_PERIOD};
use pro_trace::{Event as TraceEvent, EventClass, Tracer};

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // boxing the lines is the allocation this avoids
pub(super) enum LsuEntry {
    Global {
        access: AccessId,
        /// The instruction's line transactions, `lines[..len]` in LSU
        /// order; a warp touches at most one line per lane, so they are
        /// stored inline and queueing a memory instruction allocates
        /// nothing.
        lines: [u64; WARP_SIZE],
        len: usize,
        next: usize,
        is_write: bool,
    },
    Shared {
        warp: usize,
        remaining: u32,
        wb: WriteSet,
    },
}

impl LsuEntry {
    /// A global-memory instruction with all of its `lines` still to send.
    pub(super) fn global(access: AccessId, lines: &[u64], is_write: bool) -> LsuEntry {
        let mut inline = [0; WARP_SIZE];
        inline[..lines.len()].copy_from_slice(lines);
        LsuEntry::Global {
            access,
            lines: inline,
            len: lines.len(),
            next: 0,
            is_write,
        }
    }
}

/// Registers of a warp slot to release: what a writeback event and a load
/// in flight carry.
pub(super) type Release = (usize, WriteSet);

impl Sm {
    /// Registers `ws` of `warp` were written back — the one event that can
    /// make a scoreboard-stalled warp issuable again. `trace` is whether
    /// `tracer` wants the Scoreboard class, asked once per phase.
    fn release_write(&mut self, warp: usize, ws: WriteSet, now: u64, tracer: &mut dyn Tracer, trace: bool) {
        let sb = &mut self.warps[warp].scoreboard;
        sb.release(ws);
        self.sched_warps[warp].blocked_on_longlat = sb.longlat_pending();
        self.issue.release_write(warp, sb);
        if trace {
            tracer.emit(
                now,
                &TraceEvent::ScoreboardClear {
                    sm: self.id,
                    warp: warp as u32,
                },
            );
        }
    }

    /// First half of a cycle: interact with the shared memory subsystem.
    ///
    /// Drains this SM's completed accesses, retires due writebacks, and lets
    /// the LSU head push one line into the subsystem. Must run in SM-index
    /// order — `MemSubsystem` assigns its deterministic event sequence
    /// numbers here.
    pub fn mem_phase(&mut self, now: u64, mem: &mut MemSubsystem, tracer: &mut dyn Tracer) {
        if now.is_multiple_of(QUEUE_SAMPLE_PERIOD) {
            let d = self.lsu.len() as u64;
            self.lsu_hwm = self.lsu_hwm.max(d);
            self.lsu_depth.observe(d);
        }
        let trace = tracer.wants(EventClass::Scoreboard);
        // 1. Memory completions.
        for a in mem.drain_completions(self.id) {
            // Unreachable from a checkpoint file: the restore holds every
            // completion, drained or still outstanding, to this map
            // (`Sm::check`).
            let (warp, ws) = self
                .access_map
                .remove(&a)
                .expect("completion for unknown access");
            self.release_write(warp, ws, now, tracer, trace);
        }

        // 2. Due writebacks (popped in exact (time, seq) order; the slab
        //    slot is recycled immediately).
        while let Some((_, _, (warp, ws))) = self.wb_events.pop_due(now) {
            self.release_write(warp, ws, now, tracer, trace);
        }

        // 3. LSU head progress.
        if let Some(head) = self.lsu.front_mut() {
            match head {
                LsuEntry::Global {
                    access,
                    lines,
                    len,
                    next,
                    is_write,
                } => {
                    let line = lines[*next];
                    let outcome =
                        mem.access_line_traced(now, self.id, *access, line, *is_write, tracer);
                    if outcome == AccessOutcome::Accepted {
                        *next += 1;
                        if *next == *len {
                            self.lsu.pop_front();
                        }
                    }
                }
                LsuEntry::Shared { warp, remaining, wb } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let (warp, wb) = (*warp, *wb);
                        self.lsu.pop_front();
                        if !wb.is_empty() {
                            let t = now + self.cfg.shared_lat;
                            self.wb_events.push(t, (warp, wb));
                        }
                    }
                }
            }
        }
    }
}
