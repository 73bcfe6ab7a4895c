//! The assembled memory hierarchy: per-SM L1s, address-sliced L2, and one
//! FR-FCFS DRAM channel per partition, connected by fixed-latency
//! interconnect hops and driven cycle by cycle.
//!
//! ### API contract with the SM model
//!
//! The SM's load/store unit feeds **one line transaction per cycle** via
//! [`MemSubsystem::access_line`] (this is the LSU throughput limit that makes
//! poorly coalesced accesses expensive). Loads are registered up-front with
//! [`MemSubsystem::begin_load`]; each line completion decrements the
//! outstanding count and, at zero, the access id appears in
//! [`MemSubsystem::drain_completions`] for the owning SM, at which point the
//! SM clears the destination register's scoreboard entry. Stores are
//! fire-and-forget for the warp but still consume bandwidth all the way to
//! DRAM (write-through), so they interfere with loads realistically.

use crate::cache::{Cache, CacheConfig, CacheStats, Lookup};
use crate::dram::{DramChannel, DramConfig, DramStats};
use pro_core::calq::CalQueue;
use pro_core::codec::{CodecError, Reader, Snapshot, Violation, Writer};
use pro_core::{snapshot_enum, snapshot_struct, FxHashMap, FxHashSet};
use pro_trace::{Event as TraceEvent, EventClass, Hist16, Metrics, NoopTracer, Tracer};
use std::collections::VecDeque;

/// Encode a [`Hist16`] (a foreign type, so it cannot implement [`Snapshot`]
/// here) from its raw parts.
pub fn save_hist(h: &Hist16, w: &mut Writer) {
    h.counts().save(w);
    w.put_u64(h.sum());
}

/// Decode a [`Hist16`] written by [`save_hist`].
pub fn load_hist(r: &mut Reader<'_>) -> Result<Hist16, CodecError> {
    let counts: [u64; 16] = Snapshot::load(r)?;
    let sum = r.get_u64()?;
    Ok(Hist16::from_raw(counts, sum))
}

/// Identifier for one warp memory instruction in flight. Allocated by the
/// SM; unique per SM (the subsystem keys on `(sm, id)`).
pub type AccessId = u64;

/// Result of offering one line transaction to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Transaction accepted (hit, miss forwarded, or merged).
    Accepted,
    /// No MSHR space at L1 — retry next cycle (surfaces upstream as a
    /// structural stall).
    Rejected,
}

/// Latency and topology parameters for the hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Per-SM L1 geometry.
    pub l1: CacheConfig,
    /// Number of memory partitions (L2 slice + DRAM channel pairs).
    pub partitions: u32,
    /// L2 slice geometry (per partition).
    pub l2: CacheConfig,
    /// DRAM channel timing.
    pub dram: DramConfig,
    /// L1 hit latency (cycles from access to data).
    pub l1_hit_lat: u64,
    /// One-way SM ↔ L2 interconnect latency.
    pub icnt_lat: u64,
    /// L2 lookup latency.
    pub l2_lat: u64,
}

impl MemConfig {
    /// GTX480-flavoured defaults (Table I): 16 KB L1, 768 KB L2 over 6
    /// partitions, FR-FCFS DRAM. Latencies chosen to land an L2 hit around
    /// ~130 cycles and a DRAM-serviced load at ~350-600 cycles under load —
    /// the regime the paper's stall analysis lives in.
    pub fn gtx480() -> Self {
        let partitions = 6;
        MemConfig {
            l1: CacheConfig::l1_16k(),
            partitions,
            l2: CacheConfig::l2_slice(partitions as u64),
            dram: DramConfig::default(),
            l1_hit_lat: 30,
            icnt_lat: 40,
            l2_lat: 20,
        }
    }

    /// The longest a timing event waits in the event queue: an
    /// interconnect hop, an L1 hit, an L2 hit with its hop back, or a DRAM
    /// service with a row switch. The queue's wheel is sized to it.
    pub(crate) fn max_event_latency(&self) -> u64 {
        let dram = self.dram.t_cas.saturating_add(self.dram.t_rp_rcd);
        let l2_hit = self.l2_lat.saturating_add(self.icnt_lat);
        self.icnt_lat.max(self.l1_hit_lat).max(l2_hit).max(dram)
    }
}

/// Aggregated counters across the hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Sum of all per-SM L1 counters.
    pub l1: CacheStats,
    /// Sum of all L2 slice counters.
    pub l2: CacheStats,
    /// Sum of all DRAM channel counters.
    pub dram: DramStats,
    /// Load accesses begun.
    pub loads: u64,
    /// Store line transactions accepted.
    pub store_lines: u64,
    /// Completed loads' total latency (begin → last line complete).
    pub load_latency_sum: u64,
    /// Completed loads.
    pub loads_completed: u64,
    /// Distribution of end-to-end load latencies (same samples as
    /// `load_latency_sum` / `loads_completed`).
    pub load_lat_hist: Hist16,
}

impl MemStats {
    /// Mean end-to-end load latency in cycles.
    pub fn avg_load_latency(&self) -> f64 {
        if self.loads_completed == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads_completed as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    sm: u32,
    line: u64,
    is_write: bool,
}

snapshot_struct! {
    Txn {
        sm,
        line,
        is_write,
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A transaction reaches its L2 slice input queue.
    ArriveL2(Txn),
    /// DRAM finished fetching `line` for partition `part`.
    DramDone { part: u32, line: u64 },
    /// A fetched line arrives back at the SM (fills L1, completes accesses).
    ReturnToSm { sm: u32, line: u64 },
    /// An L1 hit's latency elapsed for one line of `access`.
    L1Done { sm: u32, access: AccessId },
}

snapshot_enum! {
    Event, "mem Event tag" {
        0 => ArriveL2(txn),
        1 => DramDone { part, line },
        2 => ReturnToSm { sm, line },
        3 => L1Done { sm, access },
    }
}

snapshot_struct! {
    MemStats {
        l1,
        l2,
        dram,
        loads,
        store_lines,
        load_latency_sum,
        loads_completed,
        load_lat_hist via (save_hist, load_hist),
    }
}

struct Slice {
    cache: Cache<Txn>,
    in_q: VecDeque<Txn>,
}

/// How often (in cycles) the host-observability gauges sample queue
/// depths. Exact push/pop counts and the event-queue high-water mark are
/// maintained continuously; depth *histograms* are decimated to keep the
/// always-on cost at a compare-and-branch per cycle.
pub const QUEUE_SAMPLE_PERIOD: u64 = 64;

/// Host-side gauges over the subsystem's internal queues: how deep the
/// event queue gets, and where back-pressure pools — L2 input queues, DRAM
/// channel queues, L1 MSHRs. The depth distribution also pins the calendar
/// queue's slab bound.
///
/// Everything here is *derived* observability state: deterministic given
/// the run, but deliberately excluded from [`MemSubsystem::save_snapshot`]
/// so the checkpoint byte format is independent of profiling. After a
/// restore the gauges restart from zero. Published under `host/mem.*`,
/// which the `RunResult` snapshot encoding strips.
#[derive(Debug, Clone, Default)]
pub struct QueueProf {
    /// Events pushed onto the event queue (exact).
    pub ev_pushed: u64,
    /// Events popped off the event queue (exact).
    pub ev_popped: u64,
    /// Event-queue depth high-water mark (exact, updated on every push).
    pub ev_hwm: u64,
    /// Event-queue depth, sampled every [`QUEUE_SAMPLE_PERIOD`] cycles.
    pub ev_depth: Hist16,
    /// Calendar-queue slab slots allocated (the event pool's memory
    /// high-water; structurally ≤ `ev_hwm` thanks to free-list reuse).
    pub ev_pool_slots: u64,
    /// Total L2 input-queue depth across slices (sampled + hwm-at-sample).
    pub l2q_hwm: u64,
    /// L2 input-queue depth histogram (sampled).
    pub l2q_depth: Hist16,
    /// Total DRAM channel-queue depth across partitions (sampled).
    pub dramq_hwm: u64,
    /// DRAM channel-queue depth histogram (sampled).
    pub dramq_depth: Hist16,
    /// L1 MSHR entries in use across all SMs (sampled).
    pub mshr_hwm: u64,
    /// L1 MSHR occupancy histogram (sampled).
    pub mshr_depth: Hist16,
    /// Outstanding (in-flight) load accesses (sampled).
    pub inflight_hwm: u64,
    /// In-flight load accesses histogram (sampled).
    pub inflight_depth: Hist16,
}

impl QueueProf {
    /// Publish the gauges into a metrics registry under `host/mem.*`.
    pub fn publish(&self, m: &mut Metrics) {
        m.set_counter("host/mem.evq.pushed", self.ev_pushed);
        m.set_counter("host/mem.evq.popped", self.ev_popped);
        m.set_counter("host/mem.evq.hwm", self.ev_hwm);
        m.set_hist("host/mem.evq.depth", self.ev_depth);
        m.set_counter("host/mem.evq.pool_slots", self.ev_pool_slots);
        m.set_counter("host/mem.l2q.hwm", self.l2q_hwm);
        m.set_hist("host/mem.l2q.depth", self.l2q_depth);
        m.set_counter("host/mem.dramq.hwm", self.dramq_hwm);
        m.set_hist("host/mem.dramq.depth", self.dramq_depth);
        m.set_counter("host/mem.mshr.hwm", self.mshr_hwm);
        m.set_hist("host/mem.mshr.depth", self.mshr_depth);
        m.set_counter("host/mem.inflight.hwm", self.inflight_hwm);
        m.set_hist("host/mem.inflight.depth", self.inflight_depth);
    }
}

/// The full memory subsystem for a GPU with `num_sms` SMs.
pub struct MemSubsystem {
    cfg: MemConfig,
    l1s: Vec<Cache<AccessId>>,
    slices: Vec<Slice>,
    drams: Vec<DramChannel<u32>>, // tag = partition (line travels alongside)
    // Timing events, keyed by (time, seq): a bucketed calendar queue with
    // slab-recycled storage (O(1) push/pop, pool bounded by live events).
    events: CalQueue<Event>,
    // (sm<<40 | access) → (remaining lines, begin cycle)
    // Probed per completing line, never iterated — Fx-hashed for speed.
    outstanding: FxHashMap<u64, (u32, u64)>,
    completions: Vec<VecDeque<AccessId>>,
    stats_extra: MemStats,
    // Host-observability gauges; never serialized (see `QueueProf`).
    qprof: QueueProf,
}

impl std::fmt::Debug for MemSubsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSubsystem")
            .field("sms", &self.l1s.len())
            .field("partitions", &self.slices.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

#[inline]
fn key(sm: u32, access: AccessId) -> u64 {
    ((sm as u64) << 40) | access
}

impl MemSubsystem {
    /// Build the hierarchy for `num_sms` SMs.
    pub fn new(cfg: MemConfig, num_sms: usize) -> Self {
        MemSubsystem {
            l1s: (0..num_sms).map(|_| Cache::new(cfg.l1)).collect(),
            slices: (0..cfg.partitions)
                .map(|_| Slice {
                    cache: Cache::new(cfg.l2),
                    in_q: VecDeque::new(),
                })
                .collect(),
            drams: (0..cfg.partitions)
                .map(|_| DramChannel::new(cfg.dram))
                .collect(),
            events: CalQueue::with_horizon(cfg.max_event_latency()),
            outstanding: FxHashMap::default(),
            completions: (0..num_sms).map(|_| VecDeque::new()).collect(),
            stats_extra: MemStats::default(),
            qprof: QueueProf::default(),
            cfg,
        }
    }

    fn schedule(&mut self, time: u64, ev: Event) {
        self.events.push(time, ev);
        self.qprof.ev_pushed += 1;
        self.qprof.ev_hwm = self.qprof.ev_hwm.max(self.events.len() as u64);
    }

    #[inline]
    fn partition_of(&self, line: u64) -> u32 {
        (line % self.cfg.partitions as u64) as u32
    }

    /// Register a load access expecting `n_lines` line completions.
    pub fn begin_load(&mut self, now: u64, sm: u32, access: AccessId, n_lines: u32) {
        debug_assert!(n_lines > 0);
        self.stats_extra.loads += 1;
        let prev = self.outstanding.insert(key(sm, access), (n_lines, now));
        debug_assert!(prev.is_none(), "access id reused while in flight");
    }

    /// Offer one line transaction. For loads, [`Self::begin_load`] must have
    /// been called. For stores the line is functionally already written;
    /// this call models write-through traffic and L1 write-evict.
    ///
    /// Untraced convenience wrapper around [`Self::access_line_traced`].
    pub fn access_line(
        &mut self,
        now: u64,
        sm: u32,
        access: AccessId,
        line: u64,
        is_write: bool,
    ) -> AccessOutcome {
        self.access_line_traced(now, sm, access, line, is_write, &mut NoopTracer)
    }

    /// [`Self::access_line`] with L1-level lifecycle events
    /// (`L1Hit`/`L1Miss`/`MshrMerge`/`MshrReject`/`StoreLine`) published to
    /// `tracer`. Request ids in events are `pro_trace::req_id(sm, access)`.
    pub fn access_line_traced(
        &mut self,
        now: u64,
        sm: u32,
        access: AccessId,
        line: u64,
        is_write: bool,
        tracer: &mut dyn Tracer,
    ) -> AccessOutcome {
        let trace_mem = tracer.wants(EventClass::Mem);
        if is_write {
            // Fermi global-store policy: evict on hit, no allocate,
            // write-through to L2/DRAM.
            self.l1s[sm as usize].invalidate(line);
            self.stats_extra.store_lines += 1;
            if trace_mem {
                tracer.emit(now, &TraceEvent::StoreLine { sm, line });
            }
            self.schedule(
                now + self.cfg.icnt_lat,
                Event::ArriveL2(Txn {
                    sm,
                    line,
                    is_write: true,
                }),
            );
            return AccessOutcome::Accepted;
        }
        let req = key(sm, access);
        match self.l1s[sm as usize].access(line, access) {
            Lookup::Hit => {
                if trace_mem {
                    tracer.emit(now, &TraceEvent::L1Hit { sm, req, line });
                }
                self.schedule(now + self.cfg.l1_hit_lat, Event::L1Done { sm, access });
                AccessOutcome::Accepted
            }
            Lookup::MissAllocated => {
                if trace_mem {
                    tracer.emit(now, &TraceEvent::L1Miss { sm, req, line });
                }
                self.schedule(
                    now + self.cfg.icnt_lat,
                    Event::ArriveL2(Txn {
                        sm,
                        line,
                        is_write: false,
                    }),
                );
                AccessOutcome::Accepted
            }
            Lookup::MissMerged => {
                if trace_mem {
                    tracer.emit(now, &TraceEvent::MshrMerge { sm, req, line });
                }
                AccessOutcome::Accepted
            }
            Lookup::Rejected => {
                if trace_mem {
                    tracer.emit(now, &TraceEvent::MshrReject { sm, req, line });
                }
                AccessOutcome::Rejected
            }
        }
    }

    fn complete_line(&mut self, now: u64, sm: u32, access: AccessId, tracer: &mut dyn Tracer) {
        let k = key(sm, access);
        let done = {
            // Unreachable from a checkpoint file: the restore's `check`
            // refuses a line on its way back that `outstanding` does not
            // expect, and an LSU with more lines to send than its load has
            // left.
            let entry = self
                .outstanding
                .get_mut(&k)
                .expect("completion for unknown access");
            entry.0 -= 1;
            entry.0 == 0
        };
        if done {
            let (_, begun) = self.outstanding.remove(&k).expect("present");
            let latency = now - begun;
            self.stats_extra.loads_completed += 1;
            self.stats_extra.load_latency_sum += latency;
            self.stats_extra.load_lat_hist.observe(latency);
            if tracer.wants(EventClass::Mem) {
                tracer.emit(now, &TraceEvent::LoadComplete { sm, req: k, latency });
            }
            self.completions[sm as usize].push_back(access);
        }
    }

    /// Advance the hierarchy one cycle. Call once per GPU cycle with a
    /// monotonically increasing `now`.
    ///
    /// Untraced convenience wrapper around [`Self::tick_traced`].
    pub fn tick(&mut self, now: u64) {
        self.tick_traced(now, &mut NoopTracer)
    }

    /// [`Self::tick`] with downstream lifecycle events (`L2Hit`/`L2Miss`/
    /// `L2Merge`/`DramSchedule`/`LineFill`/`LoadComplete`) published to
    /// `tracer`.
    pub fn tick_traced(&mut self, now: u64, tracer: &mut dyn Tracer) {
        let trace_mem = tracer.wants(EventClass::Mem);
        if now.is_multiple_of(QUEUE_SAMPLE_PERIOD) {
            self.sample_queues();
        }
        // 1. Deliver due events (the calendar queue yields them in exact
        //    (time, seq) order; the slot is recycled before the handler runs).
        while let Some((_, _, ev)) = self.events.pop_due(now) {
            self.qprof.ev_popped += 1;
            match ev {
                Event::ArriveL2(txn) => {
                    let p = self.partition_of(txn.line) as usize;
                    self.slices[p].in_q.push_back(txn);
                }
                Event::DramDone { part, line } => {
                    let (txns, _evicted) = self.slices[part as usize].cache.fill(line);
                    for txn in txns {
                        self.schedule(
                            now + self.cfg.icnt_lat,
                            Event::ReturnToSm {
                                sm: txn.sm,
                                line: txn.line,
                            },
                        );
                    }
                }
                Event::ReturnToSm { sm, line } => {
                    if trace_mem {
                        tracer.emit(now, &TraceEvent::LineFill { sm, line });
                    }
                    let (accesses, _evicted) = self.l1s[sm as usize].fill(line);
                    for a in accesses {
                        self.complete_line(now, sm, a, tracer);
                    }
                }
                Event::L1Done { sm, access } => {
                    self.complete_line(now, sm, access, tracer);
                }
            }
        }

        // 2. Each L2 slice services one transaction per cycle.
        for p in 0..self.slices.len() {
            let Some(&txn) = self.slices[p].in_q.front() else {
                continue;
            };
            if txn.is_write {
                // Write-through: update LRU if resident, always send the
                // write to DRAM for bandwidth accounting. Blocks at the head
                // if DRAM is full (back-pressure).
                if !self.drams[p].can_accept() {
                    continue;
                }
                self.slices[p].cache.touch_on_write(txn.line);
                self.slices[p].in_q.pop_front();
                self.drams[p].push(now, txn.line, p as u32);
            } else {
                // A read that will need DRAM must wait (head-of-line block)
                // while the channel queue is full — that's the back-pressure
                // path. Hits and MSHR merges proceed regardless.
                if !self.drams[p].can_accept()
                    && !self.slices[p].cache.contains(txn.line)
                    && !self.slices[p].cache.has_pending(txn.line)
                {
                    continue;
                }
                match self.slices[p].cache.access(txn.line, txn) {
                    Lookup::Hit => {
                        if trace_mem {
                            tracer.emit(
                                now,
                                &TraceEvent::L2Hit { part: p as u32, line: txn.line },
                            );
                        }
                        self.slices[p].in_q.pop_front();
                        self.schedule(
                            now + self.cfg.l2_lat + self.cfg.icnt_lat,
                            Event::ReturnToSm {
                                sm: txn.sm,
                                line: txn.line,
                            },
                        );
                    }
                    Lookup::MissMerged => {
                        if trace_mem {
                            tracer.emit(
                                now,
                                &TraceEvent::L2Merge { part: p as u32, line: txn.line },
                            );
                        }
                        self.slices[p].in_q.pop_front();
                    }
                    Lookup::MissAllocated => {
                        if trace_mem {
                            tracer.emit(
                                now,
                                &TraceEvent::L2Miss { part: p as u32, line: txn.line },
                            );
                        }
                        self.slices[p].in_q.pop_front();
                        self.drams[p].push(now + self.cfg.l2_lat, txn.line, p as u32);
                    }
                    Lookup::Rejected => {
                        // Head-of-line blocked until L2 MSHR space frees.
                    }
                }
            }
        }

        // 3. DRAM channels.
        for p in 0..self.drams.len() {
            // `DramChannel::tick` does not report row-buffer locality for
            // the request it schedules, so recover it from the stats delta.
            let row_hits_before = self.drams[p].stats.row_hits;
            if let Some((done, line, part)) = self.drams[p].tick(now) {
                if trace_mem {
                    tracer.emit(
                        now,
                        &TraceEvent::DramSchedule {
                            part,
                            line,
                            row_hit: self.drams[p].stats.row_hits > row_hits_before,
                            done,
                        },
                    );
                }
                self.schedule(done, Event::DramDone { part, line });
            }
        }
    }

    /// Drain completed load access ids for `sm`.
    pub fn drain_completions(&mut self, sm: u32) -> impl Iterator<Item = AccessId> + '_ {
        self.completions[sm as usize].drain(..)
    }

    /// True when nothing is in flight anywhere (used to detect quiescence
    /// and deadlock in tests).
    pub fn idle(&self) -> bool {
        self.events.is_empty()
            && self.outstanding.is_empty()
            && self.slices.iter().all(|s| s.in_q.is_empty())
            && self.drams.iter().all(|d| d.queue_len() == 0)
    }

    /// Decimated depth sampling for the host-observability gauges; called
    /// from [`Self::tick_traced`] every [`QUEUE_SAMPLE_PERIOD`] cycles.
    fn sample_queues(&mut self) {
        let ev = self.events.len() as u64;
        let l2q: u64 = self.slices.iter().map(|s| s.in_q.len() as u64).sum();
        let dramq: u64 = self.drams.iter().map(|d| d.queue_len() as u64).sum();
        let mshr: u64 = self.l1s.iter().map(|c| c.mshr_pending() as u64).sum();
        let inflight = self.outstanding.len() as u64;
        let pool_slots = self.events.pool_slots() as u64;
        let q = &mut self.qprof;
        q.ev_pool_slots = pool_slots;
        q.ev_depth.observe(ev);
        q.l2q_depth.observe(l2q);
        q.l2q_hwm = q.l2q_hwm.max(l2q);
        q.dramq_depth.observe(dramq);
        q.dramq_hwm = q.dramq_hwm.max(dramq);
        q.mshr_depth.observe(mshr);
        q.mshr_hwm = q.mshr_hwm.max(mshr);
        q.inflight_depth.observe(inflight);
        q.inflight_hwm = q.inflight_hwm.max(inflight);
    }

    /// The host-side queue gauges accumulated so far (see [`QueueProf`]).
    pub fn queue_prof(&self) -> &QueueProf {
        &self.qprof
    }

    /// Snapshot aggregate statistics.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats_extra.clone();
        for l1 in &self.l1s {
            s.l1.hits += l1.stats.hits;
            s.l1.misses += l1.stats.misses;
            s.l1.mshr_merges += l1.stats.mshr_merges;
            s.l1.mshr_rejections += l1.stats.mshr_rejections;
        }
        for sl in &self.slices {
            s.l2.hits += sl.cache.stats.hits;
            s.l2.misses += sl.cache.stats.misses;
            s.l2.mshr_merges += sl.cache.stats.mshr_merges;
            s.l2.mshr_rejections += sl.cache.stats.mshr_rejections;
        }
        for d in &self.drams {
            s.dram.row_hits += d.stats.row_hits;
            s.dram.row_misses += d.stats.row_misses;
            s.dram.accepted += d.stats.accepted;
            s.dram.total_latency += d.stats.total_latency;
        }
        s
    }

    /// Serialize the subsystem's complete dynamic state — not its
    /// geometry: each SM's L1, each partition's L2 slice with its input
    /// queue and its DRAM channel, and each SM's completions, in index
    /// order, as the machine lays them out.
    ///
    /// The event queue is written as `(time, seq)`-sorted triples so
    /// identical states always yield identical bytes. `seq` is preserved
    /// exactly — event tie-breaking after a restore must match the
    /// uninterrupted run bit for bit.
    pub fn save_snapshot(&self, w: &mut Writer) {
        for l1 in &self.l1s {
            l1.save_state(w);
        }
        for slice in &self.slices {
            slice.cache.save_state(w);
            slice.in_q.save(w);
        }
        for dram in &self.drams {
            dram.save_state(w);
        }
        self.events.save_snapshot(w);
        self.outstanding.save(w);
        for done in &self.completions {
            done.save(w);
        }
        self.stats_extra.save(w);
    }

    /// Restore state written by [`Self::save_snapshot`] into a subsystem
    /// built with the same configuration and SM count, for a run that
    /// resumes at cycle `now`.
    pub fn restore_snapshot(&mut self, r: &mut Reader<'_>, now: u64) -> Result<(), CodecError> {
        for l1 in &mut self.l1s {
            l1.load_state(r)?;
        }
        for slice in &mut self.slices {
            slice.cache.load_state(r)?;
            slice.in_q = Snapshot::load(r)?;
        }
        for dram in &mut self.drams {
            dram.load_state(r)?;
        }
        // Entries in the file are (time, seq)-sorted and lie within the
        // queue's horizon of `now`; the calendar queue re-packs them into
        // fresh slab slots.
        self.events.restore_snapshot(r, now)?;
        self.outstanding = Snapshot::load(r)?;
        for done in &mut self.completions {
            *done = Snapshot::load(r)?;
        }
        self.stats_extra = Snapshot::load(r)?;
        Ok(())
    }

    /// Hold the subsystem to its invariants at the cycle boundary `now`,
    /// and write the memory side of every load in flight into `loads` for
    /// the SMs to take their own out of (`Gpu::check`):
    /// * every SM and partition index in flight — L2 input queues and MSHR
    ///   waiters, DRAM requests, timing events — indexes `l1s`, `slices` or
    ///   `completions` when its turn comes;
    /// * an L1 MSHR line is on its way: a read travelling to its L2 slice,
    ///   queued there or waiting in its MSHR, or the line travelling back.
    ///   Without one, the loads waiting on it never complete;
    /// * each line on its way back — an L1 hit serving its latency, a miss
    ///   waiting on an MSHR line — ends in `complete_line`, which counts down
    ///   an outstanding load that has a line left for it;
    /// * a completing load's latency is counted from its begin cycle, which
    ///   is past;
    /// * a completion waiting for its SM to drain it is none of the loads
    ///   outstanding, and no other completion.
    pub fn check(&self, now: u64, loads: &mut LoadLedger) -> Result<(), Violation> {
        let fail = |invariant, sm| Err(Violation { invariant, sm, slot: None, cycle: now });
        let (num_sms, partitions) = (self.l1s.len() as u32, self.slices.len() as u32);
        let to_l2 = || self.slices.iter().flat_map(|s| s.in_q.iter().chain(s.cache.waiters()));
        if to_l2().any(|t| t.sm >= num_sms) {
            return fail("mem transaction SM index", None);
        }
        if self.drams.iter().flat_map(DramChannel::tags).any(|&part| part >= partitions) {
            return fail("DRAM request partition index", None);
        }
        let in_range = |ev: &Event| match *ev {
            Event::ArriveL2(Txn { sm, .. })
            | Event::ReturnToSm { sm, .. }
            | Event::L1Done { sm, .. } => sm < num_sms,
            Event::DramDone { part, .. } => part < partitions,
        };
        if !self.events.iter().all(|(_, _, ev)| in_range(ev)) {
            return fail("mem event SM or partition index", None);
        }

        let misses = &mut loads.misses;
        misses.clear();
        for (l1, sm) in self.l1s.iter().zip(0..) {
            misses.extend(l1.pending_lines().map(|line| (sm, line)));
        }
        let travelling = self.events.iter().filter_map(|(_, _, ev)| match *ev {
            Event::ArriveL2(txn) => Some(txn),
            Event::ReturnToSm { sm, line } => Some(Txn { sm, line, is_write: false }),
            _ => None,
        });
        for t in to_l2().copied().chain(travelling).filter(|t| !t.is_write) {
            misses.remove(&(t.sm, t.line));
        }
        if let Some(&(sm, _)) = misses.iter().next() {
            return fail("mem L1 miss with no fetch on its way", Some(sm));
        }

        let due = &mut loads.due;
        due.clear();
        for (&k, &(lines, begun)) in &self.outstanding {
            let (sm, access) = ((k >> 40) as u32, k & ((1 << 40) - 1)); // `key` undone
            if begun > now {
                return fail("mem load begun after the snapshot", Some(sm));
            }
            due.insert((sm, access), Some(lines));
        }
        let hits = self.events.iter().filter_map(|(_, _, ev)| match *ev {
            Event::L1Done { sm, access } => Some((sm, access)),
            _ => None,
        });
        let waiting = self.l1s.iter().zip(0..).flat_map(|(l1, sm)| l1.waiters().map(move |&a| (sm, a)));
        for (sm, access) in hits.chain(waiting) {
            match due.get_mut(&(sm, access)) {
                Some(Some(lines)) if *lines > 0 => *lines -= 1,
                _ => return fail("mem line completion without an outstanding load", Some(sm)),
            }
        }
        for (done, sm) in self.completions.iter().zip(0..) {
            for &access in done {
                if due.insert((sm, access), None).is_some() {
                    return fail("mem load no SM waits for", Some(sm));
                }
            }
        }
        Ok(())
    }
}

/// What [`MemSubsystem::check`] leaves for the SMs: the memory side of
/// every load in flight. Also its scratch, which the caller keeps across
/// launches (each launch builds a new subsystem), so that a check allocates
/// nothing once the sizes a run reaches have been seen.
#[derive(Debug, Default)]
pub struct LoadLedger {
    /// Per load in flight, by `(sm, access)`: the lines of it that its SM's
    /// LSU has still to send, or `None` once it has completed and waits for
    /// its SM to drain it. An SM's check takes its own loads out.
    pub due: FxHashMap<(u32, AccessId), Option<u32>>,
    /// The L1 MSHR lines not yet seen on their way.
    misses: FxHashSet<(u32, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subsystem() -> MemSubsystem {
        MemSubsystem::new(MemConfig::gtx480(), 2)
    }

    /// Event-pool memory accounting: `(slab slots allocated, live-event
    /// high-water mark)`. The slab recycles popped slots through a free
    /// list, so the first number is bounded by the second — not by the
    /// total number of events ever scheduled.
    fn event_pool_stats(m: &MemSubsystem) -> (usize, usize) {
        (m.events.pool_slots(), m.events.live_hwm())
    }

    /// Run until the given access completes, returning the completion cycle.
    fn run_until_complete(m: &mut MemSubsystem, sm: u32, access: AccessId, limit: u64) -> u64 {
        for now in 0..limit {
            m.tick(now);
            if m.drain_completions(sm).any(|a| a == access) {
                return now;
            }
        }
        panic!("access did not complete within {limit} cycles");
    }

    #[test]
    fn cold_load_takes_dram_latency() {
        let mut m = subsystem();
        m.begin_load(0, 0, 1, 1);
        assert_eq!(m.access_line(0, 0, 1, 42, false), AccessOutcome::Accepted);
        let done = run_until_complete(&mut m, 0, 1, 5000);
        // icnt(40) + l2(20) + dram row miss(60) + icnt(40) ≥ 160
        assert!(done >= 160, "cold load too fast: {done}");
        assert!(done <= 400, "cold load too slow: {done}");
        let s = m.stats();
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.dram.row_misses, 1);
        assert!(m.idle());
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut m = subsystem();
        m.begin_load(0, 0, 1, 1);
        m.access_line(0, 0, 1, 42, false);
        let t1 = run_until_complete(&mut m, 0, 1, 5000);
        m.begin_load(t1 + 1, 0, 2, 1);
        m.access_line(t1 + 1, 0, 2, 42, false);
        let t2 = run_until_complete(&mut m, 0, 2, t1 + 200);
        assert_eq!(t2 - (t1 + 1), m.cfg.l1_hit_lat);
        assert_eq!(m.stats().l1.hits, 1);
    }

    #[test]
    fn second_sm_hits_shared_l2() {
        let mut m = subsystem();
        m.begin_load(0, 0, 1, 1);
        m.access_line(0, 0, 1, 42, false);
        let t1 = run_until_complete(&mut m, 0, 1, 5000);
        // Other SM, same line: misses its own L1 but hits L2.
        m.begin_load(t1 + 1, 1, 7, 1);
        m.access_line(t1 + 1, 1, 7, 42, false);
        let t2 = run_until_complete(&mut m, 1, 7, t1 + 1000);
        let lat = t2 - (t1 + 1);
        // icnt + l2 + icnt ≈ 100 — far less than DRAM.
        assert!(lat < 160, "L2 hit latency {lat} too high");
        let s = m.stats();
        assert_eq!(s.l2.hits, 1);
        assert_eq!(s.dram.accepted, 1, "no second DRAM fetch");
    }

    #[test]
    fn multi_line_load_completes_once() {
        let mut m = subsystem();
        m.begin_load(0, 0, 1, 3);
        for (i, line) in [10u64, 11, 12].iter().enumerate() {
            assert_eq!(
                m.access_line(i as u64, 0, 1, *line, false),
                AccessOutcome::Accepted
            );
        }
        let mut completions = 0;
        for now in 0..5000 {
            m.tick(now);
            completions += m.drain_completions(0).count();
        }
        assert_eq!(completions, 1, "one completion for the whole access");
        assert!(m.idle());
    }

    #[test]
    fn same_line_loads_from_one_sm_merge_in_l1_mshr() {
        let mut m = subsystem();
        m.begin_load(0, 0, 1, 1);
        m.begin_load(0, 0, 2, 1);
        m.access_line(0, 0, 1, 99, false);
        m.access_line(0, 0, 2, 99, false);
        let mut done = vec![];
        for now in 0..5000 {
            m.tick(now);
            done.extend(m.drain_completions(0));
        }
        assert_eq!(done.len(), 2);
        assert_eq!(m.stats().dram.accepted, 1, "one memory fetch served both");
        assert_eq!(m.stats().l1.mshr_merges, 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_and_recovers() {
        let mut m = subsystem();
        let entries = m.cfg.l1.mshr_entries as u64;
        for i in 0..entries {
            m.begin_load(0, 0, i, 1);
            assert_eq!(
                m.access_line(0, 0, i, i * 1000, false),
                AccessOutcome::Accepted
            );
        }
        m.begin_load(0, 0, 999, 1);
        assert_eq!(
            m.access_line(0, 0, 999, 777_000, false),
            AccessOutcome::Rejected
        );
        // Drain; retry succeeds eventually.
        let mut retried = false;
        for now in 1..20000 {
            m.tick(now);
            let _ = m.drain_completions(0).count();
            if !retried && m.access_line(now, 0, 999, 777_000, false) == AccessOutcome::Accepted {
                retried = true;
            }
        }
        assert!(retried, "rejected access never became acceptable");
    }

    #[test]
    fn stores_invalidate_l1_and_reach_dram() {
        let mut m = subsystem();
        // Warm the line.
        m.begin_load(0, 0, 1, 1);
        m.access_line(0, 0, 1, 42, false);
        let t1 = run_until_complete(&mut m, 0, 1, 5000);
        // Store to it: write-evict.
        assert_eq!(
            m.access_line(t1 + 1, 0, 2, 42, true),
            AccessOutcome::Accepted
        );
        // Next load misses L1 again (but may hit L2).
        m.begin_load(t1 + 2, 0, 3, 1);
        m.access_line(t1 + 2, 0, 3, 42, false);
        for now in t1 + 2..t1 + 3000 {
            m.tick(now);
            let _ = m.drain_completions(0).count();
        }
        let s = m.stats();
        assert_eq!(s.l1.misses, 2, "store evicted the line");
        assert_eq!(s.store_lines, 1);
        assert!(s.dram.accepted >= 2, "write-through reached DRAM");
    }

    #[test]
    fn contention_increases_latency() {
        // One isolated load vs. a load behind a burst of scattered traffic.
        let mut quiet = subsystem();
        quiet.begin_load(0, 0, 1, 1);
        quiet.access_line(0, 0, 1, 4096, false);
        let t_quiet = run_until_complete(&mut quiet, 0, 1, 5000);

        let mut busy = subsystem();
        // 24 lines from SM 1 first, all on the *same partition* as the
        // target (multiples of 6 with 6 partitions) and spread over rows so
        // they are row misses.
        for i in 1..=24u64 {
            busy.begin_load(0, 1, i, 1);
            busy.access_line(0, 1, i, i * 6 * 16, false);
        }
        busy.begin_load(0, 0, 100, 1);
        busy.access_line(0, 0, 100, 4096 * 6, false);
        let t_busy = run_until_complete(&mut busy, 0, 100, 50_000);
        assert!(
            t_busy > t_quiet,
            "contention should add latency: quiet={t_quiet} busy={t_busy}"
        );
    }

    #[test]
    fn traced_cold_load_emits_full_lifecycle_in_order() {
        use pro_trace::RingTracer;
        let mut m = subsystem();
        let mut t = RingTracer::new(64);
        m.begin_load(0, 0, 1, 1);
        assert_eq!(
            m.access_line_traced(0, 0, 1, 42, false, &mut t),
            AccessOutcome::Accepted
        );
        for now in 0..5000 {
            m.tick_traced(now, &mut t);
            let _ = m.drain_completions(0).count();
        }
        let kinds: Vec<&str> = t.records().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            vec!["L1Miss", "L2Miss", "DramSchedule", "LineFill", "LoadComplete"],
            "cold load lifecycle"
        );
        let req = pro_trace::req_id(0, 1);
        for r in t.records() {
            match r.event {
                TraceEvent::L1Miss { req: q, .. } | TraceEvent::LoadComplete { req: q, .. } => {
                    assert_eq!(q, req)
                }
                _ => {}
            }
        }
        // Latency in the event equals the stats aggregate.
        let s = m.stats();
        let TraceEvent::LoadComplete { latency, .. } = t.records().last().unwrap().event else {
            panic!("last event must be LoadComplete");
        };
        assert_eq!(latency, s.load_latency_sum);
        assert_eq!(s.load_lat_hist.total(), 1);
        assert_eq!(s.load_lat_hist.sum(), s.load_latency_sum);
    }

    #[test]
    fn avg_load_latency_is_tracked() {
        let mut m = subsystem();
        m.begin_load(0, 0, 1, 1);
        m.access_line(0, 0, 1, 42, false);
        let t = run_until_complete(&mut m, 0, 1, 5000);
        let s = m.stats();
        assert_eq!(s.loads_completed, 1);
        assert_eq!(s.load_latency_sum, t);
        assert!(s.avg_load_latency() > 100.0);
    }

    /// The slab free list bounds event-pool memory by the *live* event
    /// high-water mark, not by the total number of events ever scheduled
    /// — the unbounded-growth fix this PR exists for. A long kernel's
    /// worth of traffic must not grow the pool past the live peak.
    #[test]
    fn event_pool_is_bounded_by_live_events_not_total_scheduled() {
        let mut m = subsystem();
        let mut id = 0u64;
        for now in 0..60_000u64 {
            m.tick(now);
            let _ = m.drain_completions(0).count();
            let _ = m.drain_completions(1).count();
            // A fresh cold access every few cycles, alternating SMs and
            // never reusing a line, so each one walks the full
            // L1→L2→DRAM→fill event chain.
            if now % 3 == 0 {
                id += 1;
                let sm = (id % 2) as u32;
                m.begin_load(now, sm, id, 1);
                let _ = m.access_line(now, sm, id, id * 17, false);
            }
        }
        let pushed = m.queue_prof().ev_pushed;
        let (pool_slots, live_hwm) = event_pool_stats(&m);
        assert!(pushed > 20_000, "workload too small: {pushed} events");
        assert!(
            pool_slots <= live_hwm,
            "pool grew past the live high-water: {pool_slots} slots vs hwm {live_hwm}"
        );
        assert!(
            (pool_slots as u64) < pushed / 50,
            "pool ({pool_slots} slots) should be tiny next to total \
             scheduled events ({pushed})"
        );
    }
}
