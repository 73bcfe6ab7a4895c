//! Banked DRAM channel with First-Ready FCFS (FR-FCFS) scheduling — the DRAM
//! scheduler named in the paper's Table I.
//!
//! FR-FCFS serves, among requests whose bank is free, the oldest *row hit*
//! (the open-row buffer matches) first; if none hits, the oldest request
//! wins and pays precharge + activate. This creates the realistic latency
//! *variance* — burst row-hit streaks vs. expensive row switches — that
//! differentiates warp schedulers.

use pro_core::codec::{CodecError, Reader, Snapshot, Writer};
use pro_core::snapshot_struct;
use std::collections::VecDeque;

/// Arbitration policy for a DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramPolicy {
    /// First-Ready FCFS: oldest row-hit first, else oldest (the paper's
    /// Table I scheduler).
    FrFcfs,
    /// Plain FCFS: strictly oldest ready request (baseline for the DRAM
    /// ablation — loses the row-hit batching FR-FCFS exploits).
    Fcfs,
}

/// Timing and geometry for one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Arbitration policy.
    pub policy: DramPolicy,
    /// Banks per channel.
    pub banks: u32,
    /// Bytes per row (row-buffer size).
    pub row_bytes: u64,
    /// Cycles for a CAS (row already open).
    pub t_cas: u64,
    /// Cycles for precharge + activate (row switch), paid on top of CAS.
    pub t_rp_rcd: u64,
    /// Data-bus occupancy per transaction (limits channel bandwidth).
    pub t_burst: u64,
    /// Max queued requests per channel before back-pressure.
    pub queue_depth: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            policy: DramPolicy::FrFcfs,
            banks: 8,
            row_bytes: 2048,
            t_cas: 20,
            t_rp_rcd: 40,
            t_burst: 4,
            queue_depth: 32,
        }
    }
}

/// Counters for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Serviced requests that hit the open row.
    pub row_hits: u64,
    /// Serviced requests that required a row switch.
    pub row_misses: u64,
    /// Total requests accepted.
    pub accepted: u64,
    /// Sum of queueing+service latency over serviced requests.
    pub total_latency: u64,
}

impl DramStats {
    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let t = self.row_hits + self.row_misses;
        if t == 0 {
            0.0
        } else {
            self.row_hits as f64 / t as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Debug, Clone, Copy)]
struct Req<T: Copy> {
    line: u64,
    arrival: u64,
    tag: T,
}

/// One DRAM channel: request queue + banks + FR-FCFS arbiter.
#[derive(Debug)]
pub struct DramChannel<T: Copy> {
    cfg: DramConfig,
    banks: Vec<Bank>,
    queue: VecDeque<Req<T>>,
    bus_free_at: u64,
    /// No queued request can be served before this cycle, so a tick before
    /// it skips the scan. Derived: a scan that picks nothing sets it to the
    /// earliest cycle a queued request's arrival and bank allow, a push
    /// lowers it to the new request's, and a pick (which moves a bank's
    /// `busy_until`) resets it to 0. Not serialized; a restore starts at 0.
    wake: u64,
    /// Public counters.
    pub stats: DramStats,
}

impl<T: Copy> DramChannel<T> {
    /// Create an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        DramChannel {
            banks: (0..cfg.banks)
                .map(|_| Bank {
                    open_row: None,
                    busy_until: 0,
                })
                .collect(),
            queue: VecDeque::new(),
            bus_free_at: 0,
            wake: 0,
            cfg,
            stats: DramStats::default(),
        }
    }

    /// Bank and row for a line address. Consecutive lines interleave across
    /// banks so streaming accesses use all banks.
    fn map(&self, line: u64) -> (usize, u64) {
        let lines_per_row = self.cfg.row_bytes / crate::LINE_BYTES;
        let bank = (line / lines_per_row) % self.cfg.banks as u64;
        let row = line / (lines_per_row * self.cfg.banks as u64);
        (bank as usize, row)
    }

    /// True if the channel can accept another request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_depth
    }

    /// The earliest cycle `req` could be picked: it has arrived and its
    /// bank is free.
    fn ready_at(&self, req: &Req<T>) -> u64 {
        req.arrival.max(self.banks[self.map(req.line).0].busy_until)
    }

    /// Enqueue a request. Caller must have checked [`Self::can_accept`].
    pub fn push(&mut self, now: u64, line: u64, tag: T) {
        debug_assert!(self.can_accept());
        let req = Req { line, arrival: now, tag };
        self.wake = self.wake.min(self.ready_at(&req));
        self.stats.accepted += 1;
        self.queue.push_back(req);
    }

    /// Queue occupancy (for stats / tests).
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The tag of every queued request.
    pub(crate) fn tags(&self) -> impl Iterator<Item = &T> {
        self.queue.iter().map(|req| &req.tag)
    }

    /// Advance one cycle: possibly start servicing one request. Returns
    /// `Some((completion_time, line, tag))` for the request that was
    /// scheduled this cycle, if any.
    pub fn tick(&mut self, now: u64) -> Option<(u64, u64, T)> {
        if self.queue.is_empty() || now < self.bus_free_at || now < self.wake {
            return None;
        }
        // FR-FCFS: oldest row-hit whose bank is free; else oldest whose bank
        // is free. FCFS: strictly the oldest ready request. Requests with a
        // future arrival time (still in flight to the channel) are not yet
        // visible.
        let mut chosen: Option<usize> = None;
        for (i, r) in self.queue.iter().enumerate() {
            if r.arrival > now {
                continue;
            }
            let (b, row) = self.map(r.line);
            let bank = &self.banks[b];
            if bank.busy_until > now {
                continue;
            }
            match self.cfg.policy {
                DramPolicy::Fcfs => {
                    chosen = Some(i);
                    break;
                }
                DramPolicy::FrFcfs => {
                    if bank.open_row == Some(row) {
                        chosen = Some(i);
                        break; // oldest row hit
                    }
                    if chosen.is_none() {
                        chosen = Some(i); // oldest ready request as fallback
                    }
                }
            }
        }
        let Some(i) = chosen else {
            // Every scan finds this until a queued request arrives or its
            // bank frees, or a push (which lowers `wake` itself).
            self.wake = self.queue.iter().map(|r| self.ready_at(r)).min().unwrap_or(0);
            return None;
        };
        self.wake = 0;
        let req = self.queue.remove(i).expect("index valid");
        let (b, row) = self.map(req.line);
        let hit = self.banks[b].open_row == Some(row);
        let service = if hit {
            self.stats.row_hits += 1;
            self.cfg.t_cas
        } else {
            self.stats.row_misses += 1;
            self.cfg.t_cas + self.cfg.t_rp_rcd
        };
        let done = now + service;
        self.banks[b].open_row = Some(row);
        self.banks[b].busy_until = done;
        self.bus_free_at = now + self.cfg.t_burst;
        self.stats.total_latency += done - req.arrival;
        Some((done, req.line, req.tag))
    }
}

snapshot_struct! {
    DramStats {
        row_hits,
        row_misses,
        accepted,
        total_latency,
    }
}

snapshot_struct! {
    Bank {
        open_row,
        busy_until,
    }
}

snapshot_struct! {
    [T: Copy + Snapshot] Req<T> {
        line,
        arrival,
        tag,
    }
}

// By hand, like `Cache`'s: the banks and the timing are the machine's, and
// a channel is restored in place.
impl<T: Copy + Snapshot> DramChannel<T> {
    /// Serialize the channel's state — each bank's open row and busy
    /// cycle, the request queue, the bus and the counters — but not its
    /// geometry or timing.
    pub fn save_state(&self, w: &mut Writer) {
        for bank in &self.banks {
            bank.save(w);
        }
        self.queue.save(w);
        w.put_u64(self.bus_free_at);
        self.stats.save(w);
    }

    /// Restore state written by [`DramChannel::save_state`] into this
    /// channel, which has the writer's geometry. `wake` is derived and
    /// starts at 0, so the first tick scans.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        for bank in &mut self.banks {
            *bank = Bank::load(r)?;
        }
        self.queue = Snapshot::load(r)?;
        self.bus_free_at = r.get_u64()?;
        self.stats = Snapshot::load(r)?;
        self.wake = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel<u32> {
        DramChannel::new(DramConfig::default())
    }

    #[test]
    fn fcfs_ignores_row_hits() {
        let mut c: DramChannel<u32> = DramChannel::new(DramConfig {
            policy: DramPolicy::Fcfs,
            ..DramConfig::default()
        });
        let lines_per_row = 2048 / 128;
        let banks = 8u64;
        c.push(0, 0, 0);
        let (done, ..) = c.tick(0).unwrap();
        // Queue: older row-miss (bank 0, row 1) then a row hit (bank 0 row 0).
        let other_row = lines_per_row * banks;
        c.push(1, other_row, 1);
        c.push(2, 1, 2);
        let (_, _, tag) = c.tick(done).unwrap();
        assert_eq!(tag, 1, "FCFS serves the older miss first");
    }

    #[test]
    fn frfcfs_gets_more_row_hits_than_fcfs() {
        // Interleaved requests to two rows of the same bank: FR-FCFS batches
        // per row, FCFS ping-pongs.
        let run = |policy: DramPolicy| {
            let mut c: DramChannel<u32> = DramChannel::new(DramConfig {
                policy,
                ..DramConfig::default()
            });
            let lines_per_row = 16u64;
            let row_stride = lines_per_row * 8; // same bank, next row
            for i in 0..8u64 {
                c.push(0, (i % 2) * row_stride + i / 2, i as u32);
            }
            let mut served = 0;
            let mut now = 0;
            while served < 8 {
                if c.tick(now).is_some() {
                    served += 1;
                }
                now += 1;
                assert!(now < 10_000);
            }
            c.stats.row_hits
        };
        let fr = run(DramPolicy::FrFcfs);
        let fc = run(DramPolicy::Fcfs);
        assert!(fr > fc, "FR-FCFS row hits {fr} vs FCFS {fc}");
    }

    #[test]
    fn empty_channel_is_idle() {
        let mut c = chan();
        assert_eq!(c.tick(0), None);
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut c = chan();
        c.push(0, 0, 7);
        let (done, line, tag) = c.tick(0).unwrap();
        assert_eq!(line, 0);
        assert_eq!(tag, 7);
        assert_eq!(done, 60); // t_cas + t_rp_rcd
        assert_eq!(c.stats.row_misses, 1);
    }

    #[test]
    fn same_row_second_access_is_a_hit() {
        let mut c = chan();
        c.push(0, 0, 0);
        c.push(0, 1, 1); // same row (rows hold 16 lines)
        let (d0, ..) = c.tick(0).unwrap();
        assert_eq!(d0, 60);
        // Bus is busy for t_burst, bank busy until 60.
        assert_eq!(c.tick(1), None); // bus busy
        assert_eq!(c.tick(4), None); // bus ok at t=4 but bank busy until 60
        let (d1, line, _) = c.tick(60).unwrap();
        assert_eq!(line, 1);
        assert_eq!(d1, 80); // row hit: t_cas only
        assert_eq!(c.stats.row_hits, 1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_row_miss() {
        let mut c = chan();
        let lines_per_row = 2048 / 128; // 16
        let banks = 8u64;
        // Open a row in bank 0.
        c.push(0, 0, 0);
        let (done, ..) = c.tick(0).unwrap();
        // Now queue: first an access to bank 0 *different* row, then a
        // row-hit access to bank 0.
        let other_row = lines_per_row * banks; // bank 0, row 1
        c.push(1, other_row, 1);
        c.push(2, 1, 2); // bank 0, row 0 → row hit
        let (_, line, tag) = c.tick(done).unwrap();
        assert_eq!((line, tag), (1, 2), "row hit scheduled before older miss");
    }

    #[test]
    fn different_banks_service_in_parallel() {
        let mut c = chan();
        let lines_per_row = 16u64;
        c.push(0, 0, 0); // bank 0
        c.push(0, lines_per_row, 1); // bank 1
        let (d0, ..) = c.tick(0).unwrap();
        // Bank 1 can start as soon as the bus frees (t_burst=4), long before
        // bank 0's request completes.
        let (d1, _, tag) = c.tick(4).unwrap();
        assert_eq!(tag, 1);
        assert!(d1 < d0 + 60, "bank-parallel service overlaps");
    }

    #[test]
    fn queue_depth_back_pressure() {
        let mut c = chan();
        for i in 0..32 {
            assert!(c.can_accept());
            c.push(0, i, i as u32);
        }
        assert!(!c.can_accept());
    }

    #[test]
    fn bank_mapping_interleaves_rows() {
        let c = chan();
        let (b0, r0) = c.map(0);
        let (b1, _) = c.map(16); // next row-worth of lines → next bank
        assert_eq!(b0, 0);
        assert_eq!(r0, 0);
        assert_eq!(b1, 1);
        let (b_wrap, r_wrap) = c.map(16 * 8);
        assert_eq!(b_wrap, 0);
        assert_eq!(r_wrap, 1);
    }

    /// The wake cycle skips only scans that would pick nothing: a channel
    /// that forgets it before every tick, and so scans whenever the bus is
    /// free, serves the same requests at the same cycles under both
    /// policies.
    #[test]
    fn skipped_scans_are_scans_that_pick_nothing() {
        use pro_core::prop::{any, check, from_fn, vec_of, Config, Gen};
        use pro_core::prop_assert_eq;
        let skipped = std::cell::Cell::new(0u64);
        // Per cycle, maybe one request: (arrival delay, line) over 4 rows
        // of every bank.
        let step = from_fn(|g: &mut Gen| {
            g.gen_bool(0.4).then(|| (g.gen_range(0..80u64), g.gen_range(0..512u64)))
        });
        check(Config::with_cases(300), (vec_of(step, 1..200), any::<bool>()), |(steps, fcfs)| {
            let policy = if *fcfs { DramPolicy::Fcfs } else { DramPolicy::FrFcfs };
            let cfg = DramConfig { policy, ..DramConfig::default() };
            let (mut fast, mut slow) = (DramChannel::<u32>::new(cfg), DramChannel::<u32>::new(cfg));
            // Long enough to drain a full queue of row misses.
            let drain = std::iter::repeat_n(&None, 3000);
            for (now, step) in steps.iter().chain(drain).enumerate() {
                let now = now as u64;
                if let (Some((delay, line)), true) = (*step, fast.can_accept()) {
                    fast.push(now + delay, line, now as u32);
                    slow.push(now + delay, line, now as u32);
                }
                skipped.set(skipped.get() + u64::from(now < fast.wake));
                slow.wake = 0;
                prop_assert_eq!(fast.tick(now), slow.tick(now), "cycle {}", now);
            }
            prop_assert_eq!(fast.stats, slow.stats);
            prop_assert_eq!(fast.queue_len(), 0, "drained");
            Ok(())
        });
        assert!(skipped.get() > 0, "the wake cycle never skipped a scan");
    }

    #[test]
    fn row_hit_rate_stat() {
        let mut c = chan();
        c.push(0, 0, 0);
        let (done, ..) = c.tick(0).unwrap();
        c.push(done, 1, 1);
        c.tick(done).unwrap();
        assert!((c.stats.row_hit_rate() - 0.5).abs() < 1e-9);
    }
}
