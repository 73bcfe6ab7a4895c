//! The typed event schema of the simulator's observability bus.
//!
//! Every event is a small `Copy` value — no strings, no heap — so emitting
//! one costs a enum construction plus whatever the active [`crate::Tracer`]
//! does with it. Identifiers are numeric: SMs and scheduler units by index,
//! warps by their SM-local slot, TBs by both SM slot and grid-global index,
//! and memory requests by a [`ReqId`] that is unique for the lifetime of a
//! kernel launch, which is what makes end-to-end load latency measurable
//! from the trace alone.

/// Globally unique id for one warp memory access in flight: the SM id in
/// the high bits, the SM-local access id in the low 40.
pub type ReqId = u64;

/// Compose a [`ReqId`] from an SM id and its SM-local access id.
#[inline]
pub fn req_id(sm: u32, access: u64) -> ReqId {
    ((sm as u64) << 40) | access
}

/// The paper's §II.B stall taxonomy (GPGPU-Sim's issue-stage classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// No warp had a valid fetched instruction (barrier, empty i-buffer,
    /// no warps resident).
    Idle,
    /// Valid instruction(s) existed but every one had a pending operand.
    Scoreboard,
    /// An instruction was ready but its target pipeline was occupied.
    Pipeline,
}

impl StallReason {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Idle => "idle",
            StallReason::Scoreboard => "scoreboard",
            StallReason::Pipeline => "pipeline",
        }
    }
}

/// Coarse event families, used by [`crate::Tracer::wants`] so hot paths can
/// skip constructing events nobody subscribed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// TB launch/completion (a handful per kernel per SM).
    Tb,
    /// Warp instruction issue (≈ one per SM-cycle under load).
    Issue,
    /// Per-unit and per-warp stall attribution (several per stalled cycle).
    Stall,
    /// Barrier arrive/release.
    Barrier,
    /// Scoreboard reserve/release.
    Scoreboard,
    /// SIMT divergence and reconvergence.
    Simt,
    /// Memory-request lifecycle (coalesce → caches → DRAM → completion).
    Mem,
}

/// A set of [`EventClass`]es as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSet(pub u16);

impl ClassSet {
    /// The empty set.
    pub const NONE: ClassSet = ClassSet(0);
    /// Every class.
    pub const ALL: ClassSet = ClassSet(0x7f);

    /// Set containing exactly `classes`.
    pub fn of(classes: &[EventClass]) -> ClassSet {
        let mut m = 0u16;
        for &c in classes {
            m |= 1 << c as u16;
        }
        ClassSet(m)
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, c: EventClass) -> bool {
        self.0 & (1 << c as u16) != 0
    }
}

/// One simulator occurrence. The cycle is carried alongside (see
/// [`crate::Record`]), not inside the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    // ---- SM scheduler ----
    /// A scheduler unit issued one warp instruction.
    ///
    /// The four small fields are `u16` (an SM holds at most 64 warp slots
    /// and a warp 32 lanes), which keeps [`Event`] at 24 bytes.
    WarpIssue {
        /// SM id.
        sm: u32,
        /// Scheduler unit within the SM.
        unit: u16,
        /// Warp slot within the SM.
        warp: u16,
        /// TB slot the warp belongs to.
        tb_slot: u16,
        /// Program counter of the issued instruction.
        pc: u32,
        /// Active lanes (thread instructions retired by this issue).
        active: u16,
    },
    /// A scheduler unit issued nothing this cycle; `reason` is the §II.B
    /// classification (mirrors the `SmStats` stall counters one-for-one).
    UnitStall {
        /// SM id.
        sm: u32,
        /// Scheduler unit within the SM.
        unit: u32,
        /// Why the cycle was lost.
        reason: StallReason,
    },
    /// Per-warp attribution on a stalled unit-cycle: why this particular
    /// candidate warp could not issue.
    WarpStall {
        /// SM id.
        sm: u32,
        /// Warp slot within the SM.
        warp: u32,
        /// The first reason that blocked this warp.
        reason: StallReason,
    },
    // ---- scoreboard ----
    /// A destination register set was reserved at issue.
    ScoreboardSet {
        /// SM id.
        sm: u32,
        /// Warp slot.
        warp: u32,
        /// True for long-latency (global load) reservations.
        longlat: bool,
    },
    /// A writeback released a warp's pending register set.
    ScoreboardClear {
        /// SM id.
        sm: u32,
        /// Warp slot.
        warp: u32,
    },
    // ---- synchronization ----
    /// A warp arrived at a barrier.
    BarrierArrive {
        /// SM id.
        sm: u32,
        /// TB slot.
        tb_slot: u32,
        /// Warp slot.
        warp: u32,
    },
    /// All live warps of a TB arrived; the barrier opened.
    BarrierRelease {
        /// SM id.
        sm: u32,
        /// TB slot.
        tb_slot: u32,
    },
    // ---- SIMT ----
    /// A branch split the warp (SIMT stack grew).
    SimtDiverge {
        /// SM id.
        sm: u32,
        /// Warp slot.
        warp: u32,
        /// PC of the diverging branch.
        pc: u32,
    },
    /// Paths merged at a reconvergence point (SIMT stack shrank).
    SimtReconverge {
        /// SM id.
        sm: u32,
        /// Warp slot.
        warp: u32,
        /// PC at which the paths merged.
        pc: u32,
    },
    // ---- thread blocks ----
    /// A TB became resident on an SM.
    TbLaunch {
        /// SM id.
        sm: u32,
        /// TB slot on the SM.
        tb_slot: u32,
        /// Grid-global TB index.
        global_index: u32,
    },
    /// A TB's last warp exited; the slot was freed.
    TbComplete {
        /// SM id.
        sm: u32,
        /// TB slot on the SM.
        tb_slot: u32,
        /// Grid-global TB index.
        global_index: u32,
    },
    // ---- memory-request lifecycle ----
    /// A warp memory instruction was coalesced into line transactions.
    Coalesce {
        /// SM id.
        sm: u32,
        /// Warp slot.
        warp: u32,
        /// Request id (loads only carry a live id; stores use the id of the
        /// event for correlation but are fire-and-forget).
        req: ReqId,
        /// Number of 128 B line transactions produced.
        lines: u32,
        /// True for stores.
        store: bool,
    },
    /// L1 lookup hit.
    L1Hit {
        /// SM id.
        sm: u32,
        /// Request id.
        req: ReqId,
        /// Line address.
        line: u64,
    },
    /// L1 miss; an MSHR was allocated and the line went to L2.
    L1Miss {
        /// SM id.
        sm: u32,
        /// Request id.
        req: ReqId,
        /// Line address.
        line: u64,
    },
    /// L1 miss merged into an in-flight MSHR entry.
    MshrMerge {
        /// SM id.
        sm: u32,
        /// Request id.
        req: ReqId,
        /// Line address.
        line: u64,
    },
    /// L1 rejected the transaction (MSHRs full); the LSU retries.
    MshrReject {
        /// SM id.
        sm: u32,
        /// Request id.
        req: ReqId,
        /// Line address.
        line: u64,
    },
    /// A store line transaction entered the hierarchy (write-through).
    StoreLine {
        /// SM id.
        sm: u32,
        /// Line address.
        line: u64,
    },
    /// L2 slice lookup hit.
    L2Hit {
        /// Memory partition (slice index).
        part: u32,
        /// Line address.
        line: u64,
    },
    /// L2 slice miss forwarded to DRAM.
    L2Miss {
        /// Memory partition.
        part: u32,
        /// Line address.
        line: u64,
    },
    /// L2 miss merged into the slice's MSHR.
    L2Merge {
        /// Memory partition.
        part: u32,
        /// Line address.
        line: u64,
    },
    /// The DRAM channel scheduled a request (FR-FCFS pick).
    DramSchedule {
        /// Memory partition.
        part: u32,
        /// Line address.
        line: u64,
        /// Whether the open row buffer matched.
        row_hit: bool,
        /// Cycle the data will be ready.
        done: u64,
    },
    /// A fetched line arrived back at an SM's L1 (fill).
    LineFill {
        /// SM id.
        sm: u32,
        /// Line address.
        line: u64,
    },
    /// Every line of a load access completed; the scoreboard clears next.
    LoadComplete {
        /// SM id.
        sm: u32,
        /// Request id.
        req: ReqId,
        /// End-to-end latency in cycles (begin_load → last line).
        latency: u64,
    },
}

impl Event {
    /// The event's coarse family.
    pub fn class(&self) -> EventClass {
        match self {
            Event::WarpIssue { .. } => EventClass::Issue,
            Event::UnitStall { .. } | Event::WarpStall { .. } => EventClass::Stall,
            Event::ScoreboardSet { .. } | Event::ScoreboardClear { .. } => EventClass::Scoreboard,
            Event::BarrierArrive { .. } | Event::BarrierRelease { .. } => EventClass::Barrier,
            Event::SimtDiverge { .. } | Event::SimtReconverge { .. } => EventClass::Simt,
            Event::TbLaunch { .. } | Event::TbComplete { .. } => EventClass::Tb,
            Event::Coalesce { .. }
            | Event::L1Hit { .. }
            | Event::L1Miss { .. }
            | Event::MshrMerge { .. }
            | Event::MshrReject { .. }
            | Event::StoreLine { .. }
            | Event::L2Hit { .. }
            | Event::L2Miss { .. }
            | Event::L2Merge { .. }
            | Event::DramSchedule { .. }
            | Event::LineFill { .. }
            | Event::LoadComplete { .. } => EventClass::Mem,
        }
    }

    /// Stable kind tag used by the JSONL format.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::WarpIssue { .. } => "WarpIssue",
            Event::UnitStall { .. } => "UnitStall",
            Event::WarpStall { .. } => "WarpStall",
            Event::ScoreboardSet { .. } => "ScoreboardSet",
            Event::ScoreboardClear { .. } => "ScoreboardClear",
            Event::BarrierArrive { .. } => "BarrierArrive",
            Event::BarrierRelease { .. } => "BarrierRelease",
            Event::SimtDiverge { .. } => "SimtDiverge",
            Event::SimtReconverge { .. } => "SimtReconverge",
            Event::TbLaunch { .. } => "TbLaunch",
            Event::TbComplete { .. } => "TbComplete",
            Event::Coalesce { .. } => "Coalesce",
            Event::L1Hit { .. } => "L1Hit",
            Event::L1Miss { .. } => "L1Miss",
            Event::MshrMerge { .. } => "MshrMerge",
            Event::MshrReject { .. } => "MshrReject",
            Event::StoreLine { .. } => "StoreLine",
            Event::L2Hit { .. } => "L2Hit",
            Event::L2Miss { .. } => "L2Miss",
            Event::L2Merge { .. } => "L2Merge",
            Event::DramSchedule { .. } => "DramSchedule",
            Event::LineFill { .. } => "LineFill",
            Event::LoadComplete { .. } => "LoadComplete",
        }
    }
}

/// One timestamped event as stored by in-memory tracers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Global GPU cycle of the event.
    pub cycle: u64,
    /// The event itself.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_set_membership() {
        let s = ClassSet::of(&[EventClass::Mem, EventClass::Tb]);
        assert!(s.contains(EventClass::Mem));
        assert!(s.contains(EventClass::Tb));
        assert!(!s.contains(EventClass::Stall));
        assert!(ClassSet::ALL.contains(EventClass::Simt));
        assert!(!ClassSet::NONE.contains(EventClass::Issue));
    }

    #[test]
    fn kinds_and_classes_are_consistent() {
        let ev = Event::L1Miss { sm: 0, req: 1, line: 2 };
        assert_eq!(ev.kind(), "L1Miss");
        assert_eq!(ev.class(), EventClass::Mem);
        let ev = Event::UnitStall { sm: 0, unit: 1, reason: StallReason::Idle };
        assert_eq!(ev.class(), EventClass::Stall);
        assert_eq!(StallReason::Scoreboard.name(), "scoreboard");
    }

    /// Every emission site builds an `Event` and every `RingTracer::records`
    /// consumer receives a `Record` by value.
    #[test]
    fn an_event_is_24_bytes_and_a_record_32() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    fn req_id_partitions_by_sm() {
        assert_ne!(req_id(0, 7), req_id(1, 7));
        assert_eq!(req_id(3, 9) & 0xff_ffff_ffff, 9);
        assert_eq!(req_id(3, 9) >> 40, 3);
    }
}
