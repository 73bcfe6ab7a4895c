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
    pub(crate) fn name(self) -> &'static str {
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
    pub(crate) fn contains(self, c: EventClass) -> bool {
        self.0 & (1 << c as u16) != 0
    }
}

/// The event schema, declared once: `with_events!(generator)` hands this
/// table to `generator`, which derives one format from it. [`Event`] and
/// its [`Event::class`] / [`Event::kind`] come from `define_event` below;
/// the ring's record codec and [`crate::write_event_jsonl`] from
/// `ring_codec` and `jsonl_encoder` in [`crate::tracer`].
///
/// One row per variant: its ring tag, its [`EventClass`], its doc comment,
/// its name (which is also its JSONL `"ev"` kind) and its fields in wire
/// order, each with the key it carries in a JSONL line. A tag or key, once
/// written to a trace, does not change. A generator's module must have the
/// field types ([`ReqId`], [`StallReason`]) in scope.
macro_rules! with_events {
    ($generator:ident) => {
        $generator! {
            // ---- SM scheduler ----
            /// A scheduler unit issued one warp instruction.
            ///
            /// The four small fields are `u16` (an SM holds at most 64 warp slots
            /// and a warp 32 lanes), which keeps [`Event`] at 24 bytes.
            0 Issue WarpIssue {
                /// SM id.
                sm: u32 => "sm",
                /// Scheduler unit within the SM.
                unit: u16 => "unit",
                /// Warp slot within the SM.
                warp: u16 => "warp",
                /// TB slot the warp belongs to.
                tb_slot: u16 => "tb",
                /// Program counter of the issued instruction.
                pc: u32 => "pc",
                /// Active lanes (thread instructions retired by this issue).
                active: u16 => "active",
            }
            /// A scheduler unit issued nothing this cycle; `reason` is the §II.B
            /// classification (mirrors the `SmStats` stall counters one-for-one).
            1 Stall UnitStall {
                /// SM id.
                sm: u32 => "sm",
                /// Scheduler unit within the SM.
                unit: u32 => "unit",
                /// Why the cycle was lost.
                reason: StallReason => "reason",
            }
            /// Per-warp attribution on a stalled unit-cycle: why this particular
            /// candidate warp could not issue.
            2 Stall WarpStall {
                /// SM id.
                sm: u32 => "sm",
                /// Warp slot within the SM.
                warp: u32 => "warp",
                /// The first reason that blocked this warp.
                reason: StallReason => "reason",
            }
            // ---- scoreboard ----
            /// A destination register set was reserved at issue.
            3 Scoreboard ScoreboardSet {
                /// SM id.
                sm: u32 => "sm",
                /// Warp slot.
                warp: u32 => "warp",
                /// True for long-latency (global load) reservations.
                longlat: bool => "longlat",
            }
            /// A writeback released a warp's pending register set.
            4 Scoreboard ScoreboardClear {
                /// SM id.
                sm: u32 => "sm",
                /// Warp slot.
                warp: u32 => "warp",
            }
            // ---- synchronization ----
            /// A warp arrived at a barrier.
            5 Barrier BarrierArrive {
                /// SM id.
                sm: u32 => "sm",
                /// TB slot.
                tb_slot: u32 => "tb",
                /// Warp slot.
                warp: u32 => "warp",
            }
            /// All live warps of a TB arrived; the barrier opened.
            6 Barrier BarrierRelease {
                /// SM id.
                sm: u32 => "sm",
                /// TB slot.
                tb_slot: u32 => "tb",
            }
            // ---- SIMT ----
            /// A branch split the warp (SIMT stack grew).
            7 Simt SimtDiverge {
                /// SM id.
                sm: u32 => "sm",
                /// Warp slot.
                warp: u32 => "warp",
                /// PC of the diverging branch.
                pc: u32 => "pc",
            }
            /// Paths merged at a reconvergence point (SIMT stack shrank).
            8 Simt SimtReconverge {
                /// SM id.
                sm: u32 => "sm",
                /// Warp slot.
                warp: u32 => "warp",
                /// PC at which the paths merged.
                pc: u32 => "pc",
            }
            // ---- thread blocks ----
            /// A TB became resident on an SM.
            9 Tb TbLaunch {
                /// SM id.
                sm: u32 => "sm",
                /// TB slot on the SM.
                tb_slot: u32 => "tb",
                /// Grid-global TB index.
                global_index: u32 => "g",
            }
            /// A TB's last warp exited; the slot was freed.
            10 Tb TbComplete {
                /// SM id.
                sm: u32 => "sm",
                /// TB slot on the SM.
                tb_slot: u32 => "tb",
                /// Grid-global TB index.
                global_index: u32 => "g",
            }
            // ---- memory-request lifecycle ----
            /// A warp memory instruction was coalesced into line transactions.
            11 Mem Coalesce {
                /// SM id.
                sm: u32 => "sm",
                /// Warp slot.
                warp: u32 => "warp",
                /// Request id (loads only carry a live id; stores use the id of the
                /// event for correlation but are fire-and-forget).
                req: ReqId => "req",
                /// Number of 128 B line transactions produced.
                lines: u32 => "lines",
                /// True for stores.
                store: bool => "store",
            }
            /// L1 lookup hit.
            12 Mem L1Hit {
                /// SM id.
                sm: u32 => "sm",
                /// Request id.
                req: ReqId => "req",
                /// Line address.
                line: u64 => "line",
            }
            /// L1 miss; an MSHR was allocated and the line went to L2.
            13 Mem L1Miss {
                /// SM id.
                sm: u32 => "sm",
                /// Request id.
                req: ReqId => "req",
                /// Line address.
                line: u64 => "line",
            }
            /// L1 miss merged into an in-flight MSHR entry.
            14 Mem MshrMerge {
                /// SM id.
                sm: u32 => "sm",
                /// Request id.
                req: ReqId => "req",
                /// Line address.
                line: u64 => "line",
            }
            /// L1 rejected the transaction (MSHRs full); the LSU retries.
            15 Mem MshrReject {
                /// SM id.
                sm: u32 => "sm",
                /// Request id.
                req: ReqId => "req",
                /// Line address.
                line: u64 => "line",
            }
            /// A store line transaction entered the hierarchy (write-through).
            16 Mem StoreLine {
                /// SM id.
                sm: u32 => "sm",
                /// Line address.
                line: u64 => "line",
            }
            /// L2 slice lookup hit.
            17 Mem L2Hit {
                /// Memory partition (slice index).
                part: u32 => "part",
                /// Line address.
                line: u64 => "line",
            }
            /// L2 slice miss forwarded to DRAM.
            18 Mem L2Miss {
                /// Memory partition.
                part: u32 => "part",
                /// Line address.
                line: u64 => "line",
            }
            /// L2 miss merged into the slice's MSHR.
            19 Mem L2Merge {
                /// Memory partition.
                part: u32 => "part",
                /// Line address.
                line: u64 => "line",
            }
            /// The DRAM channel scheduled a request (FR-FCFS pick).
            20 Mem DramSchedule {
                /// Memory partition.
                part: u32 => "part",
                /// Line address.
                line: u64 => "line",
                /// Whether the open row buffer matched.
                row_hit: bool => "row_hit",
                /// Cycle the data will be ready.
                done: u64 => "done",
            }
            /// A fetched line arrived back at an SM's L1 (fill).
            21 Mem LineFill {
                /// SM id.
                sm: u32 => "sm",
                /// Line address.
                line: u64 => "line",
            }
            /// Every line of a load access completed; the scoreboard clears next.
            22 Mem LoadComplete {
                /// SM id.
                sm: u32 => "sm",
                /// Request id.
                req: ReqId => "req",
                /// End-to-end latency in cycles (begin_load → last line).
                latency: u64 => "latency",
            }
        }
    };
}
pub(crate) use with_events;

/// Declares [`Event`], [`Event::class`] and [`Event::kind`] from the rows of
/// [`with_events`].
macro_rules! define_event {
    ($($(#[$doc:meta])* $tag:literal $class:ident $variant:ident {
        $($(#[$field_doc:meta])* $field:ident: $ty:ty => $key:literal,)*
    })*) => {
        /// One simulator occurrence. The cycle is carried alongside (see
        /// [`crate::Record`]), not inside the event.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl Event {
            /// The event's coarse family.
            pub fn class(&self) -> EventClass {
                match self {
                    $(Event::$variant { .. } => EventClass::$class,)*
                }
            }

            /// Stable kind tag used by the JSONL format.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => stringify!($variant),)*
                }
            }
        }
    };
}

with_events!(define_event);

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
