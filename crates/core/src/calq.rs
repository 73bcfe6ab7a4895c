//! Bucketed calendar event queue with a slab-recycled node pool — the
//! simulation hot path's replacement for `BinaryHeap` + append-only pools.
//!
//! # Why
//!
//! The cycle engine's two event queues (the memory subsystem's timing
//! events and each SM's writeback events) share one access profile:
//! events are pushed for the *near future* (`now + latency`, with every
//! latency a small config constant), popped strictly in `(time, seq)`
//! order, and `now` advances monotonically one cycle at a time. A binary
//! heap pays `O(log n)` per operation and its side pool (`Vec<T>` indexed
//! by heap payload) grows forever because popped slots are never reused.
//!
//! [`CalQueue`] is a calendar queue (timing wheel) specialized for that
//! profile:
//!
//! * **O(1) amortized push/pop.** The wheel has one bucket per future
//!   cycle; a push appends to the intrusive FIFO list of bucket
//!   `time % N`, a pop takes the head of the current cycle's bucket.
//! * **Exact `(time, seq)` total order.** Within the wheel's horizon each
//!   bucket holds events of exactly one timestamp (the horizon check on
//!   push guarantees it), so bucket FIFO order *is* sequence order — the
//!   pop order is bit-identical to the heap it replaces, which is what
//!   keeps every determinism and checkpoint byte-compare gate green.
//! * **Overflow tier.** Events beyond the horizon (`time > dp + N - 1`)
//!   wait in a small `(time, seq)`-ordered heap and migrate into the
//!   wheel exactly when the advancing front brings their cycle within
//!   the horizon — always *before* any same-cycle direct push can land
//!   (a direct push for time `t` requires `t ≤ dp + N - 1`, by which
//!   point the overflow entries for `t` have already migrated), so
//!   sequence order survives the tier boundary.
//! * **Resize on overflow high water.** If the overflow tier keeps
//!   filling (a configuration whose latencies exceed the horizon), the
//!   wheel doubles until it covers the farthest pending event (capped at
//!   [`MAX_BUCKETS`]). Bucket count is driven by the *latency horizon*,
//!   not event count: with one bucket per cycle and the single-timestamp
//!   invariant, per-bucket chains never need scanning, so queue *depth*
//!   (the `host/mem.evq.depth` distribution that motivated this design —
//!   p99 ≈ 512 live events at shootout scale) costs nothing. Depth is
//!   absorbed by the slab instead, which grows to the live high-water
//!   mark once and then recycles.
//! * **Slab + intrusive free list.** Every event lives in one slab node;
//!   bucket lists and the free list both thread through the node's
//!   `next` field. A popped slot is reusable the same cycle, so slab
//!   size is bounded by the *live* high-water mark, not by the total
//!   number of events ever scheduled ([`CalQueue::pool_slots`] ≤
//!   [`CalQueue::live_hwm`] is a structural invariant, pinned by tests).
//!   Steady-state push/pop touches no allocator.
//!
//! # Contract
//!
//! * `pop_due(now)` must be called with non-decreasing `now`; it returns
//!   due events (`time ≤ now`) one at a time in `(time, seq)` order.
//! * `push(time, payload)` requires `time ≥ dp`, where `dp` (the
//!   delivery front) never exceeds `last now + 1`. The cycle engine
//!   schedules at `now + latency` with positive latencies, so this holds
//!   structurally; a degenerate zero-latency config is clamped to `dp`
//!   (delivered at the next `pop_due`, exactly when the heap would have
//!   delivered it).
//! * [`CalQueue::insert`] restores explicit `(time, seq)` pairs from a
//!   snapshot written in ascending order; [`CalQueue::save_snapshot`] /
//!   [`CalQueue::restore_snapshot`] round-trip the queue in the same
//!   byte layout the pre-calendar (heap) code wrote, so checkpoint files
//!   stay byte-identical.

use crate::codec::{CodecError, Reader, Snapshot, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no node" in bucket lists and the free list.
const NIL: u32 = u32::MAX;

/// Default wheel size. The horizon must cover the common scheduling
/// latencies (interconnect + L2 + DRAM service ≈ 60–100 cycles for the
/// GTX480 tables; SM writeback latencies ≤ ~32), with headroom for
/// config sweeps. 128 one-cycle buckets = 1 KiB of bucket headers.
pub const DEFAULT_BUCKETS: usize = 128;

/// Wheel growth cap: 16 Ki buckets (128 KiB of headers). Events farther
/// out than this stay in the overflow tier permanently, which is still
/// correct — just `O(log overflow)` for those events alone.
pub const MAX_BUCKETS: usize = 1 << 14;

/// Overflow occupancy that triggers a wheel resize on the next push.
const OVERFLOW_HIGH_WATER: usize = 32;

#[derive(Debug, Clone)]
struct Node<T> {
    time: u64,
    seq: u64,
    /// Next node in this bucket's FIFO, or next free slot when on the
    /// free list (`payload` is `None` exactly when free).
    next: u32,
    payload: Option<T>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };
}

/// A bucketed calendar queue over `(time, seq)` keys. See the module
/// docs for the design and ordering invariants.
#[derive(Clone)]
pub struct CalQueue<T> {
    nodes: Vec<Node<T>>,
    free_head: u32,
    /// Power-of-two wheel; bucket `t & mask` owns timestamp `t` while
    /// `dp ≤ t ≤ dp + mask`.
    buckets: Vec<Bucket>,
    mask: u64,
    /// Far-future tier: `(time, seq, slot)`, min-ordered.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Delivery front: every event with `time < dp` has been popped.
    dp: u64,
    /// Monotonic tie-break counter; `push` assigns `seq + 1`.
    seq: u64,
    len: usize,
    wheel_len: usize,
    live_hwm: usize,
}

impl<T> std::fmt::Debug for CalQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalQueue")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("overflow", &self.overflow.len())
            .field("pool_slots", &self.nodes.len())
            .field("dp", &self.dp)
            .finish()
    }
}

impl<T> Default for CalQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalQueue<T> {
    /// A queue with the [`DEFAULT_BUCKETS`] wheel.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// A queue whose wheel has `buckets` one-cycle slots (rounded up to a
    /// power of two, clamped to `2..=`[`MAX_BUCKETS`]).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().clamp(2, MAX_BUCKETS);
        CalQueue {
            nodes: Vec::new(),
            free_head: NIL,
            buckets: vec![Bucket::EMPTY; n],
            mask: n as u64 - 1,
            overflow: BinaryHeap::new(),
            dp: 0,
            seq: 0,
            len: 0,
            wheel_len: 0,
            live_hwm: 0,
        }
    }

    /// Live (pushed, not yet popped) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current tie-break counter (the `seq` of the most recent push).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overwrite the tie-break counter (checkpoint restore).
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Slab slots ever allocated — the pool's memory high-water mark.
    /// Structurally ≤ [`Self::live_hwm`]: a slot is only allocated when
    /// the free list is empty, i.e. when every existing slot is live.
    pub fn pool_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Most events ever live at once.
    pub fn live_hwm(&self) -> usize {
        self.live_hwm
    }

    /// Current wheel size in buckets (grows on overflow pressure).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Drop all pending events and rewind the delivery front to 0. Slab
    /// capacity, wheel size and the `seq` counter are kept — clearing is
    /// how the SM reuses its queue across kernel launches, and `seq`
    /// (like the old standalone counters) must stay monotonic.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free_head = NIL;
        for b in &mut self.buckets {
            *b = Bucket::EMPTY;
        }
        self.overflow.clear();
        self.dp = 0;
        self.len = 0;
        self.wheel_len = 0;
    }

    /// Visit every pending event as `(time, seq, &payload)`, in slab
    /// (arbitrary) order. Snapshot writers sort the result.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.nodes
            .iter()
            .filter_map(|n| n.payload.as_ref().map(|p| (n.time, n.seq, p)))
    }

    /// Take a slot from the free list, or grow the slab by one.
    fn alloc(&mut self, time: u64, seq: u64, payload: T) -> u32 {
        let slot = if self.free_head != NIL {
            let s = self.free_head;
            let n = &mut self.nodes[s as usize];
            self.free_head = n.next;
            n.time = time;
            n.seq = seq;
            n.next = NIL;
            n.payload = Some(payload);
            s
        } else {
            let s = self.nodes.len();
            assert!(s < NIL as usize, "calendar queue slab exhausted");
            self.nodes.push(Node {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            s as u32
        };
        self.len += 1;
        if self.len > self.live_hwm {
            self.live_hwm = self.len;
        }
        slot
    }

    /// Append a node to its wheel bucket's FIFO. Caller guarantees
    /// `dp ≤ time ≤ dp + mask` (so the bucket is unambiguous) and
    /// `node.next == NIL`.
    fn bucket_append(&mut self, time: u64, slot: u32) {
        let b = (time & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        if bucket.tail == NIL {
            bucket.head = slot;
        } else {
            self.nodes[bucket.tail as usize].next = slot;
        }
        bucket.tail = slot;
        self.wheel_len += 1;
    }

    /// Route a slot into the wheel or the overflow tier.
    fn place(&mut self, time: u64, seq: u64, slot: u32) {
        if time <= self.dp + self.mask {
            self.bucket_append(time, slot);
        } else {
            self.overflow.push(Reverse((time, seq, slot)));
        }
    }

    /// Schedule `payload` at `time`, assigning and returning the next
    /// sequence number. `time` must be ≥ the delivery front; a stale
    /// time is clamped to it (delivered at the next `pop_due`, exactly
    /// as a heap would have delivered it).
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        debug_assert!(
            time >= self.dp,
            "event scheduled at {time} behind the delivery front {}",
            self.dp
        );
        let time = time.max(self.dp);
        self.seq += 1;
        let seq = self.seq;
        let slot = self.alloc(time, seq, payload);
        self.place(time, seq, slot);
        if self.overflow.len() >= OVERFLOW_HIGH_WATER && self.buckets.len() < MAX_BUCKETS {
            self.grow_for_overflow();
        }
        seq
    }

    /// Re-insert an event with an explicit `(time, seq)` key (checkpoint
    /// restore; snapshots are written in ascending key order, which
    /// keeps bucket FIFOs in sequence order). Does not touch the `seq`
    /// counter — restore overwrites it via [`Self::set_seq`].
    pub fn insert(&mut self, time: u64, seq: u64, payload: T) {
        debug_assert!(time >= self.dp, "insert behind the delivery front");
        let slot = self.alloc(time, seq, payload);
        self.place(time, seq, slot);
    }

    /// Pop the earliest pending event if it is due (`time ≤ now`).
    /// Returns `(time, seq, payload)`. Call in a loop to drain a cycle;
    /// `now` must be non-decreasing across calls.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, u64, T)> {
        loop {
            if self.dp > now {
                return None;
            }
            let b = (self.dp & self.mask) as usize;
            let head = self.buckets[b].head;
            if head != NIL {
                let node = &mut self.nodes[head as usize];
                debug_assert_eq!(node.time, self.dp, "bucket held a foreign timestamp");
                let time = node.time;
                let seq = node.seq;
                let payload = node.payload.take().expect("live node");
                self.buckets[b].head = node.next;
                if self.buckets[b].head == NIL {
                    self.buckets[b].tail = NIL;
                }
                node.next = self.free_head;
                self.free_head = head;
                self.wheel_len -= 1;
                self.len -= 1;
                return Some((time, seq, payload));
            }
            // Bucket drained: advance the front. With an empty wheel the
            // front can jump straight to the next overflow event (or past
            // `now`) — this is what makes a resume at cycle N million not
            // pay N million empty-bucket steps.
            if self.wheel_len == 0 {
                let target = match self.overflow.peek() {
                    Some(&Reverse((t, _, _))) => t.min(now + 1),
                    None => now + 1,
                };
                debug_assert!(target > self.dp);
                self.dp = target;
            } else {
                self.dp += 1;
            }
            self.migrate();
        }
    }

    /// Pull overflow events whose timestamp has entered the horizon into
    /// the wheel. Heap order (ascending `(time, seq)`) makes the bucket
    /// appends land in sequence order.
    fn migrate(&mut self) {
        let horizon = self.dp + self.mask;
        while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
            if t > horizon {
                break;
            }
            let Reverse((t, _, slot)) = self.overflow.pop().expect("peeked");
            self.bucket_append(t, slot);
        }
    }

    /// Double the wheel until it covers the farthest overflow event (or
    /// [`MAX_BUCKETS`]), then re-bucket. Each event's timestamp is
    /// unique to its (old and new) bucket, so relinking old buckets in
    /// any order — and overflow entries in ascending key order —
    /// preserves per-timestamp FIFO sequence order exactly.
    fn grow_for_overflow(&mut self) {
        let farthest = self
            .overflow
            .iter()
            .map(|&Reverse((t, _, _))| t)
            .max()
            .expect("resize with empty overflow");
        let span = (farthest - self.dp + 1).min(MAX_BUCKETS as u64) as usize;
        let new_n = span
            .next_power_of_two()
            .clamp(self.buckets.len() * 2, MAX_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::EMPTY; new_n]);
        self.mask = new_n as u64 - 1;
        self.wheel_len = 0;
        for bucket in old {
            let mut cur = bucket.head;
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                self.nodes[cur as usize].next = NIL;
                let t = self.nodes[cur as usize].time;
                self.bucket_append(t, cur);
                cur = next;
            }
        }
        // `into_sorted_vec` on `Reverse` keys yields descending `(time,
        // seq)`; walk it back-to-front for ascending migration order.
        let sorted = std::mem::take(&mut self.overflow).into_sorted_vec();
        for &Reverse((t, seq, slot)) in sorted.iter().rev() {
            if t <= self.dp + self.mask {
                self.bucket_append(t, slot);
            } else {
                self.overflow.push(Reverse((t, seq, slot)));
            }
        }
    }
}

impl<T: Snapshot> CalQueue<T> {
    /// Serialize as a `(time, seq)`-sorted pending list followed by the
    /// `seq` counter — the exact byte layout the pre-calendar heap code
    /// wrote, so existing checkpoint files and golden byte-compares are
    /// unaffected by the queue swap.
    pub fn save_snapshot(&self, w: &mut Writer) {
        let mut pending: Vec<(u64, u64, &T)> = self.iter().collect();
        pending.sort_unstable_by_key(|&(t, s, _)| (t, s));
        w.put_u64(pending.len() as u64);
        for (t, s, payload) in pending {
            w.put_u64(t);
            w.put_u64(s);
            payload.save(w);
        }
        w.put_u64(self.seq);
    }

    /// Restore a queue written by [`Self::save_snapshot`] (or by the
    /// pre-calendar heap code — same bytes).
    pub fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            let t = r.get_u64()?;
            let s = r.get_u64()?;
            let payload = T::load(r)?;
            self.insert(t, s, payload);
        }
        self.seq = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Reference model: the exact structure the calendar queue replaced.
    struct HeapRef<T> {
        heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
        pool: Vec<T>,
        seq: u64,
    }

    impl<T: Copy> HeapRef<T> {
        fn new() -> Self {
            HeapRef {
                heap: BinaryHeap::new(),
                pool: Vec::new(),
                seq: 0,
            }
        }
        fn push(&mut self, time: u64, payload: T) {
            let idx = self.pool.len();
            self.pool.push(payload);
            self.seq += 1;
            self.heap.push(Reverse((time, self.seq, idx)));
        }
        fn pop_due(&mut self, now: u64) -> Option<(u64, u64, T)> {
            let &Reverse((t, s, idx)) = self.heap.peek()?;
            if t > now {
                return None;
            }
            self.heap.pop();
            Some((t, s, self.pool[idx]))
        }
    }

    /// Drive both queues with an identical random workload and require
    /// identical pop streams. Latency spread straddles the wheel horizon
    /// so overflow migration and resize both happen.
    fn lockstep(seed: u64, cycles: u64, max_lat: u64, buckets: usize) {
        let mut rng = SplitMix64::new(seed);
        let mut cal: CalQueue<u64> = CalQueue::with_buckets(buckets);
        let mut heap: HeapRef<u64> = HeapRef::new();
        let mut scheduled = 0u64;
        for now in 0..cycles {
            loop {
                let a = cal.pop_due(now);
                let b = heap.pop_due(now);
                assert_eq!(a, b, "pop divergence at cycle {now} (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
            for _ in 0..rng.gen_range(0u32..4) {
                let lat = 1 + rng.gen_range(0u64..max_lat);
                cal.push(now + lat, scheduled);
                heap.push(now + lat, scheduled);
                scheduled += 1;
            }
        }
        // Drain the tails identically too.
        let end = cycles + max_lat + 1;
        loop {
            let a = cal.pop_due(end);
            let b = heap.pop_due(end);
            assert_eq!(a, b, "tail divergence (seed {seed})");
            if a.is_none() {
                break;
            }
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn matches_heap_within_horizon() {
        lockstep(1, 4000, 90, 128);
    }

    #[test]
    fn matches_heap_through_overflow_and_resize() {
        // max_lat 700 ≫ 64 buckets: constant overflow traffic, and the
        // resize trigger fires (verified below).
        let mut rng = SplitMix64::new(7);
        let mut cal: CalQueue<u64> = CalQueue::with_buckets(64);
        let mut heap: HeapRef<u64> = HeapRef::new();
        let mut id = 0u64;
        for now in 0..6000 {
            loop {
                let a = cal.pop_due(now);
                let b = heap.pop_due(now);
                assert_eq!(a, b, "pop divergence at cycle {now}");
                if a.is_none() {
                    break;
                }
            }
            for _ in 0..rng.gen_range(0u32..3) {
                let lat = 1 + rng.gen_range(0u64..700);
                cal.push(now + lat, id);
                heap.push(now + lat, id);
                id += 1;
            }
        }
        assert!(
            cal.bucket_count() > 64,
            "sustained overflow must have grown the wheel"
        );
    }

    #[test]
    fn same_cycle_events_pop_in_push_order() {
        let mut q: CalQueue<u32> = CalQueue::new();
        for i in 0..10u32 {
            q.push(5, i);
        }
        let mut got = Vec::new();
        while let Some((t, _, v)) = q.pop_due(5) {
            assert_eq!(t, 5);
            got.push(v);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_bounded_by_live_high_water() {
        let mut q: CalQueue<u64> = CalQueue::new();
        // 100k events scheduled over time, never more than 8 live.
        for now in 0..100_000u64 {
            while q.pop_due(now).is_some() {}
            q.push(now + 1 + (now % 7), now);
        }
        assert!(q.live_hwm() <= 8, "live hwm {}", q.live_hwm());
        assert!(
            q.pool_slots() <= q.live_hwm(),
            "slab grew past the live high-water: {} slots vs hwm {}",
            q.pool_slots(),
            q.live_hwm()
        );
    }

    #[test]
    fn empty_wheel_jump_skips_idle_gaps() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.push(10, 1);
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, 1, 1)));
        // A push five million cycles out lands in overflow; draining it
        // must not walk five million buckets.
        q.push(5_000_000, 2);
        assert_eq!(q.pop_due(4_999_999), None);
        assert_eq!(q.pop_due(5_000_000), Some((5_000_000, 2, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_recycles_without_forgetting_seq() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.push(3, 7);
        q.push(4, 8);
        let seq_before = q.seq();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.seq(), seq_before, "seq stays monotonic across clears");
        // Reuse at a much later cycle: first pushes take the overflow
        // path (front rewound to 0) and migrate on the next pop.
        q.push(1_000_010, 9);
        assert_eq!(q.pop_due(1_000_009), None);
        assert_eq!(q.pop_due(1_000_010), Some((1_000_010, seq_before + 1, 9)));
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let mut rng = SplitMix64::new(42);
        let mut q: CalQueue<u64> = CalQueue::with_buckets(32);
        for now in 0..500u64 {
            while q.pop_due(now).is_some() {}
            for _ in 0..rng.gen_range(0u32..3) {
                q.push(now + 1 + rng.gen_range(0u64..300), rng.next_u64());
            }
        }
        let mut w = Writer::new();
        q.save_snapshot(&mut w);
        let bytes = w.into_bytes();

        let mut restored: CalQueue<u64> = CalQueue::new();
        restored
            .restore_snapshot(&mut Reader::new(&bytes))
            .expect("round trip");
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.seq(), q.seq());
        // Re-encoding the restored queue reproduces the bytes...
        let mut w2 = Writer::new();
        restored.save_snapshot(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // ...and both queues drain identically.
        let end = 2000;
        loop {
            let a = q.pop_due(end);
            let b = restored.pop_due(end);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn random_seeds_stay_locked_to_the_heap() {
        for seed in 0..20 {
            lockstep(seed, 1500, 200, 64);
        }
    }
}
