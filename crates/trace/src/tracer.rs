//! The event bus: the [`Tracer`] trait and its implementations.
//!
//! Design rules:
//!
//! * **Pay for what you use.** Emission sites first ask
//!   [`Tracer::wants`] for the event's class; a disabled tracer answers
//!   with a single predictable virtual call and the event is never even
//!   constructed. [`NoopTracer`] allocates nothing, counts nothing, and
//!   emits nothing.
//! * **Allocation-conscious.** [`RingTracer`] reserves its whole buffer up
//!   front and overwrites the oldest records when full — emitting into it
//!   never allocates, so tracing does not perturb the allocator behaviour
//!   of the simulation under test. The reservation is address space: the
//!   ring keeps records varint-encoded, and its resident memory is the live
//!   encoded bytes plus one 64 KiB chunk.
//! * **Streaming.** [`JsonlTracer`] writes one self-describing JSON object
//!   per line to any `io::Write`, suitable for multi-million-event traces
//!   that must not be held in memory.

use crate::event::{with_events, ClassSet, Event, EventClass, Record, ReqId, StallReason};
use std::collections::VecDeque;
use std::io::{self, Write};

/// A subscriber on the simulator's event bus.
pub trait Tracer {
    /// Class gate; hot paths check this before building events.
    fn wants(&self, class: EventClass) -> bool;

    /// Deliver one event. Implementations must not assume they only
    /// receive classes they asked for (a `Tee` partner may differ).
    fn emit(&mut self, cycle: u64, ev: &Event);

    /// A kernel launch began (carries the kernel name, which events —
    /// being `Copy` — cannot).
    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        let _ = (name, cycle);
    }

    /// A kernel launch finished after `cycles` simulated cycles.
    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        let _ = (name, cycle, cycles);
    }
}

/// The disabled tracer: it wants no class, so instrumented code skips
/// event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    #[inline]
    fn emit(&mut self, _cycle: u64, _ev: &Event) {}
}

/// Bytes per arena chunk: the unit in which a [`RingTracer`] hands out and
/// recycles storage.
const CHUNK: usize = 64 << 10;

/// An event field's type, as the two trace formats write it: the ring as an
/// unsigned LEB128 varint of [`Field::to_wire`], a JSONL line as
/// [`Field::push_json`] writes it.
trait Field: Copy {
    /// Longest varint of the type, in bytes.
    const MAX_LEN: usize;
    fn to_wire(self) -> u64;
    fn from_wire(v: u64) -> Self;

    /// Append the value as a JSON number (`{v}` formatted).
    #[inline]
    fn push_json(self, out: &mut Vec<u8>) {
        push_u64(out, self.to_wire());
    }
}

macro_rules! field_uint {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MAX_LEN: usize = (<$t>::BITS as usize).div_ceil(7);
            fn to_wire(self) -> u64 {
                self.into()
            }
            fn from_wire(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

field_uint!(u16, u32, u64);

impl Field for bool {
    const MAX_LEN: usize = 1;
    fn to_wire(self) -> u64 {
        self.into()
    }
    fn from_wire(v: u64) -> Self {
        v != 0
    }
    fn push_json(self, out: &mut Vec<u8>) {
        out.extend_from_slice(if self { b"true" } else { b"false" });
    }
}

impl Field for StallReason {
    const MAX_LEN: usize = 1;
    fn to_wire(self) -> u64 {
        self as u64
    }
    fn from_wire(v: u64) -> Self {
        match v {
            0 => StallReason::Idle,
            1 => StallReason::Scoreboard,
            _ => StallReason::Pipeline,
        }
    }
    fn push_json(self, out: &mut Vec<u8>) {
        out.push(b'"');
        out.extend_from_slice(self.name().as_bytes());
        out.push(b'"');
    }
}

/// Write `v` at `out[n..]`; return the offset after it.
#[inline]
fn put_varint(out: &mut [u8; MAX_RECORD], mut n: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Read the varint at `buf[*at..]` and step past it.
#[inline]
fn get_varint(buf: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = buf[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// The ring's record format, from the rows of the event table: the row's
/// one-byte tag, the cycle as a varint delta from the chunk's previous
/// record, then each field as a varint in the order listed.
macro_rules! ring_codec {
    ($($(#[$doc:meta])* $tag:literal $class:ident $variant:ident {
        $($(#[$field_doc:meta])* $field:ident: $ty:ty => $key:literal,)*
    })*) => {
        /// Longest encoded record: the widest variant with every field and
        /// the cycle delta at their longest varint.
        const MAX_RECORD: usize = {
            let lens = [$(1 + <u64 as Field>::MAX_LEN $(+ <$ty as Field>::MAX_LEN)*),*];
            let mut max = 0;
            let mut i = 0;
            while i < lens.len() {
                if lens[i] > max {
                    max = lens[i];
                }
                i += 1;
            }
            max
        };

        /// Encode one record at the front of `out`; return its length.
        #[inline]
        fn encode(out: &mut [u8; MAX_RECORD], delta: u64, ev: &Event) -> usize {
            match *ev {
                $(Event::$variant { $($field),* } => {
                    out[0] = $tag;
                    let n = put_varint(out, 1, delta);
                    $(let n = put_varint(out, n, $field.to_wire());)*
                    n
                })*
            }
        }

        /// Decode the record at `buf[*at..]`, step past it, and return its
        /// cycle delta and event.
        fn decode(buf: &[u8], at: &mut usize) -> (u64, Event) {
            let tag = buf[*at];
            *at += 1;
            let delta = get_varint(buf, at);
            let ev = match tag {
                $($tag => Event::$variant { $($field: <$ty>::from_wire(get_varint(buf, at))),* },)*
                _ => unreachable!("ring record tag {tag}"),
            };
            (delta, ev)
        }
    };
}

with_events!(ring_codec);

/// The fewest records a chunk holds once `emit` has moved past it: it
/// leaves a chunk with fewer than [`MAX_RECORD`] bytes free.
const MIN_CHUNK_RECORDS: usize = CHUNK / MAX_RECORD;

/// One arena chunk's extent and record count.
#[derive(Debug, Clone, Copy, Default)]
struct Chunk {
    /// Arena offset of the chunk.
    at: usize,
    /// Arena offset one past its last record.
    end: usize,
    /// Records it holds.
    events: usize,
}

/// Bounded in-memory tracer: keeps the most recent `capacity` events.
///
/// Records are varint-encoded (a tag byte, the cycle delta, the fields;
/// 5.2 bytes on average for laplace3d) into one byte arena carved into 64 KiB
/// chunks. The arena is reserved at construction for `capacity` records of
/// the longest encoding, so emission never allocates; it is zeroed memory
/// the kernel maps on first touch, so resident memory is the live chunks
/// plus the one being written. When the chunk being written is full, the
/// next comes from a last-in-first-out free list, and the oldest chunk goes
/// back to it once the newer ones hold `capacity` events.
pub struct RingTracer {
    arena: Vec<u8>,
    /// Filled chunks, oldest first.
    live: VecDeque<Chunk>,
    /// The chunk being written.
    cur: Chunk,
    /// Arena offsets of unused chunks; the last one is reused first.
    free: Vec<usize>,
    /// Cycle of `cur`'s last record (0 before its first).
    last_cycle: u64,
    /// Records in `live`.
    held: usize,
    capacity: usize,
    /// Total events offered (including overwritten ones).
    total: u64,
    classes: ClassSet,
}

impl std::fmt::Debug for RingTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingTracer")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("total", &self.total)
            .field("classes", &self.classes)
            .finish_non_exhaustive()
    }
}

impl RingTracer {
    /// Ring keeping the latest `capacity` events of every class.
    pub fn new(capacity: usize) -> Self {
        Self::with_classes(capacity, ClassSet::ALL)
    }

    /// Ring subscribed only to `classes`.
    pub fn with_classes(capacity: usize, classes: ClassSet) -> Self {
        // After `next_chunk` evicts, the filled chunks newer than the oldest
        // hold fewer than `capacity` records, at least `MIN_CHUNK_RECORDS`
        // each; the oldest and the one being written make two more.
        let chunks = if capacity == 0 { 0 } else { (capacity - 1) / MIN_CHUNK_RECORDS + 2 };
        let bytes = chunks.checked_mul(CHUNK).expect("ring capacity overflows the address space");
        let mut free = Vec::with_capacity(chunks);
        free.extend((1..chunks).rev().map(|i| i * CHUNK));
        RingTracer {
            arena: vec![0; bytes],
            live: VecDeque::with_capacity(chunks),
            cur: Chunk::default(),
            free,
            last_cycle: 0,
            held: 0,
            capacity,
            total: 0,
            classes,
        }
    }

    /// Records held, surplus beyond `capacity` included.
    fn stored(&self) -> usize {
        self.held + self.cur.events
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.stored().min(self.capacity)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stored() == 0
    }

    /// Total events offered over the tracer's lifetime (≥ `len`).
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Records oldest → newest, decoded on the fly.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        let mut skip = self.stored().saturating_sub(self.capacity);
        self.live.iter().chain([&self.cur]).flat_map(move |c| {
            let n = skip.min(c.events);
            skip -= n;
            let bytes = if n == c.events { &[][..] } else { &self.arena[c.at..c.end] };
            Decoder { bytes, at: 0, cycle: 0 }.skip(n)
        })
    }

    /// Retire the full chunk `cur`, return the oldest chunks the newer ones
    /// make surplus, and start writing a free one.
    #[cold]
    #[inline(never)]
    fn next_chunk(&mut self) {
        self.held += self.cur.events;
        self.live.push_back(self.cur);
        while let Some(&old) = self.live.front() {
            if self.held - old.events < self.capacity {
                break;
            }
            self.held -= old.events;
            self.free.push(old.at);
            self.live.pop_front();
        }
        let at = self.free.pop().expect("the arena holds every chunk a full ring needs");
        self.cur = Chunk { at, end: at, events: 0 };
        self.last_cycle = 0;
    }
}

/// Decodes one chunk's records.
struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
    cycle: u64,
}

impl Iterator for Decoder<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.at == self.bytes.len() {
            return None;
        }
        let (delta, event) = decode(self.bytes, &mut self.at);
        self.cycle = self.cycle.wrapping_add(delta);
        Some(Record { cycle: self.cycle, event })
    }
}

impl Tracer for RingTracer {
    fn wants(&self, class: EventClass) -> bool {
        self.capacity > 0 && self.classes.contains(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        if self.capacity == 0 || !self.classes.contains(ev.class()) {
            return;
        }
        self.total += 1;
        if self.cur.end - self.cur.at > CHUNK - MAX_RECORD {
            self.next_chunk();
        }
        let out = self.arena[self.cur.end..]
            .first_chunk_mut::<MAX_RECORD>()
            .expect("a record fits in its chunk");
        self.cur.end += encode(out, cycle.wrapping_sub(self.last_cycle), ev);
        self.cur.events += 1;
        self.last_cycle = cycle;
    }
}

/// `00`, `01`, …, `99`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append `v` in decimal, as `{v}` would format it.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// `write_event_jsonl`, from the rows of the event table.
macro_rules! jsonl_encoder {
    ($($(#[$doc:meta])* $tag:literal $class:ident $variant:ident {
        $($(#[$field_doc:meta])* $field:ident: $ty:ty => $key:literal,)*
    })*) => {
        /// Append one event as a JSONL line (no trailing newline) onto `out`.
        ///
        /// The format is flat and self-describing:
        /// `{"c":CYCLE,"ev":"KIND",...fields}`. Every key, kind and stall
        /// reason is a static ASCII string and every value a number or a
        /// boolean, so the line is assembled from byte slices without
        /// `core::fmt`.
        pub fn write_event_jsonl(out: &mut Vec<u8>, cycle: u64, ev: &Event) {
            out.extend_from_slice(b"{\"c\":");
            push_u64(out, cycle);
            match *ev {
                $(Event::$variant { $($field),* } => {
                    out.extend_from_slice(concat!(",\"ev\":\"", stringify!($variant), "\"").as_bytes());
                    $(
                        out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
                        $field.push_json(out);
                    )*
                })*
            }
            out.push(b'}');
        }
    };
}

with_events!(jsonl_encoder);

/// Streaming tracer: one JSON object per line on any writer. Kernel
/// boundaries are written as `KernelBegin`/`KernelEnd` marker lines, which
/// is what lets `trace-report` attribute events to kernels.
///
/// A failed write does not abort the simulation: the tracer keeps the
/// first [`io::Error`] ([`JsonlTracer::error`]) and writes nothing after
/// it, so `lines_written` counts exactly the lines that reached the writer.
pub struct JsonlTracer<W: Write> {
    w: W,
    classes: ClassSet,
    line: Vec<u8>,
    error: Option<io::Error>,
    /// Lines written (events + markers), up to the first failed write.
    pub lines_written: u64,
}

impl<W: Write> JsonlTracer<W> {
    /// Stream every event class to `w`.
    pub fn new(w: W) -> Self {
        Self::with_classes(w, ClassSet::ALL)
    }

    /// Stream only `classes` to `w`.
    pub fn with_classes(w: W, classes: ClassSet) -> Self {
        JsonlTracer {
            w,
            classes,
            line: Vec::with_capacity(160),
            error: None,
            lines_written: 0,
        }
    }

    /// The first write that failed, if any; every line after it was dropped.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Finish writing and recover the writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }

    fn write_line(&mut self) {
        if self.error.is_some() {
            return;
        }
        self.line.push(b'\n');
        match self.w.write_all(&self.line) {
            Ok(()) => self.lines_written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn wants(&self, class: EventClass) -> bool {
        self.classes.contains(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        if !self.classes.contains(ev.class()) {
            return;
        }
        self.line.clear();
        write_event_jsonl(&mut self.line, cycle, ev);
        self.write_line();
    }

    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"c\":{cycle},\"ev\":\"KernelBegin\",\"name\":\"{}\"}}",
            crate::json::escape(name)
        );
        self.write_line();
    }

    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"c\":{cycle},\"ev\":\"KernelEnd\",\"name\":\"{}\",\"cycles\":{cycles}}}",
            crate::json::escape(name)
        );
        self.write_line();
    }
}

/// Fan-out to two tracers (e.g. a ring for Chrome export plus a JSONL
/// stream). Each partner only receives classes it asked for.
pub struct Tee<'a, 'b> {
    a: &'a mut dyn Tracer,
    b: &'b mut dyn Tracer,
}

impl<'a, 'b> Tee<'a, 'b> {
    /// Combine two tracers.
    pub fn new(a: &'a mut dyn Tracer, b: &'b mut dyn Tracer) -> Self {
        Tee { a, b }
    }
}

impl Tracer for Tee<'_, '_> {
    fn wants(&self, class: EventClass) -> bool {
        self.a.wants(class) || self.b.wants(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        let class = ev.class();
        if self.a.wants(class) {
            self.a.emit(cycle, ev);
        }
        if self.b.wants(class) {
            self.b.emit(cycle, ev);
        }
    }

    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        self.a.on_kernel_begin(name, cycle);
        self.b.on_kernel_begin(name, cycle);
    }

    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        self.a.on_kernel_end(name, cycle, cycles);
        self.b.on_kernel_end(name, cycle, cycles);
    }
}

/// Test helper: a tracer that panics on any delivery. Used to prove that
/// instrumented code really does check [`Tracer::wants`] before emitting.
#[derive(Debug, Clone, Copy, Default)]
pub struct PanicTracer;

impl Tracer for PanicTracer {
    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        panic!("event emitted to a disabled tracer at cycle {cycle}: {ev:?}");
    }

    fn on_kernel_begin(&mut self, _name: &str, _cycle: u64) {}

    fn on_kernel_end(&mut self, _name: &str, _cycle: u64, _cycles: u64) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event::L1Hit { sm: 0, req: i, line: i }
    }

    /// Drop everything `ring` recorded so far, keeping its capacity.
    fn clear(ring: &mut RingTracer) {
        ring.free.extend(ring.live.drain(..).map(|c| c.at));
        ring.cur = Chunk { at: ring.cur.at, end: ring.cur.at, events: 0 };
        ring.last_cycle = 0;
        ring.held = 0;
        ring.total = 0;
    }

    #[test]
    fn ring_keeps_latest_and_wraps() {
        let mut r = RingTracer::new(3);
        for i in 0..5u64 {
            r.emit(i, &ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_emitted(), 5);
        let cycles: Vec<u64> = r.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest → newest after wrap");
    }

    fn capacities(r: &RingTracer) -> (usize, usize, usize) {
        (r.arena.capacity(), r.live.capacity(), r.free.capacity())
    }

    #[test]
    fn ring_emit_never_allocates_after_construction() {
        let mut r = RingTracer::new(8);
        let before = capacities(&r);
        for i in 0..100u64 {
            r.emit(i, &ev(i));
        }
        assert_eq!(capacities(&r), before, "arena, chunk list and free list");
    }

    #[test]
    fn ring_class_filter() {
        let mut r = RingTracer::with_classes(16, ClassSet::of(&[EventClass::Tb]));
        r.emit(1, &ev(1)); // Mem — filtered
        r.emit(2, &Event::TbLaunch { sm: 0, tb_slot: 0, global_index: 9 });
        assert_eq!(r.len(), 1);
        assert!(r.wants(EventClass::Tb));
        assert!(!r.wants(EventClass::Mem));
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopTracer.wants(EventClass::Mem));
        NoopTracer.emit(0, &ev(0)); // must be harmless
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut t = JsonlTracer::new(Vec::new());
        t.on_kernel_begin("k", 0);
        t.emit(5, &Event::UnitStall { sm: 1, unit: 0, reason: StallReason::Idle });
        t.on_kernel_end("k", 9, 9);
        let out = String::from_utf8(t.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"c\":0,\"ev\":\"KernelBegin\",\"name\":\"k\"}");
        assert_eq!(
            lines[1],
            "{\"c\":5,\"ev\":\"UnitStall\",\"sm\":1,\"unit\":0,\"reason\":\"idle\"}"
        );
        assert_eq!(lines[2], "{\"c\":9,\"ev\":\"KernelEnd\",\"name\":\"k\",\"cycles\":9}");
        // Every line parses as JSON.
        for l in lines {
            crate::json::parse(l).expect("valid JSON");
        }
    }

    #[test]
    fn tee_routes_by_class() {
        let mut tb_only = RingTracer::with_classes(8, ClassSet::of(&[EventClass::Tb]));
        let mut mem_only = RingTracer::with_classes(8, ClassSet::of(&[EventClass::Mem]));
        {
            let mut tee = Tee::new(&mut tb_only, &mut mem_only);
            assert!(tee.wants(EventClass::Tb));
            assert!(tee.wants(EventClass::Mem));
            assert!(!tee.wants(EventClass::Simt));
            tee.emit(0, &ev(0));
            tee.emit(1, &Event::TbLaunch { sm: 0, tb_slot: 0, global_index: 0 });
        }
        assert_eq!(tb_only.len(), 1);
        assert_eq!(mem_only.len(), 1);
    }

    /// The encoder `write_event_jsonl` replaced, kept as its oracle: every
    /// field through `core::fmt`.
    fn write_event_jsonl_fmt(out: &mut String, cycle: u64, ev: &Event) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"c\":{cycle},\"ev\":\"{}\"", ev.kind());
        match *ev {
            Event::WarpIssue { sm, unit, warp, tb_slot, pc, active } => {
                let _ = write!(
                    out,
                    ",\"sm\":{sm},\"unit\":{unit},\"warp\":{warp},\"tb\":{tb_slot},\"pc\":{pc},\"active\":{active}"
                );
            }
            Event::UnitStall { sm, unit, reason } => {
                let _ = write!(out, ",\"sm\":{sm},\"unit\":{unit},\"reason\":\"{}\"", reason.name());
            }
            Event::WarpStall { sm, warp, reason } => {
                let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp},\"reason\":\"{}\"", reason.name());
            }
            Event::ScoreboardSet { sm, warp, longlat } => {
                let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp},\"longlat\":{longlat}");
            }
            Event::ScoreboardClear { sm, warp } => {
                let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp}");
            }
            Event::BarrierArrive { sm, tb_slot, warp } => {
                let _ = write!(out, ",\"sm\":{sm},\"tb\":{tb_slot},\"warp\":{warp}");
            }
            Event::BarrierRelease { sm, tb_slot } => {
                let _ = write!(out, ",\"sm\":{sm},\"tb\":{tb_slot}");
            }
            Event::SimtDiverge { sm, warp, pc } | Event::SimtReconverge { sm, warp, pc } => {
                let _ = write!(out, ",\"sm\":{sm},\"warp\":{warp},\"pc\":{pc}");
            }
            Event::TbLaunch { sm, tb_slot, global_index }
            | Event::TbComplete { sm, tb_slot, global_index } => {
                let _ = write!(out, ",\"sm\":{sm},\"tb\":{tb_slot},\"g\":{global_index}");
            }
            Event::Coalesce { sm, warp, req, lines, store } => {
                let _ = write!(
                    out,
                    ",\"sm\":{sm},\"warp\":{warp},\"req\":{req},\"lines\":{lines},\"store\":{store}"
                );
            }
            Event::L1Hit { sm, req, line }
            | Event::L1Miss { sm, req, line }
            | Event::MshrMerge { sm, req, line }
            | Event::MshrReject { sm, req, line } => {
                let _ = write!(out, ",\"sm\":{sm},\"req\":{req},\"line\":{line}");
            }
            Event::StoreLine { sm, line } => {
                let _ = write!(out, ",\"sm\":{sm},\"line\":{line}");
            }
            Event::L2Hit { part, line } | Event::L2Miss { part, line } | Event::L2Merge { part, line } => {
                let _ = write!(out, ",\"part\":{part},\"line\":{line}");
            }
            Event::DramSchedule { part, line, row_hit, done } => {
                let _ = write!(out, ",\"part\":{part},\"line\":{line},\"row_hit\":{row_hit},\"done\":{done}");
            }
            Event::LineFill { sm, line } => {
                let _ = write!(out, ",\"sm\":{sm},\"line\":{line}");
            }
            Event::LoadComplete { sm, req, latency } => {
                let _ = write!(out, ",\"sm\":{sm},\"req\":{req},\"latency\":{latency}");
            }
        }
        out.push('}');
    }

    pub(crate) const KINDS: u32 = 23;

    /// Variant `kind` (`0..KINDS`), each field drawn from `v` and cut to
    /// the field's width.
    pub(crate) fn event_of(kind: u32, mut v: impl FnMut() -> u64) -> Event {
        let reason = |x: u64| match x % 3 {
            0 => StallReason::Idle,
            1 => StallReason::Scoreboard,
            _ => StallReason::Pipeline,
        };
        match kind {
            0 => Event::WarpIssue {
                sm: v() as u32,
                unit: v() as u16,
                warp: v() as u16,
                tb_slot: v() as u16,
                pc: v() as u32,
                active: v() as u16,
            },
            1 => Event::UnitStall { sm: v() as u32, unit: v() as u32, reason: reason(v()) },
            2 => Event::WarpStall { sm: v() as u32, warp: v() as u32, reason: reason(v()) },
            3 => Event::ScoreboardSet { sm: v() as u32, warp: v() as u32, longlat: v() & 1 == 1 },
            4 => Event::ScoreboardClear { sm: v() as u32, warp: v() as u32 },
            5 => Event::BarrierArrive { sm: v() as u32, tb_slot: v() as u32, warp: v() as u32 },
            6 => Event::BarrierRelease { sm: v() as u32, tb_slot: v() as u32 },
            7 => Event::SimtDiverge { sm: v() as u32, warp: v() as u32, pc: v() as u32 },
            8 => Event::SimtReconverge { sm: v() as u32, warp: v() as u32, pc: v() as u32 },
            9 => Event::TbLaunch { sm: v() as u32, tb_slot: v() as u32, global_index: v() as u32 },
            10 => Event::TbComplete { sm: v() as u32, tb_slot: v() as u32, global_index: v() as u32 },
            11 => Event::Coalesce {
                sm: v() as u32,
                warp: v() as u32,
                req: v(),
                lines: v() as u32,
                store: v() & 1 == 1,
            },
            12 => Event::L1Hit { sm: v() as u32, req: v(), line: v() },
            13 => Event::L1Miss { sm: v() as u32, req: v(), line: v() },
            14 => Event::MshrMerge { sm: v() as u32, req: v(), line: v() },
            15 => Event::MshrReject { sm: v() as u32, req: v(), line: v() },
            16 => Event::StoreLine { sm: v() as u32, line: v() },
            17 => Event::L2Hit { part: v() as u32, line: v() },
            18 => Event::L2Miss { part: v() as u32, line: v() },
            19 => Event::L2Merge { part: v() as u32, line: v() },
            20 => Event::DramSchedule {
                part: v() as u32,
                line: v(),
                row_hit: v() & 1 == 1,
                done: v(),
            },
            21 => Event::LineFill { sm: v() as u32, line: v() },
            _ => Event::LoadComplete { sm: v() as u32, req: v(), latency: v() },
        }
    }

    /// Where a decimal writer goes wrong: 0, one and two digits, every
    /// power of ten and its neighbours, and the top of each field width.
    fn boundaries() -> Vec<u64> {
        let mut b = vec![0, 9, 10, 99, 100];
        for p in 1..=19 {
            let t = 10u64.pow(p);
            b.extend([t - 1, t, t + 1]);
        }
        b.extend([u64::from(u16::MAX), u64::from(u32::MAX), u64::MAX]);
        b
    }

    /// Encode with both encoders; they must agree byte for byte and the
    /// line must parse with the cycle and kind it was given.
    fn agrees_with_fmt(cycle: u64, ev: &Event) -> Result<(), String> {
        let mut fast = Vec::new();
        write_event_jsonl(&mut fast, cycle, ev);
        let mut want = String::new();
        write_event_jsonl_fmt(&mut want, cycle, ev);
        let got = String::from_utf8(fast).map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!("{got}\n!= {want}"));
        }
        // The parser reads numbers as `f64`, so a cycle past 2^53 comes
        // back rounded the way `as f64` rounds it.
        let v = crate::json::parse(&got).map_err(|e| format!("{got}: {e}"))?;
        let ok = v.get("ev").and_then(|v| v.as_str()) == Some(ev.kind())
            && v.get("c").and_then(|v| v.as_f64()) == Some(cycle as f64);
        ok.then_some(()).ok_or_else(|| format!("{got}: wrong cycle or kind"))
    }

    #[test]
    fn every_event_serializes_to_valid_json() {
        let kinds: std::collections::HashSet<_> =
            (0..KINDS).map(|k| event_of(k, || 0).kind()).collect();
        assert_eq!(kinds.len(), KINDS as usize, "one kind per variant");
        for kind in 0..KINDS {
            for &b in &boundaries() {
                let ev = event_of(kind, || b);
                agrees_with_fmt(b, &ev).unwrap_or_else(|e| panic!("{}: {e}", ev.kind()));
            }
        }
    }

    #[test]
    fn the_byte_encoder_equals_the_fmt_encoder_on_random_events() {
        use pro_core::prop::{check, from_fn, Config, Gen};
        let bounds = boundaries();
        // Half the fields a boundary, half a random value of random length.
        let value = move |g: &mut Gen| {
            if g.gen_bool(0.5) {
                bounds[g.gen_range(0..bounds.len())]
            } else {
                g.next_u64() >> g.gen_range(0..64u32)
            }
        };
        let case = from_fn(move |g: &mut Gen| {
            let cycle = value(g);
            let kind = g.gen_range(0..KINDS);
            (cycle, event_of(kind, || value(g)))
        });
        check(Config::with_cases(2000), case, |(cycle, ev)| {
            agrees_with_fmt(*cycle, ev).map_err(pro_core::prop::CaseError::fail)
        });
    }

    /// The ring model test's generator (xorshift64), local so the crate
    /// keeps no dependencies.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Where a varint grows a byte, and the top of each field width.
    const VARINT_EDGES: [u64; 8] =
        [0, 127, 128, 16_383, 16_384, u16::MAX as u64, u32::MAX as u64, u64::MAX];

    /// Emit `events` into a ring of `capacity` and into the model, a
    /// `VecDeque` of the latest `capacity` records; compare the two every
    /// `every` events and at the end. The arena, chunk list and free list
    /// must never grow.
    fn matches_model(capacity: usize, every: usize, events: impl IntoIterator<Item = (u64, Event)>) {
        let mut ring = RingTracer::new(capacity);
        let caps = capacities(&ring);
        let mut model = std::collections::VecDeque::new();
        let same = |ring: &RingTracer, model: &std::collections::VecDeque<Record>, at: usize| {
            assert_eq!(ring.len(), model.len(), "capacity {capacity}, event {at}: len");
            assert!(ring.records().eq(model.iter().copied()), "capacity {capacity}, event {at}: records");
        };
        let mut n = 0;
        for (cycle, event) in events {
            ring.emit(cycle, &event);
            model.push_back(Record { cycle, event });
            if model.len() > capacity {
                model.pop_front();
            }
            n += 1;
            if n % every == 0 {
                same(&ring, &model, n);
            }
        }
        same(&ring, &model, n);
        assert_eq!(ring.total_emitted(), n as u64);
        assert_eq!(capacities(&ring), caps, "capacity {capacity}: emission allocated");
        clear(&mut ring);
        assert!(ring.is_empty() && ring.records().next().is_none());
        ring.emit(5, &ev(5));
        assert_eq!(ring.records().collect::<Vec<_>>(), [Record { cycle: 5, event: ev(5) }]);
        assert_eq!(ring.total_emitted(), 1);
        assert_eq!(capacities(&ring), caps, "capacity {capacity}: clear allocated");
    }

    #[test]
    fn ring_round_trips_every_variant_at_varint_edges() {
        // Cycles that advance, repeat, go backwards and reach u64::MAX.
        let cycles = [0, 1, 1, 200, 50, u64::MAX, u64::MAX, 0, 1 << 63, 3];
        let events: Vec<(u64, Event)> = (0..KINDS)
            .flat_map(|kind| VARINT_EDGES.map(|v| event_of(kind, || v)))
            .enumerate()
            .map(|(i, e)| (cycles[i % cycles.len()], e))
            .collect();
        assert_eq!(events.len(), KINDS as usize * VARINT_EDGES.len());
        for capacity in [1, 3, events.len(), 4 * events.len()] {
            matches_model(capacity, 1, events.iter().copied());
        }
    }

    #[test]
    fn the_longest_record_is_max_record_bytes() {
        let mut out = [0; MAX_RECORD];
        let longest = (0..KINDS)
            .map(|kind| encode(&mut out, u64::MAX, &event_of(kind, || u64::MAX)))
            .max();
        assert_eq!(longest, Some(MAX_RECORD));
    }

    #[test]
    fn ring_recycles_chunks_and_keeps_the_latest_events() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut cycle = 0u64;
        let mut events = move || {
            let r = rng.next();
            cycle = match r % 64 {
                0 => cycle.wrapping_sub(r >> 40), // backwards
                1 => u64::MAX,
                2..=9 => cycle, // repeat
                _ => cycle.wrapping_add(r >> 58),
            };
            let kind = (r >> 8) as u32 % KINDS;
            let event = event_of(kind, || {
                let x = rng.next();
                if x & 1 == 0 {
                    VARINT_EDGES[(x >> 1) as usize % VARINT_EDGES.len()]
                } else {
                    x >> (x >> 58)
                }
            });
            (cycle, event)
        };
        // Each 64 KiB chunk holds a few thousand of these records, so
        // 200 000 of them recycle the smallest rings' chunks dozens of times.
        for capacity in [1, 3, 100] {
            matches_model(capacity, 997, std::iter::repeat_with(&mut events).take(200_000));
        }
        // Records at the longest encoding pack chunks to the bound the
        // arena is sized by; the free list must never run dry.
        let longest = |i: u64| ((i & 1) << 63, event_of(11, || u64::MAX));
        for capacity in [MIN_CHUNK_RECORDS, MIN_CHUNK_RECORDS + 1, 2 * MIN_CHUNK_RECORDS + 1] {
            matches_model(capacity, 4999, (0..20 * MIN_CHUNK_RECORDS as u64).map(longest));
        }
    }

    /// Accepts `room` bytes, then fails every write, as a full disk does.
    struct FullAfter {
        buf: Vec<u8>,
        room: usize,
    }

    impl Write for FullAfter {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::other("no space left"));
            }
            let n = b.len().min(self.room);
            self.buf.extend_from_slice(&b[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_counts_only_lines_that_reached_the_writer() {
        let emit_all = |t: &mut dyn Tracer| {
            t.on_kernel_begin("k", 0);
            for i in 0..50 {
                t.emit(i, &ev(i));
            }
            t.on_kernel_end("k", 50, 50);
        };
        let mut full = JsonlTracer::new(Vec::new());
        emit_all(&mut full);
        assert!(full.error().is_none());
        let whole = full.into_inner();
        for room in [0, 1, 40, 41, 500, whole.len() - 1] {
            let mut t = JsonlTracer::new(FullAfter { buf: Vec::new(), room });
            emit_all(&mut t);
            let ctx = format!("room {room}");
            assert!(t.error().is_some(), "{ctx}: the failed write is kept");
            let lines = t.lines_written;
            let out = t.into_inner().buf;
            let complete = out.iter().filter(|&&b| b == b'\n').count() as u64;
            assert_eq!(lines, complete, "{ctx}: counted lines are written lines");
            assert!(whole.starts_with(&out), "{ctx}: nothing after the failure");
        }
        let mut exact = JsonlTracer::new(FullAfter { buf: Vec::new(), room: whole.len() });
        emit_all(&mut exact);
        assert!(exact.error().is_none());
        assert_eq!(exact.lines_written, 52);
    }
}
