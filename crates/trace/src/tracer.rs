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
//!   front and overwrites the oldest record when full — emitting into it
//!   never allocates, so tracing does not perturb the allocator behaviour
//!   of the simulation under test.
//! * **Streaming.** [`JsonlTracer`] writes one self-describing JSON object
//!   per line to any `io::Write`, suitable for multi-million-event traces
//!   that must not be held in memory.

use crate::event::{ClassSet, Event, EventClass, Record, StallReason};
use std::io::{self, Write};

/// A subscriber on the simulator's event bus.
pub trait Tracer {
    /// Global gate: false means no event of any class is wanted. Emission
    /// sites may cache this per cycle.
    fn enabled(&self) -> bool {
        true
    }

    /// Class-granular gate; hot paths check this before building events.
    fn wants(&self, class: EventClass) -> bool {
        let _ = class;
        self.enabled()
    }

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

/// The disabled tracer: `enabled()` is false, so instrumented code skips
/// event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    #[inline]
    fn emit(&mut self, _cycle: u64, _ev: &Event) {}
}

/// Bounded in-memory tracer: keeps the most recent `capacity` records.
/// The buffer is allocated once at construction; emission never allocates.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Vec<Record>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Total events offered (including overwritten ones).
    total: u64,
    classes: ClassSet,
}

impl RingTracer {
    /// Ring keeping the latest `capacity` events of every class.
    pub fn new(capacity: usize) -> Self {
        Self::with_classes(capacity, ClassSet::ALL)
    }

    /// Ring subscribed only to `classes`.
    pub fn with_classes(capacity: usize, classes: ClassSet) -> Self {
        RingTracer {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
            classes,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered over the tracer's lifetime (≥ `len`).
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Records oldest → newest.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }

    /// Drop everything recorded so far (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn wants(&self, class: EventClass) -> bool {
        self.capacity > 0 && self.classes.contains(class)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        if self.capacity == 0 || !self.classes.contains(ev.class()) {
            return;
        }
        self.total += 1;
        let rec = Record { cycle, event: *ev };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

/// `,"KEY":` for a literal key, as bytes.
macro_rules! key {
    ($k:literal) => {
        concat!(",\"", $k, "\":").as_bytes()
    };
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

fn num(out: &mut Vec<u8>, key: &[u8], v: impl Into<u64>) {
    out.extend_from_slice(key);
    push_u64(out, v.into());
}

fn flag(out: &mut Vec<u8>, key: &[u8], v: bool) {
    out.extend_from_slice(key);
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

fn reason(out: &mut Vec<u8>, reason: StallReason) {
    out.extend_from_slice(key!("reason"));
    out.push(b'"');
    out.extend_from_slice(reason.name().as_bytes());
    out.push(b'"');
}

/// Append one event as a JSONL line (no trailing newline) onto `out`.
///
/// The format is flat and self-describing:
/// `{"c":CYCLE,"ev":"KIND",...fields}`. Every key, kind and stall reason is
/// a static ASCII string and every value a number or a boolean, so the line
/// is assembled from byte slices without `core::fmt`.
pub fn write_event_jsonl(out: &mut Vec<u8>, cycle: u64, ev: &Event) {
    out.extend_from_slice(b"{\"c\":");
    push_u64(out, cycle);
    out.extend_from_slice(b",\"ev\":\"");
    out.extend_from_slice(ev.kind().as_bytes());
    out.push(b'"');
    match *ev {
        Event::WarpIssue { sm, unit, warp, tb_slot, pc, active } => {
            num(out, key!("sm"), sm);
            num(out, key!("unit"), unit);
            num(out, key!("warp"), warp);
            num(out, key!("tb"), tb_slot);
            num(out, key!("pc"), pc);
            num(out, key!("active"), active);
        }
        Event::UnitStall { sm, unit, reason: r } => {
            num(out, key!("sm"), sm);
            num(out, key!("unit"), unit);
            reason(out, r);
        }
        Event::WarpStall { sm, warp, reason: r } => {
            num(out, key!("sm"), sm);
            num(out, key!("warp"), warp);
            reason(out, r);
        }
        Event::ScoreboardSet { sm, warp, longlat } => {
            num(out, key!("sm"), sm);
            num(out, key!("warp"), warp);
            flag(out, key!("longlat"), longlat);
        }
        Event::ScoreboardClear { sm, warp } => {
            num(out, key!("sm"), sm);
            num(out, key!("warp"), warp);
        }
        Event::BarrierArrive { sm, tb_slot, warp } => {
            num(out, key!("sm"), sm);
            num(out, key!("tb"), tb_slot);
            num(out, key!("warp"), warp);
        }
        Event::BarrierRelease { sm, tb_slot } => {
            num(out, key!("sm"), sm);
            num(out, key!("tb"), tb_slot);
        }
        Event::SimtDiverge { sm, warp, pc } | Event::SimtReconverge { sm, warp, pc } => {
            num(out, key!("sm"), sm);
            num(out, key!("warp"), warp);
            num(out, key!("pc"), pc);
        }
        Event::TbLaunch { sm, tb_slot, global_index }
        | Event::TbComplete { sm, tb_slot, global_index } => {
            num(out, key!("sm"), sm);
            num(out, key!("tb"), tb_slot);
            num(out, key!("g"), global_index);
        }
        Event::Coalesce { sm, warp, req, lines, store } => {
            num(out, key!("sm"), sm);
            num(out, key!("warp"), warp);
            num(out, key!("req"), req);
            num(out, key!("lines"), lines);
            flag(out, key!("store"), store);
        }
        Event::L1Hit { sm, req, line }
        | Event::L1Miss { sm, req, line }
        | Event::MshrMerge { sm, req, line }
        | Event::MshrReject { sm, req, line } => {
            num(out, key!("sm"), sm);
            num(out, key!("req"), req);
            num(out, key!("line"), line);
        }
        Event::StoreLine { sm, line } | Event::LineFill { sm, line } => {
            num(out, key!("sm"), sm);
            num(out, key!("line"), line);
        }
        Event::L2Hit { part, line } | Event::L2Miss { part, line } | Event::L2Merge { part, line } => {
            num(out, key!("part"), part);
            num(out, key!("line"), line);
        }
        Event::DramSchedule { part, line, row_hit, done } => {
            num(out, key!("part"), part);
            num(out, key!("line"), line);
            flag(out, key!("row_hit"), row_hit);
            num(out, key!("done"), done);
        }
        Event::LoadComplete { sm, req, latency } => {
            num(out, key!("sm"), sm);
            num(out, key!("req"), req);
            num(out, key!("latency"), latency);
        }
    }
    out.push(b'}');
}

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
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

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
    fn enabled(&self) -> bool {
        false
    }

    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        panic!("event emitted to a disabled tracer at cycle {cycle}: {ev:?}");
    }

    fn on_kernel_begin(&mut self, _name: &str, _cycle: u64) {}

    fn on_kernel_end(&mut self, _name: &str, _cycle: u64, _cycles: u64) {}
}

/// Convenience: count UnitStall events by reason (used in agreement tests).
pub fn count_unit_stalls<'a>(
    records: impl Iterator<Item = &'a Record>,
) -> (u64, u64, u64) {
    let (mut idle, mut sb, mut pipe) = (0, 0, 0);
    for r in records {
        if let Event::UnitStall { reason, .. } = r.event {
            match reason {
                StallReason::Idle => idle += 1,
                StallReason::Scoreboard => sb += 1,
                StallReason::Pipeline => pipe += 1,
            }
        }
    }
    (idle, sb, pipe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event::L1Hit { sm: 0, req: i, line: i }
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

    #[test]
    fn ring_emit_never_allocates_after_construction() {
        let mut r = RingTracer::new(8);
        let cap_before = r.buf.capacity();
        for i in 0..100u64 {
            r.emit(i, &ev(i));
        }
        assert_eq!(r.buf.capacity(), cap_before);
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
        assert!(!NoopTracer.enabled());
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

    const KINDS: u32 = 23;

    /// Variant `kind` (`0..KINDS`), each field drawn from `v` and cut to
    /// the field's width.
    fn event_of(kind: u32, mut v: impl FnMut() -> u64) -> Event {
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
