//! Chrome `trace_event` exporter.
//!
//! Produces the JSON object format (`{"traceEvents":[...]}`) understood by
//! `chrome://tracing` and Perfetto. Mapping:
//!
//! * each SM becomes a *process* (`pid` = SM id, named via `process_name`
//!   metadata);
//! * thread-block residency becomes complete (`"X"`) slices on `tid` =
//!   TB slot, from `TbLaunch` to `TbComplete`;
//! * finished memory loads become `"X"` slices on per-SM "mem" lanes
//!   (`tid` = [`MEM_LANE_BASE`] + request-id hash), spanning
//!   `[complete − latency, complete]`;
//! * barrier releases become instant (`"i"`) events on the TB's lane.
//!
//! Timestamps are simulator cycles written as microseconds — the absolute
//! unit is meaningless for a cycle-level model; only relative spans matter.

use crate::event::{Event, Record};
use crate::json::escape;
use std::fmt::Write as _;

/// First `tid` used for memory-request lanes (TB slots occupy low tids).
pub const MEM_LANE_BASE: u64 = 100;

/// Number of memory lanes per SM; requests hash onto these.
pub const MEM_LANES: u64 = 8;

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
    out.push_str(body);
}

/// Render `records` (oldest → newest, as produced by
/// `RingTracer::records`) into a complete Chrome-trace JSON document.
///
/// `name` labels the whole trace (shown in Perfetto's metadata); unmatched
/// `TbLaunch`es (still resident when the trace ends at `end_cycle`) are
/// closed at `end_cycle` so no slice is silently dropped. A `TbComplete`
/// whose `TbLaunch` fell out of a wrapped ring starts its slice at the
/// first cycle the records hold, not at cycle 0.
pub fn chrome_trace(name: &str, records: impl IntoIterator<Item = Record>, end_cycle: u64) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"kernel\":\"{}\"}},\"traceEvents\":[",
        escape(name)
    );
    let mut first = true;
    let mut seen_sms: Vec<u32> = Vec::new();
    // Open TB slices, keyed by (sm, tb_slot) → (global_index, start).
    let mut open_tbs: Vec<((u32, u32), (u32, u64))> = Vec::new();
    let mut line = String::with_capacity(160);
    let mut first_cycle = None;

    for rec in records {
        let c = rec.cycle;
        let window_start = *first_cycle.get_or_insert(c);
        match rec.event {
            Event::TbLaunch { sm, tb_slot, global_index } => {
                if !seen_sms.contains(&sm) {
                    seen_sms.push(sm);
                }
                open_tbs.retain(|(k, _)| *k != (sm, tb_slot));
                open_tbs.push(((sm, tb_slot), (global_index, c)));
            }
            Event::TbComplete { sm, tb_slot, global_index } => {
                let start = open_tbs
                    .iter()
                    .position(|(k, _)| *k == (sm, tb_slot))
                    .map_or(window_start, |i| open_tbs.remove(i).1 .1);
                line.clear();
                let _ = write!(
                    line,
                    "{{\"name\":\"TB {global_index}\",\"cat\":\"tb\",\"ph\":\"X\",\"pid\":{sm},\"tid\":{tb_slot},\"ts\":{start},\"dur\":{}}}",
                    c.saturating_sub(start)
                );
                push_event(&mut out, &mut first, &line);
            }
            Event::LoadComplete { sm, req, latency } => {
                if !seen_sms.contains(&sm) {
                    seen_sms.push(sm);
                }
                let tid = MEM_LANE_BASE + req % MEM_LANES;
                line.clear();
                let _ = write!(
                    line,
                    "{{\"name\":\"load {req:#x}\",\"cat\":\"mem\",\"ph\":\"X\",\"pid\":{sm},\"tid\":{tid},\"ts\":{},\"dur\":{latency}}}",
                    c.saturating_sub(latency)
                );
                push_event(&mut out, &mut first, &line);
            }
            Event::BarrierRelease { sm, tb_slot } => {
                line.clear();
                let _ = write!(
                    line,
                    "{{\"name\":\"barrier\",\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{sm},\"tid\":{tb_slot},\"ts\":{c}}}"
                );
                push_event(&mut out, &mut first, &line);
            }
            _ => {}
        }
    }

    // Close TBs still resident at the end of the trace window.
    for ((sm, tb_slot), (g, start)) in open_tbs {
        line.clear();
        let _ = write!(
            line,
            "{{\"name\":\"TB {g}\",\"cat\":\"tb\",\"ph\":\"X\",\"pid\":{sm},\"tid\":{tb_slot},\"ts\":{start},\"dur\":{}}}",
            end_cycle.saturating_sub(start)
        );
        push_event(&mut out, &mut first, &line);
    }

    // Metadata: name each SM's process so Perfetto shows "SM n" headers.
    seen_sms.sort_unstable();
    for sm in seen_sms {
        line.clear();
        let _ = write!(
            line,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{sm},\"args\":{{\"name\":\"SM {sm}\"}}}}"
        );
        push_event(&mut out, &mut first, &line);
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rec(cycle: u64, event: Event) -> Record {
        Record { cycle, event }
    }

    #[test]
    fn export_is_valid_json_with_expected_slices() {
        let records = [
            rec(10, Event::TbLaunch { sm: 0, tb_slot: 0, global_index: 7 }),
            rec(15, Event::BarrierRelease { sm: 0, tb_slot: 0 }),
            rec(40, Event::LoadComplete { sm: 0, req: 3, latency: 25 }),
            rec(50, Event::TbComplete { sm: 0, tb_slot: 0, global_index: 7 }),
            rec(60, Event::TbLaunch { sm: 1, tb_slot: 2, global_index: 8 }),
        ];
        let txt = chrome_trace("k", records, 100);
        let v = parse(&txt).expect("chrome trace parses as JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // TB7 slice, barrier instant, load slice, open TB8 closed at end,
        // and two process_name metadata records.
        assert_eq!(evs.len(), 6);
        let tb7 = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("TB 7"))
            .unwrap();
        assert_eq!(tb7.get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(tb7.get("dur").unwrap().as_u64(), Some(40));
        let tb8 = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("TB 8"))
            .unwrap();
        assert_eq!(tb8.get("dur").unwrap().as_u64(), Some(40), "closed at end_cycle");
        let load = evs
            .iter()
            .find(|e| e.get("cat").and_then(|n| n.as_str()) == Some("mem"))
            .unwrap();
        assert_eq!(load.get("ts").unwrap().as_u64(), Some(15));
        assert_eq!(load.get("dur").unwrap().as_u64(), Some(25));
        let meta: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|n| n.as_str()) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
    }

    #[test]
    fn an_orphan_tb_slice_starts_where_the_wrapped_ring_does() {
        use crate::{RingTracer, Tracer};
        let mut ring = RingTracer::new(3);
        ring.emit(10, &Event::TbLaunch { sm: 0, tb_slot: 1, global_index: 4 });
        for c in [20, 30] {
            ring.emit(c, &Event::L1Hit { sm: 0, req: c, line: c });
        }
        ring.emit(40, &Event::TbComplete { sm: 0, tb_slot: 1, global_index: 4 });
        assert_eq!(ring.records().next().map(|r| r.cycle), Some(20), "TbLaunch evicted");
        let v = parse(&chrome_trace("k", ring.records(), 50)).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let tb = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("TB 4"))
            .unwrap();
        assert_eq!(tb.get("ts").unwrap().as_u64(), Some(20));
        assert_eq!(tb.get("dur").unwrap().as_u64(), Some(20));
    }

    #[test]
    fn empty_trace_still_parses() {
        let txt = chrome_trace("empty", [], 0);
        let v = parse(&txt).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
