//! Benchmark-side spans: one per call into a layer, recorded in memory and
//! written out when the run ends (Chrome `trace_event` format).
//!
//! A span has a name, a start, an end, the span that caused it (its parent)
//! and the id of the cell it belongs to. A span's *self time* is its duration
//! minus the part its direct children cover.

use std::time::Instant;

use crate::adapter::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    pub parent: Option<usize>,
    pub cell: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e - self.start_ns)
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. `cell` is inherited from
    /// the parent when `None`.
    pub fn open(&mut self, name: &'static str, cell: Option<u32>) -> usize {
        let parent = self.open.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent,
            cell,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let end = self.now_ns();
        self.spans[id].end_ns = Some(end);
        end - self.spans[id].start_ns
    }

    /// Time `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, None);
        let r = f();
        (r, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration minus the durations of its direct children.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.dur_ns() as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i128;
            }
        }
        own
    }

    /// The tree is well formed: every span closed, every child inside its
    /// parent, every self time non-negative.
    pub fn check(&self) -> Result<(), String> {
        let own = self.self_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let end = s
                .end_ns
                .ok_or(format!("span {id} `{}` never closed", s.name))?;
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let inside = p < id
                    && parent.start_ns <= s.start_ns
                    && parent.end_ns.is_some_and(|pe| end <= pe);
                if !inside {
                    return Err(format!("span {id} `{}` leaves its parent {p}", s.name));
                }
            }
            if own[id] < 0 {
                return Err(format!("span {id} `{}` has negative self time", s.name));
            }
        }
        Ok(())
    }

    /// Chrome `trace_event` document: one complete (`"ph":"X"`) event per
    /// span, `ts`/`dur` in microseconds, `args` carrying the span id, its
    /// parent id (-1 for a root), the cell id (-1 outside a cell) and the
    /// self time.
    pub fn chrome_trace(&self) -> Json {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let args = [
                    ("id", id as f64),
                    ("parent", s.parent.map_or(-1.0, |p| p as f64)),
                    ("cell", s.cell.map_or(-1.0, |c| c as f64)),
                    ("self_us", own[id] as f64 / 1e3),
                ];
                obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str("benchmark".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", obj(args.map(|(k, v)| (k, Json::Num(v))))),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// A JSON object from key/value pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_cells_and_self_time() {
        let mut rec = Recorder::new();
        let cell = rec.open("cell", Some(7));
        let ((), build_ns) = rec.time("build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let launch = rec.open("launch", None);
        rec.close(launch);
        let cell_ns = rec.close(cell);
        rec.check().unwrap();
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(cell));
        assert_eq!(spans[1].cell, Some(7), "children inherit the cell id");
        assert_eq!(spans[2].parent, Some(cell));
        assert!(build_ns >= 2_000_000 && cell_ns >= build_ns);
        let own = rec.self_ns();
        assert_eq!(own[cell], (cell_ns - build_ns - spans[2].dur_ns()) as i128);
    }

    #[test]
    fn check_rejects_an_open_span() {
        let mut rec = Recorder::new();
        rec.open("cell", None);
        assert!(rec.check().is_err());
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let mut rec = Recorder::new();
        let a = rec.open("a", None);
        rec.time("b", || ());
        rec.close(a);
        let doc = rec.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let b = &events[1];
        assert_eq!(b.get("name").unwrap().as_str(), Some("b"));
        assert_eq!(
            b.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
