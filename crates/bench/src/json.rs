//! Tiny hand-rolled JSON writer (no external deps) plus the experiment
//! export used by `repro json`: one machine-readable document containing
//! every (kernel × scheduler) result so external tooling (plotting
//! notebooks, CI regression checks) can consume the reproduction.

use crate::Cell;

/// A JSON value assembled by the writer.
#[derive(Debug, Clone)]
pub enum Json {
    /// null
    Null,
    /// true/false
    Bool(bool),
    /// Any finite number (non-finite serializes as null).
    Num(f64),
    /// String (escaped on write).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Numbers and string escapes as `pro_trace::json` writes them.
            Json::Num(n) => pro_trace::json::write_num(out, *n),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&pro_trace::json::escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shorthand constructors.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Number helper.
pub fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// u64 helper (lossless for counters < 2^53, which all ours are).
pub fn unum(v: u64) -> Json {
    Json::Num(v as f64)
}

/// String helper.
pub fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

/// Export a set of experiment cells as one JSON document.
pub fn export_cells<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> Json {
    Json::Arr(
        cells
            .into_iter()
            .map(|c| {
                let r = &c.result;
                obj(vec![
                    ("app", s(c.app)),
                    ("kernel", s(c.kernel)),
                    ("scheduler", s(c.sched.name())),
                    ("cycles", unum(r.cycles)),
                    ("instructions", unum(r.sm.instructions)),
                    ("thread_instructions", unum(r.sm.thread_instructions)),
                    ("ipc", num(r.ipc())),
                    ("issued", unum(r.sm.issued)),
                    ("idle", unum(r.sm.idle)),
                    ("scoreboard", unum(r.sm.scoreboard)),
                    ("pipeline", unum(r.sm.pipeline)),
                    ("unit_cycles", unum(r.sm.unit_cycles)),
                    ("avg_wld", num(r.sm.avg_wld())),
                    ("tbs_completed", unum(r.sm.tbs_completed)),
                    ("l1_miss_rate", num(r.mem.l1.miss_rate())),
                    ("l2_miss_rate", num(r.mem.l2.miss_rate())),
                    ("dram_row_hit_rate", num(r.mem.dram.row_hit_rate())),
                    ("avg_load_latency", num(r.mem.avg_load_latency())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(num(3.0).to_string(), "3");
        assert_eq!(num(3.5).to_string(), "3.5");
        assert_eq!(num(f64::NAN).to_string(), "null");
        assert_eq!(unum(123456789).to_string(), "123456789");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(s("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(s("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn containers_nest() {
        let v = obj(vec![
            ("xs", Json::Arr(vec![num(1.0), num(2.0)])),
            ("name", s("k")),
        ]);
        assert_eq!(v.to_string(), r#"{"xs":[1,2],"name":"k"}"#);
    }

    #[test]
    fn export_shape() {
        // Construct a minimal cell via a tiny real run.
        use pro_core::SchedulerKind::Lrr;
        use pro_sim::{GpuConfig, TraceOptions};
        use pro_workloads::{find, Scale};
        let w = find("cenergy").unwrap();
        let cell = crate::run_cell(&w, Lrr, Scale::Capped(4), GpuConfig::small(1), |gpu, k| {
            gpu.launch(k, Lrr, TraceOptions::default())
        });
        let doc = export_cells(&[cell]).to_string();
        assert!(doc.starts_with('['));
        assert!(doc.contains(r#""kernel":"cenergy""#));
        assert!(doc.contains(r#""scheduler":"LRR""#));
        assert!(doc.contains(r#""cycles":"#));
    }
}
