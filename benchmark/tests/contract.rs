//! The benchmark against its own contract: every workload in `--smoke` size,
//! untraced and traced, must print exactly the metrics `BENCHMARK.json`
//! declares, pass its output checks and leave a well-formed span tree.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use pro_sim::trace::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_pro-benchmark");

/// The benchmark writes under `benchmark/out/` of its working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .to_path_buf()
}

fn contract() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    let text = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    doc.get(list)
        .and_then(Json::as_arr)
        .expect(list)
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// One `--smoke` run; the parsed last line of its standard output.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = Command::new(EXE)
        .current_dir(repo_root())
        .args([
            "--smoke",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--workload",
            workload,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check_result(workload: &str, trace: bool, declared: &[(String, String)]) {
    let result = smoke(workload, trace);
    let what = format!("{workload} trace {}", trace as u8);
    let Json::Obj(fields) = &result else {
        panic!("{what}: result is not an object")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
        "{what}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics")
    };
    let got: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let want: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "{what}: metrics printed != metrics declared");
    for (name, unit) in declared {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(
            value.is_finite() && value >= 0.0,
            "{what}: {name} = {value}"
        );
        assert!(
            trace || value > 0.0,
            "{what}: end-to-end metric {name} is 0"
        );
    }
}

/// Child inside parent, self time not negative, ids dense.
fn check_trace_file(workload: &str) {
    let path = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
    let doc = json::parse(&std::fs::read_to_string(&path).expect("trace file written"))
        .expect("trace file parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(events.len() > 10, "{workload}: only {} spans", events.len());
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap();
    let arg = |e: &Json, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(Json::as_f64)
            .unwrap()
    };
    let mut cells = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(arg(e, "id"), i as f64);
        assert!(
            arg(e, "self_us") >= -0.001,
            "{workload}: span {i} has negative self time"
        );
        cells.insert(arg(e, "cell") as i64);
        let parent = arg(e, "parent");
        if parent >= 0.0 {
            let p = &events[parent as usize];
            assert!(parent < i as f64);
            let (start, end) = (num(e, "ts"), num(e, "ts") + num(e, "dur"));
            assert!(
                num(p, "ts") <= start + 0.001 && end <= num(p, "ts") + num(p, "dur") + 0.001,
                "{workload}: span {i} leaves its parent"
            );
        }
    }
    assert!(cells.contains(&0), "{workload}: no span carries cell id 0");
    for name in [
        "run",
        "rep",
        "cell",
        "gpu_new",
        "build",
        "launch",
        "verify",
        "probes",
        "sm.tick.ns_per_call",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name)),
            "{workload}: no `{name}` span"
        );
    }
}

#[test]
fn smoke_runs_print_the_declared_metrics_and_pass_their_checks() {
    let doc = contract();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
        let workload = w.get("name").and_then(Json::as_str).expect("name");
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        check_result(workload, false, &end_to_end);
        check_result(workload, true, &per_layer);
        check_trace_file(workload);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--trace", "1"],
        &["--bogus"],
    ] {
        let out = Command::new(EXE)
            .current_dir(repo_root())
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
            "{args:?}"
        );
    }
}
