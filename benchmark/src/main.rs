//! The repository benchmark. `../BENCHMARK.json` names the command, the
//! workloads and the metrics; this program measures them. See `README.md`.
//!
//! ```text
//! pro-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! pro-benchmark [--seed N] [--seconds S] [--smoke]                every workload, untraced then traced
//! pro-benchmark --check-repeat [--workload NAME] [--seed N]       the untraced pass twice; must agree within the bounds
//! pro-benchmark --full-matrix [--write-golden]                    all 25 Table II kernels x 4 policies, once: Fig. 4 geomeans
//!                                                                 against the paper's; re-capture golden/digests.json
//! ```
//!
//! Run it from the repository root: it writes under `benchmark/out/`.

mod adapter;
mod layers;
mod measure;
mod procfs;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use adapter::components::Effort;
use adapter::json::{self, Json};
use measure::{Runner, Values};
use spans::obj;

/// The contract this program is measured against, compiled in so that the
/// names, units and bounds exist in one place only.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Where results, traces and temporary checkpoints go, relative to the
/// working directory (the repository root).
const OUT_DIR: &str = "benchmark/out";

struct MetricSpec {
    name: String,
    unit: String,
    /// Allowed worsening as a share of the reference; end-to-end only.
    bound: Option<f64>,
}

struct Spec {
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    full_matrix: bool,
    write_golden: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        check_repeat: false,
        full_matrix: false,
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            "--full-matrix" => a.full_matrix = true,
            "--write-golden" => a.write_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload ready to run.
struct Prepared {
    /// In the order the seed runs them.
    cells: Vec<workloads::Cell>,
    /// In id order, for the reductions.
    by_id: Vec<workloads::Cell>,
    runner: Runner,
    /// The runner's checkpoint directory, removed when this is dropped.
    scratch: Scratch,
}

fn prepare(workload: &str, seed: u64, smoke: bool) -> Result<Prepared, String> {
    let cells =
        workloads::cells(workload, seed, smoke).ok_or(format!("unknown workload `{workload}`"))?;
    let mut by_id = cells.clone();
    by_id.sort_by_key(|c| c.id);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id())));
    let runner = Runner::new(&cells, scratch.0.clone())?;
    Ok(Prepared {
        cells,
        by_id,
        runner,
        scratch,
    })
}

/// One run of one workload: what the last line of standard output says.
struct RunOutput {
    values: Values,
    attempted: u64,
    failed: u64,
}

fn run_single(
    spec: &Spec,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunOutput, String> {
    let Prepared {
        cells,
        by_id,
        mut runner,
        scratch: _scratch,
    } = prepare(workload, seed, smoke)?;
    let budget = Duration::from_secs_f64(seconds);
    let root = runner.rec.open("run", None);
    measure::warm_up(&mut runner, &cells);

    let mut meta = vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("cells", Json::Num(cells.len() as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
    ];
    let values = if trace {
        // The probes do fixed work; the traced pass gets the rest.
        let traced = measure::traced_pass(&mut runner, &cells, budget.mul_f64(0.6));
        let effort = if smoke {
            Effort {
                rounds: 1,
                batch: 500,
            }
        } else {
            Effort {
                rounds: 5,
                batch: 20_000,
            }
        };
        let mut values = layers::from_traced_pass(&by_id, &traced)?;
        values.extend(layers::from_probes(&mut runner, effort)?);
        meta.push(("reps", Json::Num(traced.plain[0].len() as f64)));
        meta.push(("per_cell", per_cell_json(&by_id, &traced.plain)));
        values
    } else {
        let samples = measure::untraced_pass(&mut runner, &cells, budget);
        let reps = samples[0].len();
        let mut rep_wall: Vec<f64> = (0..reps)
            .map(|r| samples.iter().map(|c| c[r].launch_ns as f64 / 1e9).sum())
            .collect();
        rep_wall.sort_by(f64::total_cmp);
        println!(
            "{workload}: {} cells x {reps} reps; launch seconds per rep: min {:.4} median {:.4} max {:.4}",
            cells.len(),
            rep_wall[0],
            measure::median(&mut rep_wall.clone()),
            rep_wall[reps - 1],
        );
        meta.push(("reps", Json::Num(reps as f64)));
        meta.push((
            "rep_wall_s",
            Json::Arr(rep_wall.into_iter().map(Json::Num).collect()),
        ));
        meta.push(("per_cell", per_cell_json(&by_id, &samples)));
        measure::end_to_end(&by_id, &samples, procfs::peak_rss_mb()?)
    };
    runner.rec.close(root);
    let tree = runner.rec.check();
    runner
        .checks
        .check(tree.is_ok(), || format!("span tree: {}", tree.unwrap_err()));
    for m in &runner.checks.messages {
        println!("FAILED CHECK: {m}");
    }

    // The metrics measured must be exactly the metrics declared.
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    want.sort_unstable();
    let got: Vec<&str> = values.keys().map(String::as_str).collect();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "metrics differ from BENCHMARK.json: not measured {missing:?}, not declared {extra:?}"
        ));
    }
    if let Some((name, x)) = values.iter().find(|(_, x)| !x.is_finite()) {
        return Err(format!("metric {name} is {x}"));
    }

    if trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
        std::fs::write(&path, json::to_string(&runner.rec.chrome_trace()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{workload}: {} spans written to {}",
            runner.rec.spans().len(),
            path.display()
        );
    }
    let out = RunOutput {
        values,
        attempted: runner.checks.attempted,
        failed: runner.checks.failed,
    };
    meta.push(("result", result_json(spec, &out)));
    let path = Path::new(OUT_DIR).join(format!("result-{workload}-trace{}.json", trace as u8));
    let meta_obj = Json::Obj(meta.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    std::fs::write(&path, json::to_string(&meta_obj))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

/// Per cell: what it is, its simulated cycles and its fastest launch.
fn per_cell_json(by_id: &[workloads::Cell], samples: &[Vec<measure::Sample>]) -> Json {
    let stats = measure::first_stats(samples);
    let best = measure::fastest(samples);
    let cells = by_id
        .iter()
        .map(|c| {
            let id = c.id as usize;
            obj([
                ("key", Json::Str(c.key())),
                ("mode", Json::Str(c.mode.name().to_string())),
                (
                    "cycles",
                    Json::Num(stats[id].map_or(0, |s| s.cycles()) as f64),
                ),
                ("launch_s", Json::Num(best[id].launch_ns as f64 / 1e9)),
            ])
        })
        .collect();
    Json::Arr(cells)
}

fn unit_of<'a>(spec: &'a Spec, name: &str) -> &'a str {
    spec.end_to_end
        .iter()
        .chain(&spec.per_layer)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit.as_str())
}

/// The result object of the contract: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(spec: &Spec, out: &RunOutput) -> Json {
    let metrics = out
        .values
        .iter()
        .map(|(name, x)| {
            let m = obj([
                ("value", Json::Num(*x)),
                ("unit", Json::Str(unit_of(spec, name).to_string())),
            ]);
            (name.clone(), m)
        })
        .collect();
    obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_run(spec: &Spec, workload: &str, out: &RunOutput) {
    for (name, x) in &out.values {
        println!(
            "{workload:<14} {name:<34} {x:>18.6} {}",
            unit_of(spec, name)
        );
    }
    println!(
        "{workload:<14} checks: {} attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{}", json::to_string(&result_json(spec, out)));
}

/// Run this program again as a child, one workload and pass per process, so
/// that each run's peak memory is its own. Returns the child's result object.
fn run_child(workload: &str, a: &Args, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): child exited with {}",
            trace as u8, output.status
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last).map_err(|e| format!("child's last line is not JSON: {e}"))
}

fn selected<'a>(spec: &'a Spec, a: &'a Args) -> Vec<&'a str> {
    match &a.workload {
        Some(w) => vec![w.as_str()],
        None => spec.workloads.iter().map(String::as_str).collect(),
    }
}

/// Every workload, untraced pass then traced pass.
fn run_all(spec: &Spec, a: &Args, seconds: f64) -> Result<bool, String> {
    let mut correct = true;
    for w in selected(spec, a) {
        for trace in [false, true] {
            let result = run_child(w, a, seconds, trace)?;
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        }
    }
    Ok(correct)
}

/// The untraced pass twice per workload: every end-to-end metric of the
/// second must be within its bound of the first, in either direction.
fn check_repeat(spec: &Spec, a: &Args, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    for w in selected(spec, a) {
        let first = run_child(w, a, seconds, false)?;
        let second = run_child(w, a, seconds, false)?;
        for m in &spec.end_to_end {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{w}: no {} in a result", m.name))
            };
            let (x, y) = (value(&first)?, value(&second)?);
            let spread = (x - y).abs() / x.abs().min(y.abs());
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if spread <= bound { "ok" } else { "OUTSIDE" };
            ok &= spread <= bound;
            println!("check-repeat {w:<14} {:<22} {x:>16.6} {y:>16.6}  spread {:>7.3}%  bound {:>5.1}%  {verdict}", m.name, spread * 100.0, bound * 100.0);
        }
        for r in [&first, &second] {
            ok &= r.get("correct").and_then(Json::as_bool) == Some(true);
        }
    }
    println!("check-repeat: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// The whole Table II matrix under the paper's four policies, once: the
/// three Fig. 4 geomeans beside the paper's (the only published numbers this
/// model is checked against), and on request a fresh `golden/digests.json`.
fn full_matrix(write_golden: bool) -> Result<bool, String> {
    let Prepared {
        cells,
        by_id,
        mut runner,
        scratch: _scratch,
    } = prepare("full_matrix", 1, false)?;
    let samples = measure::untraced_pass(&mut runner, &cells, Duration::ZERO);
    let stats = measure::first_stats(&samples);
    for (baseline, paper) in measure::PAPER_GEOMEANS {
        let measured = measure::pro_speedup_vs(baseline, &by_id, &stats).unwrap_or(0.0);
        println!(
            "full_matrix    PRO vs {:<4} geomean speedup {measured:.4} (paper {paper:.2})",
            baseline.name()
        );
    }
    println!(
        "full_matrix    fig4_geomean_abs_err {:.4}",
        measure::fig4_geomean_abs_err(&by_id, &stats)
    );
    println!(
        "full_matrix    wall_s {:.3}",
        measure::sum_s(measure::fastest(&samples), |s| s.launch_ns)
    );
    println!(
        "full_matrix    checks: {} attempted, {} failed {:?}",
        runner.checks.attempted, runner.checks.failed, runner.checks.messages
    );
    if write_golden && runner.checks.failed == 0 {
        let digests = by_id
            .iter()
            .map(|c| {
                (
                    c.key(),
                    Json::Num(stats[c.id as usize].map_or(0, |s| s.digest) as f64),
                )
            })
            .collect();
        let text = json::to_string(&Json::Obj(digests)).replace(",\"", ",\n\"");
        std::fs::write("benchmark/golden/digests.json", text + "\n").map_err(|e| e.to_string())?;
        println!("full_matrix    wrote benchmark/golden/digests.json");
    }
    Ok(runner.checks.failed == 0)
}

fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args)?;
    let spec = Spec::load()?;
    let seconds = a.seconds.unwrap_or(if a.smoke {
        0.2
    } else {
        spec.run_seconds as f64
    });
    if a.full_matrix {
        return full_matrix(a.write_golden);
    }
    if a.check_repeat {
        return check_repeat(&spec, &a, seconds);
    }
    match (&a.workload, a.trace) {
        (Some(w), Some(trace)) => {
            let out = run_single(&spec, w, a.seed, seconds, trace, a.smoke)?;
            print_run(&spec, w, &out);
            // A wrong output is reported in the result, not by the exit code.
            Ok(true)
        }
        (None, None) | (Some(_), None) => run_all(&spec, &a, seconds),
        (None, Some(_)) => Err("--trace needs --workload".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pro-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_form_and_rejects_the_rest() {
        let a = args("--workload paper_matrix --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("paper_matrix"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), Some(true)));
        assert_eq!(args("").unwrap().seed, 1);
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--workload",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_is_within_the_contracts_limits() {
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads, workloads::NAMES);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(
            (1..=16).contains(&spec.end_to_end.len()) && (1..=128).contains(&spec.per_layer.len())
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!(setup.unit, "s");
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| m.name.as_str()),
        );
        for n in &names {
            let ok = n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "bad name `{n}`");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
        assert!(
            spec.per_layer.iter().all(|m| m.bound.is_none()),
            "per-layer metrics have no bound"
        );
    }
}
