//! The suite (every workload, several runs each, each run in a fresh
//! child process) and the comparison of two suite results.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use dft_json::{JsonWriter, Style, Value};

use crate::inputs::OUT_DIR;
use crate::metrics::quartiles;
use crate::Workload;

/// What the suite runs.
pub struct SuiteConfig {
    /// Seed of every run (runs repeat the same inputs, so their spread
    /// is the machine's, not the inputs').
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Untraced runs per workload.
    pub runs: usize,
}

/// One child run's result line.
struct RunResult {
    correct: bool,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
}

/// Runs this executable as a child on one workload and parses the last
/// line of its output.
fn child(cfg: &SuiteConfig, workload: Workload, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} printed no result ({})", workload.name(), output.status))?;
    let doc = dft_json::parse(line).map_err(|e| format!("{}: bad result: {e}", workload.name()))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{}: result has no metrics", workload.name()))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), value, unit.to_owned())
        })
        .collect();
    Ok(RunResult {
        correct: output.status.success()
            && doc.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
    })
}

/// Runs the suite, prints its table and writes `results.json`.
/// Returns whether every run's oracles agreed.
///
/// # Errors
///
/// A child could not be started or printed no result.
pub fn run_suite(cfg: &SuiteConfig) -> Result<bool, String> {
    let mut untraced: Vec<Vec<RunResult>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..cfg.runs {
        for (w, &workload) in Workload::ALL.iter().enumerate() {
            eprintln!("run {}/{}: {}", round + 1, cfg.runs, workload.name());
            untraced[w].push(child(cfg, workload, false)?);
        }
    }
    let mut traced = Vec::new();
    for workload in Workload::ALL {
        eprintln!("traced run: {}", workload.name());
        traced.push(child(cfg, workload, true)?);
    }

    let mut w = JsonWriter::new(Style::Pretty);
    w.begin_object();
    w.kv_string("schema", "tessera-perf/1");
    w.kv_u64("seed", cfg.seed);
    w.kv_f64("seconds", cfg.seconds);
    w.kv_u64("runs", cfg.runs as u64);
    w.key("workloads");
    w.begin_object();
    let mut all_correct = true;
    for ((workload, runs), trace) in Workload::ALL.iter().zip(&untraced).zip(&traced) {
        let correct = runs.iter().chain([trace]).all(|r| r.correct);
        all_correct &= correct;
        println!("{} (correct: {correct})", workload.name());
        w.key(workload.name());
        w.begin_object();
        w.kv_bool("correct", correct);
        w.key("end_to_end");
        w.begin_object();
        for (name, _, unit) in &runs[0].metrics {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map_or(f64::NAN, |m| m.1)
                })
                .collect();
            let (q1, med, q3) = quartiles(&values);
            println!(
                "  {name:<14} {med:>14.6} {unit:<8} [q1 {q1:.6}, q3 {q3:.6}, n {}]",
                values.len()
            );
            w.key(name);
            w.begin_object();
            w.kv_string("unit", unit);
            w.kv_f64("median", med);
            w.kv_f64("q1", q1);
            w.kv_f64("q3", q3);
            w.kv_u64("samples", values.len() as u64);
            w.key("runs");
            w.begin_array();
            for v in values {
                w.f64(v);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.key("per_layer");
        w.begin_object();
        for (name, value, unit) in &trace.metrics {
            // Layers the workload never calls read 0; the file keeps them.
            if *value != 0.0 {
                println!("  {name:<36} {value:>14.6} {unit}");
            }
            w.key(name);
            w.begin_object();
            w.kv_string("unit", unit);
            w.kv_f64("value", *value);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_object();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join("results.json");
    fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} and {OUT_DIR}/trace_*.json", path.display());
    Ok(all_correct)
}

/// One end-to-end metric's bound from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    dft_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {}", m.to_compact())),
            }
        })
        .collect()
}

/// Median, quartiles and runs of one metric of one suite result.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    runs: Vec<f64>,
}

fn summary(result: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Summary {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        runs: m
            .get("runs")?
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

/// Compares suite result `b` (the change) against `a` (the parent),
/// one row per workload and end-to-end metric, and returns `false` on
/// any regression. A metric whose spread (quartile distance over
/// median) exceeds its bound is `unresolved` unless every run of `b`
/// beats every run of `a`. Per-layer counts that differ are listed.
///
/// # Errors
///
/// A file is missing or malformed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds = bounds(&read_json("BENCHMARK.json")?)?;
    let a = read_json(a_path)?;
    let b = read_json(b_path)?;
    let workloads: Vec<String> = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{a_path} has no workloads"))?
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    let mut ok = true;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<12} {:<12} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    for workload in &workloads {
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (
                summary(&a, workload, &bound.name),
                summary(&b, workload, &bound.name),
            ) else {
                let _ = writeln!(
                    table,
                    "{workload:<12} {:<12} missing in one result",
                    bound.name
                );
                continue;
            };
            let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
            let worse = if sa.median == 0.0 {
                0.0
            } else {
                sign * (sb.median - sa.median) / sa.median
            };
            let spread = |s: &Summary| {
                if s.median == 0.0 {
                    0.0
                } else {
                    (s.q3 - s.q1).abs() / s.median.abs()
                }
            };
            let b_beats_a = sb
                .runs
                .iter()
                .all(|&vb| sa.runs.iter().all(|&va| sign * (vb - va) < 0.0));
            let verdict = if spread(&sa).max(spread(&sb)) > bound.bound {
                if b_beats_a {
                    "better"
                } else {
                    "unresolved"
                }
            } else if worse > bound.bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{workload:<12} {:<12} {:>32} {:>32} {:>7.2}% {:>5.1}%  {verdict}",
                bound.name,
                format!("{:.6} [{:.6}, {:.6}]", sa.median, sa.q1, sa.q3),
                format!("{:.6} [{:.6}, {:.6}]", sb.median, sb.q1, sb.q3),
                worse * 100.0,
                bound.bound * 100.0,
            );
        }
        for (name, va, vb) in changed_counts(&a, &b, workload) {
            let _ = writeln!(table, "{workload:<12} {name} (count) changed: {va} -> {vb}");
        }
    }
    print!("{table}");
    Ok(ok)
}

/// Per-layer `count` metrics whose traced value differs between `a` and
/// `b` — work counters repeat exactly for a seed, so a change means the
/// program did different work.
fn changed_counts(a: &Value, b: &Value, workload: &str) -> Vec<(String, f64, f64)> {
    let layer = |r: &Value| {
        r.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("per_layer"))
            .and_then(Value::as_object)
            .map(<[(String, Value)]>::to_vec)
            .unwrap_or_default()
    };
    let lb = layer(b);
    layer(a)
        .into_iter()
        .filter(|(_, m)| m.get("unit").and_then(Value::as_str) == Some("count"))
        .filter_map(|(name, m)| {
            let va = m.get("value")?.as_f64()?;
            let vb = lb
                .iter()
                .find(|(n, _)| *n == name)?
                .1
                .get("value")?
                .as_f64()?;
            (va != vb).then_some((name, va, vb))
        })
        .collect()
}
