//! `tessera_perf` — the repository benchmark: four tessera user flows,
//! measured end to end and per layer.
//!
//! ```text
//! tessera_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! tessera_perf [--seed N] [--runs N] [--seconds S]
//! tessera_perf --compare A.json B.json
//! tessera_perf --smoke
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the run protocol.

#![forbid(unsafe_code)]

mod batch;
mod inputs;
mod metrics;
mod probe;
mod serve_mix;
mod suite;

use std::process::ExitCode;

use inputs::Circuit;
use metrics::Outcome;

const USAGE: &str = "\
tessera_perf: the tessera benchmark (four user flows, end to end and per layer)

USAGE:
    tessera_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
        One run of one workload. The last stdout line is the JSON result:
        end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
    tessera_perf [--seed N] [--runs N] [--seconds S]
        The suite: N untraced runs per workload, round-robin, each in a
        fresh child process, then one traced run each. Prints medians and
        quartiles and writes target/tessera_perf/results.json.
    tessera_perf --compare A.json B.json
        Compares two suite results against the bounds in ./BENCHMARK.json.
    tessera_perf --smoke
        Every workload at toy size, traced and untraced.

WORKLOADS: grade_100k, atpg_15x140, fix_15x140, serve_mixed
DEFAULTS:  --seed 1, --seconds 20, --runs 3, --trace 0

EXIT CODES: 0 done, 1 an oracle disagreed / a run failed / a regression,
2 usage error.";

/// The four user flows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ingest, lint and fault-grade a 10⁵-gate netlist.
    Grade,
    /// Full test generation on a small random circuit.
    Atpg,
    /// The lint-driven repair autopilot on the same circuit.
    Fix,
    /// An in-process analysis server under a mixed request load.
    Serve,
}

impl Workload {
    /// Every workload, in suite order.
    pub const ALL: [Workload; 4] = [
        Workload::Grade,
        Workload::Atpg,
        Workload::Fix,
        Workload::Serve,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grade => "grade_100k",
            Workload::Atpg => "atpg_15x140",
            Workload::Fix => "fix_15x140",
            Workload::Serve => "serve_mixed",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The circuit each workload runs on.
pub struct Sizes {
    /// Fault-grading input.
    pub grade: Circuit,
    /// ATPG input.
    pub atpg: Circuit,
    /// Repair input.
    pub fix: Circuit,
    /// The served design.
    pub serve: Circuit,
}

/// The measured sizes.
pub const FULL: Sizes = Sizes {
    grade: Circuit::Layered {
        inputs: 256,
        gates: 100_000,
    },
    atpg: Circuit::Random {
        inputs: 15,
        gates: 140,
        seed: 6,
    },
    fix: Circuit::Random {
        inputs: 15,
        gates: 140,
        seed: 6,
    },
    serve: Circuit::Random {
        inputs: 16,
        gates: 300,
        seed: 5,
    },
};

/// Toy sizes for `--smoke`: the same code paths in a second or two.
pub const SMOKE: Sizes = Sizes {
    grade: Circuit::Layered {
        inputs: 64,
        gates: 2_000,
    },
    atpg: Circuit::C17,
    fix: Circuit::Random {
        inputs: 12,
        gates: 80,
        seed: 9,
    },
    serve: Circuit::C17,
};

/// One run of one workload.
pub struct RunConfig {
    /// Which flow.
    pub workload: Workload,
    /// Seeds every generated input: patterns, ATPG and repair seeds,
    /// the request sequence and the oracle samples.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record per-layer spans instead of end-to-end metrics.
    pub trace: bool,
    /// Circuit sizes.
    pub size: &'static Sizes,
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Set-up failed (unwritable input directory, unbindable port, …).
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Grade => batch::grade(cfg),
        Workload::Atpg => batch::atpg(cfg),
        Workload::Fix => batch::fix(cfg),
        Workload::Serve => serve_mix::run(cfg),
    }
}

/// Every workload at toy size, untraced then traced.
///
/// # Errors
///
/// The first set-up failure.
pub fn smoke() -> Result<Vec<(Workload, bool, Outcome)>, String> {
    let mut out = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload,
                seed: 1,
                seconds: 0.0,
                trace,
                size: &SMOKE,
            };
            out.push((workload, trace, run(&cfg)?));
        }
    }
    Ok(out)
}

enum Mode {
    One(RunConfig),
    Suite(suite::SuiteConfig),
    Compare(String, String),
    Smoke,
    Help,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut runs = 3usize;
    let mut compare = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} expects a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(Mode::Help),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = number(&value()?, "--seed")?,
            "--seconds" => {
                seconds = number(&value()?, "--seconds")?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, not '{other}'")),
                }
            }
            "--runs" => runs = number(&value()?, "--runs")?,
            "--compare" => compare = Some((value()?, value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(if smoke {
        Mode::Smoke
    } else if let Some((a, b)) = compare {
        Mode::Compare(a, b)
    } else if let Some(workload) = workload {
        Mode::One(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            size: &FULL,
        })
    } else {
        Mode::Suite(suite::SuiteConfig {
            seed,
            seconds,
            runs: runs.max(1),
        })
    })
}

fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: '{s}' is not a valid number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(msg) => {
            eprintln!("tessera_perf: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Help => {
            println!("{USAGE}");
            Ok(true)
        }
        Mode::One(cfg) => run(&cfg).map(|outcome| {
            println!("{}", outcome.to_json());
            outcome.correct
        }),
        Mode::Suite(cfg) => suite::run_suite(&cfg),
        Mode::Compare(a, b) => suite::compare(&a, &b),
        Mode::Smoke => smoke().map(|outcomes| {
            for (workload, trace, outcome) in &outcomes {
                println!(
                    "{} trace={}: {}",
                    workload.name(),
                    u8::from(*trace),
                    outcome.to_json()
                );
            }
            outcomes.iter().all(|(_, _, o)| o.correct)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("tessera_perf: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_json::Value;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The benchmark cannot rot: every workload still runs end to end
    /// at toy size, its oracles agree, and it prints exactly the metrics
    /// `BENCHMARK.json` names, each with its unit.
    #[test]
    fn smoke_prints_every_benchmark_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = dft_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let end_to_end = listed(&doc, "end_to_end");
        let per_layer = listed(&doc, "per_layer");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);

        for (workload, trace, outcome) in smoke().unwrap() {
            assert!(
                outcome.correct,
                "{} trace={trace}: oracle failed",
                workload.name()
            );
            assert!(outcome.attempted >= 1);
            let json = dft_json::parse(&outcome.to_json()).unwrap();
            let printed: Vec<(String, String)> = json
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some());
                    let unit = m.get("unit").and_then(Value::as_str).unwrap();
                    (name.clone(), unit.to_owned())
                })
                .collect();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&printed, want, "{} trace={trace}", workload.name());
        }
    }
}
