//! `tessera-bench`: the toolkit's own measured costs, written as the
//! committed `BENCH_*.json` artifacts CI gates on.
//!
//! Three sections, each building its artifact once as a JSON document
//! that its file, its text tables and its baseline gate all read:
//!
//! * fault simulation (`BENCH_fault_sim.json`, [`fault_sim`]): every
//!   combinational engine timed on a roster of circuits, the detected
//!   fault sets cross-checked, PPSFP's speedup over the serial engine,
//!   a random-pattern coverage curve, and the industrial-scale rungs
//!   (streamed collapse plus chunked PPSFP, checked bit for bit against
//!   the materialized fault list, with netlist bytes per gate);
//! * incremental analysis (`BENCH_analysis.json`, [`analysis`]):
//!   single-gate ECOs through a warmed `AnalysisCache` against a
//!   from-scratch pass, cross-checked bit for bit;
//! * ATPG (`BENCH_atpg.json`, [`atpg`]): PODEM with the static
//!   implication engine off and on, and the deterministic flow's
//!   wall-clock per thread count with its test sets hashed.
//!
//! A record that runs under a second repeats until it has run five
//! times and for 10 ms in all, and reports its per-run median `seconds`
//! beside its `runs`; longer records run once.
//!
//! ```text
//! tessera-bench [--quick] [--format text|json] [--out PATH]
//!               [--atpg-out PATH] [--analysis-out PATH] [--threads N]
//!               [--report PATH] [--atpg-baseline PATH]
//!               [--fault-sim-baseline PATH] [--scale SPEC]...
//!               [--bytes-ceiling B]
//! ```
//!
//! `--quick` restricts the rosters to the small circuits (the CI smoke
//! configuration); `--threads` pins the PPSFP worker count (0 = auto).
//! `--report PATH` adds one fully observed pass ([`report`]).
//! `--atpg-baseline` and `--fault-sim-baseline` compare this run's
//! documents against committed ones ([`gates`]).

use std::process::ExitCode;

use dft_bench::cli::{envelope, Format, ToolExit};
use dft_json::Value;
use dft_netlist::Netlist;
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod analysis;
mod atpg;
mod doc;
mod fault_sim;
mod gates;
mod report;

const USAGE: &str = "\
tessera-bench: engine throughput / ATPG / incremental-analysis benchmark

USAGE:
    tessera-bench [--quick] [--format text|json] [--out PATH]
                  [--atpg-out PATH] [--analysis-out PATH] [--threads N]
                  [--report PATH] [--atpg-baseline PATH]
                  [--fault-sim-baseline PATH]
                  [--scale SPEC]... [--bytes-ceiling B]

With --format json the text tables are suppressed and stdout carries one
tessera/1 envelope whose payload is the fault-sim benchmark JSON,
byte-identical to what --out writes. The BENCH_*.json artifacts are
written either way.

--scale SPEC (repeatable) adds an industrial-scale ingest rung: SPEC is
any circuit the resolver accepts, typically a layered generator spec
like layered_256x100k. Defaults to the 10^5- and 10^6-gate rungs on a
full run and to none with --quick. Scale rungs fault-grade via the
streaming collapsed enumerator, verify bit-identity against the
materialized fault list, and report netlist bytes/gate; --bytes-ceiling
B fails the run (exit 1) if any scale netlist exceeds B bytes/gate.

EXIT CODES: 0 done, 1 regression (engines disagree, baseline gate,
equivalence, scale-identity or bytes-ceiling check failed), 2 usage
error.";

struct Config {
    quick: bool,
    format: Format,
    out: String,
    atpg_out: String,
    analysis_out: String,
    threads: usize,
    report: Option<String>,
    atpg_baseline: Option<String>,
    fault_sim_baseline: Option<String>,
    scale: Vec<String>,
    bytes_ceiling: Option<f64>,
}

fn parse_args() -> Result<Option<Config>, String> {
    let mut cfg = Config {
        quick: false,
        format: Format::Text,
        out: "BENCH_fault_sim.json".to_owned(),
        atpg_out: "BENCH_atpg.json".to_owned(),
        analysis_out: "BENCH_analysis.json".to_owned(),
        threads: 0,
        report: None,
        atpg_baseline: None,
        fault_sim_baseline: None,
        scale: Vec::new(),
        bytes_ceiling: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or_else(|| format!("{flag} expects a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--quick" => cfg.quick = true,
            "--format" => cfg.format = Format::parse(&value("--format", &mut args)?)?,
            "--out" => cfg.out = value("--out", &mut args)?,
            "--atpg-out" => cfg.atpg_out = value("--atpg-out", &mut args)?,
            "--analysis-out" => cfg.analysis_out = value("--analysis-out", &mut args)?,
            "--threads" => {
                let v = value("--threads", &mut args)?;
                cfg.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: '{v}' is not a valid count"))?;
            }
            "--report" => cfg.report = Some(value("--report", &mut args)?),
            "--atpg-baseline" => cfg.atpg_baseline = Some(value("--atpg-baseline", &mut args)?),
            "--fault-sim-baseline" => {
                cfg.fault_sim_baseline = Some(value("--fault-sim-baseline", &mut args)?);
            }
            "--scale" => cfg.scale.push(value("--scale", &mut args)?),
            "--bytes-ceiling" => {
                let v = value("--bytes-ceiling", &mut args)?;
                cfg.bytes_ceiling = Some(
                    v.parse()
                        .map_err(|_| format!("--bytes-ceiling: '{v}' is not a number"))?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cfg.scale.is_empty() && !cfg.quick {
        cfg.scale = vec!["layered_256x100k".to_owned(), "layered_512x1m".to_owned()];
    }
    Ok(Some(cfg))
}

/// A baseline gate: this run's document and a committed one to the
/// regressions found.
type Gate = fn(&Value, &Value) -> Vec<String>;

/// A roster circuit, by the name every tessera tool resolves
/// (`dft_bench::SERVE_ROSTER` holds the random circuits' seeds).
fn circuit(name: &str) -> Netlist {
    dft_bench::resolve_circuit(name).expect("roster names resolve")
}

fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
    PatternSet::random(width, count, &mut StdRng::seed_from_u64(seed))
}

/// Writes `doc` to `path` in the artifact layout, printing its text
/// tables first under `--format text`. Returns the bytes written.
fn emit(doc: &Value, path: &str, text: bool) -> String {
    let bytes = doc::layout(doc);
    if text {
        doc::print(doc);
        println!("writing {path}");
    }
    std::fs::write(path, &bytes).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    bytes
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(Some(cfg)) => cfg,
        Ok(None) => return ExitCode::from(ToolExit::Success),
        Err(msg) => {
            eprintln!("tessera-bench: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(ToolExit::Usage);
        }
    };
    let text = cfg.format == Format::Text;
    let fault_sim = fault_sim::run(cfg.quick, cfg.threads, &cfg.scale);
    let fault_sim_bytes = emit(&fault_sim, &cfg.out, text);
    let mut failures = fault_sim::scale_failures(&fault_sim, cfg.bytes_ceiling);

    let analysis = analysis::run(cfg.quick);
    emit(&analysis, &cfg.analysis_out, text);
    if !doc::flag(&analysis, "all_equivalent") {
        failures.push(
            "ANALYSIS REGRESSION: incremental results diverged from a from-scratch pass".to_owned(),
        );
    }

    let atpg = atpg::run(cfg.quick);
    emit(&atpg, &cfg.atpg_out, text);

    if let Some(path) = &cfg.report {
        let report = report::observed_run(cfg.quick, cfg.threads);
        std::fs::write(path, report.to_json()).expect("write run report");
        if text {
            println!("writing {path}");
        }
    }

    let baselines: [(_, _, Gate); 2] = [
        (&cfg.atpg_baseline, &atpg, gates::atpg),
        (&cfg.fault_sim_baseline, &fault_sim, gates::fault_sim),
    ];
    for (path, current, gate) in baselines {
        let Some(path) = path else { continue };
        let found = gate(current, &doc::read(path));
        if found.is_empty() {
            eprintln!("baseline gate passed against {path}");
        }
        failures.extend(found.iter().map(|m| format!("BASELINE REGRESSION: {m}")));
    }
    if !failures.is_empty() {
        failures.iter().for_each(|f| eprintln!("{f}"));
        return ExitCode::from(ToolExit::Findings);
    }
    if cfg.format == Format::Json {
        print!("{}", envelope("tessera-bench", fault_sim_bytes.trim_end()));
    }
    ExitCode::from(ToolExit::Success)
}
