//! `tessera-bench` — fault-simulation engine throughput benchmark.
//!
//! Times every combinational fault-simulation engine on a roster of
//! built-in circuits, checks that the engines detect identical fault
//! sets, and writes a machine-readable `BENCH_fault_sim.json` with
//! patterns/sec and faults×patterns/sec per engine per circuit plus the
//! PPSFP-vs-serial speedup (the headline number of the PPSFP work).
//! A record that runs under a second reports the median of five runs;
//! longer runs (the serial engines on the large circuits, the 10⁶-gate
//! scale rung) are timed once.
//!
//! Also benchmarks deterministic ATPG with and without the static
//! implication engine (`dft-implic`): per roster circuit, PODEM runs over
//! the dominance-collapsed target list twice, and `BENCH_atpg.json`
//! records the backtrack totals, statically-proven-untestable counts and
//! implication-conflict prunes — the pruning win of the
//! analyze-before-you-search pass.
//!
//! The ATPG section also benchmarks the threaded deterministic driver:
//! the full `generate_tests` flow (random budget 0, so the deterministic
//! phase dominates) runs once per thread count, the resulting pattern
//! sets are hashed to prove the thread count never changes the output,
//! and the wall-clock scaling versus the no-collateral-dropping baseline
//! lands in `BENCH_atpg.json`.
//!
//! A third section measures the incremental analysis framework
//! (`dft-analyze`): per roster circuit it streams single-gate rewire
//! ECOs through a warmed [`AnalysisCache`], times each apply-plus-resolve
//! against a from-scratch pass, cross-checks the incrementally-maintained
//! results bit-for-bit against a fresh cache over the final netlist
//! (exit 1 on any divergence), and writes `BENCH_analysis.json`.
//!
//! ```text
//! tessera-bench [--quick] [--out PATH] [--atpg-out PATH]
//!               [--analysis-out PATH] [--threads N]
//!               [--report PATH] [--atpg-baseline PATH]
//!               [--fault-sim-baseline PATH]
//! ```
//!
//! `--quick` restricts the rosters to the small circuits (the CI smoke
//! configuration); `--threads` pins the PPSFP worker count (0 = auto).
//! `--report PATH` additionally performs one fully *observed* pass —
//! fault simulation, the full ATPG flow, and the implication-engine
//! build all feeding a `dft-obs` recorder — and writes the resulting
//! span/counter tree as `tessera-obs/1` JSON, cross-checked against the
//! engines' legacy stats before it is written. `--atpg-baseline PATH`
//! compares this run's per-circuit ATPG flow results against a committed
//! `BENCH_atpg.json` and exits nonzero if any circuit's pattern count
//! rose or coverage dropped beyond a small tolerance, or — when both runs
//! are `--quick` — if any `flow_scaling` row's test set (`patterns`,
//! `pattern_hash`) differs from the committed row of the same `config`.
//! `--fault-sim-baseline PATH` does the same for the fault-sim table
//! against a committed `BENCH_fault_sim.json`: exit 1 if any engine's
//! detected count changed on a shared (circuit, engine) record, if the
//! engines stopped agreeing, or if a non-trivially-timed record's
//! `fault_patterns_per_sec` fell below half its baseline value.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use dft_analyze::{AnalysisCache, NetlistDelta};
use dft_atpg::{
    generate_tests, generate_tests_observed, AtpgConfig, DetDriver, Podem, PodemConfig,
};
use dft_bench::cli::{envelope, Format, ToolExit};
use dft_bench::{eng, exhaustive_patterns, print_table};
use dft_fault::{
    dominance_collapse, prefilter_untestable, universe, DetectionResult, FaultSimEngine,
    PpsfpEngine, PpsfpOptions, SerialEngine, SerialOptions,
};
use dft_json::Value;
use dft_netlist::circuits::{c17, random_combinational, redundant_fixture};
use dft_netlist::{GateId, GateKind, Netlist};
use dft_obs::{Recorder, RunReport};
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
tessera-bench: engine throughput / ATPG / incremental-analysis benchmark

USAGE:
    tessera-bench [--quick] [--format text|json] [--out PATH]
                  [--atpg-out PATH] [--analysis-out PATH] [--threads N]
                  [--report PATH] [--atpg-baseline PATH]
                  [--fault-sim-baseline PATH]
                  [--scale SPEC]... [--no-scale] [--bytes-ceiling B]

With --format json the text tables are suppressed and stdout carries one
tessera/1 envelope whose payload is the fault-sim benchmark JSON,
byte-identical to what --out writes. The BENCH_*.json artifacts are
written either way.

--scale SPEC (repeatable) adds an industrial-scale ingest rung: SPEC is
any circuit the resolver accepts, typically a layered generator spec
like layered_256x100k. Defaults to the 10^5- and 10^6-gate rungs on a
full run and to none with --quick. --no-scale suppresses the defaults.
Scale rungs fault-grade via the streaming collapsed enumerator, verify
bit-identity against the materialized fault list, and report netlist
bytes/gate; --bytes-ceiling B fails the run (exit 1) if any scale
netlist exceeds B bytes/gate.

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
    no_scale: bool,
    bytes_ceiling: Option<f64>,
}

impl Config {
    /// The scale rungs to run: explicit `--scale` specs, else the
    /// defaults (none under `--quick` or `--no-scale`).
    fn scale_specs(&self) -> Vec<String> {
        if !self.scale.is_empty() {
            return self.scale.clone();
        }
        if self.quick || self.no_scale {
            return Vec::new();
        }
        vec!["layered_256x100k".to_owned(), "layered_512x1m".to_owned()]
    }
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
        no_scale: false,
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
            "--no-scale" => cfg.no_scale = true,
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
    Ok(Some(cfg))
}

/// One benchmark workload: a circuit plus the pattern set applied to it.
struct Workload {
    name: &'static str,
    netlist: Netlist,
    patterns: PatternSet,
    /// Run the full-work `serial_nodrop` baseline too. Off for the
    /// largest rung, where it would add minutes of O(faults × patterns
    /// × gates) measurement without informing the headline
    /// serial-vs-PPSFP comparison.
    run_slow_baselines: bool,
}

fn roster(quick: bool) -> Vec<Workload> {
    let mut r = vec![
        Workload {
            name: "c17",
            netlist: c17(),
            patterns: exhaustive_patterns(5),
            run_slow_baselines: true,
        },
        Workload {
            name: "rand_16x300",
            netlist: random_combinational(16, 300, 5),
            patterns: random_patterns(16, 256, 3),
            run_slow_baselines: true,
        },
    ];
    if !quick {
        r.push(Workload {
            name: "rand_20x800",
            netlist: random_combinational(20, 800, 6),
            patterns: random_patterns(20, 512, 4),
            run_slow_baselines: true,
        });
        r.push(Workload {
            name: "rand_24x2000",
            netlist: random_combinational(24, 2000, 7),
            patterns: random_patterns(24, 1024, 5),
            run_slow_baselines: true,
        });
        r.push(Workload {
            name: "rand_28x6000",
            netlist: random_combinational(28, 6000, 8),
            patterns: random_patterns(28, 1024, 6),
            run_slow_baselines: false,
        });
    }
    r
}

fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    PatternSet::random(width, count, &mut rng)
}

struct Record {
    circuit: &'static str,
    engine: &'static str,
    gates: usize,
    faults: usize,
    patterns: usize,
    /// 64-lane pattern blocks in the workload's set.
    blocks: usize,
    seconds: f64,
    detected: usize,
}

impl Record {
    fn patterns_per_sec(&self) -> f64 {
        self.patterns as f64 / self.seconds
    }

    fn fault_patterns_per_sec(&self) -> f64 {
        (self.faults as f64 * self.patterns as f64) / self.seconds
    }

    /// Good-machine-equivalent gate evaluations per second: one full
    /// levelized sweep evaluates `gates × patterns` gate-lanes, so this
    /// normalizes throughput across circuit sizes.
    fn gates_per_sec(&self) -> f64 {
        (self.gates as f64 * self.patterns as f64) / self.seconds
    }

    /// Packed response bytes per gate slot for the whole pattern set
    /// (8 bytes per 64-lane block) — the per-gate working set a full
    /// sweep streams, and the quantity the cache-blocked level bands
    /// tile against L1.
    fn bytes_per_gate(&self) -> usize {
        8 * self.blocks
    }
}

/// One industrial-scale ingest rung: a 10⁵–10⁶-gate circuit pushed
/// through the streaming collapsed-fault enumerator and chunked PPSFP,
/// with the memory-lean core's bytes/gate figure alongside.
struct ScaleRecord {
    circuit: String,
    gates: usize,
    /// Full stuck-at universe size (streamed, never materialized).
    universe: usize,
    /// Equivalence classes after streaming structural collapse.
    classes: usize,
    patterns: usize,
    /// `Netlist::memory_footprint().bytes_per_gate()` — the interned
    /// SoA core's storage cost.
    netlist_bytes_per_gate: f64,
    /// Building `CollapsedUniverse` (union-find over the memoized reader
    /// lists).
    enumerate_seconds: f64,
    /// Chunked streaming PPSFP over the class representatives (see
    /// [`timed`]).
    sim_seconds: f64,
    /// The streamed run's `words_folded` counter: disturbed-gate folds
    /// × lane width, the event loop's unit of work.
    words_folded: u64,
    detected: usize,
    /// Streamed detection bit-identical to the materialized fault list.
    identical: bool,
}

impl ScaleRecord {
    /// Good-machine-equivalent gate evaluations per second (same
    /// normalization as [`Record::gates_per_sec`]).
    fn gates_per_sec(&self) -> f64 {
        (self.gates as f64 * self.patterns as f64) / self.sim_seconds
    }

    fn fault_patterns_per_sec(&self) -> f64 {
        (self.classes as f64 * self.patterns as f64) / self.sim_seconds
    }
}

/// Runs the scale rungs. Each spec resolves through the shared circuit
/// resolver (so `.bench`/`.blif` paths work as well as generator
/// specs), fault-grades 256 random patterns over the streamed collapsed
/// universe, and cross-checks the streamed run bit-for-bit against the
/// same representatives as a materialized list. Streamed rows are also
/// appended to `records` (engine `ppsfp_streamed`) so the JSON artifact
/// and the baseline gate see them.
fn scale_bench(cfg: &Config, records: &mut Vec<Record>) -> Vec<ScaleRecord> {
    use dft_fault::stream::CollapsedUniverse;
    let mut out = Vec::new();
    for spec in cfg.scale_specs() {
        let netlist = match dft_bench::resolve_circuit(&spec) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("tessera-bench: --scale {spec}: {e}");
                std::process::exit(ToolExit::Usage as i32);
            }
        };
        let footprint = netlist.memory_footprint();
        let t = Instant::now();
        let collapsed = CollapsedUniverse::new(&netlist);
        let enumerate_seconds = t.elapsed().as_secs_f64().max(1e-9);
        let patterns = random_patterns(netlist.primary_inputs().len(), 256, 12);
        let engine =
            dft_fault::Ppsfp::with_options(&netlist, PpsfpOptions::new().with_threads(cfg.threads))
                .expect("scale circuits are combinational");
        let (sim_seconds, (streamed, words_folded)) = timed(|| {
            let mut rec = Recorder::new();
            let streamed = engine.run_streamed_with(
                &patterns,
                collapsed.representatives(),
                1 << 16,
                Some(&mut rec),
            );
            let words_folded = rec
                .finish("scale")
                .find("fault_sim.ppsfp")
                .map_or(0, |span| span.counter("words_folded"));
            (streamed, words_folded)
        });
        // Identity check: the same representatives as a materialized
        // list must detect bit-identically.
        let reps: Vec<dft_fault::Fault> = collapsed.representatives().collect();
        let materialized = engine.run(&patterns, &reps);
        let identical = streamed.first_detected == materialized.first_detected;
        records.push(Record {
            circuit: Box::leak(spec.clone().into_boxed_str()),
            engine: "ppsfp_streamed",
            gates: netlist.gate_count(),
            faults: collapsed.class_count(),
            patterns: patterns.len(),
            blocks: patterns.block_count(),
            seconds: sim_seconds,
            detected: streamed.detected_count(),
        });
        out.push(ScaleRecord {
            circuit: spec,
            gates: netlist.gate_count(),
            universe: collapsed.universe().len(),
            classes: collapsed.class_count(),
            patterns: patterns.len(),
            netlist_bytes_per_gate: footprint.bytes_per_gate(),
            enumerate_seconds,
            sim_seconds,
            words_folded,
            detected: streamed.detected_count(),
            identical,
        });
    }
    out
}

/// Runs of a fault-sim record that takes under a second: the record
/// reports their median wall time.
const TIMED_RUNS: usize = 5;

/// Times `run`: once if it takes a second or more (the slow serial
/// rows, long enough that one measurement is stable), else
/// [`TIMED_RUNS`] times, reporting the median. Returns the seconds and
/// the first run's result; every engine is deterministic, so the
/// repeats only time.
fn timed<R>(mut run: impl FnMut() -> R) -> (f64, R) {
    let t = Instant::now();
    let result = run();
    let mut secs = vec![t.elapsed().as_secs_f64()];
    if secs[0] < 1.0 {
        for _ in 1..TIMED_RUNS {
            let t = Instant::now();
            std::hint::black_box(run());
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2].max(1e-9), result)
}

fn time_engine(
    engine: &dyn FaultSimEngine,
    w: &Workload,
    faults: &[dft_fault::Fault],
) -> (f64, DetectionResult) {
    timed(|| {
        engine
            .run(&w.netlist, &w.patterns, faults)
            .expect("roster circuits levelize")
    })
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
    let ppsfp = PpsfpEngine {
        options: PpsfpOptions::new().with_threads(cfg.threads),
    };
    let serial = SerialEngine::default();
    let serial_nodrop = SerialEngine {
        options: SerialOptions::new().with_fault_dropping(false),
    };

    let mut records: Vec<Record> = Vec::new();
    let mut speedups: Vec<(&'static str, f64)> = Vec::new();
    let mut all_agree = true;

    for w in roster(cfg.quick) {
        let faults = universe(&w.netlist);
        let mut engines: Vec<&dyn FaultSimEngine> = vec![&serial];
        if w.run_slow_baselines {
            engines.push(&serial_nodrop);
        }
        engines.push(&ppsfp);

        let mut reference: Option<DetectionResult> = None;
        let mut serial_secs = 0.0;
        for engine in engines {
            let (secs, result) = time_engine(engine, &w, &faults);
            match &reference {
                None => reference = Some(result.clone()),
                Some(r) => {
                    if *r != result {
                        all_agree = false;
                        eprintln!(
                            "WARNING: {} disagrees with serial on {}",
                            engine.name(),
                            w.name
                        );
                    }
                }
            }
            if engine.name() == "serial" {
                serial_secs = secs;
            }
            if engine.name() == "ppsfp" {
                speedups.push((w.name, serial_secs / secs));
            }
            records.push(Record {
                circuit: w.name,
                engine: engine.name(),
                gates: w.netlist.gate_count(),
                faults: faults.len(),
                patterns: w.patterns.len(),
                blocks: w.patterns.block_count(),
                seconds: secs,
                detected: result.detected_count(),
            });
        }
    }

    let scale = scale_bench(&cfg, &mut records);

    if text {
        let rows: Vec<Vec<String>> = records
            .iter()
            .map(|r| {
                vec![
                    r.circuit.to_owned(),
                    r.engine.to_owned(),
                    r.gates.to_string(),
                    r.faults.to_string(),
                    r.patterns.to_string(),
                    format!("{:.4}", r.seconds),
                    eng(r.patterns_per_sec()),
                    eng(r.fault_patterns_per_sec()),
                    eng(r.gates_per_sec()),
                    r.bytes_per_gate().to_string(),
                    r.detected.to_string(),
                ]
            })
            .collect();
        print_table(
            "fault-simulation engine throughput",
            &[
                "circuit", "engine", "gates", "faults", "patterns", "seconds", "pat/s", "f*pat/s",
                "gate/s", "B/gate", "detected",
            ],
            &rows,
        );
        if !scale.is_empty() {
            let scale_rows: Vec<Vec<String>> = scale
                .iter()
                .map(|r| {
                    vec![
                        r.circuit.clone(),
                        r.gates.to_string(),
                        r.universe.to_string(),
                        r.classes.to_string(),
                        format!("{:.1}", r.netlist_bytes_per_gate),
                        format!("{:.3}", r.enumerate_seconds),
                        format!("{:.3}", r.sim_seconds),
                        eng(r.gates_per_sec()),
                        eng(r.fault_patterns_per_sec()),
                        eng(r.words_folded as f64),
                        r.detected.to_string(),
                        r.identical.to_string(),
                    ]
                })
                .collect();
            print_table(
                "industrial-scale ingest: streamed collapse + chunked ppsfp",
                &[
                    "circuit",
                    "gates",
                    "universe",
                    "classes",
                    "nl_B/gate",
                    "enum_s",
                    "sim_s",
                    "gate/s",
                    "f*pat/s",
                    "words",
                    "detected",
                    "identical",
                ],
                &scale_rows,
            );
        }
    }
    if !scale.iter().all(|r| r.identical) {
        eprintln!("SCALE REGRESSION: streamed PPSFP diverged from the materialized fault list");
        std::process::exit(1);
    }
    if let Some(ceiling) = cfg.bytes_ceiling {
        for r in &scale {
            if r.netlist_bytes_per_gate > ceiling {
                eprintln!(
                    "SCALE REGRESSION: {} netlist bytes/gate {:.1} exceeds ceiling {ceiling}",
                    r.circuit, r.netlist_bytes_per_gate
                );
                std::process::exit(1);
            }
        }
    }

    let curve = coverage_curve(cfg.quick, &ppsfp);
    if text {
        let speedup_rows: Vec<Vec<String>> = speedups
            .iter()
            .map(|(c, s)| vec![(*c).to_owned(), format!("{s:.1}x")])
            .collect();
        print_table(
            "ppsfp speedup vs serial (dropping on in both)",
            &["circuit", "speedup"],
            &speedup_rows,
        );
        let curve_rows: Vec<Vec<String>> = curve
            .iter()
            .map(|&(k, c)| vec![k.to_string(), format!("{:.1}%", c * 100.0)])
            .collect();
        print_table(
            "random-pattern coverage vs pattern count (ppsfp, rand_16x300)",
            &["patterns", "coverage"],
            &curve_rows,
        );
        println!(
            "\ndetected fault sets agree across engines: {all_agree}\nwriting {}",
            cfg.out
        );
    }

    let fault_sim_json = to_json(&records, &speedups, &curve, &scale, all_agree, &cfg);
    std::fs::write(&cfg.out, &fault_sim_json).expect("write bench JSON");

    let analysis = analysis_bench(cfg.quick);
    if text {
        let analysis_rows: Vec<Vec<String>> = analysis
            .iter()
            .map(|r| {
                vec![
                    r.circuit.to_owned(),
                    r.gates.to_string(),
                    r.edits.to_string(),
                    eng(r.full_seconds),
                    eng(r.eco_median_seconds),
                    eng(r.eco_mean_seconds),
                    format!("{:.1}x", r.speedup()),
                    format!("{:.1}x", r.mean_speedup()),
                    r.equivalent.to_string(),
                ]
            })
            .collect();
        print_table(
            "incremental analysis: single-gate ECO vs full recompute (scoap+constants+xprop)",
            &[
                "circuit",
                "gates",
                "edits",
                "full_s",
                "eco_p50_s",
                "eco_mean_s",
                "speedup",
                "mean_x",
                "equivalent",
            ],
            &analysis_rows,
        );
    }
    if !analysis.iter().all(|r| r.equivalent) {
        eprintln!("ANALYSIS REGRESSION: incremental results diverged from a from-scratch pass");
        std::process::exit(1);
    }
    if text {
        println!("\nwriting {}", cfg.analysis_out);
    }
    std::fs::write(&cfg.analysis_out, analysis_to_json(&analysis, &cfg))
        .expect("write analysis bench JSON");

    let atpg = atpg_bench(cfg.quick);
    if text {
        let atpg_rows: Vec<Vec<String>> = atpg
            .iter()
            .flat_map(|r| {
                [("off", &r.without), ("on", &r.with)].map(|(mode, run)| {
                    vec![
                        r.circuit.to_owned(),
                        mode.to_owned(),
                        r.targets.to_string(),
                        r.static_untestable.to_string(),
                        run.tested.to_string(),
                        run.untestable.to_string(),
                        run.aborted.to_string(),
                        run.backtracks.to_string(),
                        run.implication_conflicts.to_string(),
                        format!("{:.4}", run.seconds),
                    ]
                })
            })
            .collect();
        print_table(
            "podem over dominance-collapsed targets, implication pruning off/on",
            &[
                "circuit",
                "implic",
                "targets",
                "static_unt",
                "tested",
                "untestable",
                "aborted",
                "backtracks",
                "impl_confl",
                "seconds",
            ],
            &atpg_rows,
        );
        let total_without: u64 = atpg.iter().map(|r| r.without.backtracks).sum();
        let total_with: u64 = atpg.iter().map(|r| r.with.backtracks).sum();
        println!(
            "\ntotal backtracks without implications: {total_without}\n\
             total backtracks with implications:    {total_with}\n\
             strictly fewer with pruning: {}",
            total_with < total_without,
        );
    }

    let scaling = flow_scaling_bench(cfg.quick);
    if text {
        let scaling_rows: Vec<Vec<String>> = scaling
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.config.to_owned(),
                    r.threads.to_string(),
                    r.dropping.to_string(),
                    format!("{:.4}", r.seconds),
                    r.patterns.to_string(),
                    r.attempts.to_string(),
                    format!("{:#018x}", r.hash),
                ]
            })
            .collect();
        print_table(
            "deterministic ATPG flow wall-clock vs threads (random budget 0)",
            &[
                "config",
                "threads",
                "drop",
                "seconds",
                "patterns",
                "attempts",
                "pattern_hash",
            ],
            &scaling_rows,
        );
        println!(
            "\npattern sets identical across thread counts: {}\n\
             speedup t8 (dropping) vs serial_nodrop: {:.2}x\nwriting {}",
            scaling.identical, scaling.speedup, cfg.atpg_out
        );
    }
    std::fs::write(&cfg.atpg_out, atpg_to_json(&atpg, &scaling, &cfg))
        .expect("write ATPG bench JSON");

    if let Some(path) = &cfg.report {
        let report = observed_run(&cfg);
        std::fs::write(path, report.to_json()).expect("write run report");
        if text {
            println!("writing {path}");
        }
    }

    if let Some(path) = &cfg.atpg_baseline {
        check_atpg_baseline(path, &scaling, cfg.quick);
    }

    if let Some(path) = &cfg.fault_sim_baseline {
        check_fault_sim_baseline(path, &records, all_agree);
    }

    if cfg.format == Format::Json {
        // The envelope's payload is byte-identical to the artifact
        // written at --out.
        print!("{}", envelope("tessera-bench", fault_sim_json.trim_end()));
    }
    ExitCode::from(ToolExit::Success)
}

/// Fails the run (exit 1) against a committed `BENCH_fault_sim.json` if
/// the engines stopped agreeing, if any shared (circuit, engine)
/// record's detected count changed (the detected *set* is a pure
/// function of circuit + patterns, both seed-fixed, so any drift is a
/// semantic regression), or if such a record's `fault_patterns_per_sec`
/// fell below half its baseline (throughput cliff). The throughput
/// check only applies where the baseline measured ≥ 10 ms — below that
/// the numbers are timer noise. Records absent from the baseline (new
/// rungs, `--quick` subsets) are skipped.
fn check_fault_sim_baseline(path: &str, records: &[Record], all_agree: bool) {
    let baseline = read_baseline(path);
    let base_records = baseline
        .get("records")
        .and_then(Value::as_array)
        .expect("fault-sim baseline has a records array");
    let mut failed = false;
    if !all_agree {
        eprintln!("BASELINE REGRESSION: detected fault sets disagree across engines");
        failed = true;
    }
    for r in records {
        let Some(base) = base_records.iter().find(|b| {
            b.get("circuit").and_then(Value::as_str) == Some(r.circuit)
                && b.get("engine").and_then(Value::as_str) == Some(r.engine)
        }) else {
            eprintln!(
                "fault-sim baseline gate: {}/{} not in baseline, skipped",
                r.circuit, r.engine
            );
            continue;
        };
        let field = |key: &str| {
            base.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("baseline record has {key}"))
        };
        let base_detected = field("detected");
        let base_seconds = field("seconds");
        let base_fps = field("fault_patterns_per_sec");
        if r.detected as f64 != base_detected {
            eprintln!(
                "BASELINE REGRESSION: {}/{} detected {} != baseline {}",
                r.circuit, r.engine, r.detected, base_detected
            );
            failed = true;
        }
        if base_seconds >= 0.01 && r.fault_patterns_per_sec() < 0.5 * base_fps {
            eprintln!(
                "BASELINE REGRESSION: {}/{} fault_patterns_per_sec {:.0} < half of baseline {:.0}",
                r.circuit,
                r.engine,
                r.fault_patterns_per_sec(),
                base_fps
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("fault-sim baseline gate passed against {path}");
}

/// Reads and parses a committed `BENCH_*.json` baseline.
fn read_baseline(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    dft_json::parse(&text).unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"))
}

/// One circuit's incremental-analysis (ECO) measurement: mean seconds
/// for a from-scratch analysis pass (cache build + SCOAP + constants +
/// X-prop) versus per-edit seconds for single-gate rewires streamed
/// through [`AnalysisCache::apply`] with the same analyses re-warmed
/// after each. Per-edit latency is heavy-tailed — most rewires dirty a
/// small cone, a few near the inputs of a deep circuit cascade through
/// most of it — so both the median (the typical ECO) and the mean
/// (amortized cost of the whole stream) are reported; the headline
/// speedup is the median's.
struct AnalysisRecord {
    circuit: &'static str,
    gates: usize,
    edits: usize,
    full_seconds: f64,
    eco_mean_seconds: f64,
    eco_median_seconds: f64,
    /// The incrementally-maintained results matched a from-scratch pass
    /// over the final (64-edits-later) netlist bit-for-bit.
    equivalent: bool,
}

impl AnalysisRecord {
    fn speedup(&self) -> f64 {
        self.full_seconds / self.eco_median_seconds.max(1e-12)
    }

    fn mean_speedup(&self) -> f64 {
        self.full_seconds / self.eco_mean_seconds.max(1e-12)
    }
}

/// splitmix64 — a tiny deterministic generator for the ECO edit stream
/// (seeded per circuit so the benchmark reproduces bit-for-bit).
struct EcoRng(u64);

impl EcoRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn warm_analyses(cache: &mut AnalysisCache) {
    cache.scoap();
    cache.constants();
    cache.xprop();
}

/// Picks a random logic gate and rewires one of its pins to a random
/// gate at a strictly lower level. Levels strictly increase along every
/// edge, so a downhill rewire can never close a cycle — every generated
/// ECO applies, keeping the timed stream free of rejected edits. The new
/// source is drawn from a window a few levels below the gate (falling
/// back to any lower level when the window is empty), matching how a
/// real engineering change order patches locally rather than strapping a
/// deep gate to a primary input.
fn random_downhill_rewire(cache: &AnalysisCache, rng: &mut EcoRng) -> Option<NetlistDelta> {
    let n = cache.netlist();
    let rewirable: Vec<GateId> = n
        .iter()
        .filter(|(_, g)| {
            !g.inputs().is_empty()
                && matches!(
                    g.kind(),
                    GateKind::Buf
                        | GateKind::Not
                        | GateKind::And
                        | GateKind::Or
                        | GateKind::Nand
                        | GateKind::Nor
                        | GateKind::Xor
                        | GateKind::Xnor
                )
        })
        .map(|(id, _)| id)
        .collect();
    if rewirable.is_empty() {
        return None;
    }
    for _ in 0..64 {
        let gate = rewirable[rng.below(rewirable.len())];
        let inputs = n.gate(gate).inputs();
        let pin = rng.below(inputs.len());
        let level = cache.level(gate);
        let floor = level.saturating_sub(3);
        let near: Vec<GateId> = n
            .ids()
            .filter(|&s| {
                let l = cache.level(s);
                l < level && l >= floor && s != inputs[pin]
            })
            .collect();
        let lower: Vec<GateId> = if near.is_empty() {
            n.ids()
                .filter(|&s| cache.level(s) < level && s != inputs[pin])
                .collect()
        } else {
            near
        };
        if let Some(&new_src) = lower.get(rng.below(lower.len().max(1))) {
            return Some(NetlistDelta::Rewire { gate, pin, new_src });
        }
    }
    None
}

fn analysis_roster(quick: bool) -> Vec<(&'static str, Netlist)> {
    let mut r = vec![
        ("c17", c17()),
        ("rand_16x300", random_combinational(16, 300, 5)),
    ];
    if !quick {
        r.push(("rand_24x2000", random_combinational(24, 2000, 7)));
        r.push(("rand_28x6000", random_combinational(28, 6000, 8)));
    }
    r
}

fn analysis_bench(quick: bool) -> Vec<AnalysisRecord> {
    const EDITS: usize = 64;
    analysis_roster(quick)
        .into_iter()
        .map(|(name, n)| {
            // Full-recompute baseline: mean over several from-scratch
            // passes of exactly the work an ECO re-warms.
            let reps = if n.gate_count() >= 1000 { 5 } else { 20 };
            let t = Instant::now();
            for _ in 0..reps {
                let mut fresh = AnalysisCache::new(&n).expect("roster circuits levelize");
                warm_analyses(&mut fresh);
            }
            let full_seconds = t.elapsed().as_secs_f64() / reps as f64;

            let mut cache = AnalysisCache::new(&n).expect("roster circuits levelize");
            warm_analyses(&mut cache);
            let mut rng = EcoRng(0x7e55_e7a5 ^ n.gate_count() as u64);
            let mut per_edit: Vec<f64> = Vec::with_capacity(EDITS);
            for _ in 0..EDITS {
                // Edit generation stays outside the timer; apply + dirty
                // re-solve is the measured quantity.
                let Some(delta) = random_downhill_rewire(&cache, &mut rng) else {
                    break;
                };
                let t = Instant::now();
                cache.apply(&delta).expect("downhill rewires cannot cycle");
                warm_analyses(&mut cache);
                per_edit.push(t.elapsed().as_secs_f64());
            }
            let edits = per_edit.len();
            let eco_mean_seconds = per_edit.iter().sum::<f64>() / edits.max(1) as f64;
            per_edit.sort_by(f64::total_cmp);
            let eco_median_seconds = per_edit.get(edits / 2).copied().unwrap_or(0.0);

            // The correctness gate: after the whole edit stream, every
            // maintained result must match a from-scratch pass over the
            // final netlist bit-for-bit.
            let mut fresh = AnalysisCache::new(cache.netlist()).expect("edited netlists levelize");
            let equivalent = cache.scoap().cc == fresh.scoap().cc
                && cache.scoap().co == fresh.scoap().co
                && cache.constants() == fresh.constants()
                && cache.xprop() == fresh.xprop();

            AnalysisRecord {
                circuit: name,
                gates: n.gate_count(),
                edits,
                full_seconds,
                eco_mean_seconds,
                eco_median_seconds,
                equivalent,
            }
        })
        .collect()
}

fn analysis_to_json(records: &[AnalysisRecord], cfg: &Config) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"analysis_eco\",");
    let _ = writeln!(s, "  \"schema\": \"tessera-analysis/1\",");
    let _ = writeln!(s, "  \"quick\": {},", cfg.quick);
    s.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"edits\": {}, \
             \"full_recompute_seconds\": {:.9}, \"per_eco_median_seconds\": {:.9}, \
             \"per_eco_mean_seconds\": {:.9}, \"speedup\": {:.1}, \
             \"mean_speedup\": {:.1}, \"equivalent\": {}}}{}",
            r.circuit,
            r.gates,
            r.edits,
            r.full_seconds,
            r.eco_median_seconds,
            r.eco_mean_seconds,
            r.speedup(),
            r.mean_speedup(),
            r.equivalent,
            if i + 1 == records.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"all_equivalent\": {}",
        records.iter().all(|r| r.equivalent)
    );
    s.push_str("}\n");
    s
}

/// One roster circuit's full-flow result under the threaded driver
/// (identical for every thread count — asserted via the hash).
struct FlowRecord {
    circuit: &'static str,
    patterns: usize,
    coverage: f64,
    detected_coverage: f64,
}

/// One thread-scaling configuration's whole-roster measurement.
struct ScalingRow {
    config: &'static str,
    threads: usize,
    dropping: bool,
    seconds: f64,
    /// Final pattern count summed over the roster.
    patterns: usize,
    /// Deterministic solver attempts summed over the roster (the work
    /// collateral dropping avoids).
    attempts: u64,
    /// FNV-1a over every final pattern bit, roster order.
    hash: u64,
}

struct FlowScaling {
    records: Vec<FlowRecord>,
    rows: Vec<ScalingRow>,
    /// All dropping rows produced bit-identical pattern sets.
    identical: bool,
    /// serial_nodrop seconds / t8 seconds. On a single-core host this is
    /// pure work avoidance (fewer solver calls via collateral dropping);
    /// with real cores the thread scaling stacks on top.
    speedup: f64,
}

fn fnv1a(hash: &mut u64, byte: u8) {
    *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
}

fn hash_patterns(hash: &mut u64, set: &PatternSet) {
    for p in 0..set.len() {
        for bit in set.get(p) {
            fnv1a(hash, u8::from(bit));
        }
        fnv1a(hash, 0xFF); // row separator
    }
    fnv1a(hash, 0xFE); // set separator
}

/// The thread-scaling roster: the ATPG roster plus two deeper circuits
/// so per-fault solver work dominates the flow's fixed costs (solver
/// compile, final compaction) even in the `--quick` configuration.
fn flow_roster(quick: bool) -> Vec<(&'static str, Netlist)> {
    let mut r = atpg_roster(quick);
    if quick {
        r.push(("rand_14x120", random_combinational(14, 120, 2)));
        r.push(("rand_15x140", random_combinational(15, 140, 6)));
    }
    r
}

/// Times the full `generate_tests` flow (random budget 0: the
/// deterministic phase dominates) over the ATPG roster, once per
/// configuration: the no-dropping single-thread baseline (the old serial
/// loop), then collateral dropping at 1/2/4/8 threads.
fn flow_scaling_bench(quick: bool) -> FlowScaling {
    let roster = flow_roster(quick);
    let configs: [(&'static str, usize, bool); 5] = [
        ("serial_nodrop", 1, false),
        ("t1", 1, true),
        ("t2", 2, true),
        ("t4", 4, true),
        ("t8", 8, true),
    ];
    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut records: Vec<FlowRecord> = Vec::new();
    for (config, threads, dropping) in configs {
        let atpg_cfg = AtpgConfig::new()
            .with_random_budget(0)
            .with_threads(threads)
            .with_collateral_dropping(dropping);
        let mut seconds = 0.0;
        let mut patterns = 0usize;
        let mut attempts = 0u64;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut recs: Vec<FlowRecord> = Vec::new();
        for (name, n) in &roster {
            let faults = universe(n);
            let queue: Vec<usize> = (0..faults.len()).collect();
            // Compile outside the timer (solver + implication store are
            // one-time costs shared by every configuration); time the
            // deterministic phase itself — the thing that scales.
            let driver = DetDriver::new(n, &atpg_cfg).expect("roster circuits levelize");
            let t = Instant::now();
            let det = driver.run(&faults, &queue, None);
            seconds += t.elapsed().as_secs_f64();
            attempts += det.attempts;
            // The user-facing artifacts come from the full flow (untimed).
            let run = generate_tests(n, &faults, &atpg_cfg).expect("roster circuits levelize");
            patterns += run.patterns.len();
            hash_patterns(&mut hash, &run.patterns);
            recs.push(FlowRecord {
                circuit: name,
                patterns: run.patterns.len(),
                coverage: run.coverage(),
                detected_coverage: run.detected_coverage(),
            });
        }
        rows.push(ScalingRow {
            config,
            threads,
            dropping,
            seconds,
            patterns,
            attempts,
            hash,
        });
        records = recs; // keep the last (t8) per-circuit view
    }
    let dropping_rows: Vec<&ScalingRow> = rows.iter().filter(|r| r.dropping).collect();
    let identical = dropping_rows.windows(2).all(|w| w[0].hash == w[1].hash);
    let speedup = rows[0].seconds / dropping_rows.last().expect("t8 row").seconds;
    FlowScaling {
        records,
        rows,
        identical,
        speedup,
    }
}

/// Fails the run (exit 1) if any roster circuit's ATPG flow needs more
/// patterns or reaches lower coverage than the committed baseline, with
/// a small tolerance (+2 patterns, -0.001 coverage) so timing-neutral
/// churn does not trip it. Circuits absent from the baseline (e.g. a
/// full-roster circuit vs a `--quick` baseline) are skipped.
///
/// When this run and the baseline are both `--quick` (the same roster),
/// the test sets themselves are pinned too: every `flow_scaling` row
/// must match the baseline row of the same `config` exactly in
/// `patterns` and `pattern_hash`.
fn check_atpg_baseline(path: &str, scaling: &FlowScaling, quick: bool) {
    let baseline = read_baseline(path);
    let flow_records = baseline
        .get("flow_records")
        .and_then(Value::as_array)
        .expect("baseline has no flow_records section");
    let mut failed = false;
    for r in &scaling.records {
        let Some(base) = flow_records
            .iter()
            .find(|b| b.get("circuit").and_then(Value::as_str) == Some(r.circuit))
        else {
            eprintln!("baseline gate: {} not in baseline, skipped", r.circuit);
            continue;
        };
        let base_patterns = base
            .get("patterns")
            .and_then(Value::as_u64)
            .expect("baseline flow record has patterns") as usize;
        let base_coverage = base
            .get("coverage")
            .and_then(Value::as_f64)
            .expect("baseline flow record has coverage");
        if r.patterns > base_patterns + 2 {
            eprintln!(
                "BASELINE REGRESSION: {} pattern count {} > baseline {} (+2 tolerance)",
                r.circuit, r.patterns, base_patterns
            );
            failed = true;
        }
        if r.coverage < base_coverage - 1e-3 {
            eprintln!(
                "BASELINE REGRESSION: {} coverage {:.4} < baseline {:.4} (-0.001 tolerance)",
                r.circuit, r.coverage, base_coverage
            );
            failed = true;
        }
    }
    if !scaling.identical {
        eprintln!("BASELINE REGRESSION: pattern sets differ across thread counts");
        failed = true;
    }
    if quick && baseline.get("quick").and_then(Value::as_bool) == Some(true) {
        let rows = baseline
            .get("flow_scaling")
            .and_then(Value::as_array)
            .expect("baseline has no flow_scaling section");
        for r in &scaling.rows {
            let base = rows
                .iter()
                .find(|b| b.get("config").and_then(Value::as_str) == Some(r.config));
            let pinned = base.map(|b| {
                (
                    b.get("patterns").and_then(Value::as_u64),
                    b.get("pattern_hash").and_then(Value::as_str),
                )
            });
            let hash = format!("{:#018x}", r.hash);
            if pinned != Some((Some(r.patterns as u64), Some(hash.as_str()))) {
                eprintln!(
                    "BASELINE REGRESSION: flow_scaling {} test set {} patterns, hash {hash} \
                     != baseline {pinned:?}",
                    r.config, r.patterns
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("baseline gate passed against {path}");
}

/// One fully observed pass: the reference serial engine, the PPSFP
/// engine, and the complete ATPG flow (whose deterministic phase nests
/// the implication-engine build) all feed a single recorder, so the
/// resulting tree covers the `fault_sim.*`, `atpg.*` and `implic.learn`
/// phases in one report. Runs on c17 — the report documents the flow's
/// shape, not its throughput, and the timed benches above already cover
/// the large circuits. Every recorded counter is asserted against the
/// legacy stats the engines returned for the same runs, so a written
/// report is a cross-checked one.
fn observed_run(cfg: &Config) -> RunReport {
    let n = c17();
    let faults = universe(&n);
    let patterns = exhaustive_patterns(5);
    let serial = SerialEngine::default();
    let ppsfp = PpsfpEngine {
        options: PpsfpOptions::new().with_threads(cfg.threads),
    };

    let mut rec = Recorder::new();
    let serial_result = serial
        .run_with(&n, &patterns, &faults, Some(&mut rec))
        .expect("c17 levelizes");
    let ppsfp_result = ppsfp
        .run_with(&n, &patterns, &faults, Some(&mut rec))
        .expect("c17 levelizes");
    let atpg_run = generate_tests_observed(&n, &faults, &AtpgConfig::default(), Some(&mut rec))
        .expect("c17 levelizes");
    let report = rec.finish(if cfg.quick {
        "tessera-bench --quick"
    } else {
        "tessera-bench"
    });

    let serial_span = report.find("fault_sim.serial").expect("serial span");
    assert_eq!(
        serial_span.counter("detected"),
        serial_result.detected_count() as u64,
        "serial telemetry disagrees with DetectionResult"
    );
    let ppsfp_span = report.find("fault_sim.ppsfp").expect("ppsfp span");
    assert_eq!(
        ppsfp_span.counter("detected"),
        ppsfp_result.detected_count() as u64,
        "ppsfp telemetry disagrees with DetectionResult"
    );
    let det = report
        .find("atpg.deterministic")
        .expect("deterministic ATPG span");
    assert_eq!(
        det.counter("backtracks"),
        atpg_run.backtracks,
        "ATPG telemetry disagrees with AtpgRun"
    );
    assert_eq!(
        det.counter("forward_evals"),
        atpg_run.forward_evals,
        "ATPG telemetry disagrees with AtpgRun"
    );
    assert!(
        report.find("implic.learn").is_some(),
        "implication-engine build missing from the report"
    );
    report
}

/// One circuit's ATPG measurements: the shared target list plus one
/// [`AtpgRun`] per implication-pruning setting.
struct AtpgRecord {
    circuit: &'static str,
    gates: usize,
    /// Universe size before any collapsing.
    faults: usize,
    /// Dominance-collapsed target count (what PODEM actually attacks).
    targets: usize,
    /// Targets `dft-implic` proves untestable with zero search.
    static_untestable: usize,
    without: AtpgRun,
    with: AtpgRun,
}

/// Accumulated effort of one full-roster PODEM pass.
#[derive(Default)]
struct AtpgRun {
    tested: usize,
    untestable: usize,
    aborted: usize,
    backtracks: u64,
    implication_conflicts: u64,
    seconds: f64,
}

fn atpg_roster(quick: bool) -> Vec<(&'static str, Netlist)> {
    let mut r = vec![
        ("redundant_fixture", redundant_fixture()),
        ("c17", c17()),
        ("rand_12x80", random_combinational(12, 80, 9)),
    ];
    if !quick {
        r.push(("rand_16x300", random_combinational(16, 300, 5)));
    }
    r
}

fn atpg_bench(quick: bool) -> Vec<AtpgRecord> {
    atpg_roster(quick)
        .into_iter()
        .map(|(name, n)| {
            let faults = universe(&n);
            let targets = dominance_collapse(&n);
            let static_untestable = prefilter_untestable(&n, &targets).untestable_count();
            let run = |use_implications: bool| {
                let podem = Podem::new(
                    &n,
                    PodemConfig::new().with_use_implications(use_implications),
                )
                .expect("roster circuits levelize");
                let mut acc = AtpgRun::default();
                let t = Instant::now();
                for &fault in &targets {
                    let (outcome, stats) = podem.solve(fault);
                    match outcome {
                        dft_atpg::GenOutcome::Test(_) => acc.tested += 1,
                        dft_atpg::GenOutcome::Untestable => acc.untestable += 1,
                        dft_atpg::GenOutcome::Aborted => acc.aborted += 1,
                    }
                    acc.backtracks += u64::from(stats.backtracks);
                    acc.implication_conflicts += u64::from(stats.implication_conflicts);
                }
                acc.seconds = t.elapsed().as_secs_f64();
                acc
            };
            AtpgRecord {
                circuit: name,
                gates: n.gate_count(),
                faults: faults.len(),
                targets: targets.len(),
                static_untestable,
                without: run(false),
                with: run(true),
            }
        })
        .collect()
}

fn atpg_to_json(records: &[AtpgRecord], scaling: &FlowScaling, cfg: &Config) -> String {
    fn run_json(run: &AtpgRun) -> String {
        format!(
            "{{\"tested\": {}, \"untestable\": {}, \"aborted\": {}, \"backtracks\": {}, \
             \"implication_conflicts\": {}, \"seconds\": {:.6}}}",
            run.tested,
            run.untestable,
            run.aborted,
            run.backtracks,
            run.implication_conflicts,
            run.seconds
        )
    }
    let total_without: u64 = records.iter().map(|r| r.without.backtracks).sum();
    let total_with: u64 = records.iter().map(|r| r.with.backtracks).sum();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"atpg_implication_pruning\",");
    let _ = writeln!(s, "  \"quick\": {},", cfg.quick);
    s.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"faults\": {}, \"targets\": {}, \
             \"static_untestable\": {},",
            r.circuit, r.gates, r.faults, r.targets, r.static_untestable
        );
        let _ = writeln!(
            s,
            "     \"without_implications\": {},",
            run_json(&r.without)
        );
        let _ = writeln!(
            s,
            "     \"with_implications\": {}}}{}",
            run_json(&r.with),
            if i + 1 == records.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"total_backtracks_without\": {total_without},");
    let _ = writeln!(s, "  \"total_backtracks_with\": {total_with},");
    let _ = writeln!(s, "  \"strictly_fewer\": {},", total_with < total_without);
    s.push_str("  \"flow_records\": [\n");
    for (i, r) in scaling.records.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"circuit\": \"{}\", \"patterns\": {}, \"coverage\": {:.4}, \
             \"detected_coverage\": {:.4}}}{}",
            r.circuit,
            r.patterns,
            r.coverage,
            r.detected_coverage,
            if i + 1 == scaling.records.len() {
                ""
            } else {
                ","
            }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"flow_scaling\": [\n");
    for (i, r) in scaling.rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"config\": \"{}\", \"threads\": {}, \"collateral_dropping\": {}, \
             \"seconds\": {:.6}, \"patterns\": {}, \"attempts\": {}, \
             \"pattern_hash\": \"{:#018x}\"}}{}",
            r.config,
            r.threads,
            r.dropping,
            r.seconds,
            r.patterns,
            r.attempts,
            r.hash,
            if i + 1 == scaling.rows.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"identical_across_threads\": {},", scaling.identical);
    let _ = writeln!(
        s,
        "  \"speedup_t8_vs_serial_nodrop\": {:.2}",
        scaling.speedup
    );
    s.push_str("}\n");
    s
}

/// The experiment-E11-style random-pattern coverage curve, regenerated
/// with the fast engine: one PPSFP pass with dropping gives the full
/// first-detection profile, from which coverage at every prefix length
/// falls out of [`DetectionResult::coverage_curve`].
fn coverage_curve(quick: bool, ppsfp: &PpsfpEngine) -> Vec<(usize, f64)> {
    let n = random_combinational(16, 300, 5);
    let faults = universe(&n);
    let total = if quick { 512 } else { 4096 };
    let patterns = random_patterns(16, total, 11);
    let r = ppsfp
        .run(&n, &patterns, &faults)
        .expect("roster circuit levelizes");
    let curve = r.coverage_curve();
    (6..)
        .map(|e| 1usize << e)
        .take_while(|&k| k <= total)
        .map(|k| (k, curve[k - 1]))
        .collect()
}

fn to_json(
    records: &[Record],
    speedups: &[(&'static str, f64)],
    curve: &[(usize, f64)],
    scale: &[ScaleRecord],
    all_agree: bool,
    cfg: &Config,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"fault_sim\",");
    let _ = writeln!(s, "  \"quick\": {},", cfg.quick);
    let _ = writeln!(s, "  \"threads\": {},", cfg.threads);
    let _ = writeln!(s, "  \"detected_sets_agree\": {all_agree},");
    s.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"circuit\": \"{}\", \"engine\": \"{}\", \"gates\": {}, \"faults\": {}, \
             \"patterns\": {}, \"seconds\": {:.6}, \"patterns_per_sec\": {:.1}, \
             \"fault_patterns_per_sec\": {:.1}, \"gates_per_sec\": {:.1}, \
             \"bytes_per_gate\": {}, \"detected\": {}}}{}",
            r.circuit,
            r.engine,
            r.gates,
            r.faults,
            r.patterns,
            r.seconds,
            r.patterns_per_sec(),
            r.fault_patterns_per_sec(),
            r.gates_per_sec(),
            r.bytes_per_gate(),
            r.detected,
            if i + 1 == records.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedup_ppsfp_vs_serial\": {\n");
    for (i, (c, sp)) in speedups.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{c}\": {sp:.2}{}",
            if i + 1 == speedups.len() { "" } else { "," }
        );
    }
    s.push_str("  },\n");
    s.push_str("  \"coverage_curve_rand_16x300\": [\n");
    for (i, (k, c)) in curve.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"patterns\": {k}, \"coverage\": {c:.4}}}{}",
            if i + 1 == curve.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"scale\": [\n");
    for (i, r) in scale.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"universe\": {}, \"classes\": {}, \
             \"patterns\": {}, \"netlist_bytes_per_gate\": {:.1}, \"enumerate_seconds\": {:.6}, \
             \"sim_seconds\": {:.6}, \"gates_per_sec\": {:.1}, \"fault_patterns_per_sec\": {:.1}, \
             \"words_folded\": {}, \"detected\": {}, \"identical\": {}}}{}",
            r.circuit,
            r.gates,
            r.universe,
            r.classes,
            r.patterns,
            r.netlist_bytes_per_gate,
            r.enumerate_seconds,
            r.sim_seconds,
            r.gates_per_sec(),
            r.fault_patterns_per_sec(),
            r.words_folded,
            r.detected,
            r.identical,
            if i + 1 == scale.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}
