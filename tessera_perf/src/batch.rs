//! The three batch flows: fault grading, ATPG and lint-driven repair.
//!
//! Each flow starts from the input file (read → parse → levelize), runs
//! single-threaded (the primary ROADMAP metric), and is repeated with
//! fresh seeded inputs until the run's time is up. Every operation's
//! output is checked against an independent oracle after its timer
//! stops. With tracing on, every other operation records a span tree:
//! the benchmark's own spans around each library call, with the
//! library's `_observed` spans nested inside.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use dft_analyze::AnalysisCache;
use dft_atpg::{generate_tests_observed, AtpgConfig, AtpgRun, FaultStatus};
use dft_fault::stream::CollapsedUniverse;
use dft_fault::{universe, DetectionResult, FaultSimEngine, Ppsfp, PpsfpOptions, SerialEngine};
use dft_lint::{LintConfig, Registry, SeverityOverrides};
use dft_netlist::Netlist;
use dft_obs::{Collector, Obs, Recorder, RunReport};
use dft_repair::{repair_observed, RepairOptions, RepairOutcome};
use dft_sim::{CompiledSim, PatternSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{ingest, median_of, span_count, span_ms, write_trace, Circuit, Setup};
use crate::metrics::{derive_seed, median, peak_rss_mb, ratio, Outcome, END_TO_END, PER_LAYER};
use crate::probe::{at_nominal, Probe, NOMINAL_MS};
use crate::RunConfig;

/// Operations a run always completes, whatever `--seconds` says — four,
/// so a traced run has two traced operations.
const MIN_OPS: usize = 4;

/// Random patterns fault-graded per grade operation.
const GRADE_PATTERNS: usize = 256;

/// Faults per streamed PPSFP chunk.
const GRADE_CHUNK: usize = 1 << 16;

/// Collapsed fault classes the grade oracle re-simulates per operation,
/// half of them detected by PPSFP and half not.
const GRADE_SAMPLES: usize = 16;

/// The lint rule subset grade runs: the linear rules only.
const SCALE_LINT: &str = include_str!("../scale-lint.toml");

/// Every operation of one batch run. Times are at nominal speed (see
/// [`crate::probe`]) unless named raw.
struct Ops {
    /// Untraced operation times, in milliseconds.
    ms: Vec<f64>,
    /// Untraced operation wall times, in milliseconds.
    raw_ms: Vec<f64>,
    /// Traced operation times, in milliseconds.
    traced_ms: Vec<f64>,
    /// Span trees of the traced operations, with the factor that scales
    /// their times to nominal speed.
    reports: Vec<(RunReport, f64)>,
    /// Probe readings around every operation, in milliseconds.
    probe_ms: Vec<f64>,
    /// Coverage each operation produced.
    coverage: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Oracle disagreements, one message each.
    mismatches: Vec<String>,
}

/// Repeats one flow until the run's time is up.
///
/// * `prepare` makes the operation's inputs from its seed (untimed);
/// * `flow` is the timed user flow;
/// * `check` is the untimed oracle, returning the coverage the flow
///   achieved;
/// * `extra` adds untimed reference measurements to a traced
///   operation's span tree.
fn run_ops<P, X>(
    cfg: &RunConfig,
    probe: &mut Probe,
    prepare: impl Fn(u64) -> P,
    flow: impl Fn(&P, &mut Obs) -> Result<X, String>,
    check: impl Fn(&P, &X) -> Result<f64, String>,
    extra: impl Fn(&P, &X, &mut Obs),
) -> Ops {
    let mut ops = Ops {
        ms: Vec::new(),
        raw_ms: Vec::new(),
        traced_ms: Vec::new(),
        reports: Vec::new(),
        probe_ms: Vec::new(),
        coverage: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    let started = Instant::now();
    let mut i = 0;
    while i < MIN_OPS || started.elapsed().as_secs_f64() < cfg.seconds {
        let input = prepare(derive_seed(cfg.seed, i as u64));
        let traced = cfg.trace && i % 2 == 1;
        let mut rec = traced.then(Recorder::new);
        let mut obs = Obs::new(rec.as_mut().map(|r| r as &mut dyn Collector));
        let (result, raw_ms, probe_ms) = probe.around(|| flow(&input, &mut obs));
        let ms = at_nominal(raw_ms, probe_ms);
        ops.attempted += 1;
        ops.probe_ms.push(probe_ms);
        i += 1;
        match result {
            Ok(out) => {
                extra(&input, &out, &mut obs);
                drop(obs);
                if let Some(rec) = rec {
                    ops.reports.push((rec.finish("op"), NOMINAL_MS / probe_ms));
                    ops.traced_ms.push(ms);
                } else {
                    ops.ms.push(ms);
                    ops.raw_ms.push(raw_ms);
                }
                match check(&input, &out) {
                    Ok(coverage) => ops.coverage.push(coverage),
                    Err(msg) => ops.mismatches.push(format!("operation {i}: {msg}")),
                }
            }
            Err(msg) => {
                ops.failed += 1;
                ops.mismatches.push(format!("operation {i} failed: {msg}"));
            }
        }
    }
    ops
}

/// Assembles a batch run's result line. `layers` maps the traced
/// operations' span trees to the workload's per-layer metrics.
fn finish(
    cfg: &RunConfig,
    setup: &Setup<Netlist>,
    ops: &Ops,
    layers: impl Fn(&[(RunReport, f64)]) -> Vec<(&'static str, f64)>,
) -> Result<Outcome, String> {
    for msg in &ops.mismatches {
        eprintln!("tessera_perf: {}: {msg}", cfg.workload.name());
    }
    let correct = ops.mismatches.is_empty() && ops.failed == 0;
    if cfg.trace {
        if let Some((first, _)) = ops.reports.first() {
            write_trace(cfg.workload.name(), &first.to_json())?;
        }
        let mut measured = setup.netlist_layers();
        measured.push((
            "netlist.bytes_per_gate",
            setup.value.memory_footprint().bytes_per_gate(),
        ));
        measured.extend(layers(&ops.reports));
        measured.extend([
            (
                "trace_overhead",
                ratio(median(&ops.traced_ms), median(&ops.ms)) - 1.0,
            ),
            ("host.probe_ms", median(&ops.probe_ms)),
            ("host.wall_latency_ms", median(&ops.raw_ms)),
        ]);
        return Outcome::new(correct, ops.attempted, ops.failed, PER_LAYER, &measured);
    }
    let total_s: f64 = ops.ms.iter().sum::<f64>() / 1e3;
    Outcome::new(
        correct,
        ops.attempted,
        ops.failed,
        END_TO_END,
        &[
            ("setup_s", median(&setup.seconds)),
            ("latency_ms", median(&ops.ms)),
            ("ops_per_s", ratio(ops.ms.len() as f64, total_s)),
            ("peak_rss_mb", peak_rss_mb()?),
            ("coverage", median(&ops.coverage)),
        ],
    )
}

/// Materializes `circuit` and times its ingest as the run's set-up.
fn setup(
    cfg: &RunConfig,
    probe: &mut Probe,
    circuit: Circuit,
) -> Result<(PathBuf, Setup<Netlist>), String> {
    let path = circuit.materialize()?;
    let setup = Setup::repeat(cfg.trace, probe, |obs| ingest(&path, obs), drop)?;
    Ok((path, setup))
}

/// Counter `name` on the first span called `span`.
fn counter(report: &RunReport, span: &str, name: &str) -> f64 {
    report.find(span).map_or(0.0, |s| s.counter(name) as f64)
}

// ---------------------------------------------------------------------
// grade: ingest → lint → collapse → PPSFP fault grading
// ---------------------------------------------------------------------

/// What one grade operation hands its oracle.
struct Graded {
    netlist: Netlist,
    result: DetectionResult,
}

/// Fault-grades a large netlist: ingest and fault simulation at a scale
/// where the working set dwarfs the caches.
pub fn grade(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let (path, setup) = setup(cfg, &mut probe, cfg.size.grade)?;
    let inputs = setup.value.primary_inputs().len();
    let overrides =
        SeverityOverrides::parse(SCALE_LINT).map_err(|e| format!("scale-lint.toml: {e}"))?;
    let mut registry = Registry::with_default_rules();
    for rule in overrides.disabled() {
        registry.disable(rule);
    }

    let prepare = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        (seed, PatternSet::random(inputs, GRADE_PATTERNS, &mut rng))
    };
    let flow = |(_, patterns): &(u64, PatternSet), obs: &mut Obs| {
        let netlist = ingest(&path, obs)?;
        obs.enter("lint.run");
        let mut report = registry.run_with(&netlist, LintConfig::default());
        overrides.apply(&mut report);
        obs.count("diagnostics", report.diagnostics().len() as u64);
        obs.exit();
        obs.enter("fault.collapse");
        let collapsed = CollapsedUniverse::new(&netlist);
        obs.count("classes", collapsed.class_count() as u64);
        obs.exit();
        obs.enter("fault.ppsfp_build");
        let engine = Ppsfp::with_options(&netlist, PpsfpOptions::new().with_threads(1))
            .map_err(|e| e.to_string())?;
        obs.exit();
        obs.enter("fault.ppsfp_sim");
        let result = engine.run_streamed(patterns, collapsed.representatives(), GRADE_CHUNK);
        obs.count("detected", result.detected_count() as u64);
        obs.count(
            "fault_patterns",
            (collapsed.class_count() * patterns.len()) as u64,
        );
        obs.exit();
        Ok(Graded { netlist, result })
    };
    // Oracle: a seeded sample of classes, half detected and half not,
    // re-simulated one by one with the serial reference engine.
    let check = |(seed, patterns): &(u64, PatternSet), g: &Graded| {
        let collapsed = CollapsedUniverse::new(&g.netlist);
        let (hit, miss): (Vec<usize>, Vec<usize>) =
            (0..g.result.first_detected.len()).partition(|&i| g.result.first_detected[i].is_some());
        let mut rng = StdRng::seed_from_u64(derive_seed(*seed, 0x0AC1E));
        let mut sample = BTreeSet::new();
        for pool in [&hit, &miss] {
            let want = sample.len() + (GRADE_SAMPLES / 2).min(pool.len());
            while sample.len() < want {
                sample.insert(pool[rng.gen_range(0..pool.len())]);
            }
        }
        let faults: Vec<_> = collapsed
            .representatives()
            .enumerate()
            .filter(|(k, _)| sample.contains(k))
            .map(|(_, f)| f)
            .collect();
        let serial = SerialEngine::default()
            .run(&g.netlist, patterns, &faults)
            .map_err(|e| e.to_string())?;
        for (&i, serial_first) in sample.iter().zip(&serial.first_detected) {
            if *serial_first != g.result.first_detected[i] {
                return Err(format!(
                    "class {i}: PPSFP first detection {:?}, serial {serial_first:?}",
                    g.result.first_detected[i]
                ));
            }
        }
        Ok(g.result.coverage())
    };
    // Reference: the good-machine simulation of the same patterns, the
    // baseline share of the PPSFP time.
    let extra = |(_, patterns): &(u64, PatternSet), g: &Graded, obs: &mut Obs| {
        obs.enter("sim.good_machine");
        if let Ok(sim) = CompiledSim::new(&g.netlist) {
            std::hint::black_box(sim.run_with(patterns, obs.as_option()));
        }
        obs.exit();
    };
    let ops = run_ops(cfg, &mut probe, prepare, flow, check, extra);
    finish(cfg, &setup, &ops, |reports| {
        let first = reports.first().map(|(r, _)| r);
        let count = |span: &str, name: &str| first.map_or(0.0, |r| counter(r, span, name));
        vec![
            (
                "lint.run_ms",
                median_of(reports, |r| span_ms(r, "lint.run")),
            ),
            ("lint.diagnostics", count("lint.run", "diagnostics")),
            (
                "fault.collapse_ms",
                median_of(reports, |r| span_ms(r, "fault.collapse")),
            ),
            ("fault.classes", count("fault.collapse", "classes")),
            (
                "fault.ppsfp_build_ms",
                median_of(reports, |r| span_ms(r, "fault.ppsfp_build")),
            ),
            (
                "fault.ppsfp_sim_ms",
                median_of(reports, |r| span_ms(r, "fault.ppsfp_sim")),
            ),
            (
                "fault.fault_patterns_per_s",
                median(
                    &reports
                        .iter()
                        .map(|(r, scale)| {
                            ratio(
                                counter(r, "fault.ppsfp_sim", "fault_patterns"),
                                span_ms(r, "fault.ppsfp_sim") * scale / 1e3,
                            )
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
            ("fault.detected", count("fault.ppsfp_sim", "detected")),
            (
                "sim.good_machine_ms",
                median_of(reports, |r| span_ms(r, "sim.good_machine")),
            ),
        ]
    })
}

// ---------------------------------------------------------------------
// atpg: ingest → full-universe test generation
// ---------------------------------------------------------------------

/// Generates a compacted test set: solver search with almost no fault
/// simulation.
pub fn atpg(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let (path, setup) = setup(cfg, &mut probe, cfg.size.atpg)?;
    let flow = |seed: &u64, obs: &mut Obs| {
        let netlist = ingest(&path, obs)?;
        let faults = universe(&netlist);
        let config = AtpgConfig::new().with_threads(1).with_seed(*seed);
        let run = generate_tests_observed(&netlist, &faults, &config, obs.as_option())
            .map_err(|e| e.to_string())?;
        Ok((netlist, run))
    };
    // Oracle: the returned patterns, re-graded over the whole universe
    // by the serial reference engine, detect every fault the run claims.
    let check = |_: &u64, (netlist, run): &(Netlist, AtpgRun)| {
        let faults = universe(netlist);
        let serial = SerialEngine::default()
            .run(netlist, &run.patterns, &faults)
            .map_err(|e| e.to_string())?;
        for (i, status) in run.status.iter().enumerate() {
            let claimed = matches!(
                status,
                FaultStatus::DetectedRandom | FaultStatus::DetectedDeterministic
            );
            if claimed && serial.first_detected[i].is_none() {
                return Err(format!(
                    "fault {} claimed detected, serial misses it",
                    faults[i]
                ));
            }
        }
        Ok(run.coverage())
    };
    let ops = run_ops(cfg, &mut probe, |seed| seed, flow, check, |_, _, _| {});
    finish(cfg, &setup, &ops, |reports| {
        let first = reports.first().map(|(r, _)| r);
        let det = |name: &str| first.map_or(0.0, |r| counter(r, "atpg.deterministic", name));
        let det_ms = median_of(reports, |r| span_ms(r, "atpg.deterministic"));
        vec![
            (
                "atpg.random_ms",
                median_of(reports, |r| span_ms(r, "atpg.random")),
            ),
            ("atpg.deterministic_ms", det_ms),
            (
                "atpg.compact_ms",
                median_of(reports, |r| span_ms(r, "atpg.compact")),
            ),
            (
                "implic.learn_ms",
                median_of(reports, |r| span_ms(r, "implic.learn")),
            ),
            ("atpg.attempts", det("attempts")),
            ("atpg.backtracks", det("backtracks")),
            ("atpg.forward_evals", det("forward_evals")),
            ("atpg.implication_conflicts", det("implication_conflicts")),
            ("atpg.tests", det("tests")),
            ("atpg.untestable", det("untestable")),
            ("atpg.aborted", det("aborted")),
            ("atpg.collateral_drops", det("collateral_drops")),
            (
                "atpg.test_patterns",
                first.map_or(0.0, |r| counter(r, "atpg.compact", "patterns")),
            ),
            (
                "atpg.tests_per_attempt",
                ratio(det("tests"), det("attempts")),
            ),
            (
                "atpg.us_per_forward_eval",
                median_of(reports, |r| {
                    ratio(
                        span_ms(r, "atpg.deterministic") * 1e3,
                        counter(r, "atpg.deterministic", "forward_evals"),
                    )
                }),
            ),
        ]
    })
}

// ---------------------------------------------------------------------
// fix: ingest → lint-driven repair autopilot
// ---------------------------------------------------------------------

/// Runs the repair autopilot: the only flow where lint findings become
/// edits, dominated by SCOAP re-scoring of candidates.
pub fn fix(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let (path, setup) = setup(cfg, &mut probe, cfg.size.fix)?;
    let options = |seed: u64| RepairOptions::new().with_threads(1).with_seed(seed);
    let flow = |seed: &u64, obs: &mut Obs| {
        let netlist = ingest(&path, obs)?;
        let outcome = repair_observed(&netlist, &options(*seed), obs.as_option())
            .map_err(|e| e.to_string())?;
        Ok((netlist, outcome))
    };
    // Oracle: the repaired netlist, re-graded by the serial reference
    // engine on the plan's own pattern recipe, reaches the plan's final
    // coverage exactly.
    let check = |seed: &u64, (_, outcome): &(Netlist, RepairOutcome)| {
        let opts = options(*seed);
        let netlist = &outcome.netlist;
        let faults = universe(netlist);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let patterns = PatternSet::random(netlist.primary_inputs().len(), opts.patterns, &mut rng);
        let serial = SerialEngine::default()
            .run(netlist, &patterns, &faults)
            .map_err(|e| e.to_string())?;
        let claimed = outcome.plan.final_coverage;
        if serial.detected_count() != claimed.detected || faults.len() != claimed.fault_count {
            return Err(format!(
                "plan claims {}/{} detected, serial measures {}/{}",
                claimed.detected,
                claimed.fault_count,
                serial.detected_count(),
                faults.len()
            ));
        }
        Ok(claimed.coverage)
    };
    // Reference: every analysis solved from scratch on the input, the
    // cost the rank step's incremental re-scoring avoids per candidate.
    let extra = |_: &u64, (netlist, _): &(Netlist, RepairOutcome), obs: &mut Obs| {
        obs.enter("analyze.full_solve");
        if let Ok(mut cache) = AnalysisCache::new(netlist) {
            std::hint::black_box(cache.scoap());
            std::hint::black_box(cache.constants());
            std::hint::black_box(cache.xprop());
            std::hint::black_box(cache.dominators());
        }
        obs.exit();
    };
    let ops = run_ops(cfg, &mut probe, |seed| seed, flow, check, extra);
    finish(cfg, &setup, &ops, |reports| {
        let first = reports.first().map(|(r, _)| r);
        let total = |name: &str| first.map_or(0.0, |r| r.root.counter_total(name) as f64);
        let rank_ms = median_of(reports, |r| span_ms(r, "repair.rank"));
        let ranked = total("repair.candidates.ranked");
        vec![
            (
                "repair.lint_ms",
                median_of(reports, |r| span_ms(r, "repair.lint")),
            ),
            (
                "repair.expand_ms",
                median_of(reports, |r| span_ms(r, "repair.expand")),
            ),
            ("repair.rank_ms", rank_ms),
            (
                "repair.verify_ms",
                median_of(reports, |r| span_ms(r, "repair.verify")),
            ),
            (
                "repair.rounds",
                first.map_or(0.0, |r| span_count(r, "repair.round") as f64),
            ),
            ("repair.candidates_ranked", ranked),
            (
                "repair.candidates_pruned",
                total("repair.candidates.pruned"),
            ),
            (
                "repair.candidates_verified",
                total("repair.candidates.verified"),
            ),
            ("repair.accepted", total("repair.accepted")),
            (
                "repair.accepted_per_verified",
                ratio(
                    total("repair.accepted"),
                    total("repair.candidates.verified"),
                ),
            ),
            ("repair.rank_ms_per_candidate", ratio(rank_ms, ranked)),
            (
                "analyze.full_solve_ms",
                median_of(reports, |r| span_ms(r, "analyze.full_solve")),
            ),
        ]
    })
}
