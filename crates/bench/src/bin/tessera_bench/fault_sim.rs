//! The fault-simulation section (`BENCH_fault_sim.json`): every
//! combinational engine timed on the roster, with a cross-engine check
//! of the detected fault sets, the PPSFP-vs-serial speedups, the
//! random-pattern coverage curve, and the industrial-scale ingest rungs.

use std::time::Instant;

use dft_bench::cli::ToolExit;
use dft_fault::stream::CollapsedUniverse;
use dft_fault::{
    universe, DetectionResult, Fault, FaultSimEngine, Ppsfp, PpsfpEngine, PpsfpOptions,
    SerialEngine, SerialOptions,
};
use dft_json::Value;
use dft_netlist::Netlist;
use dft_obs::Recorder;
use dft_sim::PatternSet;

use crate::doc::{fixed, flag, num, obj, rows, text};
use crate::{circuit, random_patterns};

/// A roster circuit's random pattern set, `(count, seed)`; `None` is
/// all 32 patterns of c17.
type Patterns = Option<(usize, u64)>;

/// The engine roster: circuit, its pattern set, and whether the
/// full-work `serial_nodrop` baseline runs. It is off for the largest
/// circuit, where it would add minutes without informing the
/// serial-vs-PPSFP comparison. The first two are the `--quick` roster.
const ROSTER: [(&str, Patterns, bool); 5] = [
    ("c17", None, true),
    ("rand_16x300", Some((256, 3)), true),
    ("rand_20x800", Some((512, 4)), true),
    ("rand_24x2000", Some((1024, 5)), true),
    ("rand_28x6000", Some((1024, 6)), false),
];

/// Runs the section: the roster (its first two circuits under `quick`),
/// then one scale rung per spec.
pub fn run(quick: bool, threads: usize, scale: &[String]) -> Value {
    let ppsfp = PpsfpEngine {
        options: PpsfpOptions::new().with_threads(threads),
    };
    let serial = SerialEngine::default();
    let serial_nodrop = SerialEngine {
        options: SerialOptions::new().with_fault_dropping(false),
    };
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    let mut agree = true;
    for &(name, set, slow_baselines) in &ROSTER[..if quick { 2 } else { ROSTER.len() }] {
        let n = circuit(name);
        let patterns = set.map_or_else(
            || PatternSet::exhaustive(5, 0..32),
            |(count, seed)| random_patterns(n.primary_inputs().len(), count, seed),
        );
        let faults = universe(&n);
        let mut engines: Vec<&dyn FaultSimEngine> = vec![&serial];
        if slow_baselines {
            engines.push(&serial_nodrop);
        }
        engines.push(&ppsfp);
        let mut reference = None;
        let mut serial_secs = 0.0;
        for engine in engines {
            let (secs, runs, result) = timed(|| {
                engine
                    .run(&n, &patterns, &faults)
                    .expect("roster circuits levelize")
            });
            if *reference.get_or_insert_with(|| result.clone()) != result {
                agree = false;
                eprintln!("WARNING: {} disagrees with serial on {name}", engine.name());
            }
            match engine.name() {
                "serial" => serial_secs = secs,
                "ppsfp" => speedups.push((name.to_owned(), fixed(serial_secs / secs, 2))),
                _ => {}
            }
            let row = record(name, engine.name(), &n, &patterns, (secs, runs), &result);
            records.push(row);
        }
    }
    let scale: Vec<Value> = scale
        .iter()
        .map(|spec| scale_rung(spec, threads, &mut records))
        .collect();
    obj! {
        "bench" => "fault_sim",
        "quick" => quick,
        "threads" => threads,
        "detected_sets_agree" => agree,
        "records" => Value::Arr(records),
        "speedup_ppsfp_vs_serial" => Value::Obj(speedups),
        "coverage_curve_rand_16x300" => coverage_curve(quick, &ppsfp),
        "scale" => Value::Arr(scale),
    }
}

/// The scale rungs' own checks on a section document: each streamed run
/// must detect bit-identically to the materialized fault list, and, with
/// a `ceiling`, no rung's netlist may take more bytes per gate.
pub fn scale_failures(doc: &Value, ceiling: Option<f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows(doc, "scale") {
        let (circuit, bytes) = (text(r, "circuit"), num(r, "netlist_bytes_per_gate"));
        if !flag(r, "identical") {
            failures.push(format!(
                "SCALE REGRESSION: {circuit}: streamed PPSFP diverged from the materialized fault list"
            ));
        }
        if let Some(ceiling) = ceiling.filter(|&c| bytes > c) {
            failures.push(format!(
                "SCALE REGRESSION: {circuit} netlist bytes/gate {bytes} exceeds ceiling {ceiling}"
            ));
        }
    }
    failures
}

/// One fault-sim record; its rates are derived here, once.
/// `bytes_per_gate` is the packed response bytes per gate slot for the
/// whole set (8 per 64-lane block): the working set a full sweep streams.
fn record(
    circuit: &str,
    engine: &str,
    n: &Netlist,
    patterns: &PatternSet,
    (secs, runs): (f64, usize),
    result: &DetectionResult,
) -> Value {
    let faults = result.first_detected.len();
    let per_sec = patterns.len() as f64 / secs;
    obj! {
        "circuit" => circuit,
        "engine" => engine,
        "gates" => n.gate_count(),
        "faults" => faults,
        "patterns" => patterns.len(),
        "seconds" => fixed(secs, 6),
        "runs" => runs,
        "patterns_per_sec" => fixed(per_sec, 1),
        "fault_patterns_per_sec" => fixed(faults as f64 * per_sec, 1),
        "gates_per_sec" => fixed(n.gate_count() as f64 * per_sec, 1),
        "bytes_per_gate" => 8 * patterns.block_count(),
        "detected" => result.detected_count(),
    }
}

/// One industrial-scale ingest rung. `spec` is any circuit the resolver
/// accepts; 256 random patterns are fault-graded by chunked PPSFP over
/// the streamed collapsed universe, and the streamed run is checked bit
/// for bit against the same representatives as a materialized list. The
/// streamed run is also pushed to `records` (engine `ppsfp_streamed`) so
/// the baseline gate sees it.
fn scale_rung(spec: &str, threads: usize, records: &mut Vec<Value>) -> Value {
    let n = dft_bench::resolve_circuit(spec).unwrap_or_else(|e| {
        eprintln!("tessera-bench: --scale {spec}: {e}");
        std::process::exit(ToolExit::Usage as i32)
    });
    let t = Instant::now();
    let collapsed = CollapsedUniverse::new(&n);
    let enumerate_seconds = t.elapsed().as_secs_f64();
    let patterns = random_patterns(n.primary_inputs().len(), 256, 12);
    let engine = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(threads))
        .expect("scale circuits are combinational");
    let (secs, runs, (streamed, words_folded)) = timed(|| {
        let mut rec = Recorder::new();
        let streamed = engine.run_streamed_with(
            &patterns,
            collapsed.representatives(),
            1 << 16,
            Some(&mut rec),
        );
        let report = rec.finish("scale");
        let words = report
            .find("fault_sim.ppsfp")
            .map_or(0, |s| s.counter("words_folded"));
        (streamed, words)
    });
    let reps: Vec<Fault> = collapsed.representatives().collect();
    let identical = streamed.first_detected == engine.run(&patterns, &reps).first_detected;
    let timing = (secs, runs);
    let record = record(spec, "ppsfp_streamed", &n, &patterns, timing, &streamed);
    let rate = |key| record.get(key).cloned().expect("records carry their rates");
    let row = obj! {
        "circuit" => spec,
        "gates" => n.gate_count(),
        "universe" => collapsed.universe().len(),
        "classes" => collapsed.class_count(),
        "patterns" => patterns.len(),
        "netlist_bytes_per_gate" => fixed(n.memory_footprint().bytes_per_gate(), 1),
        "enumerate_seconds" => fixed(enumerate_seconds, 6),
        "sim_seconds" => fixed(secs, 6),
        "gates_per_sec" => rate("gates_per_sec"),
        "fault_patterns_per_sec" => rate("fault_patterns_per_sec"),
        "words_folded" => words_folded,
        "detected" => streamed.detected_count(),
        "identical" => identical,
    };
    records.push(record);
    row
}

/// Runs of a sub-second record, at least.
const MIN_RUNS: usize = 5;

/// Time a repeated record covers, at least: the 10 ms from which the
/// baseline gate bounds its throughput, plus a tenth for the rounding of
/// the published per-run seconds to microseconds.
const MIN_TOTAL_SECONDS: f64 = 0.011;

/// Times `run`: once if it takes a second or more, else until it has run
/// [`MIN_RUNS`] times and the median times the run count (the time the
/// baseline gate reads) reaches [`MIN_TOTAL_SECONDS`]. Returns the
/// median seconds per run, the run count and the first run's result;
/// every engine is deterministic, so the repeats only time.
fn timed<R>(mut run: impl FnMut() -> R) -> (f64, usize, R) {
    let t = Instant::now();
    let result = run();
    let mut secs = vec![t.elapsed().as_secs_f64()];
    let once = secs[0] >= 1.0;
    loop {
        secs.sort_by(f64::total_cmp);
        let median = secs[secs.len() / 2].max(1e-9);
        let total = median * secs.len() as f64;
        if once || (secs.len() >= MIN_RUNS && total >= MIN_TOTAL_SECONDS) {
            return (median, secs.len(), result);
        }
        let t = Instant::now();
        std::hint::black_box(run());
        secs.push(t.elapsed().as_secs_f64());
    }
}

/// The random-pattern coverage curve on rand_16x300: one PPSFP pass with
/// dropping gives the whole first-detection profile, sampled at every
/// power of two from 64 patterns.
fn coverage_curve(quick: bool, ppsfp: &PpsfpEngine) -> Value {
    let n = circuit("rand_16x300");
    let total = if quick { 512 } else { 4096 };
    let curve = ppsfp
        .run(&n, &random_patterns(16, total, 11), &universe(&n))
        .expect("roster circuits levelize")
        .coverage_curve();
    let points = (6..).map(|e| 1usize << e).take_while(|&k| k <= total);
    Value::Arr(
        points
            .map(|k| obj! { "patterns" => k, "coverage" => fixed(curve[k - 1], 4) })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_failures_report_divergence_and_the_bytes_ceiling() {
        let doc = |identical: bool| {
            let rung = obj! {
                "circuit" => "rung",
                "netlist_bytes_per_gate" => Value::Num(28.4),
                "identical" => identical,
            };
            obj! { "scale" => Value::Arr(vec![rung]) }
        };
        assert!(scale_failures(&doc(true), Some(48.0)).is_empty());
        assert_eq!(scale_failures(&doc(false), None).len(), 1);
        assert_eq!(scale_failures(&doc(true), Some(28.0)).len(), 1);
    }

    #[test]
    fn a_short_record_repeats_until_the_gate_reads_it() {
        let mut calls = 0;
        let (secs, runs, first) = timed(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(200));
            calls
        });
        assert_eq!(first, 1, "the first run's result is returned");
        assert!(runs >= MIN_RUNS);
        assert!(secs * runs as f64 >= MIN_TOTAL_SECONDS);
    }
}
