//! The `--report` pass: one fully observed run written as a
//! `tessera-obs/1` span/counter tree.

use dft_atpg::{generate_tests_observed, AtpgConfig, FaultStatus};
use dft_bench::exhaustive_patterns;
use dft_fault::{universe, FaultSimEngine, PpsfpEngine, PpsfpOptions, SerialEngine};
use dft_obs::{Recorder, RunReport};

use crate::circuit;

/// One fully observed pass: the reference serial engine, the PPSFP
/// engine, and the complete ATPG flow (whose deterministic phase nests
/// the implication-engine build) all feed a single recorder, so the tree
/// covers the `fault_sim.*`, `atpg.*` and `implic.learn` phases in one
/// report. Runs on c17: the report documents the flow's shape, not its
/// throughput. The recorded counters are asserted against the results
/// the engines returned for the same runs, so a written report is a
/// cross-checked one.
pub fn observed_run(quick: bool, threads: usize) -> RunReport {
    let n = circuit("c17");
    let faults = universe(&n);
    let patterns = exhaustive_patterns(5);
    let serial = SerialEngine::default();
    let ppsfp = PpsfpEngine {
        options: PpsfpOptions::new().with_threads(threads),
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
    let report = rec.finish(if quick {
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
    // c17's 32 patterns fill one block, which the observability table
    // answers, so every fold of the run is the table build's. The build
    // resolves each lane of a tabled gate's flip at most once, and only
    // at a clean cut, which lies between two of the engine's ops.
    let table = ppsfp_span
        .find("fault_sim.observability")
        .expect("observability span");
    assert_eq!(
        table.counter("tabled_gates"),
        n.gate_count() as u64,
        "c17 grades enough faults to table every gate"
    );
    assert_eq!(
        table.counter("words_folded"),
        ppsfp_span.counter("words_folded"),
        "the table build's folds disagree with the run's"
    );
    let lanes = 64 * ppsfp_span.counter("lane_words");
    assert!(
        table.counter("lanes_resolved") <= table.counter("tabled_gates") * lanes,
        "more lanes resolved than the tabled flips carry"
    );
    assert!(
        table.counter("clean_cuts") < n.logic_gate_count() as u64,
        "more clean cuts than gaps between ops"
    );
    assert!(
        table.counter("clean_cuts") > 0 || table.counter("lanes_resolved") == 0,
        "lanes resolved without a clean cut"
    );
    let det = report
        .find("atpg.deterministic")
        .expect("deterministic ATPG span");
    let statuses = |s| atpg_run.status.iter().filter(|&&x| x == s).count() as u64;
    assert_eq!(
        det.counter("tests") + det.counter("collateral_drops"),
        statuses(FaultStatus::DetectedDeterministic),
        "ATPG telemetry disagrees with AtpgRun"
    );
    assert_eq!(
        det.counter("untestable"),
        statuses(FaultStatus::Untestable),
        "ATPG telemetry disagrees with AtpgRun"
    );
    assert!(
        report.find("implic.learn").is_some(),
        "implication-engine build missing from the report"
    );
    report
}
