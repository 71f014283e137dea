//! The threaded deterministic driver's contract: the thread count is a
//! throughput knob, never a result knob. `generate_tests` must hand back
//! an identical run — patterns, order, statuses — and the
//! `atpg.deterministic` span identical effort counters, for every
//! `threads` setting, and full compaction must never cost patterns or
//! coverage.

use std::collections::BTreeMap;

use dft_atpg::{generate_tests, generate_tests_observed, AtpgConfig, AtpgRun};
use dft_fault::{simulate, universe};
use dft_netlist::circuits::{c17, random_combinational, redundant_fixture};
use dft_netlist::Netlist;
use dft_obs::Recorder;

fn roster() -> Vec<Netlist> {
    vec![
        c17(),
        redundant_fixture(),
        // Multi-batch queue so inter-batch dropping is exercised.
        random_combinational(12, 80, 9),
        // A redundant tail: CDCL proofs and two-round class reuse (the
        // g110 class falls in one batch).
        random_combinational(15, 140, 6),
    ]
}

/// The flow's run and every counter of its `atpg.deterministic` span.
fn observed(n: &Netlist, cfg: &AtpgConfig) -> (AtpgRun, BTreeMap<String, u64>) {
    let mut rec = Recorder::new();
    let run = generate_tests_observed(n, &universe(n), cfg, Some(&mut rec)).unwrap();
    let report = rec.finish(n.name());
    let span = report.find("atpg.deterministic").expect("the phase span");
    (run, span.counters.clone())
}

#[test]
fn test_set_is_identical_for_any_thread_count() {
    for n in roster() {
        // random_budget 0: every fault reaches the threaded phase.
        let cfg = AtpgConfig::new().with_random_budget(0).with_threads(1);
        let (base, base_counters) = observed(&n, &cfg);
        assert!(base_counters["attempts"] > 0, "{}", n.name());
        for t in [2, 8] {
            let (run, counters) = observed(&n, &cfg.clone().with_threads(t));
            assert_eq!(
                base.patterns,
                run.patterns,
                "patterns differ at {t} threads on {}",
                n.name()
            );
            assert_eq!(base.status, run.status, "statuses differ at {t} threads");
            assert_eq!(
                base_counters,
                counters,
                "effort counters differ at {t} threads on {}",
                n.name()
            );
            assert!((base.coverage() - run.coverage()).abs() < 1e-12);
        }
    }
}

#[test]
fn test_set_is_identical_with_a_random_phase_too() {
    for n in roster() {
        let faults = universe(&n);
        let cfg = AtpgConfig::new().with_threads(1);
        let base = generate_tests(&n, &faults, &cfg).unwrap();
        for t in [2, 8] {
            let run = generate_tests(&n, &faults, &cfg.clone().with_threads(t)).unwrap();
            assert_eq!(base.patterns, run.patterns, "on {}", n.name());
            assert_eq!(base.status, run.status);
        }
    }
}

#[test]
fn compaction_never_costs_patterns_or_coverage() {
    for n in roster() {
        let faults = universe(&n);
        for threads in [1, 4] {
            let cfg = AtpgConfig::new().with_threads(threads);
            let compacted = generate_tests(&n, &faults, &cfg).unwrap();
            let raw = generate_tests(&n, &faults, &cfg.clone().with_compact(false)).unwrap();
            assert!(
                compacted.patterns.len() <= raw.patterns.len(),
                "compaction grew the set on {} ({} vs {})",
                n.name(),
                compacted.patterns.len(),
                raw.patterns.len()
            );
            let with = simulate(&n, &compacted.patterns, &faults).unwrap();
            let without = simulate(&n, &raw.patterns, &faults).unwrap();
            assert!(
                with.coverage() >= without.coverage(),
                "compaction lost coverage on {}",
                n.name()
            );
            // Statuses stay truthful either way: every fault marked
            // detected is detected by the final set.
            assert!((with.coverage() - compacted.detected_coverage()).abs() < 1e-12);
        }
    }
}
