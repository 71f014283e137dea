//! Deterministic-telemetry tests.
//!
//! The observability layer (`dft-obs`) must be a *view*, never an
//! influence: recording a run changes no engine result, and the counters
//! it reports must agree exactly with the results and per-call stats the
//! engines return. Both properties are checked here — the first by
//! property test across the whole engine roster, the second by exact
//! counter assertions on c17, whose telemetry is fully predictable, and
//! by the ATPG phase's counter identities on rand_15x140.

use design_for_testability::atpg::{
    generate_tests_observed, AtpgConfig, DetDriver, DetVerdict, FaultStatus, GenOutcome, Podem,
    PodemConfig,
};
use design_for_testability::fault::{
    engines, simulate_observed, universe, FaultSimEngine, SerialEngine, SerialOptions,
};
use design_for_testability::implic::ImplicationEngine;
use design_for_testability::lint::{LintConfig, Registry};
use design_for_testability::netlist::circuits::{c17, random_combinational, redundant_fixture};
use design_for_testability::obs::{NullCollector, Recorder};
use design_for_testability::sim::PatternSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All 32 five-bit patterns — exhaustive for c17, and exactly one
/// 64-lane block, which pins every block-level counter.
fn c17_exhaustive() -> PatternSet {
    let rows: Vec<Vec<bool>> = (0..32u8)
        .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
        .collect();
    PatternSet::from_rows(5, &rows)
}

#[test]
fn serial_counters_are_exact_on_c17() {
    let n = c17();
    let faults = universe(&n);
    let p = c17_exhaustive();
    let mut rec = Recorder::new();
    let r = simulate_observed(&n, &p, &faults, SerialOptions::default(), Some(&mut rec)).unwrap();
    let report = rec.finish("serial_c17");

    let span = report.find("fault_sim.serial").expect("span must exist");
    assert_eq!(span.counter("faults"), faults.len() as u64);
    assert_eq!(span.counter("patterns"), 32);
    // 32 patterns fit one 64-lane block: one good-machine evaluation, and
    // with dropping on, every fault is evaluated exactly once before the
    // block loop ends.
    assert_eq!(span.counter("good_evals"), 1);
    assert_eq!(span.counter("faulty_evals"), faults.len() as u64);
    // c17 is fully testable under exhaustive patterns; every detection
    // drops its fault.
    assert_eq!(span.counter("detected"), r.detected_count() as u64);
    assert_eq!(span.counter("detected"), faults.len() as u64);
    assert_eq!(span.counter("dropped"), faults.len() as u64);
    assert_eq!(span.gauge("coverage"), Some(1.0));
}

#[test]
fn podem_counters_match_solve_stats_on_c17() {
    let n = c17();
    let faults = universe(&n);
    let solver = Podem::new(&n, PodemConfig::default()).unwrap();
    let mut rec = Recorder::new();
    let (mut backtracks, mut forward_evals, mut conflicts) = (0u64, 0u64, 0u64);
    let mut gate_evals = 0u64;
    let mut tests = 0u64;
    for &f in &faults {
        let (outcome, stats) = solver.solve_with(f, Some(&mut rec));
        backtracks += u64::from(stats.backtracks);
        forward_evals += stats.forward_evals;
        conflicts += u64::from(stats.implication_conflicts);
        gate_evals += stats.gate_evals;
        if matches!(outcome, GenOutcome::Test(_)) {
            tests += 1;
        }
    }
    let report = rec.finish("podem_c17");

    // One atpg.podem span per attempt, all children of the root; the
    // roll-up must agree exactly with the summed per-call SolveStats.
    let root = &report.root;
    assert_eq!(root.children.len(), faults.len());
    assert_eq!(root.counter_total("attempts"), faults.len() as u64);
    assert_eq!(root.counter_total("backtracks"), backtracks);
    assert_eq!(root.counter_total("forward_evals"), forward_evals);
    assert_eq!(root.counter_total("implication_conflicts"), conflicts);
    assert_eq!(root.counter_total("gate_evals"), gate_evals);
    // The event-driven forward's work, pinned: the first step of each
    // search evaluates all 6 NAND gates, later steps only the gates the
    // reassigned inputs' events reach — fewer than a full pass per step.
    assert_eq!(gate_evals, 653);
    assert!(gate_evals < 6 * forward_evals);
    assert_eq!(root.counter_total("tests"), tests);
    // c17 has no redundant logic and is tiny: every fault gets a test.
    assert_eq!(tests, faults.len() as u64);
    assert_eq!(root.counter_total("untestable"), 0);
    assert_eq!(root.counter_total("aborted"), 0);
}

#[test]
fn deterministic_phase_counters_add_up_on_rand_15x140() {
    // random_budget 0: the whole universe is the deterministic queue.
    let n = random_combinational(15, 140, 6);
    let faults = universe(&n);
    let cfg = AtpgConfig::new().with_random_budget(0).with_threads(1);
    let mut rec = Recorder::new();
    let run = generate_tests_observed(&n, &faults, &cfg, Some(&mut rec)).unwrap();
    let report = rec.finish("flow_rand_15x140");
    let span = report.find("atpg.deterministic").expect("span must exist");

    // The driver on its own flushes the same totals onto its caller's
    // span, and its verdict counts are the span's.
    let queue: Vec<usize> = (0..faults.len()).collect();
    let mut rec = Recorder::new();
    let det = DetDriver::new(&n, &cfg)
        .unwrap()
        .run(&faults, &queue, Some(&mut rec));
    assert_eq!(rec.finish("driver").root.counters, span.counters);
    let c = |name| span.counter(name);
    let verdicts = |v| det.verdicts.iter().filter(|&&x| x == v).count() as u64;
    for (name, verdict) in [
        ("tests", DetVerdict::Test),
        ("untestable", DetVerdict::Untestable),
        ("aborted", DetVerdict::Aborted),
        ("collateral_drops", DetVerdict::Collateral),
    ] {
        assert_eq!(c(name), verdicts(verdict), "counter {name}");
    }
    // So are the flow's statuses.
    let statuses = |s| run.status.iter().filter(|&&x| x == s).count() as u64;
    assert_eq!(
        c("tests") + c("collateral_drops"),
        statuses(FaultStatus::DetectedDeterministic)
    );
    assert_eq!(c("untestable"), statuses(FaultStatus::Untestable));
    assert_eq!(c("aborted"), statuses(FaultStatus::Aborted));

    assert_eq!(
        c("attempts") + c("reused") + c("collateral_drops"),
        queue.len() as u64
    );
    assert_eq!(
        c("proved_static") + c("proved_search") + c("proved_cdcl") + c("reused"),
        c("untestable")
    );
    // The circuit's redundant tail exercises every rung.
    assert!(c("reused") > 0 && c("proved_cdcl") > 0 && c("proved_static") > 0);
    assert!(c("cdcl_calls") >= c("proved_cdcl"));
    assert!(c("backtracks") > 0 && c("gate_evals") > c("forward_evals"));
    assert_eq!(c("aborted"), 0);
}

#[test]
fn implication_learning_counters_match_stats_on_c17() {
    let n = c17();
    let mut rec = Recorder::new();
    let engine = ImplicationEngine::new_observed(&n, Some(&mut rec));
    let report = rec.finish("implic_c17");

    let span = report.find("implic.learn").expect("span must exist");
    let stats = engine.stats();
    assert_eq!(span.counter("gates"), n.gate_count() as u64);
    assert_eq!(span.counter("rounds"), stats.rounds as u64);
    assert_eq!(span.counter("learned_edges"), stats.learned_edges as u64);
    assert_eq!(
        span.counter("unsettable_literals"),
        stats.unsettable_literals as u64
    );
    assert_eq!(
        span.counter("implied_constants"),
        stats.implied_constants as u64
    );
}

#[test]
fn recording_collector_sees_every_engine_span() {
    let n = c17();
    let faults = universe(&n);
    let p = c17_exhaustive();
    for eng in engines() {
        let mut rec = Recorder::new();
        let with = eng.run_with(&n, &p, &faults, Some(&mut rec)).unwrap();
        let plain = eng.run(&n, &p, &faults).unwrap();
        assert_eq!(with, plain, "{}: recording changed the result", eng.name());
        let report = rec.finish(eng.name());
        let span = report
            .root
            .children
            .first()
            .unwrap_or_else(|| panic!("{}: no span recorded", eng.name()));
        assert!(
            span.name.starts_with("fault_sim."),
            "{}: unexpected span {}",
            eng.name(),
            span.name
        );
        assert_eq!(span.counter("faults"), faults.len() as u64);
        assert_eq!(span.counter("detected"), with.detected_count() as u64);
    }
}

/// A lint run opens one `lint.rules` span with one child per rule it
/// runs, named by the rule id, and the children's `findings` counters
/// count the report's findings rule by rule.
#[test]
fn lint_spans_name_each_rule_and_count_its_findings() {
    for n in [c17(), redundant_fixture()] {
        let mut registry = Registry::with_default_rules();
        registry.disable("deep-logic");
        let mut rec = Recorder::new();
        let report = registry.run_observed(&n, LintConfig::default(), Some(&mut rec));
        let run = rec.finish("lint");
        let rules = run.find("lint.rules").expect("the run opens lint.rules");
        let spans: Vec<&str> = rules.children.iter().map(|s| s.name.as_str()).collect();
        let enabled: Vec<&str> = registry.rules().map(|r| r.id()).collect();
        assert_eq!(spans, enabled, "{}: one span per enabled rule", n.name());
        for span in &rules.children {
            let findings = report.by_rule(&span.name).count() as u64;
            assert_eq!(span.counter("findings"), findings, "{}", span.name);
        }
        assert_eq!(
            rules.counter_total("findings"),
            report.diagnostics().len() as u64,
            "{}",
            n.name()
        );
        assert!(
            !report.diagnostics().is_empty(),
            "{} has findings",
            n.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Observation is a pure view: a NullCollector run, a recording run
    /// and an unobserved run return identical results on every engine.
    #[test]
    fn observation_never_changes_engine_results(
        netlist_seed in 0u64..500,
        pattern_seed: u64,
        pattern_count in 1usize..100,
    ) {
        let n = random_combinational(6, 40, netlist_seed);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        let p = PatternSet::random(6, pattern_count, &mut rng);
        for eng in engines() {
            let plain = eng.run(&n, &p, &faults).unwrap();
            let mut null = NullCollector;
            let nulled = eng.run_with(&n, &p, &faults, Some(&mut null)).unwrap();
            let mut rec = Recorder::new();
            let recorded = eng.run_with(&n, &p, &faults, Some(&mut rec)).unwrap();
            prop_assert_eq!(&nulled, &plain, "{}: NullCollector changed the result", eng.name());
            prop_assert_eq!(&recorded, &plain, "{}: recording changed the result", eng.name());
        }
        let registry = Registry::with_default_rules();
        let plain = registry.run(&n).to_json();
        let mut rec = Recorder::new();
        let recorded = registry
            .run_observed(&n, LintConfig::default(), Some(&mut rec))
            .to_json();
        prop_assert_eq!(recorded, plain, "recording changed the lint report");
    }

    /// The serial engine's counters stay consistent with its result on
    /// arbitrary circuits, not just c17 (weaker than exact equality —
    /// block counts depend on pattern count — but structurally invariant).
    #[test]
    fn serial_counters_are_consistent_on_random_netlists(
        netlist_seed in 0u64..500,
        pattern_count in 1usize..150,
    ) {
        let n = random_combinational(7, 50, netlist_seed);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(netlist_seed ^ 0xABCD);
        let p = PatternSet::random(7, pattern_count, &mut rng);
        let mut rec = Recorder::new();
        let r = SerialEngine::default().run_with(&n, &p, &faults, Some(&mut rec)).unwrap();
        let report = rec.finish("serial_random");
        let span = report.find("fault_sim.serial").unwrap();
        prop_assert_eq!(span.counter("faults"), faults.len() as u64);
        prop_assert_eq!(span.counter("patterns"), p.len() as u64);
        prop_assert_eq!(span.counter("good_evals"), p.block_count() as u64);
        prop_assert_eq!(span.counter("detected"), r.detected_count() as u64);
        // Dropping on: every detected fault was dropped exactly once.
        prop_assert_eq!(span.counter("dropped"), r.detected_count() as u64);
        prop_assert!(span.counter("faulty_evals") >= span.counter("detected"));
    }
}
