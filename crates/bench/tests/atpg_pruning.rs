//! The acceptance criterion behind `BENCH_atpg.json`: over the quick
//! ATPG roster, PODEM with the static implication store must need
//! *strictly fewer* total backtracks than without it, while reaching the
//! exact same verdict on every target (pruning may never flip a result).

use dft_atpg::{GenOutcome, Podem, PodemConfig};
use dft_fault::dominance_collapse;
use dft_netlist::circuits::{c17, random_combinational, redundant_fixture};
use dft_netlist::Netlist;

fn roster() -> Vec<(&'static str, Netlist)> {
    vec![
        ("redundant_fixture", redundant_fixture()),
        ("c17", c17()),
        ("rand_12x80", random_combinational(12, 80, 9)),
    ]
}

#[test]
fn implication_pruning_strictly_reduces_backtracks_without_changing_verdicts() {
    let mut total = [0u64; 2];
    for (name, n) in roster() {
        let targets = dominance_collapse(&n);
        let solvers: Vec<Podem<'_>> = [false, true]
            .iter()
            .map(|&use_implications| {
                Podem::new(
                    &n,
                    PodemConfig::new().with_use_implications(use_implications),
                )
                .expect("roster circuits levelize")
            })
            .collect();
        for &fault in &targets {
            let (without, wo_stats) = solvers[0].solve(fault);
            let (with, wi_stats) = solvers[1].solve(fault);
            assert!(
                !matches!(without, GenOutcome::Aborted) && !matches!(with, GenOutcome::Aborted),
                "{name}: {fault:?} aborted — roster circuits must be decided"
            );
            assert_eq!(
                std::mem::discriminant(&without),
                std::mem::discriminant(&with),
                "{name}: pruning flipped the verdict on {fault:?}"
            );
            total[0] += u64::from(wo_stats.backtracks);
            total[1] += u64::from(wi_stats.backtracks);
        }
    }
    assert!(
        total[1] < total[0],
        "implication pruning must strictly reduce total backtracks \
         (with: {}, without: {})",
        total[1],
        total[0]
    );
}
