//! `Podem::settle` against `Podem::solve`, the unbudgeted reference
//! search, on every fault of three circuits.
//!
//! `settle` pauses the search at its gate-evaluation budget, asks the
//! CDCL prover, and resumes the same search state when the prover does
//! not refute the fault. So wherever `solve` finds a test, `settle` must
//! return the same cube with the same search counters; wherever `solve`
//! proves the fault untestable, so must `settle`; and `settle` never
//! finds a test `solve` does not — it can only turn aborts into
//! proofs.

use dft_atpg::{GenOutcome, Podem, PodemConfig, Prover, SolveStats};
use dft_fault::{prefilter_with, universe};
use dft_netlist::circuits::{c17, random_combinational};
use dft_netlist::Netlist;

/// The search counters `solve` reports.
fn search_counters(s: &SolveStats) -> (u32, u64, u32, u64) {
    (
        s.backtracks,
        s.forward_evals,
        s.implication_conflicts,
        s.gate_evals,
    )
}

/// Checks every fault of `n` under `config`; returns `(settle aborts,
/// solve aborts, CDCL proofs)`.
fn check(n: &Netlist, config: PodemConfig) -> (usize, usize, usize) {
    let solver = Podem::new(n, config).unwrap();
    let (mut settle_aborts, mut solve_aborts, mut cdcl) = (0, 0, 0);
    for f in universe(n) {
        let (reference, rs) = solver.solve(f);
        let (settled, ss) = solver.settle(f);
        assert!(ss.cdcl_calls <= 1, "{f}: at most one proof per fault");
        match (&reference, &settled) {
            (GenOutcome::Test(a), GenOutcome::Test(b)) => {
                assert_eq!(a, b, "{f}: cube differs on {}", n.name());
                assert_eq!(search_counters(&rs), search_counters(&ss), "{f}");
            }
            (GenOutcome::Untestable, GenOutcome::Untestable) => {}
            (GenOutcome::Aborted, GenOutcome::Untestable | GenOutcome::Aborted) => {}
            _ => panic!(
                "{f} on {}: solve {reference:?}, settle {settled:?}",
                n.name()
            ),
        }
        if matches!(settled, GenOutcome::Aborted) {
            assert_eq!(ss.cdcl_calls, 1, "{f}: aborted without a proof attempt");
            settle_aborts += 1;
        }
        if matches!(reference, GenOutcome::Aborted) {
            solve_aborts += 1;
        }
        if ss.prover == Prover::Cdcl {
            assert_eq!(settled, GenOutcome::Untestable);
            cdcl += 1;
        }
    }
    assert!(settle_aborts <= solve_aborts, "aborts can only fall");
    (settle_aborts, solve_aborts, cdcl)
}

fn roster() -> Vec<Netlist> {
    vec![
        c17(),
        random_combinational(12, 80, 9),
        random_combinational(15, 140, 6),
    ]
}

#[test]
fn settle_matches_solve_on_every_fault() {
    let mut cdcl = 0;
    for n in roster() {
        let (settle_aborts, solve_aborts, proofs) = check(&n, PodemConfig::default());
        assert_eq!((settle_aborts, solve_aborts), (0, 0), "on {}", n.name());
        cdcl += proofs;
    }
    assert!(cdcl > 0, "rand_15x140's redundant tail needs the prover");
}

#[test]
fn a_tight_backtrack_limit_hands_aborts_to_the_prover() {
    // At 20 backtracks the search gives up on rand_15x140's tail long
    // before its gate-evaluation budget; the prover settles the faults
    // instead.
    let n = random_combinational(15, 140, 6);
    let (settle_aborts, solve_aborts, proofs) =
        check(&n, PodemConfig::new().with_backtrack_limit(20));
    assert!(solve_aborts > 0, "the limit must bite");
    assert!(settle_aborts < solve_aborts);
    assert!(proofs > 0);
}

/// `settle`'s first rung is the static implication check that
/// `prefilter_with` runs as one batch: a fault gets `Prover::Static`
/// exactly when the prefilter proves it untestable. tessera-serve reads
/// a request's `prefiltered` flag off the settle alone because of this.
#[test]
fn static_proofs_are_exactly_the_prefilter_verdicts() {
    let mut proofs = 0;
    for n in roster() {
        let solver = Podem::new(&n, PodemConfig::default()).unwrap();
        let faults = universe(&n);
        let engine = solver.implications().expect("the default config learns");
        let prefilter = prefilter_with(engine, &faults);
        for (i, &f) in faults.iter().enumerate() {
            let (outcome, stats) = solver.settle(f);
            let is_static = stats.prover == Prover::Static;
            assert_eq!(is_static, prefilter.is_untestable(i), "{f} on {}", n.name());
            if is_static {
                assert_eq!(outcome, GenOutcome::Untestable, "{f}");
                assert_eq!(stats.backtracks, 0, "{f}");
                proofs += 1;
            }
        }
    }
    assert!(proofs > 0, "rand_15x140 has statically redundant faults");
}
