//! The SCOAP measures through `dft-testability`'s re-exports, pinned to
//! hand-computed values on small circuits.

use dft_netlist::circuits::{binary_counter, c17, parity_tree, ripple_carry_adder};
use dft_netlist::{GateId, GateKind, Netlist};
use dft_testability::{analyze, INFINITE};

#[test]
fn primary_inputs_are_trivially_controllable() {
    let n = c17();
    let r = analyze(&n).unwrap();
    for &pi in n.primary_inputs() {
        assert_eq!(r.cc0(pi), 1);
        assert_eq!(r.cc1(pi), 1);
    }
}

#[test]
fn primary_outputs_are_trivially_observable() {
    let n = c17();
    let r = analyze(&n).unwrap();
    for &(g, _) in n.primary_outputs() {
        assert_eq!(r.co(g), 0);
    }
}

#[test]
fn and_gate_costs() {
    let mut n = Netlist::new("t");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
    n.mark_output(g, "y").unwrap();
    let r = analyze(&n).unwrap();
    assert_eq!(r.cc1(g), 3); // both inputs to 1: 1+1, +1
    assert_eq!(r.cc0(g), 2); // either input to 0: 1, +1
                             // Observing `a` needs b=1 (cost 1) plus a level: 0+1+1 = 2.
    assert_eq!(r.co(a), 2);
}

#[test]
fn xor_parity_dp() {
    let mut n = Netlist::new("t");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let g = n.add_gate(GateKind::Xor, &[a, b, c]).unwrap();
    n.mark_output(g, "y").unwrap();
    let r = analyze(&n).unwrap();
    // Any parity is reachable at cost 3 (+1).
    assert_eq!(r.cc0(g), 4);
    assert_eq!(r.cc1(g), 4);
}

#[test]
fn constants_are_uncontrollable_to_the_other_value() {
    let mut n = Netlist::new("t");
    let c = n.add_const(false);
    let a = n.add_input("a");
    let g = n.add_gate(GateKind::Or, &[a, c]).unwrap();
    n.mark_output(g, "y").unwrap();
    let r = analyze(&n).unwrap();
    assert_eq!(r.cc0(c), 0);
    assert_eq!(r.cc1(c), INFINITE);
}

#[test]
fn deeper_nets_cost_more() {
    let n = ripple_carry_adder(8);
    let r = analyze(&n).unwrap();
    // Observing a late operand bit means sensitizing through the deep
    // end of the carry structure; the first bit exits at s0 directly.
    let a0 = n.find_input("a0").unwrap();
    let a7 = n.find_input("a7").unwrap();
    assert!(
        r.co(a7) > r.co(a0),
        "a7 (CO {}) should be harder to observe than a0 (CO {})",
        r.co(a7),
        r.co(a0)
    );
    let worst = r.hardest_to_test(3);
    let lv = n.levelize().unwrap();
    assert!(
        worst.iter().any(|&w| lv.level(w) > 3),
        "hard nets should be deep"
    );
}

#[test]
fn storage_adds_sequential_cost() {
    use dft_netlist::circuits::shift_register;
    let n = shift_register(6);
    let r = analyze(&n).unwrap();
    // Each stage adds a cycle of steering cost.
    let q0 = n.find_output("q0").unwrap();
    let q5 = n.find_output("q5").unwrap();
    assert!(r.cc1(q5) > r.cc1(q0));
    assert_eq!(r.cc1(q0), 2); // sin (1) + one capture
}

#[test]
fn unresettable_counter_state_is_uncontrollable() {
    // A counter with no reset can never be steered from X — SCOAP's
    // fixpoint agrees with the 3-valued simulator: state stays at
    // INFINITE cost. This is the paper's predictability argument for
    // CLEAR/PRESET test points.
    let n = binary_counter(6);
    let r = analyze(&n).unwrap();
    assert!(r.iterations < 200);
    let q0 = n.find_output("q0").unwrap();
    assert_eq!(r.cc1(q0), INFINITE);
    assert_eq!(r.cc0(q0), INFINITE);
}

#[test]
fn parity_tree_is_uniformly_testable() {
    let n = parity_tree(8);
    let r = analyze(&n).unwrap();
    let pis = n.primary_inputs();
    let cos: Vec<u32> = pis.iter().map(|&p| r.co(p)).collect();
    let min = cos.iter().min().unwrap();
    let max = cos.iter().max().unwrap();
    assert!(max - min <= 2, "balanced tree: near-uniform observability");
}

#[test]
fn total_difficulty_is_finite_for_testable_logic() {
    let n = c17();
    let r = analyze(&n).unwrap();
    assert!(r.total_difficulty() < u64::from(INFINITE));
}

#[test]
fn golden_c17_scoap_values() {
    // Hand-computed SCOAP triples for the full c17 benchmark.
    //
    // NAND: cc0 = Σ cc1(inputs) + 1, cc1 = min cc0(input) + 1;
    // pin CO = co(out) + Σ cc1(side inputs) + 1. Working from the
    // inputs (1,1) forward and the outputs (co = 0) backward:
    //
    //   g10 = NAND(1,3)   cc = (3,2)   co = 0 + cc1(g16) + 1 = 3
    //   g11 = NAND(3,6)   cc = (3,2)   co = min(via g16, via g19) = 5
    //   g16 = NAND(2,11)  cc = (4,2)   co = min(0+cc1(g10)+1, 0+cc1(g19)+1) = 3
    //   g19 = NAND(11,7)  cc = (4,2)   co = 0 + cc1(g16) + 1 = 3
    //   g22 = NAND(10,16) cc = (5,4)   co = 0 (PO)
    //   g23 = NAND(16,19) cc = (5,5)   co = 0 (PO)
    let n = c17();
    let r = analyze(&n).unwrap();
    let net = |name: &str| {
        n.find_input(name)
            .or_else(|| n.find_output(name))
            .unwrap_or_else(|| panic!("c17 net '{name}' missing"))
    };
    // Internal gates by arena construction order (g10, g11, g16, g19
    // follow the five inputs).
    let by_index = |i: usize| dft_netlist::GateId::from_index(i);
    let (g10, g11, g16, g19) = (by_index(5), by_index(6), by_index(7), by_index(8));
    let golden: [(GateId, (u32, u32, u32)); 11] = [
        (net("1"), (1, 1, 5)),
        (net("2"), (1, 1, 6)),
        (net("3"), (1, 1, 5)),
        (net("6"), (1, 1, 7)),
        (net("7"), (1, 1, 6)),
        (g10, (3, 2, 3)),
        (g11, (3, 2, 5)),
        (g16, (4, 2, 3)),
        (g19, (4, 2, 3)),
        (net("22"), (5, 4, 0)),
        (net("23"), (5, 5, 0)),
    ];
    for (id, (cc0, cc1, co)) in golden {
        assert_eq!(
            (r.cc0(id), r.cc1(id), r.co(id)),
            (cc0, cc1, co),
            "SCOAP triple mismatch at {id}"
        );
    }
}

#[test]
fn report_matches_the_analysis_cache() {
    // The from-scratch pass and the incremental cache must agree
    // exactly — they share one solver.
    use dft_analyze::AnalysisCache;
    use dft_netlist::circuits::random_combinational;
    for seed in 0..4 {
        let n = random_combinational(6, 40, seed);
        let r = analyze(&n).unwrap();
        let mut cache = AnalysisCache::new(&n).unwrap();
        let s = cache.scoap();
        for id in n.ids() {
            assert_eq!(r.cc0(id), s.cc0(id));
            assert_eq!(r.cc1(id), s.cc1(id));
            assert_eq!(r.co(id), s.co(id));
        }
    }
}
