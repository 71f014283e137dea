//! Property-based tests (proptest) over the toolkit's core invariants.

use design_for_testability::fault::stream::CollapsedUniverse;
use design_for_testability::fault::{simulate, universe, FaultyView};
use design_for_testability::lfsr::{Lfsr, Polynomial, SignatureRegister};
use design_for_testability::netlist::circuits::{random_combinational, random_sequential};
use design_for_testability::netlist::{bench_format, Netlist};
use design_for_testability::scan::extract_test_view;
use design_for_testability::sim::{CompiledSim, PatternSet};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_combinational() -> impl Strategy<Value = Netlist> {
    (2usize..10, 5usize..80, any::<u64>())
        .prop_map(|(inputs, gates, seed)| random_combinational(inputs, gates, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated netlist levelizes and round-trips through the
    /// `.bench` format with identical structure and behaviour.
    #[test]
    fn bench_format_round_trip_preserves_behaviour(n in arb_combinational(), pat_seed: u64) {
        let text = bench_format::write(&n);
        let back = bench_format::parse(&text, n.name()).expect("own output parses");
        prop_assert_eq!(back.primary_inputs().len(), n.primary_inputs().len());
        prop_assert_eq!(back.primary_outputs().len(), n.primary_outputs().len());

        let mut rng = rand::rngs::StdRng::seed_from_u64(pat_seed);
        let patterns = PatternSet::random(n.primary_inputs().len(), 16, &mut rng);
        let r1 = CompiledSim::new(&n).unwrap().run(&patterns);
        let r2 = CompiledSim::new(&back).unwrap().run(&patterns);
        for p in 0..patterns.len() {
            prop_assert_eq!(r1.output_row(p), r2.output_row(p));
        }
    }

    /// Equivalence-collapsed representatives detect exactly when their
    /// class members do.
    #[test]
    fn collapse_classes_share_detection(n in arb_combinational(), pat_seed: u64) {
        let faults = universe(&n);
        let col = CollapsedUniverse::new(&n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(pat_seed);
        let patterns = PatternSet::random(n.primary_inputs().len(), 24, &mut rng);
        let full = simulate(&n, &patterns, &faults).unwrap();
        for i in 0..faults.len() {
            let rep = col.representative(i);
            let rep_idx = faults.iter().position(|&f| f == rep).unwrap();
            prop_assert_eq!(
                full.first_detected[i].is_some(),
                full.first_detected[rep_idx].is_some(),
                "fault {} vs representative {}", faults[i], rep
            );
        }
    }

    /// The combinational test view of a sequential machine computes the
    /// same frame function as the machine itself.
    #[test]
    fn test_view_matches_frame_semantics(
        state_bits in 1usize..6,
        gates in 4usize..25,
        seed: u64,
        frame_seed: u64,
    ) {
        let n = random_sequential(3, state_bits, gates, 2, seed);
        let view = extract_test_view(&n).expect("levelizes");
        let vnet = view.netlist();
        let orig = FaultyView::new(&n).unwrap();
        let vframe = FaultyView::new(vnet).unwrap();

        // Eight frames, one per lane: random inputs and present states.
        let mut rng = rand::rngs::StdRng::seed_from_u64(frame_seed);
        let pi = PatternSet::random(3, 8, &mut rng);
        let state = PatternSet::random(state_bits, 8, &mut rng);
        // Original: one frame with explicit state words.
        let vals = orig.eval_block(pi.block(0), state.block(0), None);
        let next = orig.next_state_words(&vals, None);
        // View: PIs followed by pseudo-PIs.
        let mut view_pis = pi.block(0).to_vec();
        view_pis.extend_from_slice(state.block(0));
        let view_vals = vframe.eval_block(&view_pis, &[], None);
        let view_out = |o: usize| view_vals[vnet.primary_outputs()[o].0.index()] & 0xFF;
        // POs agree.
        let n_po = n.primary_outputs().len();
        for (o, &(g, _)) in n.primary_outputs().iter().enumerate() {
            prop_assert_eq!(vals[g.index()] & 0xFF, view_out(o));
        }
        // Next state agrees with the pseudo-POs.
        for (k, &ns) in next.iter().enumerate() {
            prop_assert_eq!(ns & 0xFF, view_out(n_po + k));
        }
    }

    /// Signature registers are linear: sig(a ⊕ e) == sig(a) ⊕ sig(e) with
    /// a zero-seeded register.
    #[test]
    fn signature_register_is_linear(
        stream in proptest::collection::vec(any::<bool>(), 1..200),
        error in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let len = stream.len().min(error.len());
        let poly = Polynomial::primitive(16).unwrap();
        let sig = |bits: &[bool]| {
            let mut r = SignatureRegister::new(poly);
            r.shift_in_stream(bits.iter().copied());
            r.signature()
        };
        let a: Vec<bool> = stream[..len].to_vec();
        let e: Vec<bool> = error[..len].to_vec();
        let xored: Vec<bool> = a.iter().zip(&e).map(|(&x, &y)| x ^ y).collect();
        prop_assert_eq!(sig(&xored), sig(&a) ^ sig(&e));
    }

    /// Maximal-length LFSR periods divide (equal) 2^n − 1 for table
    /// polynomials.
    #[test]
    fn primitive_lfsr_periods(degree in 2u32..12, seed in 1u64..1000) {
        let poly = Polynomial::primitive(degree).unwrap();
        let seed = (seed % ((1 << degree) - 1)) + 1;
        let lfsr = Lfsr::fibonacci(poly, seed & poly.state_mask() | 1);
        prop_assert_eq!(lfsr.period(), (1u64 << degree) - 1);
    }

    /// Compiled straight-line simulation agrees with the levelized graph
    /// walk of the serial fault simulator's frame evaluator (no fault
    /// injected) on every gate of every block: on combinational
    /// netlists, and on sequential ones with storage held at 0.
    #[test]
    fn compiled_sim_matches_parallel(
        n in arb_combinational(),
        state_bits in 1usize..6,
        gates in 4usize..25,
        seq_seed: u64,
        pat_seed: u64,
    ) {
        let seq = random_sequential(3, state_bits, gates, 2, seq_seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(pat_seed);
        for net in [&n, &seq] {
            let patterns = PatternSet::random(net.primary_inputs().len(), 100, &mut rng);
            let r = CompiledSim::new(net).unwrap().run(&patterns);
            let walk = FaultyView::new(net).unwrap();
            let zeros = vec![0u64; walk.storage().len()];
            for b in 0..patterns.block_count() {
                let vals = walk.eval_block(patterns.block(b), &zeros, None);
                for g in net.ids() {
                    prop_assert_eq!(r.word(g, b), vals[g.index()], "gate {} block {}", g, b);
                }
            }
        }
    }

    /// Multi-site PODEM with a single site behaves exactly like the
    /// single-fault entry point.
    #[test]
    fn multi_site_podem_degenerates_to_single(n in arb_combinational()) {
        use design_for_testability::atpg::{Podem, PodemConfig};
        let solver = Podem::new(&n, PodemConfig::default()).unwrap();
        for f in universe(&n).into_iter().step_by(7) {
            let single = solver.solve(f).0;
            let multi = solver.solve_any_of(&[f]).0;
            prop_assert_eq!(single, multi);
        }
    }
}
