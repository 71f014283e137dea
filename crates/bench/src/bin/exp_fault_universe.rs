//! E3 — §I-A: 3ᴺ joint fault states are hopeless; the single stuck-at
//! universe of a 1000-gate two-input network is 6000 faults, cut to
//! ~3000 by equivalence collapsing.

use dft_bench::print_table;
use dft_fault::stream::CollapsedUniverse;
use dft_fault::{dominance_collapse, prefilter_untestable, universe};
use dft_netlist::{GateKind, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exactly 1000 two-input AND/OR/NAND/NOR gates (the paper's example
/// network is NAND-era logic: no XORs, no inverters).
fn thousand_two_input_gates() -> Netlist {
    let mut rng = StdRng::seed_from_u64(1982);
    let mut n = Netlist::new("g1000");
    let mut pool: Vec<_> = (0..24).map(|i| n.add_input(format!("x{i}"))).collect();
    const KINDS: [GateKind; 4] = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor];
    for _ in 0..1000 {
        let lo = pool.len().saturating_sub(64);
        let a = pool[rng.gen_range(lo..pool.len())];
        let b = pool[rng.gen_range(lo..pool.len())];
        let g = n
            .add_gate(KINDS[rng.gen_range(0..4)], &[a, b])
            .expect("two-input gates are valid");
        pool.push(g);
    }
    // Expose unread nets so nothing dangles. The loop marks outputs, so
    // it holds this revision's topology.
    let topology = std::sync::Arc::clone(n.topology());
    let mut k = 0;
    for id in n.ids().collect::<Vec<_>>() {
        if topology.readers()[id.index()].is_empty() && !n.gate(id).kind().is_source() {
            n.mark_output(id, format!("y{k}")).expect("fresh");
            k += 1;
        }
    }
    n
}

fn main() {
    let n = thousand_two_input_gates();
    let faults = universe(&n);
    let gate_pin_faults = faults
        .iter()
        .filter(|f| !matches!(n.gate(f.site.gate).kind(), GateKind::Input))
        .count();
    let col = CollapsedUniverse::new(&n);
    let targets = dominance_collapse(&n);
    let pf = prefilter_untestable(&n, &faults);

    let nets = n.gate_count() as f64;
    print_table(
        "Fault universe of a 1000-gate two-input network",
        &["quantity", "value"],
        &[
            vec!["nets".into(), format!("{}", n.gate_count())],
            vec![
                "3^N joint fault states".into(),
                format!("10^{:.0}", nets * 3f64.log10()),
            ],
            vec![
                "single stuck-at faults (gate pins)".into(),
                gate_pin_faults.to_string(),
            ],
            vec![
                "single stuck-at faults (incl. PI stems)".into(),
                faults.len().to_string(),
            ],
            vec![
                "after equivalence collapsing".into(),
                col.class_count().to_string(),
            ],
            vec!["collapse ratio".into(), format!("{:.2}", col.ratio())],
            vec![
                "after dominance reduction (ATPG targets)".into(),
                targets.len().to_string(),
            ],
            vec![
                "statically proven untestable (dft-implic)".into(),
                pf.untestable_count().to_string(),
            ],
        ],
    );
    println!(
        "\nPaper: \"the maximum number of single stuck-at faults … is 6000 … the number\n\
         … needed to be assumed is about 3000.\" The pin universe above is {} (3 pins × 2\n\
         polarities per two-input gate) and equivalence collapses it to {} ({:.0}%).",
        gate_pin_faults,
        col.class_count(),
        col.ratio() * 100.0
    );
}
