//! Quickstart: model a circuit, enumerate its stuck-at faults, generate
//! tests, and verify the coverage by fault simulation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use design_for_testability::atpg::{generate_tests_observed, AtpgConfig};
use design_for_testability::fault::stream::CollapsedUniverse;
use design_for_testability::fault::{simulate, universe};
use design_for_testability::netlist::{GateKind, Netlist};
use design_for_testability::obs::Recorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A one-bit comparator cell: eq = XNOR(a, b), gt = AND(a, NOT b).
    let mut n = Netlist::new("cmp_cell");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let eq = n.add_gate(GateKind::Xnor, &[a, b])?;
    let nb = n.add_gate(GateKind::Not, &[b])?;
    let gt = n.add_gate(GateKind::And, &[a, nb])?;
    n.mark_output(eq, "eq")?;
    n.mark_output(gt, "gt")?;
    println!("design: {n}");

    // The single-stuck-at fault universe and its collapse.
    let faults = universe(&n);
    let col = CollapsedUniverse::new(&n);
    println!(
        "faults: {} raw, {} after equivalence collapsing ({:.0}%)",
        faults.len(),
        col.class_count(),
        col.ratio() * 100.0
    );

    // Generate tests (random phase + PODEM top-off + compaction); the
    // search effort is read off the recorded deterministic phase.
    let mut rec = Recorder::new();
    let run = generate_tests_observed(&n, &faults, &AtpgConfig::default(), Some(&mut rec))?;
    let report = rec.finish("quickstart");
    let backtracks = report
        .find("atpg.deterministic")
        .map_or(0, |span| span.counter("backtracks"));
    println!(
        "ATPG: {} patterns, coverage {:.1}% ({backtracks} backtracks)",
        run.patterns.len(),
        run.coverage() * 100.0,
    );
    for p in 0..run.patterns.len() {
        let row = run.patterns.get(p);
        println!(
            "  pattern {p}: a={} b={}",
            u8::from(row[0]),
            u8::from(row[1])
        );
    }

    // Independent verification: fault-simulate the final set.
    let check = simulate(&n, &run.patterns, &faults)?;
    println!(
        "verified by fault simulation: {:.1}% of {} faults detected",
        check.coverage() * 100.0,
        faults.len()
    );
    assert!(check.coverage() >= run.detected_coverage());
    Ok(())
}
