//! Testability analysis and test-point insertion (paper §II, §III-B):
//! measure controllability/observability, pin the hot spots, measure
//! again.
//!
//! ```text
//! cargo run --release --example testability_report
//! ```

use design_for_testability::adhoc::{apply_test_points, select_test_points};
use design_for_testability::atpg::random_atpg;
use design_for_testability::fault::universe;
use design_for_testability::netlist::circuits::RandomCircuit;
use design_for_testability::testability::analyze;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Deep random logic squeezed through two primary outputs: internal
    // fault effects rarely survive to the edge.
    let design = RandomCircuit::new(16, 300)
        .outputs(2)
        .locality(48)
        .seed(5)
        .build();
    println!("design: {design}");

    let report = analyze(&design)?;
    println!(
        "\nSCOAP report ({} relaxation iterations):",
        report.iterations
    );
    println!("  total difficulty: {}", report.total_difficulty());
    println!("  hardest nets to test:");
    let lv = design.levelize()?;
    for id in report.hardest_to_test(5) {
        let m = report.measure(id);
        println!(
            "    {id} ({:?}, level {}): CC0={} CC1={} CO={}",
            design.gate(id).kind(),
            lv.level(id),
            m.cc0,
            m.cc1,
            m.co
        );
    }

    // Insert observation points at the measured hot spots (extra POs
    // only: the input space is unchanged, so comparisons are exact).
    let plan = select_test_points(&design, 8, 0)?;
    println!(
        "\nplan: {} observation points, {} pins",
        plan.observe.len(),
        plan.pin_cost()
    );
    let improved = apply_test_points(&design, &plan)?;
    let after = analyze(&improved)?;
    println!(
        "difficulty after: {} (was {})",
        after.total_difficulty(),
        report.total_difficulty()
    );

    // The payoff in actual coverage under a fixed random-pattern budget
    // (the regime a cheap tester lives in).
    let faults = universe(&design);
    let before_run = random_atpg(&design, &faults, 2048, 1.0, 11)?;
    let after_run = random_atpg(&improved, &faults, 2048, 1.0, 11)?;
    println!(
        "\nrandom-pattern coverage (2048 patterns): {:.1}% before, {:.1}% after",
        before_run.coverage() * 100.0,
        after_run.coverage() * 100.0
    );
    Ok(())
}
