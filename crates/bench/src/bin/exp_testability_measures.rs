//! E15 — §II: controllability/observability measures point at the hard
//! nets; test points fix them.

use dft_adhoc::{apply_test_points, select_test_points};
use dft_atpg::random_atpg;
use dft_bench::print_table;
use dft_fault::{universe, Ppsfp};
use dft_netlist::circuits::ripple_carry_adder;
use dft_testability::analyze;

fn main() {
    // Hard-nets ranking on a deep adder.
    let adder = ripple_carry_adder(16);
    let report = analyze(&adder).expect("combinational");
    let lv = adder.levelize().expect("combinational");
    let rows: Vec<Vec<String>> = report
        .hardest_to_test(8)
        .into_iter()
        .map(|id| {
            let m = report.measure(id);
            vec![
                id.to_string(),
                format!("{:?}", adder.gate(id).kind()),
                lv.level(id).to_string(),
                m.cc0.to_string(),
                m.cc1.to_string(),
                m.co.to_string(),
            ]
        })
        .collect();
    print_table(
        "Hardest nets of a 16-bit ripple-carry adder (SCOAP)",
        &["net", "kind", "level", "CC0", "CC1", "CO"],
        &rows,
    );

    // Test points on deep random logic with only two primary outputs:
    // internal fault effects die long before the edge, so a fixed random
    // budget stalls. Observation points (extra POs only — the pattern
    // stream is unchanged, so the comparison is exact) recover coverage.
    let deep = dft_netlist::circuits::RandomCircuit::new(16, 300)
        .outputs(2)
        .locality(48)
        .seed(3)
        .build();
    let before_rep = analyze(&deep).expect("combinational");
    let obs_plan = select_test_points(&deep, 8, 0).expect("combinational");
    let observed = apply_test_points(&deep, &obs_plan).expect("combinational");
    let obs_rep = analyze(&observed).expect("combinational");

    let faults = universe(&deep);
    let budget = 2048;
    let engine = |n| Ppsfp::new(n).expect("combinational");
    let before = random_atpg(&engine(&deep), &faults, budget, 1.0, 11);
    let after = random_atpg(&engine(&observed), &faults, budget, 1.0, 11);

    print_table(
        "Observation points on deep 2-output random logic (300 gates)",
        &["metric", "before", "with 8 observation points"],
        &[
            vec![
                "total SCOAP difficulty".into(),
                before_rep.total_difficulty().to_string(),
                obs_rep.total_difficulty().to_string(),
            ],
            vec![
                format!("random-pattern coverage % ({budget} patterns)"),
                format!("{:.1}", before.coverage() * 100.0),
                format!("{:.1}", after.coverage() * 100.0),
            ],
            vec![
                "extra pins".into(),
                "0".into(),
                obs_plan.pin_cost().to_string(),
            ],
        ],
    );
    println!(
        "\n§II: \"test points may be added at critical points which are not observable\n\
         or which are not controllable\" — the measures pick the points, the pins pay\n\
         for the coverage."
    );
}
