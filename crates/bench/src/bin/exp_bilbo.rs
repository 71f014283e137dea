//! E11 — §V-A, Figs. 19–21: BILBO self-test. Random patterns cover
//! fan-in-4 logic but not PLAs with wide AND terms (activation
//! probability 2⁻²⁰); test-data volume drops by ~the pattern count.

use dft_atpg::exhaustive_atpg;
use dft_bench::{eng, print_table};
use dft_bist::SelfTestSession;
use dft_fault::{universe, Ppsfp};
use dft_netlist::circuits::{random_combinational, random_pattern_resistant_pla};

fn main() {
    let easy = random_combinational(16, 300, 41);
    let easy2 = random_combinational(16, 300, 42);
    let pla = random_pattern_resistant_pla(16, 8, 14, 4, 7).synthesize("pla16x14");
    let pla_partner = random_combinational(16, 100, 43);

    let mut rows = Vec::new();
    for (name, cln, partner) in [
        ("random fan-in≤4", &easy, &easy2),
        ("PLA, 14-wide terms", &pla, &pla_partner),
    ] {
        let faults = universe(cln);
        // Baseline: what any test could ever detect (deep random logic
        // carries redundant faults; they are nobody's fault).
        let engine = Ppsfp::new(cln).expect("combinational");
        let detectable = exhaustive_atpg(&engine, &faults).detected_count().max(1) as f64;
        let session = SelfTestSession::new(cln, partner);
        for patterns in [64u64, 256, 1024, 4096] {
            let rep = session.run_phase(patterns, 1, &faults).expect("runs");
            let detected = rep.response_coverage * faults.len() as f64;
            rows.push(vec![
                name.to_owned(),
                patterns.to_string(),
                format!("{:.1}", rep.response_coverage * 100.0),
                format!("{:.1}", rep.signature_coverage * 100.0),
                format!("{:.1}", detected / detectable * 100.0),
                eng(rep.data_volume_reduction()),
            ]);
        }
    }
    print_table(
        "BILBO ping-pong self-test (Fig. 20 phase)",
        &[
            "network",
            "PN patterns",
            "resp cov %",
            "sig cov %",
            "of detectable %",
            "data volume ÷",
        ],
        &rows,
    );
    println!(
        "\nShape checks from the paper: (1) \"combinational logic is highly susceptible\n\
         to random patterns\" — the fan-in-4 block saturates; (2) the PLA's wide AND\n\
         terms activate with probability 2^-14 and stall the curve; (3) \"if 100\n\
         patterns are run between scan-outs, the test data volume may be reduced by a\n\
         factor of 100\" — the reduction column tracks the pattern count. Signature\n\
         coverage ≈ response coverage: compression costs almost nothing (E7)."
    );
}
