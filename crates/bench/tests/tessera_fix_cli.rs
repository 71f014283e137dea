//! The `tessera-fix` repair plans, byte for byte against their
//! committed goldens: each plan carries every verified candidate's
//! finding (`rule`, `code`), score and verdict, so any drift in lint,
//! ranking, verification or economics fails here.

use std::path::Path;
use std::process::Command;

/// Runs `tessera-fix` with `args` plus `--out`, and asserts the plan it
/// writes equals `crates/bench/golden/<golden>`.
fn assert_plan_matches(args: &[&str], golden: &str) {
    let plan = Path::new(env!("CARGO_TARGET_TMPDIR")).join(golden);
    let out = Command::new(env!("CARGO_BIN_EXE_tessera-fix"))
        .args(args)
        .arg("--out")
        .arg(&plan)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&plan).expect("plan written");
    let want = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(golden),
    )
    .expect("golden is committed");
    assert!(
        got == want,
        "{golden} drifted; regenerate it only for an intended plan change"
    );
}

#[test]
fn redundant_fixture_plan_matches_its_golden() {
    assert_plan_matches(
        &["redundant-fixture", "--require-improvement"],
        "tessera_fix_redundant_fixture.json",
    );
}

#[test]
fn rand_15x140_plan_matches_its_golden() {
    assert_plan_matches(
        &["rand_15x140", "--threads", "1", "--require-improvement"],
        "tessera_fix_rand_15x140.json",
    );
}
