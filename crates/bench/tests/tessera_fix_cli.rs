//! The `tessera-fix` repair plans, byte for byte against their
//! committed goldens: each plan carries every verified candidate's
//! finding (`rule`, `code`), score and verdict, so any drift in lint,
//! ranking, verification or economics fails here. The benchmark
//! circuit's `--report` tree is pinned too, durations aside, so its work
//! counters cannot drift either.

use std::path::Path;
use std::process::Command;

use dft_json::Value;

/// The committed golden `crates/bench/golden/<name>`.
fn read_golden(name: &str) -> String {
    std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(name),
    )
    .expect("golden is committed")
}

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
    assert!(
        got == read_golden(golden),
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

/// `value` with every `duration_ns` member dropped, as CI's repair gate
/// drops them with `jq` before its diff.
fn without_durations(value: Value) -> Value {
    match value {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(key, _)| key != "duration_ns")
                .map(|(key, v)| (key, without_durations(v)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.into_iter().map(without_durations).collect()),
        other => other,
    }
}

#[test]
fn rand_15x140_work_counters_match_their_golden() {
    let report = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rand_15x140_report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tessera-fix"))
        .args(["rand_15x140", "--threads", "1", "--report"])
        .arg(&report)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = dft_json::parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("the report is JSON");
    let want = dft_json::parse(&read_golden("tessera_fix_rand_15x140_report.json"))
        .expect("the golden is JSON");
    assert!(
        without_durations(got) == want,
        "the rand_15x140 work counters drifted; regenerate the golden only for an intended change"
    );
}
