//! End-to-end tests of the `tessera-lint` binary: output formats, the
//! severity-driven exit-code contract, and byte-for-byte goldens of the
//! rule list, the library report and a scan groundrule report.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tessera-lint"))
}

/// Asserts `stdout` equals `crates/bench/golden/<name>` byte for byte,
/// naming the first line that differs.
fn assert_matches_golden(name: &str, stdout: Vec<u8>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name);
    let want = std::fs::read_to_string(&path).expect("golden is committed");
    let got = String::from_utf8(stdout).unwrap();
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "output drifted from {name} at line {} ({} bytes, golden {} bytes)",
            line + 1,
            got.len(),
            want.len()
        );
    }
}

#[test]
fn sn74181_json_is_machine_readable() {
    let out = bin()
        .args(["--format", "json", "sn74181"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "warnings must not fail the run");
    let s = String::from_utf8(out.stdout).unwrap();
    assert!(
        s.starts_with("{\"schema\": \"tessera/1\", \"tool\": \"tessera-lint\", \"payload\": "),
        "stdout must be one tessera/1 envelope, got: {s}"
    );
    assert!(s.contains("\"design\": \"sn74181\""));
    assert!(s.contains("\"summary\""));
    assert!(s.contains("\"diagnostics\""));
    let doc = dft_json::parse(&s).expect("envelope is well-formed JSON");
    let payload = doc.get("payload").expect("envelope carries a payload");
    assert_eq!(
        payload.get("design").and_then(dft_json::Value::as_str),
        Some("sn74181"),
        "single circuit → payload is the bare report object"
    );
}

#[test]
fn multiple_circuits_render_as_a_json_array() {
    let out = bin()
        .args(["--format", "json", "c17", "majority"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let s = String::from_utf8(out.stdout).unwrap();
    assert!(s.contains("\"design\": \"c17\""));
    assert!(s.contains("\"design\": \"maj3\""));
    let doc = dft_json::parse(&s).expect("envelope is well-formed JSON");
    let payload = doc.get("payload").expect("envelope carries a payload");
    let reports = payload
        .as_array()
        .expect("multiple circuits → array payload");
    assert_eq!(reports.len(), 2);
}

#[test]
fn default_run_covers_the_library_without_errors() {
    // Sequential circuits carry warnings (uninitializable state, latch
    // races) but nothing at error severity: exit 0.
    let out = bin().output().expect("binary runs");
    assert!(out.status.success());
    let s = String::from_utf8(out.stdout).unwrap();
    assert!(s.contains("c17: "));
    assert!(s.contains("sn74181: "));
}

#[test]
fn roster_circuits_resolve_by_name() {
    let out = bin()
        .args(["--format", "json", "rand_15x140"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let s = String::from_utf8(out.stdout).unwrap();
    assert!(s.contains("\"design\": \"rand_15x140\""), "{s}");
    let listed = bin().arg("--list-circuits").output().expect("binary runs");
    let names = String::from_utf8(listed.stdout).unwrap();
    assert!(names.lines().any(|l| l == "rand_15x140"), "{names}");
    assert!(names.lines().any(|l| l == "c17"), "{names}");
}

#[test]
fn unknown_circuit_is_a_usage_error() {
    let out = bin().arg("no-such-circuit").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown circuit"));
}

#[test]
fn error_severity_findings_drive_exit_code_one() {
    // A 3-wide Scan/Set shadow over an 8-bit counter leaves 5 latches
    // unscanned: scan-coverage reports at error severity.
    let out = bin()
        .args(["--scan", "scan-set", "--scan-width", "3", "counter8"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let s = String::from_utf8(out.stdout).unwrap();
    assert!(s.contains("scan-coverage"));
}

#[test]
fn list_rules_names_the_documented_set() {
    let out = bin().arg("--list-rules").output().expect("binary runs");
    assert!(out.status.success());
    assert_matches_golden("tessera_lint_list_rules.out", out.stdout);
}

#[test]
fn library_report_matches_its_golden() {
    let out = bin()
        .args(["--format", "json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_matches_golden("tessera_lint_library.json", out.stdout);
}

#[test]
fn scan_groundrule_report_matches_its_golden() {
    // Fires scan-coverage, scan-depth and scan-latch-race alongside the
    // netlist rules, merged into one sorted report per design.
    let out = bin()
        .args([
            "--scan",
            "scan-set",
            "--scan-width",
            "3",
            "--max-depth",
            "2",
            "counter8",
            "shift8",
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "scan-coverage is an error");
    assert_matches_golden("tessera_lint_scan_set.json", out.stdout);
}

#[test]
fn thresholds_are_adjustable_from_the_command_line() {
    let out = bin()
        .args(["--max-depth", "5", "ripple8"])
        .output()
        .expect("binary runs");
    // Deep-logic findings are warnings: reported, exit 0.
    assert!(out.status.success());
    let s = String::from_utf8(out.stdout).unwrap();
    assert!(s.contains("deep-logic"));
    assert!(s.contains("exceeds bound 5"));
}
