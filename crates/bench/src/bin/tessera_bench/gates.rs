//! The baseline gates: pure functions from this run's section document
//! and a committed one to the regressions found, each a one-line
//! message. `main` exits 1 if either finds any.

use dft_json::Value;

use crate::doc::{flag, num, rows, text};

/// The record of `records` whose `keys` members equal `like`'s.
fn find<'a>(records: &'a [Value], like: &Value, keys: &[&str]) -> Option<&'a Value> {
    records
        .iter()
        .find(|r| keys.iter().all(|&k| r.get(k) == like.get(k)))
}

/// Fault-sim regressions against a committed `BENCH_fault_sim.json`:
/// the engines stopped agreeing; a shared (circuit, engine) record's
/// detected count changed (the detected set is a pure function of
/// circuit and seed-fixed patterns, so any drift is semantic); or such a
/// record's `fault_patterns_per_sec` fell below half the baseline's. The
/// throughput bound applies only where the baseline record was timed
/// for 10 ms or more in all (`seconds × runs`, one run when `runs` is
/// absent): below that its time is timer noise. Records absent from the
/// baseline are skipped.
pub fn fault_sim(current: &Value, baseline: &Value) -> Vec<String> {
    let mut found = Vec::new();
    if !flag(current, "detected_sets_agree") {
        found.push("detected fault sets disagree across engines".to_owned());
    }
    for r in rows(current, "records") {
        let Some(base) = find(rows(baseline, "records"), r, &["circuit", "engine"]) else {
            continue;
        };
        let name = format!("{}/{}", text(r, "circuit"), text(r, "engine"));
        let (detected, base_detected) = (num(r, "detected"), num(base, "detected"));
        if detected != base_detected {
            found.push(format!(
                "{name} detected {detected} != baseline {base_detected}"
            ));
        }
        let runs = base.get("runs").and_then(Value::as_f64).unwrap_or(1.0);
        let fps = num(r, "fault_patterns_per_sec");
        let base_fps = num(base, "fault_patterns_per_sec");
        if num(base, "seconds") * runs >= 0.01 && fps < 0.5 * base_fps {
            found.push(format!(
                "{name} fault_patterns_per_sec {fps:.0} < half of baseline {base_fps:.0}"
            ));
        }
    }
    found
}

/// ATPG regressions against a committed `BENCH_atpg.json`: a circuit's
/// flow needs more than two patterns more, or loses more than 0.001
/// coverage (circuits absent from the baseline are skipped); the
/// pattern sets differ across thread counts; or, when both documents are
/// `quick` (the same roster), a `flow_scaling` row's test set
/// (`patterns`, `pattern_hash`) differs from the baseline row of the
/// same `config`.
pub fn atpg(current: &Value, baseline: &Value) -> Vec<String> {
    let mut found = Vec::new();
    for r in rows(current, "flow_records") {
        let Some(base) = find(rows(baseline, "flow_records"), r, &["circuit"]) else {
            continue;
        };
        let circuit = text(r, "circuit");
        let (patterns, base_patterns) = (num(r, "patterns"), num(base, "patterns"));
        if patterns > base_patterns + 2.0 {
            found.push(format!(
                "{circuit} pattern count {patterns} > baseline {base_patterns} (+2 tolerance)"
            ));
        }
        let (coverage, base_coverage) = (num(r, "coverage"), num(base, "coverage"));
        if coverage < base_coverage - 1e-3 {
            found.push(format!(
                "{circuit} coverage {coverage} < baseline {base_coverage} (-0.001 tolerance)"
            ));
        }
    }
    if !flag(current, "identical_across_threads") {
        found.push("pattern sets differ across thread counts".to_owned());
    }
    if flag(current, "quick") && flag(baseline, "quick") {
        let test_set = |r: &Value| {
            format!(
                "{} patterns, hash {}",
                num(r, "patterns"),
                text(r, "pattern_hash")
            )
        };
        for r in rows(current, "flow_scaling") {
            let (config, set) = (text(r, "config"), test_set(r));
            let pinned = find(rows(baseline, "flow_scaling"), r, &["config"]).map(test_set);
            if pinned.as_ref() != Some(&set) {
                let pinned = pinned.unwrap_or_else(|| "no row".to_owned());
                found.push(format!(
                    "flow_scaling {config} test set {set} != baseline {pinned}"
                ));
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::obj;

    /// A fault-sim record timed for `seconds × runs`.
    fn sim_record(circuit: &str, detected: usize, fps: f64, seconds: f64, runs: usize) -> Value {
        obj! {
            "circuit" => circuit,
            "engine" => "ppsfp",
            "seconds" => Value::Num(seconds),
            "runs" => runs,
            "fault_patterns_per_sec" => Value::Num(fps),
            "detected" => detected,
        }
    }

    fn sim_doc(agree: bool, records: Vec<Value>) -> Value {
        obj! { "detected_sets_agree" => agree, "records" => Value::Arr(records) }
    }

    fn sim_baseline() -> Value {
        sim_doc(
            true,
            vec![
                sim_record("long", 100, 1e6, 0.004, 5),
                sim_record("short", 100, 1e6, 0.001, 5),
            ],
        )
    }

    #[test]
    fn fault_sim_gate_against_itself_is_clean() {
        assert!(fault_sim(&sim_baseline(), &sim_baseline()).is_empty());
    }

    #[test]
    fn fault_sim_gate_reports_a_detected_drift() {
        let current = sim_doc(true, vec![sim_record("long", 101, 1e6, 0.004, 5)]);
        assert_eq!(fault_sim(&current, &sim_baseline()).len(), 1);
    }

    #[test]
    fn fault_sim_gate_bounds_throughput_of_records_timed_for_10_ms() {
        let halved = |circuit| sim_doc(true, vec![sim_record(circuit, 100, 4.9e5, 0.004, 5)]);
        assert_eq!(fault_sim(&halved("long"), &sim_baseline()).len(), 1);
        assert!(fault_sim(&halved("short"), &sim_baseline()).is_empty());
        // A baseline record without `runs` counts one run.
        let mut one_run = sim_record("long", 100, 1e6, 0.004, 5);
        if let Value::Obj(members) = &mut one_run {
            members.retain(|(k, _)| k != "runs");
        }
        assert!(fault_sim(&halved("long"), &sim_doc(true, vec![one_run])).is_empty());
    }

    #[test]
    fn fault_sim_gate_skips_records_missing_from_the_baseline() {
        let current = sim_doc(true, vec![sim_record("new", 7, 1.0, 1.0, 1)]);
        assert!(fault_sim(&current, &sim_baseline()).is_empty());
    }

    #[test]
    fn fault_sim_gate_reports_engine_disagreement() {
        assert_eq!(fault_sim(&sim_doc(false, vec![]), &sim_baseline()).len(), 1);
    }

    fn atpg_doc(quick: bool, patterns: usize, coverage: f64, identical: bool, hash: &str) -> Value {
        obj! {
            "quick" => quick,
            "flow_records" => Value::Arr(vec![obj! {
                "circuit" => "c17",
                "patterns" => patterns,
                "coverage" => Value::Num(coverage),
            }]),
            "flow_scaling" => Value::Arr(vec![obj! {
                "config" => "t1",
                "patterns" => patterns,
                "pattern_hash" => hash,
            }]),
            "identical_across_threads" => identical,
        }
    }

    #[test]
    fn atpg_gate_tolerates_two_more_patterns_but_not_three() {
        let base = atpg_doc(false, 10, 1.0, true, "0x1");
        assert!(atpg(&base, &base).is_empty());
        assert!(atpg(&atpg_doc(false, 12, 1.0, true, "0x1"), &base).is_empty());
        assert_eq!(atpg(&atpg_doc(false, 13, 1.0, true, "0x1"), &base).len(), 1);
    }

    #[test]
    fn atpg_gate_reports_lost_coverage_and_thread_divergence() {
        let base = atpg_doc(false, 10, 1.0, true, "0x1");
        assert_eq!(
            atpg(&atpg_doc(false, 10, 0.998, true, "0x1"), &base).len(),
            1
        );
        assert_eq!(
            atpg(&atpg_doc(false, 10, 1.0, false, "0x1"), &base).len(),
            1
        );
    }

    #[test]
    fn atpg_gate_pins_test_sets_only_between_quick_documents() {
        let current = atpg_doc(true, 10, 1.0, true, "0x2");
        assert_eq!(
            atpg(&current, &atpg_doc(true, 10, 1.0, true, "0x1")).len(),
            1
        );
        assert!(atpg(&current, &atpg_doc(false, 10, 1.0, true, "0x1")).is_empty());
    }

    #[test]
    fn committed_baselines_gate_clean_against_themselves() {
        let parse = |text: &str| dft_json::parse(text).unwrap();
        let fault_sim_doc = parse(include_str!("../../../../../BENCH_fault_sim.json"));
        assert_eq!(
            fault_sim(&fault_sim_doc, &fault_sim_doc),
            Vec::<String>::new()
        );
        let atpg_doc = parse(include_str!("../../../../../BENCH_atpg.json"));
        assert_eq!(atpg(&atpg_doc, &atpg_doc), Vec::<String>::new());
    }
}
