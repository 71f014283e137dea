//! Metric names, the result line, and the statistics every mode shares.

use dft_json::{JsonWriter, Style};

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// `BENCHMARK.json` lists the same names, units and directions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("coverage", "fraction"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.levelize_ms", "ms"),
    ("netlist.bytes_per_gate", "B/gate"),
    ("lint.run_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("fault.collapse_ms", "ms"),
    ("fault.classes", "count"),
    ("fault.ppsfp_build_ms", "ms"),
    ("fault.ppsfp_sim_ms", "ms"),
    ("fault.fault_patterns_per_s", "1/s"),
    ("fault.detected", "count"),
    ("sim.good_machine_ms", "ms"),
    ("atpg.random_ms", "ms"),
    ("atpg.deterministic_ms", "ms"),
    ("atpg.compact_ms", "ms"),
    ("implic.learn_ms", "ms"),
    ("atpg.attempts", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.forward_evals", "count"),
    ("atpg.implication_conflicts", "count"),
    ("atpg.tests", "count"),
    ("atpg.untestable", "count"),
    ("atpg.aborted", "count"),
    ("atpg.collateral_drops", "count"),
    ("atpg.test_patterns", "count"),
    ("atpg.tests_per_attempt", "ratio"),
    ("atpg.us_per_forward_eval", "us"),
    ("repair.lint_ms", "ms"),
    ("repair.expand_ms", "ms"),
    ("repair.rank_ms", "ms"),
    ("repair.verify_ms", "ms"),
    ("repair.rounds", "count"),
    ("repair.candidates_ranked", "count"),
    ("repair.candidates_pruned", "count"),
    ("repair.candidates_verified", "count"),
    ("repair.accepted", "count"),
    ("repair.accepted_per_verified", "ratio"),
    ("repair.rank_ms_per_candidate", "ms"),
    ("analyze.full_solve_ms", "ms"),
    ("serve.lint.count", "count"),
    ("serve.lint.p50_ms", "ms"),
    ("serve.lint.p95_ms", "ms"),
    ("serve.scoap.count", "count"),
    ("serve.scoap.p50_ms", "ms"),
    ("serve.scoap.p95_ms", "ms"),
    ("serve.fault_sim.count", "count"),
    ("serve.fault_sim.p50_ms", "ms"),
    ("serve.fault_sim.p95_ms", "ms"),
    ("serve.dictionary.count", "count"),
    ("serve.dictionary.p50_ms", "ms"),
    ("serve.dictionary.p95_ms", "ms"),
    ("serve.podem.count", "count"),
    ("serve.podem.p50_ms", "ms"),
    ("serve.podem.p95_ms", "ms"),
    ("serve.eco.count", "count"),
    ("serve.eco.p50_ms", "ms"),
    ("serve.eco.p95_ms", "ms"),
    ("serve.private_scoap.count", "count"),
    ("serve.private_scoap.p50_ms", "ms"),
    ("serve.private_scoap.p95_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.lint_builds", "count"),
    ("serve.scoap_refreshes", "count"),
    ("serve.fault_sim_runs", "count"),
    ("serve.dictionary_builds", "count"),
    ("serve.podem_warmups", "count"),
    ("serve.eco_incremental", "count"),
    ("serve.eco_rejected", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.podem.backtracks_per_request", "count"),
    ("serve.podem.prefiltered_share", "ratio"),
    ("trace_overhead", "fraction"),
    ("host.probe_ms", "ms"),
    ("host.wall_latency_ms", "ms"),
];

/// What one workload run reports: the benchmark's result line.
#[derive(Debug)]
pub struct Outcome {
    /// Every oracle agreed with the program's outputs.
    pub correct: bool,
    /// Operations started in the measured window (flows or requests).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// The metric table the names come from.
    pub table: &'static [(&'static str, &'static str)],
}

impl Outcome {
    /// Orders `measured` by `table`, filling layers the workload never
    /// called with 0.
    ///
    /// # Errors
    ///
    /// A measured name that `table` does not list (a typo would
    /// otherwise silently read 0).
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &'static [(&'static str, &'static str)],
        measured: &[(&str, f64)],
    ) -> Result<Self, String> {
        if let Some((name, _)) = measured
            .iter()
            .find(|(name, _)| !table.iter().any(|(n, _)| n == name))
        {
            return Err(format!("metric '{name}' is not in the metric table"));
        }
        let metrics = table
            .iter()
            .map(|&(name, _)| {
                let value = measured
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value)
            })
            .collect();
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
            table,
        })
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(Style::Compact);
        w.begin_object();
        w.kv_bool("correct", self.correct);
        w.kv_u64("attempted", self.attempted);
        w.kv_u64("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        for (&(name, value), &(_, unit)) in self.metrics.iter().zip(self.table) {
            w.key(name);
            w.begin_object();
            w.kv_f64("value", finite(value));
            w.kv_string("unit", unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// JSON has no NaN or infinity; a ratio over an empty base reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the figures here match a recomputation
/// from the raw runs with Python.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            // Python clamps the index but not the weight, so the
            // outer quartiles of a short sample extrapolate.
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB (10⁶ bytes).
///
/// # Errors
///
/// The kernel does not expose `/proc/self/status` (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status for peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("process status has no VmHWM line")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A well-mixed 64-bit seed for stream `stream` of run seed `seed`
/// (SplitMix64), so per-operation inputs are independent but fixed by
/// `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn unknown_metric_names_are_rejected() {
        assert!(Outcome::new(true, 1, 0, END_TO_END, &[("latency_ms", 1.0)]).is_ok());
        assert!(Outcome::new(true, 1, 0, END_TO_END, &[("latency", 1.0)]).is_err());
    }
}
