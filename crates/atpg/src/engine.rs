//! The production ATPG flow: random phase, deterministic top-off,
//! compaction.

use dft_fault::{simulate, Fault, Ppsfp, PpsfpOptions};
use dft_netlist::{LevelizeError, Netlist};
use dft_obs::{Collector, Obs};
use dft_sim::PatternSet;

use crate::compact::reverse_order_drop;
use crate::parallel::{DetDriver, DetVerdict};
use crate::random::random_atpg;

/// Configuration for [`generate_tests`].
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct AtpgConfig {
    /// Random patterns to try before deterministic generation
    /// (0 disables the random phase).
    pub random_budget: usize,
    /// Random-phase seed.
    pub seed: u64,
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: u32,
    /// Run compaction on the final set.
    pub compact: bool,
    /// Worker threads for every phase (0 = all cores): the flow compiles
    /// one [`Ppsfp`] engine with this thread count, which grades the
    /// random phase, drops collateral detections, compacts, and sets the
    /// deterministic phase's PODEM worker count. The result is identical
    /// for every value — see [`crate::parallel`].
    pub threads: usize,
    /// Fault-simulate each batch's fresh cubes over the unattempted
    /// queue tail and drop the faults they already detect, so no solver
    /// runs on an already-covered fault.
    pub collateral_dropping: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            random_budget: 256,
            seed: 0,
            backtrack_limit: 10_000,
            compact: true,
            threads: 0,
            collateral_dropping: true,
        }
    }
}

impl AtpgConfig {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        AtpgConfig::default()
    }

    /// Sets [`AtpgConfig::random_budget`].
    #[must_use]
    pub fn with_random_budget(mut self, random_budget: usize) -> Self {
        self.random_budget = random_budget;
        self
    }

    /// Sets [`AtpgConfig::seed`].
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets [`AtpgConfig::backtrack_limit`].
    #[must_use]
    pub fn with_backtrack_limit(mut self, backtrack_limit: u32) -> Self {
        self.backtrack_limit = backtrack_limit;
        self
    }

    /// Sets [`AtpgConfig::compact`].
    #[must_use]
    pub fn with_compact(mut self, compact: bool) -> Self {
        self.compact = compact;
        self
    }

    /// Sets [`AtpgConfig::threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets [`AtpgConfig::collateral_dropping`].
    #[must_use]
    pub fn with_collateral_dropping(mut self, collateral_dropping: bool) -> Self {
        self.collateral_dropping = collateral_dropping;
        self
    }
}

/// Per-fault status after a [`generate_tests`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultStatus {
    /// Detected during the random phase.
    DetectedRandom,
    /// Detected by a deterministic test.
    DetectedDeterministic,
    /// Proven redundant.
    Untestable,
    /// Deterministic search aborted (backtrack limit).
    Aborted,
}

/// The result of a full ATPG run.
#[derive(Clone, Debug)]
pub struct AtpgRun {
    /// Final (compacted) test set.
    pub patterns: PatternSet,
    /// Per-fault outcome, aligned with the input fault list.
    pub status: Vec<FaultStatus>,
}

impl AtpgRun {
    /// Coverage counting untestable faults as covered (they cannot cause
    /// an escape — the usual "testable coverage" figure) — and raw
    /// detected-only coverage via [`AtpgRun::detected_coverage`].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.status.is_empty() {
            return 1.0;
        }
        let ok = self
            .status
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    FaultStatus::DetectedRandom
                        | FaultStatus::DetectedDeterministic
                        | FaultStatus::Untestable
                )
            })
            .count();
        ok as f64 / self.status.len() as f64
    }

    /// Fraction of faults actually detected by the pattern set.
    #[must_use]
    pub fn detected_coverage(&self) -> f64 {
        if self.status.is_empty() {
            return 1.0;
        }
        let ok = self
            .status
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    FaultStatus::DetectedRandom | FaultStatus::DetectedDeterministic
                )
            })
            .count();
        ok as f64 / self.status.len() as f64
    }

    /// Number of aborted faults.
    #[must_use]
    pub fn aborted(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Aborted))
            .count()
    }
}

/// Runs the full ATPG flow on a combinational netlist (or the
/// combinational test view extracted by `dft-scan`). Every phase runs on
/// one [`Ppsfp`] engine, compiled once with [`AtpgConfig::threads`].
///
/// 1. Random phase: up to `random_budget` patterns with fault dropping.
/// 2. Deterministic phase: per surviving fault, PODEM with its static
///    implication store under a gate-evaluation budget, then a CDCL
///    redundancy proof ([`crate::Podem::settle`]); untestable verdicts
///    are reused across each fault's equivalence class.
/// 3. Optional compaction (cube merge + reverse-order drop), re-verified
///    by fault simulation.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn generate_tests(
    netlist: &Netlist,
    faults: &[Fault],
    config: &AtpgConfig,
) -> Result<AtpgRun, LevelizeError> {
    generate_tests_observed(netlist, faults, config, None)
}

/// [`generate_tests`] feeding telemetry to an optional collector.
///
/// Opens an `atpg.generate` span with one child span per flow phase —
/// `atpg.random`, `atpg.deterministic` (which also nests the solver's
/// `implic.learn` build), `atpg.compact` — flushing each phase's effort
/// counters once. The deterministic phase's span carries the totals
/// [`DetDriver::run`] flushes (search effort such as `backtracks` and
/// `forward_evals`, the effort proxy of Eq. (1), and the verdict
/// counts) rather than one span per fault, keeping reports bounded on
/// large fault lists. The span is the only place these totals are kept.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn generate_tests_observed(
    netlist: &Netlist,
    faults: &[Fault],
    config: &AtpgConfig,
    obs: Option<&mut dyn Collector>,
) -> Result<AtpgRun, LevelizeError> {
    let engine = Ppsfp::with_options(netlist, PpsfpOptions::new().with_threads(config.threads))?;
    let mut obs = Obs::new(obs);
    obs.enter("atpg.generate");
    obs.count("faults", faults.len() as u64);
    let mut status = vec![FaultStatus::Aborted; faults.len()];
    let mut random_rows: Vec<Vec<bool>> = Vec::new();

    // Phase 1: random with dropping.
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    if config.random_budget > 0 {
        obs.enter("atpg.random");
        let r = random_atpg(&engine, faults, config.random_budget, 1.0, config.seed);
        // Keep only the useful prefix patterns (those that detected
        // something first).
        let mut used: Vec<usize> = r
            .detection
            .first_detected
            .iter()
            .flatten()
            .copied()
            .collect();
        used.sort_unstable();
        used.dedup();
        for &p in &used {
            random_rows.push(r.patterns.get(p));
        }
        remaining = r
            .detection
            .first_detected
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(i))
            .collect();
        for (i, d) in r.detection.first_detected.iter().enumerate() {
            if d.is_some() {
                status[i] = FaultStatus::DetectedRandom;
            }
        }
        obs.count("patterns", r.patterns.len() as u64);
        obs.count("kept_patterns", random_rows.len() as u64);
        obs.count("detected", (faults.len() - remaining.len()) as u64);
        obs.exit();
    }

    // Phase 2: deterministic top-off via the threaded batch driver
    // (crate::parallel) — identical output for any thread count.
    obs.enter("atpg.deterministic");
    let driver = DetDriver::new_observed(&engine, config, obs.as_option())?;
    let det = driver.run(faults, &remaining, obs.as_option());
    for (qp, &fi) in remaining.iter().enumerate() {
        status[fi] = match det.verdicts[qp] {
            DetVerdict::Test | DetVerdict::Collateral => FaultStatus::DetectedDeterministic,
            DetVerdict::Untestable => FaultStatus::Untestable,
            DetVerdict::Aborted => FaultStatus::Aborted,
        };
    }
    obs.exit();

    // Phase 3: assemble + compact. The deterministic rows are already
    // merged per batch and back the collateral credits, so the whole
    // assembly needs only one reverse-order drop (which preserves every
    // detection of the assembled set).
    obs.enter("atpg.compact");
    let n_pi = netlist.primary_inputs().len();
    let mut all_rows = random_rows;
    all_rows.extend(det.rows);
    let set = PatternSet::from_rows(n_pi, &all_rows);
    let patterns = if config.compact {
        reverse_order_drop(&engine, &set, faults)
    } else {
        set
    };
    let cubes = det.verdicts.iter().filter(|&&v| v == DetVerdict::Test);
    obs.count("cubes", cubes.count() as u64);
    obs.count("patterns", patterns.len() as u64);
    obs.exit();

    // Final verification pass: statuses must be consistent with the
    // actual pattern set (detected faults stay detected).
    debug_assert!({
        let r = simulate(netlist, &patterns, faults)?;
        status.iter().enumerate().all(|(i, s)| match s {
            FaultStatus::DetectedRandom | FaultStatus::DetectedDeterministic => {
                r.first_detected[i].is_some()
            }
            _ => true,
        })
    });

    let run = AtpgRun { patterns, status };
    obs.gauge("coverage", run.coverage());
    obs.exit();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe;
    use dft_netlist::circuits::{c17, comparator, random_combinational};
    use dft_obs::Recorder;

    #[test]
    fn full_flow_covers_c17() {
        let n = c17();
        let faults = universe(&n);
        let run = generate_tests(&n, &faults, &AtpgConfig::default()).unwrap();
        assert_eq!(run.coverage(), 1.0);
        assert_eq!(run.detected_coverage(), 1.0);
        let r = simulate(&n, &run.patterns, &faults).unwrap();
        assert_eq!(r.coverage(), 1.0, "patterns must actually detect");
    }

    #[test]
    fn deterministic_only_flow() {
        let n = comparator(3);
        let faults = universe(&n);
        let cfg = AtpgConfig {
            random_budget: 0,
            ..AtpgConfig::default()
        };
        let run = generate_tests(&n, &faults, &cfg).unwrap();
        assert!(run.coverage() > 0.99);
        assert!(run
            .status
            .iter()
            .all(|s| !matches!(s, FaultStatus::DetectedRandom)));
    }

    #[test]
    fn compaction_shrinks_without_losing_coverage() {
        let n = random_combinational(10, 60, 3);
        let faults = universe(&n);
        let with = generate_tests(&n, &faults, &AtpgConfig::default()).unwrap();
        let without = generate_tests(
            &n,
            &faults,
            &AtpgConfig {
                compact: false,
                ..AtpgConfig::default()
            },
        )
        .unwrap();
        assert!(with.patterns.len() <= without.patterns.len());
        let r = simulate(&n, &with.patterns, &faults).unwrap();
        assert!((r.coverage() - with.detected_coverage()).abs() < 1e-9);
    }

    #[test]
    fn effort_counters_accumulate() {
        let n = random_combinational(10, 80, 11);
        let faults = universe(&n);
        let cfg = AtpgConfig {
            random_budget: 0,
            ..AtpgConfig::default()
        };
        let mut rec = Recorder::new();
        generate_tests_observed(&n, &faults, &cfg, Some(&mut rec)).unwrap();
        let report = rec.finish("effort");
        let det = report.find("atpg.deterministic").unwrap();
        assert!(det.counter("forward_evals") > 0);
    }
}
