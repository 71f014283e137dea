//! # dft-repair
//!
//! The lint-driven testability repair autopilot (`tessera-fix`).
//!
//! Williams & Parker's survey is a catalogue of *repairs* — test points
//! (§III-B), degating (Fig. 2), CLEAR lines, scan (§IV), redundancy
//! removal (§I-B) — each justified by measured cost. This crate closes
//! the loop mechanically:
//!
//! 1. **Lint** the netlist (`dft-lint`); every diagnostic that knows a
//!    concrete repair carries a machine-applicable
//!    [`FixHint`](dft_lint::FixHint).
//! 2. **Expand** hints into [`CandidateEdit`]s using the existing
//!    `dft-adhoc`/`dft-scan` transforms ([`candidate`]).
//! 3. **Rank statically** by SCOAP difficulty delta and
//!    implication-proven-untestable-fault delta — no simulation — and
//!    prune to the top few ([`rank`]).
//! 4. **Verify** survivors with the PPSFP fault simulator under a
//!    deterministic random budget, and **gate on economics**: the
//!    rule-of-ten escape-cost saving must pay for the hardware
//!    ([`verify`]).
//! 5. **Apply** the best accepted repair and repeat until nothing pays.
//!
//! The outcome is a repaired netlist plus a machine-readable
//! [`RepairPlan`] (and, via [`repair_observed`], a `dft-obs` span tree
//! with the work-avoidance counters).
//!
//! Everything is deterministic for a fixed seed: integer rank scores,
//! per-call seeded RNGs, and a PPSFP engine whose results do not depend
//! on thread count.
//!
//! ```
//! use dft_netlist::circuits::redundant_fixture;
//! use dft_repair::{repair, RepairOptions};
//!
//! let fixture = redundant_fixture();
//! let outcome = repair(&fixture, &RepairOptions::new()).unwrap();
//! assert!(outcome.plan.improved());
//! ```

#![forbid(unsafe_code)]

pub mod candidate;
pub mod plan;
pub mod rank;
pub mod verify;

pub use candidate::{apply_edit, expand_hints, Candidate, CandidateEdit, EditError, Edited};
pub use plan::{PlanCounters, RepairPlan, RepairRecord};
pub use rank::{rank_candidates, rank_candidates_in, RankedCandidate, Ranking, StaticBaseline};
pub use verify::{judge, measure_coverage, CoverageStat, RepairEconomics, Verdict};

use dft_lint::{LintConfig, LintContext, Registry};
use dft_netlist::{LevelizeError, Netlist};
use dft_obs::{Collector, Obs};

/// Tuning knobs for one autopilot run.
///
/// `#[non_exhaustive]`: construct via [`Default`]/[`RepairOptions::new`]
/// and the `with_*` builders.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RepairOptions {
    /// Random patterns per coverage measurement (default 256).
    pub patterns: usize,
    /// RNG seed for pattern generation (default 0).
    pub seed: u64,
    /// PPSFP worker threads; `0` = auto. Results are identical for any
    /// value (default 0).
    pub threads: usize,
    /// Candidates that survive static ranking into verification each
    /// round (default 2 — verification is the expensive step).
    pub top_k: usize,
    /// Maximum accepted repairs (= autopilot rounds; default 4).
    pub max_rounds: usize,
    /// The accept/reject economics.
    pub economics: RepairEconomics,
    /// Lint thresholds used to find repair opportunities.
    pub lint_config: LintConfig,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            patterns: 256,
            seed: 0,
            threads: 0,
            top_k: 2,
            max_rounds: 4,
            economics: RepairEconomics::default(),
            lint_config: LintConfig::default(),
        }
    }
}

impl RepairOptions {
    /// Defaults, spelled for builder chains.
    #[must_use]
    pub fn new() -> Self {
        RepairOptions::default()
    }

    /// Sets the random-pattern budget.
    #[must_use]
    pub fn with_patterns(mut self, patterns: usize) -> Self {
        self.patterns = patterns;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the PPSFP thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets how many ranked candidates reach verification per round.
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// Sets the maximum number of accepted repairs.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Sets the economics gate.
    #[must_use]
    pub fn with_economics(mut self, economics: RepairEconomics) -> Self {
        self.economics = economics;
        self
    }

    /// Sets the lint thresholds.
    #[must_use]
    pub fn with_lint_config(mut self, config: LintConfig) -> Self {
        self.lint_config = config;
        self
    }
}

/// What an autopilot run produced.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired netlist (identical to the input if nothing paid).
    pub netlist: Netlist,
    /// The machine-readable run record.
    pub plan: RepairPlan,
}

/// Runs the repair autopilot. See the crate docs for the pipeline.
///
/// # Errors
///
/// Returns [`LevelizeError`] if the input netlist has combinational
/// cycles — fix those first (`comb-feedback` is an error-severity lint,
/// and no transform or simulator in the workspace accepts cyclic
/// netlists).
pub fn repair(netlist: &Netlist, options: &RepairOptions) -> Result<RepairOutcome, LevelizeError> {
    repair_observed(netlist, options, None)
}

/// [`repair`] with telemetry: spans `repair.autopilot` >
/// `repair.round` > (`repair.lint`, `repair.expand`, `repair.rank`,
/// `repair.verify`), counters `repair.candidates.{expanded,ranked,
/// pruned,verified}`, the ranking's implication work on `repair.rank`
/// (`repair.rank.*`, counted by [`rank_candidates_in`]), and
/// `repair.accepted`, gauges `repair.coverage.{baseline,final}`.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn repair_observed(
    netlist: &Netlist,
    options: &RepairOptions,
    obs: Option<&mut dyn Collector>,
) -> Result<RepairOutcome, LevelizeError> {
    let mut obs = Obs::new(obs);
    obs.enter("repair.autopilot");

    let baseline = measure_coverage(netlist, options.patterns, options.seed, options.threads)?;
    obs.gauge("repair.coverage.baseline", baseline.coverage);

    let mut current = netlist.clone();
    let mut current_coverage = baseline;
    let mut applied_keys: Vec<String> = Vec::new();
    let mut records: Vec<RepairRecord> = Vec::new();
    let mut counters = PlanCounters::default();

    for round in 1..=options.max_rounds {
        obs.enter("repair.round");

        obs.enter("repair.lint");
        // One context per round: rank reads the implication engine the
        // lint rules built.
        let context = LintContext::new(&current, options.lint_config.clone());
        let report = Registry::with_default_rules().run_in(&context, None);
        obs.count("repair.diagnostics", report.diagnostics().len() as u64);
        obs.exit();

        obs.enter("repair.expand");
        let candidates = expand_hints(report.diagnostics(), &applied_keys);
        counters.expanded += candidates.len();
        obs.count("repair.candidates.expanded", candidates.len() as u64);
        obs.exit();

        if candidates.is_empty() {
            obs.exit();
            break;
        }

        obs.enter("repair.rank");
        counters.ranked += candidates.len();
        let Ranking {
            kept: ranked,
            pruned,
        } = rank_candidates_in(&context, candidates, options.top_k, obs.as_option());
        counters.pruned += pruned;
        obs.count(
            "repair.candidates.ranked",
            ranked.len() as u64 + pruned as u64,
        );
        obs.count("repair.candidates.pruned", pruned as u64);
        obs.exit();

        obs.enter("repair.verify");
        counters.verified += ranked.len();
        obs.count("repair.candidates.verified", ranked.len() as u64);
        // Verify in rank order; the accepted candidate with the best
        // measured coverage wins the round (first in rank order on ties).
        let mut round_records: Vec<(RepairRecord, Netlist)> = Vec::new();
        for rc in ranked {
            let after = measure_coverage(
                &rc.edited.netlist,
                options.patterns,
                options.seed,
                options.threads,
            )?;
            let verdict = judge(
                &options.economics,
                current_coverage,
                after,
                rc.edited.extra_gates,
                rc.edited.extra_pins,
            );
            round_records.push((
                RepairRecord {
                    round,
                    rule: rc.candidate.rule,
                    code: rc.candidate.code,
                    edit: rc.candidate.edit,
                    extra_gates: rc.edited.extra_gates,
                    extra_pins: rc.edited.extra_pins,
                    score: rc.score,
                    before: current_coverage,
                    after,
                    saving: verdict.saving,
                    hardware: verdict.hardware,
                    accepted: verdict.accepted,
                },
                rc.edited.netlist,
            ));
        }
        obs.exit();

        let winner = round_records
            .iter()
            .enumerate()
            .filter(|(_, (r, ..))| r.accepted)
            .max_by(|(ia, (a, ..)), (ib, (b, ..))| {
                a.after
                    .coverage
                    .partial_cmp(&b.after.coverage)
                    .expect("coverage is finite")
                    .then(ib.cmp(ia)) // ties: earlier rank wins
            })
            .map(|(i, _)| i);

        match winner {
            Some(i) => {
                for (j, (mut record, netlist)) in round_records.into_iter().enumerate() {
                    // Only the applied repair counts as accepted in the
                    // plan; a passing runner-up is re-considered next
                    // round against the new baseline.
                    record.accepted = j == i;
                    if j == i {
                        applied_keys.push(record.edit.key());
                        current = netlist;
                        current_coverage = record.after;
                    }
                    records.push(record);
                }
                counters.accepted += 1;
                obs.count("repair.accepted", 1);
            }
            None => {
                records.extend(round_records.into_iter().map(|(r, ..)| r));
                obs.exit();
                break;
            }
        }
        obs.exit();
    }

    obs.gauge("repair.coverage.final", current_coverage.coverage);
    obs.exit();

    let plan = RepairPlan {
        design: netlist.name().to_owned(),
        patterns: options.patterns,
        seed: options.seed,
        baseline,
        final_coverage: current_coverage,
        records,
        counters,
    };
    Ok(RepairOutcome {
        netlist: current,
        plan,
    })
}
