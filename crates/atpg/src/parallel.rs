//! Threaded deterministic-ATPG driver with inter-batch collateral
//! dropping.
//!
//! §I-B of the paper prices deterministic test generation as the cost
//! that explodes with gate count; this driver attacks it on two axes at
//! once. *Parallelism*: the surviving fault queue is solved in fixed
//! 64-fault batches whose slots are strided across scoped worker
//! threads, each running PODEM against one shared read-only solver.
//! *Work avoidance*: after every batch the freshly generated cubes are
//! merged, zero-filled, and fault-simulated with [`Ppsfp`] over the
//! not-yet-attempted tail of the queue, so faults the new tests already
//! cover are dropped before any worker wastes a search on them.
//!
//! *Verdict reuse*: every queued fault belongs to a structural
//! equivalence class ([`CollapsedUniverse`]), and equivalent faults share
//! their tests — so once one member is proven untestable, every later
//! member is settled `Untestable` without a solve. Each batch is solved
//! in two rounds: round one solves the first slot of every class not
//! yet known untestable, round two the followers whose leader did not
//! come back untestable. Each solve is [`Podem::settle`]: the PODEM
//! search under a gate-evaluation budget, then a CDCL proof, then the
//! search resumed. An untestable fault yields no cube, so neither reuse
//! nor the prover changes a row.
//!
//! The merge is deterministic by construction. Batch boundaries depend
//! only on the queue (`BATCH` is fixed, not derived from the thread
//! count), each slot's solver call is a pure function of its fault, the
//! rounds are fixed by the batch and the verdicts before it, and results
//! are reduced in slot order after the batch joins — so the thread count
//! changes *who* computes a slot, never *what* is computed, and the
//! final [`DetPhase`] is byte-identical for any `threads` setting.

use dft_fault::stream::CollapsedUniverse;
use dft_fault::{Fault, Ppsfp};
use dft_netlist::{LevelizeError, Netlist};
use dft_obs::{Collector, Obs};
use dft_sim::PatternSet;

use crate::compact::merge_cubes;
use crate::engine::AtpgConfig;
use crate::podem::{GenOutcome, Podem, PodemConfig, Prover, SolveStats, TestCube};

/// Faults per batch. Fixed (and equal to the [`Ppsfp`] word width) so
/// batch boundaries — and therefore the drop cadence and the final test
/// set — never depend on the thread count.
const BATCH: usize = 64;

/// How one queued fault was disposed of by [`deterministic_phase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetVerdict {
    /// A solver produced a test cube for it.
    Test,
    /// Dropped before its turn: a cube generated for an earlier batch
    /// already detects it (found by the inter-batch [`Ppsfp`] pass).
    Collateral,
    /// Proven redundant by the solver, or by an earlier member of its
    /// equivalence class.
    Untestable,
    /// Search hit the backtrack limit.
    Aborted,
}

/// Effort accumulated by one worker across every batch it served in.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Faults this worker ran a solver on.
    pub solved: u64,
    /// Backtracks across those solves.
    pub backtracks: u64,
    /// Forward implications across those solves.
    pub forward_evals: u64,
    /// Conflicts caught by the static implication store.
    pub implication_conflicts: u64,
}

/// The result of the threaded deterministic phase.
#[derive(Clone, Debug)]
pub struct DetPhase {
    /// Per-queued-fault disposition, aligned with the input queue.
    pub verdicts: Vec<DetVerdict>,
    /// Concrete test rows, in batch order: each batch's cubes merged
    /// ([`merge_cubes`]) and zero-filled. These exact rows back the
    /// [`DetVerdict::Collateral`] credits, so they must reach the final
    /// pattern set (a greedy reverse-order drop keeps every detection).
    pub rows: Vec<Vec<bool>>,
    /// Cubes generated before merging (one per [`DetVerdict::Test`]).
    pub cubes: u64,
    /// Resolved worker count.
    pub workers: usize,
    /// Per-worker effort, indexed by worker id.
    pub worker_stats: Vec<WorkerStats>,
    /// Solver attempts: the queue length minus collateral drops and
    /// reused verdicts.
    pub attempts: u64,
    /// Faults settled `Untestable` without a solve, because an earlier
    /// member of their equivalence class was proven untestable.
    pub reused: u64,
    /// Total backtracks (sum over workers).
    pub backtracks: u64,
    /// Total forward implications.
    pub forward_evals: u64,
    /// Total implication-store conflicts.
    pub implication_conflicts: u64,
    /// Total gate evaluations inside PODEM's forward implication
    /// ([`SolveStats::gate_evals`]).
    pub gate_evals: u64,
    /// [`DetVerdict::Test`] count.
    pub tests: u64,
    /// [`DetVerdict::Untestable`] count: `reused` plus the three
    /// `proved_*` counts.
    pub untestable: u64,
    /// Untestable verdicts the static implication engine proved.
    pub proved_static: u64,
    /// Untestable verdicts the PODEM search proved.
    pub proved_search: u64,
    /// Untestable verdicts the CDCL prover proved.
    pub proved_cdcl: u64,
    /// CDCL proofs attempted ([`SolveStats::cdcl_calls`]).
    pub cdcl_calls: u64,
    /// Conflicts across those proofs.
    pub cdcl_conflicts: u64,
    /// [`DetVerdict::Aborted`] count.
    pub aborted: u64,
    /// [`DetVerdict::Collateral`] count.
    pub collateral: u64,
    /// Batches processed.
    pub batches: u64,
    /// Inter-batch [`Ppsfp`] passes run (skipped when a batch yields no
    /// cubes or the queue is exhausted).
    pub drop_sims: u64,
}

/// Resolves a `threads` knob: 0 means all available cores, and more
/// workers than batch slots would sit idle.
fn resolve_workers(threads: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    t.clamp(1, BATCH)
}

/// Compiled, shareable state for the threaded deterministic phase: the
/// PODEM solver (with its implication store), the inter-batch [`Ppsfp`]
/// dropper, and the resolved worker count. Build once with
/// [`DetDriver::new`], then [`DetDriver::run`] any number of queues —
/// the split lets callers (and the bench) separate the one-time compile
/// cost from the phase itself.
pub struct DetDriver<'n> {
    netlist: &'n Netlist,
    solver: Podem<'n>,
    classes: CollapsedUniverse<'n>,
    dropper: Option<Ppsfp<'n>>,
    workers: usize,
}

impl<'n> DetDriver<'n> {
    /// Compiles the driver per `config` (see [`DetDriver::new_observed`]
    /// for the collector-fed variant).
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist, config: &AtpgConfig) -> Result<Self, LevelizeError> {
        DetDriver::new_observed(netlist, config, None)
    }

    /// [`DetDriver::new`] with the solver build feeding `obs` (the
    /// `implic.learn` span nests under the caller's current span).
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new_observed(
        netlist: &'n Netlist,
        config: &AtpgConfig,
        obs: Option<&mut dyn Collector>,
    ) -> Result<Self, LevelizeError> {
        let mut obs = Obs::new(obs);
        // Shared read-only solver state: PODEM compiles once, including
        // its implication store.
        let podem_cfg = PodemConfig::new().with_backtrack_limit(config.backtrack_limit);
        let solver = Podem::new_observed(netlist, podem_cfg, obs.as_option())?;
        // The inter-batch sets are at most one 64-pattern block (one
        // batch of merged cubes), so the engine's block-count width rule
        // keeps the narrow 64-lane path here — wide blocks would only
        // pad empty tail words. The wide paths engage where the ATPG
        // flow has real pattern volume: the random phase's 256-pattern
        // chunks and compaction's 256-pattern reverse windows.
        let dropper = if config.collateral_dropping {
            Some(Ppsfp::new(netlist)?)
        } else {
            None
        };
        Ok(DetDriver {
            netlist,
            solver,
            classes: CollapsedUniverse::new(netlist),
            dropper,
            workers: resolve_workers(config.threads),
        })
    }

    /// Runs the deterministic phase over `queue` (indices into
    /// `faults`), dropping collaterally detected faults between batches
    /// when the driver was built with collateral dropping on.
    ///
    /// Emits one `atpg.worker` span per worker (counters `solved`,
    /// `backtracks`, `forward_evals`, `implication_conflicts`; gauge
    /// `index`) and an `atpg.drop` span (counters `batches`,
    /// `drop_sims`, `dropped`, `rows`) under the caller's current span.
    ///
    /// The output is identical for every `threads` value; see the
    /// module docs for the argument.
    ///
    /// # Panics
    ///
    /// Panics if a queue index is out of range for `faults`.
    #[must_use]
    pub fn run(
        &self,
        faults: &[Fault],
        queue: &[usize],
        obs: Option<&mut dyn Collector>,
    ) -> DetPhase {
        self.run_inner(faults, queue, Obs::new(obs))
    }
}

/// Builds a [`DetDriver`] from `config` and runs it over `queue`
/// (indices into `faults`) in one call — the flow entry point used by
/// [`crate::generate_tests`].
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if a queue index is out of range for `faults`.
pub fn deterministic_phase(
    netlist: &Netlist,
    faults: &[Fault],
    queue: &[usize],
    config: &AtpgConfig,
    obs: Option<&mut dyn Collector>,
) -> Result<DetPhase, LevelizeError> {
    let mut obs = Obs::new(obs);
    let driver = DetDriver::new_observed(netlist, config, obs.as_option())?;
    Ok(driver.run_inner(faults, queue, obs))
}

impl DetDriver<'_> {
    fn run_inner(&self, faults: &[Fault], queue: &[usize], mut obs: Obs<'_>) -> DetPhase {
        let n_pi = self.netlist.primary_inputs().len();
        let mut phase = DetPhase {
            verdicts: vec![DetVerdict::Aborted; queue.len()],
            rows: Vec::new(),
            cubes: 0,
            workers: self.workers,
            worker_stats: vec![WorkerStats::default(); self.workers],
            attempts: 0,
            reused: 0,
            backtracks: 0,
            forward_evals: 0,
            implication_conflicts: 0,
            gate_evals: 0,
            tests: 0,
            untestable: 0,
            proved_static: 0,
            proved_search: 0,
            proved_cdcl: 0,
            cdcl_calls: 0,
            cdcl_conflicts: 0,
            aborted: 0,
            collateral: 0,
            batches: 0,
            drop_sims: 0,
        };
        // Each queued fault's equivalence class; a fault outside the
        // netlist's universe is a class of its own (`None`: no reuse).
        let universe = self.classes.universe();
        let class: Vec<Option<usize>> = queue
            .iter()
            .map(|&fi| {
                universe
                    .index_of(faults[fi])
                    .map(|i| self.classes.class_of(i))
            })
            .collect();
        let mut untestable_class = vec![false; universe.len()];
        let known_untestable = |marks: &[bool], qp: usize| class[qp].is_some_and(|c| marks[c]);

        // Queue positions still awaiting a solver, in queue order.
        let mut pending: Vec<usize> = (0..queue.len()).collect();
        while !pending.is_empty() {
            let take = pending.len().min(BATCH);
            let batch: Vec<usize> = pending.drain(..take).collect();
            let mut results: Vec<Option<(GenOutcome, SolveStats)>> = vec![None; batch.len()];
            // Round one: the first slot of each class not yet known
            // untestable. Round two: the followers whose leader did not
            // come back untestable.
            let mut leaders: Vec<usize> = Vec::new();
            let mut followers: Vec<usize> = Vec::new();
            for (slot, &qp) in batch.iter().enumerate() {
                if known_untestable(&untestable_class, qp) {
                    continue;
                }
                let led =
                    class[qp].is_some() && leaders.iter().any(|&l| class[batch[l]] == class[qp]);
                if led {
                    followers.push(slot);
                } else {
                    leaders.push(slot);
                }
            }
            for round in [leaders, followers] {
                let round: Vec<usize> = round
                    .into_iter()
                    .filter(|&slot| !known_untestable(&untestable_class, batch[slot]))
                    .collect();
                let solved =
                    self.solve_slots(faults, queue, &batch, &round, &mut phase.worker_stats);
                for (slot, result) in round.into_iter().zip(solved) {
                    if let (GenOutcome::Untestable, Some(c)) = (&result.0, class[batch[slot]]) {
                        untestable_class[c] = true;
                    }
                    results[slot] = Some(result);
                }
            }
            // Deterministic reduction: slot order, regardless of which
            // worker finished when.
            let mut batch_cubes: Vec<TestCube> = Vec::new();
            for (slot, result) in results.into_iter().enumerate() {
                let Some((outcome, stats)) = result else {
                    phase.reused += 1;
                    phase.untestable += 1;
                    phase.verdicts[batch[slot]] = DetVerdict::Untestable;
                    continue;
                };
                phase.attempts += 1;
                phase.backtracks += u64::from(stats.backtracks);
                phase.forward_evals += stats.forward_evals;
                phase.implication_conflicts += u64::from(stats.implication_conflicts);
                phase.gate_evals += stats.gate_evals;
                phase.cdcl_calls += u64::from(stats.cdcl_calls);
                phase.cdcl_conflicts += stats.cdcl_conflicts;
                phase.verdicts[batch[slot]] = match outcome {
                    GenOutcome::Test(cube) => {
                        batch_cubes.push(cube);
                        phase.tests += 1;
                        DetVerdict::Test
                    }
                    GenOutcome::Untestable => {
                        phase.untestable += 1;
                        *match stats.prover {
                            Prover::Static => &mut phase.proved_static,
                            Prover::Search => &mut phase.proved_search,
                            Prover::Cdcl => &mut phase.proved_cdcl,
                        } += 1;
                        DetVerdict::Untestable
                    }
                    GenOutcome::Aborted => {
                        phase.aborted += 1;
                        DetVerdict::Aborted
                    }
                };
            }
            phase.batches += 1;
            phase.cubes += batch_cubes.len() as u64;
            let merged = merge_cubes(&batch_cubes);
            let batch_rows: Vec<Vec<bool>> = merged.iter().map(|c| c.filled(false)).collect();
            if let Some(engine) = &self.dropper {
                if !batch_rows.is_empty() && !pending.is_empty() {
                    let set = PatternSet::from_rows(n_pi, &batch_rows);
                    let tail: Vec<Fault> = pending.iter().map(|&qp| faults[queue[qp]]).collect();
                    let r = engine.run(&set, &tail);
                    phase.drop_sims += 1;
                    let mut j = 0;
                    pending.retain(|&qp| {
                        let detected = r.first_detected[j].is_some();
                        j += 1;
                        if detected {
                            phase.verdicts[qp] = DetVerdict::Collateral;
                            phase.collateral += 1;
                        }
                        !detected
                    });
                }
            }
            phase.rows.extend(batch_rows);
        }

        for (w, ws) in phase.worker_stats.iter().enumerate() {
            obs.enter("atpg.worker");
            obs.gauge("index", w as f64);
            obs.count("solved", ws.solved);
            obs.count("backtracks", ws.backtracks);
            obs.count("forward_evals", ws.forward_evals);
            obs.count("implication_conflicts", ws.implication_conflicts);
            obs.exit();
        }
        obs.enter("atpg.drop");
        obs.count("batches", phase.batches);
        obs.count("drop_sims", phase.drop_sims);
        obs.count("dropped", phase.collateral);
        obs.count("rows", phase.rows.len() as u64);
        obs.exit();
        phase
    }

    /// Settles the batch slots listed in `slots`: the `k`-th listed slot
    /// goes to worker `k % workers`, every worker walks its strided
    /// share in order, and the results come back in `slots` order. With
    /// one worker the slots are solved inline (no spawn).
    fn solve_slots(
        &self,
        faults: &[Fault],
        queue: &[usize],
        batch: &[usize],
        slots: &[usize],
        worker_stats: &mut [WorkerStats],
    ) -> Vec<(GenOutcome, SolveStats)> {
        let solve = |k: usize| self.solver.settle(faults[queue[batch[slots[k]]]]);
        let active = self.workers.min(slots.len());
        let mut results: Vec<Option<(GenOutcome, SolveStats)>> = vec![None; slots.len()];
        if active <= 1 {
            for (k, out) in results.iter_mut().enumerate() {
                let (outcome, stats) = solve(k);
                tally(&mut worker_stats[0], &stats);
                *out = Some((outcome, stats));
            }
        } else {
            let shards = std::thread::scope(|s| {
                let handles: Vec<_> = (0..active)
                    .map(|w| {
                        let solve = &solve;
                        s.spawn(move || {
                            let mut out: Vec<(usize, GenOutcome, SolveStats)> = Vec::new();
                            let mut k = w;
                            while k < slots.len() {
                                let (outcome, stats) = solve(k);
                                out.push((k, outcome, stats));
                                k += active;
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ATPG worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (w, shard) in shards.into_iter().enumerate() {
                for (k, outcome, stats) in shard {
                    tally(&mut worker_stats[w], &stats);
                    results[k] = Some((outcome, stats));
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot solved"))
            .collect()
    }
}

fn tally(ws: &mut WorkerStats, stats: &SolveStats) {
    ws.solved += 1;
    ws.backtracks += u64::from(stats.backtracks);
    ws.forward_evals += stats.forward_evals;
    ws.implication_conflicts += u64::from(stats.implication_conflicts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{simulate, universe};
    use dft_netlist::circuits::{c17, random_combinational};

    fn run(n: &Netlist, config: &AtpgConfig) -> DetPhase {
        let faults = universe(n);
        let queue: Vec<usize> = (0..faults.len()).collect();
        deterministic_phase(n, &faults, &queue, config, None).unwrap()
    }

    #[test]
    fn phase_is_identical_across_thread_counts() {
        let n = random_combinational(10, 60, 7);
        let base = run(&n, &AtpgConfig::new().with_threads(1));
        for t in [2, 3, 8] {
            let other = run(&n, &AtpgConfig::new().with_threads(t));
            assert_eq!(base.verdicts, other.verdicts, "verdicts differ at {t}");
            assert_eq!(base.rows, other.rows, "rows differ at {t}");
            assert_eq!(base.backtracks, other.backtracks);
            assert_eq!(base.forward_evals, other.forward_evals);
            assert_eq!(base.gate_evals, other.gate_evals);
        }
    }

    #[test]
    fn collateral_credits_are_backed_by_the_rows() {
        // Multi-batch universe: later batches must see collateral drops.
        let n = random_combinational(10, 60, 7);
        let faults = universe(&n);
        assert!(faults.len() > super::BATCH, "need a multi-batch queue");
        let queue: Vec<usize> = (0..faults.len()).collect();
        let phase = deterministic_phase(
            &n,
            &faults,
            &queue,
            &AtpgConfig::new().with_threads(2),
            None,
        )
        .unwrap();
        assert!(phase.collateral > 0, "batches must drop collaterally");
        let set = PatternSet::from_rows(n.primary_inputs().len(), &phase.rows);
        let r = simulate(&n, &set, &faults).unwrap();
        for (qp, v) in phase.verdicts.iter().enumerate() {
            if matches!(v, DetVerdict::Test | DetVerdict::Collateral) {
                assert!(
                    r.first_detected[queue[qp]].is_some(),
                    "verdict {v:?} for fault {qp} not backed by the rows"
                );
            }
        }
    }

    #[test]
    fn dropping_off_attempts_every_fault() {
        let n = c17();
        let cfg = AtpgConfig::new().with_collateral_dropping(false);
        let phase = run(&n, &cfg);
        assert_eq!(phase.collateral, 0);
        assert_eq!(phase.attempts as usize, phase.verdicts.len());
    }
}
