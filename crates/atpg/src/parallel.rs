//! Threaded deterministic-ATPG driver with inter-batch collateral
//! dropping.
//!
//! §I-B of the paper prices deterministic test generation as the cost
//! that explodes with gate count; this driver attacks it on two axes at
//! once. *Parallelism*: the surviving fault queue is solved in fixed
//! 64-fault batches whose slots are strided across scoped worker
//! threads, each running PODEM against one shared read-only solver.
//! *Work avoidance*: after every batch the freshly generated cubes are
//! merged, zero-filled, and fault-simulated on the driver's [`Ppsfp`]
//! engine over the not-yet-attempted tail of the queue, so faults the
//! new tests already cover are dropped before any worker wastes a search
//! on them. The engine's thread count is also the worker count.
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
//! final [`DetPhase`] and the phase's effort totals are byte-identical
//! for any worker count.

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

/// How one queued fault was disposed of by [`DetDriver::run`].
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

/// The result of the threaded deterministic phase. Its effort totals
/// live on the caller's span ([`DetDriver::run`]).
#[derive(Clone, Debug)]
pub struct DetPhase {
    /// Per-queued-fault disposition, aligned with the input queue.
    pub verdicts: Vec<DetVerdict>,
    /// Concrete test rows, in batch order: each batch's cubes merged
    /// ([`merge_cubes`]) and zero-filled. These exact rows back the
    /// [`DetVerdict::Collateral`] credits, so they must reach the final
    /// pattern set (a greedy reverse-order drop keeps every detection).
    pub rows: Vec<Vec<bool>>,
}

/// Search effort summed over one worker's solves, with the untestable
/// verdicts each prover reached; the phase's totals are the sums over
/// its workers.
#[derive(Clone, Default)]
struct Effort {
    solved: u64,
    backtracks: u64,
    forward_evals: u64,
    implication_conflicts: u64,
    gate_evals: u64,
    cdcl_calls: u64,
    cdcl_conflicts: u64,
    proved_static: u64,
    proved_search: u64,
    proved_cdcl: u64,
}

impl Effort {
    fn add(&mut self, outcome: &GenOutcome, stats: &SolveStats) {
        if let GenOutcome::Untestable = outcome {
            *match stats.prover {
                Prover::Static => &mut self.proved_static,
                Prover::Search => &mut self.proved_search,
                Prover::Cdcl => &mut self.proved_cdcl,
            } += 1;
        }
        self.solved += 1;
        self.backtracks += u64::from(stats.backtracks);
        self.forward_evals += stats.forward_evals;
        self.implication_conflicts += u64::from(stats.implication_conflicts);
        self.gate_evals += stats.gate_evals;
        self.cdcl_calls += u64::from(stats.cdcl_calls);
        self.cdcl_conflicts += stats.cdcl_conflicts;
    }
}

/// Compiled, shareable state for the threaded deterministic phase: the
/// PODEM solver (with its implication store), the inter-batch [`Ppsfp`]
/// dropper, and the worker count. Build once with [`DetDriver::new`],
/// then [`DetDriver::run`] any number of queues — the split lets callers
/// (and the bench) separate the one-time compile cost from the phase
/// itself.
pub struct DetDriver<'n> {
    netlist: &'n Netlist,
    solver: Podem<'n>,
    classes: CollapsedUniverse<'n>,
    dropper: Option<&'n Ppsfp<'n>>,
    workers: usize,
}

impl<'n> DetDriver<'n> {
    /// Compiles the driver for `engine`'s netlist per `config` (see
    /// [`DetDriver::new_observed`] for the collector-fed variant).
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(engine: &'n Ppsfp<'n>, config: &AtpgConfig) -> Result<Self, LevelizeError> {
        DetDriver::new_observed(engine, config, None)
    }

    /// [`DetDriver::new`] with the solver build feeding `obs` (the
    /// `implic.learn` span nests under the caller's current span).
    ///
    /// The driver borrows `engine` as its inter-batch dropper when
    /// [`AtpgConfig::collateral_dropping`] is on, and runs
    /// [`Ppsfp::threads`] PODEM workers, at most one per batch slot. It
    /// does not read [`AtpgConfig::threads`]: the engine was compiled
    /// with it.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new_observed(
        engine: &'n Ppsfp<'n>,
        config: &AtpgConfig,
        obs: Option<&mut dyn Collector>,
    ) -> Result<Self, LevelizeError> {
        let mut obs = Obs::new(obs);
        let netlist = engine.netlist();
        // Shared read-only solver state: PODEM compiles once, including
        // its implication store.
        let podem_cfg = PodemConfig::new().with_backtrack_limit(config.backtrack_limit);
        let solver = Podem::new_observed(netlist, podem_cfg, obs.as_option())?;
        Ok(DetDriver {
            netlist,
            solver,
            classes: CollapsedUniverse::new(netlist),
            // The inter-batch sets are at most one 64-pattern block (one
            // batch of merged cubes), so the engine's block-count width
            // rule keeps the narrow 64-lane path here — wide blocks would
            // only pad empty tail words. The wide paths engage where the
            // ATPG flow has real pattern volume: the random phase's
            // 256-pattern chunks and compaction's 256-pattern reverse
            // windows.
            dropper: config.collateral_dropping.then_some(engine),
            workers: engine.threads().clamp(1, BATCH),
        })
    }

    /// Runs the deterministic phase over `queue` (indices into
    /// `faults`), dropping collaterally detected faults between batches
    /// when the driver was built with collateral dropping on.
    ///
    /// Emits one `atpg.worker` span per worker (counters `solved`,
    /// `backtracks`, `forward_evals`, `implication_conflicts`; gauge
    /// `index`) and an `atpg.drop` span (counters `batches`,
    /// `drop_sims`, `dropped`, `rows`) under the caller's current span,
    /// then flushes the phase totals onto that span: `attempts`,
    /// `reused`, `backtracks`, `forward_evals`, `implication_conflicts`,
    /// `gate_evals`, `tests`, `untestable`, `proved_static`,
    /// `proved_search`, `proved_cdcl`, `cdcl_calls`, `cdcl_conflicts`,
    /// `aborted` and `collateral_drops`. `attempts` counts solver runs
    /// and `reused` the faults settled `Untestable` without one, because
    /// an earlier member of their equivalence class was proven
    /// untestable. So `attempts + reused + collateral_drops` is the
    /// queue's length, and `reused` plus the three `proved_*` counts (one
    /// per [`Prover`]) is `untestable`.
    ///
    /// The output and every total are identical for every worker count;
    /// see the module docs for the argument.
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
        let n_pi = self.netlist.primary_inputs().len();
        let mut phase = DetPhase {
            verdicts: vec![DetVerdict::Aborted; queue.len()],
            rows: Vec::new(),
        };
        let mut efforts = vec![Effort::default(); self.workers];
        let (mut reused, mut batches, mut drop_sims) = (0u64, 0u64, 0u64);
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
            let mut results: Vec<Option<GenOutcome>> = vec![None; batch.len()];
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
                let solved = self.solve_slots(faults, queue, &batch, &round, &mut efforts);
                for (slot, outcome) in round.into_iter().zip(solved) {
                    if let (GenOutcome::Untestable, Some(c)) = (&outcome, class[batch[slot]]) {
                        untestable_class[c] = true;
                    }
                    results[slot] = Some(outcome);
                }
            }
            // Deterministic reduction: slot order, regardless of which
            // worker finished when.
            let mut batch_cubes: Vec<TestCube> = Vec::new();
            for (slot, result) in results.into_iter().enumerate() {
                phase.verdicts[batch[slot]] = match result {
                    None => {
                        reused += 1;
                        DetVerdict::Untestable
                    }
                    Some(GenOutcome::Test(cube)) => {
                        batch_cubes.push(cube);
                        DetVerdict::Test
                    }
                    Some(GenOutcome::Untestable) => DetVerdict::Untestable,
                    Some(GenOutcome::Aborted) => DetVerdict::Aborted,
                };
            }
            batches += 1;
            let merged = merge_cubes(&batch_cubes);
            let batch_rows: Vec<Vec<bool>> = merged.iter().map(|c| c.filled(false)).collect();
            if let Some(engine) = self.dropper {
                if !batch_rows.is_empty() && !pending.is_empty() {
                    let set = PatternSet::from_rows(n_pi, &batch_rows);
                    let tail: Vec<Fault> = pending.iter().map(|&qp| faults[queue[qp]]).collect();
                    let r = engine.run(&set, &tail);
                    drop_sims += 1;
                    let mut j = 0;
                    pending.retain(|&qp| {
                        let detected = r.first_detected[j].is_some();
                        j += 1;
                        if detected {
                            phase.verdicts[qp] = DetVerdict::Collateral;
                        }
                        !detected
                    });
                }
            }
            phase.rows.extend(batch_rows);
        }

        let mut obs = Obs::new(obs);
        for (w, e) in efforts.iter().enumerate() {
            obs.enter("atpg.worker");
            obs.gauge("index", w as f64);
            obs.count("solved", e.solved);
            obs.count("backtracks", e.backtracks);
            obs.count("forward_evals", e.forward_evals);
            obs.count("implication_conflicts", e.implication_conflicts);
            obs.exit();
        }
        let verdicts = |v: DetVerdict| phase.verdicts.iter().filter(|&&x| x == v).count() as u64;
        obs.enter("atpg.drop");
        obs.count("batches", batches);
        obs.count("drop_sims", drop_sims);
        obs.count("dropped", verdicts(DetVerdict::Collateral));
        obs.count("rows", phase.rows.len() as u64);
        obs.exit();
        let total = |field: fn(&Effort) -> u64| efforts.iter().map(field).sum();
        obs.count("attempts", total(|e| e.solved));
        obs.count("reused", reused);
        obs.count("backtracks", total(|e| e.backtracks));
        obs.count("forward_evals", total(|e| e.forward_evals));
        obs.count("implication_conflicts", total(|e| e.implication_conflicts));
        obs.count("gate_evals", total(|e| e.gate_evals));
        obs.count("tests", verdicts(DetVerdict::Test));
        obs.count("untestable", verdicts(DetVerdict::Untestable));
        obs.count("proved_static", total(|e| e.proved_static));
        obs.count("proved_search", total(|e| e.proved_search));
        obs.count("proved_cdcl", total(|e| e.proved_cdcl));
        obs.count("cdcl_calls", total(|e| e.cdcl_calls));
        obs.count("cdcl_conflicts", total(|e| e.cdcl_conflicts));
        obs.count("aborted", verdicts(DetVerdict::Aborted));
        obs.count("collateral_drops", verdicts(DetVerdict::Collateral));
        phase
    }

    /// Settles the batch slots listed in `slots`: the `k`-th listed slot
    /// goes to worker `k % workers`, every worker walks its strided
    /// share in order, and the outcomes come back in `slots` order, each
    /// solve's effort added to its worker's. With one worker the slots
    /// are solved inline (no spawn).
    fn solve_slots(
        &self,
        faults: &[Fault],
        queue: &[usize],
        batch: &[usize],
        slots: &[usize],
        efforts: &mut [Effort],
    ) -> Vec<GenOutcome> {
        let solve = |k: usize| self.solver.settle(faults[queue[batch[slots[k]]]]);
        let active = self.workers.min(slots.len());
        let mut results: Vec<Option<GenOutcome>> = vec![None; slots.len()];
        if active <= 1 {
            for (k, out) in results.iter_mut().enumerate() {
                let (outcome, stats) = solve(k);
                efforts[0].add(&outcome, &stats);
                *out = Some(outcome);
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
                    efforts[w].add(&outcome, &stats);
                    results[k] = Some(outcome);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot solved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{simulate, universe, PpsfpOptions};
    use dft_netlist::circuits::{c17, random_combinational};
    use dft_obs::{Recorder, RunReport};

    /// The phase over the whole universe on an engine of `threads`
    /// workers, with the totals it flushed.
    fn run(n: &Netlist, threads: usize, config: &AtpgConfig) -> (DetPhase, RunReport) {
        let faults = universe(n);
        let queue: Vec<usize> = (0..faults.len()).collect();
        let engine = Ppsfp::with_options(n, PpsfpOptions::new().with_threads(threads)).unwrap();
        let driver = DetDriver::new(&engine, config).unwrap();
        let mut rec = Recorder::new();
        let phase = driver.run(&faults, &queue, Some(&mut rec));
        (phase, rec.finish("phase"))
    }

    fn worker_spans(report: &RunReport) -> usize {
        let spans = report.root.children.iter();
        spans.filter(|c| c.name == "atpg.worker").count()
    }

    /// The engine sets the worker count: the config's `threads` stays 1.
    #[test]
    fn phase_is_identical_across_thread_counts() {
        let n = random_combinational(10, 60, 7);
        let config = AtpgConfig::new().with_threads(1);
        let (base, totals) = run(&n, 1, &config);
        assert!(totals.root.counter("gate_evals") > 0);
        assert_eq!(worker_spans(&totals), 1);
        for t in [2, 3, 8] {
            let (other, other_totals) = run(&n, t, &config);
            assert_eq!(worker_spans(&other_totals), t, "workers at {t}");
            assert_eq!(base.verdicts, other.verdicts, "verdicts differ at {t}");
            assert_eq!(base.rows, other.rows, "rows differ at {t}");
            assert_eq!(totals.root.counters, other_totals.root.counters);
        }
    }

    #[test]
    fn collateral_credits_are_backed_by_the_rows() {
        // Multi-batch universe: later batches must see collateral drops.
        let n = random_combinational(10, 60, 7);
        let faults = universe(&n);
        assert!(faults.len() > super::BATCH, "need a multi-batch queue");
        let (phase, _) = run(&n, 2, &AtpgConfig::new());
        assert!(
            phase.verdicts.contains(&DetVerdict::Collateral),
            "batches must drop collaterally"
        );
        let set = PatternSet::from_rows(n.primary_inputs().len(), &phase.rows);
        let r = simulate(&n, &set, &faults).unwrap();
        for (qp, v) in phase.verdicts.iter().enumerate() {
            if matches!(v, DetVerdict::Test | DetVerdict::Collateral) {
                assert!(
                    r.first_detected[qp].is_some(),
                    "verdict {v:?} for fault {qp} not backed by the rows"
                );
            }
        }
    }

    #[test]
    fn dropping_off_attempts_every_fault() {
        let n = c17();
        let cfg = AtpgConfig::new().with_collateral_dropping(false);
        let (phase, totals) = run(&n, 0, &cfg);
        assert!(!phase.verdicts.contains(&DetVerdict::Collateral));
        assert_eq!(totals.root.counter("collateral_drops"), 0);
        assert_eq!(
            totals.root.counter("attempts") as usize,
            phase.verdicts.len()
        );
    }
}
