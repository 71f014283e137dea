//! Compiled-code simulation.
//!
//! §IV-A of the paper lists "compiled code Boolean simulation" among the
//! techniques scan design makes viable again. A compiled simulator
//! flattens the levelized netlist into a straight-line program of
//! operations over a value array — no per-gate graph traversal, no
//! fan-in vector rebuilding — trading compile time for per-pattern
//! speed. The flattening itself lives in [`Kernel`]; this type pairs a
//! kernel with its netlist for whole-pattern-set runs. Cross-checked by
//! test against the per-gate three-valued walk of
//! [`ThreeValueSim`](crate::ThreeValueSim); the bench suite measures the
//! speedup over a levelized graph walk.

use dft_netlist::{GateId, LevelizeError, Netlist};
use dft_obs::{Collector, Obs};

use crate::{Kernel, PatternSet};

/// A netlist compiled to a linear op program (64 patterns per word).
///
/// ```
/// use dft_netlist::circuits::c17;
/// use dft_sim::{CompiledSim, PatternSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = c17();
/// let sim = CompiledSim::new(&c17)?;
/// let p = PatternSet::all_inputs_low(5, 1);
/// let r = sim.run(&p);
/// assert!(!r.output_bit(0, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledSim<'n> {
    netlist: &'n Netlist,
    kernel: Kernel,
}

impl<'n> CompiledSim<'n> {
    /// Compiles `netlist` into a straight-line program.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        Ok(CompiledSim {
            netlist,
            kernel: Kernel::new(netlist)?,
        })
    }

    /// Number of compiled instructions.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.kernel.op_count()
    }

    /// The underlying flat op program.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Runs all patterns with every storage element's present state
    /// held at 0.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run(&self, patterns: &PatternSet) -> Response {
        self.run_with(patterns, None)
    }

    /// [`CompiledSim::run`] feeding telemetry to an optional collector.
    ///
    /// Opens a `sim.compiled` span and flushes `patterns`, `blocks` and
    /// `ops_executed` (instruction count × 64-lane blocks — the
    /// straight-line program executes every op exactly once per block;
    /// on the wide path one wide dispatch covers several blocks but the
    /// counter stays in 64-lane-block units so runs are comparable
    /// across lane widths) after the run; nothing is counted inside the
    /// block loop.
    ///
    /// Workloads of at least eight 64-pattern blocks take the 512-lane
    /// cache-blocked path: blocks are grouped into `[u64; 8]` wide
    /// blocks and evaluated band-major (see [`Kernel::level_bands`]);
    /// the remainder falls back to the scalar per-block loop. The
    /// responses are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_with(&self, patterns: &PatternSet, obs: Option<&mut dyn Collector>) -> Response {
        assert_eq!(
            patterns.input_count(),
            self.netlist.primary_inputs().len(),
            "pattern width must match primary input count"
        );
        let mut obs = Obs::new(obs);
        obs.enter("sim.compiled");
        let mut values = Vec::with_capacity(patterns.block_count());
        self.run_wide_groups::<8>(patterns, &mut values);
        for b in values.len()..patterns.block_count() {
            values.push(self.eval_block(patterns.block(b)));
        }
        obs.count("patterns", patterns.len() as u64);
        obs.count("blocks", patterns.block_count() as u64);
        obs.count(
            "ops_executed",
            self.kernel.op_count() as u64 * patterns.block_count() as u64,
        );
        obs.exit();
        Response {
            pattern_count: patterns.len(),
            gate_count: self.netlist.gate_count(),
            outputs: self
                .netlist
                .primary_outputs()
                .iter()
                .map(|&(g, _)| g)
                .collect(),
            values,
        }
    }

    /// Evaluates one packed 64-lane block.
    #[must_use]
    pub fn eval_block(&self, pi_words: &[u64]) -> Vec<u64> {
        self.kernel.eval_block(pi_words)
    }

    /// Evaluates as many full groups of `W` consecutive 64-lane blocks
    /// as the pattern set holds, appending one value array per 64-lane
    /// block to `values` (deinterleaved from the wide results). Groups
    /// are swept band-major in batches so the band's slots stay hot
    /// across pattern blocks without holding the whole run resident.
    fn run_wide_groups<const W: usize>(&self, patterns: &PatternSet, values: &mut Vec<Vec<u64>>) {
        let full_groups = patterns.block_count() / W;
        if full_groups == 0 {
            return;
        }
        let bands = self.kernel.level_bands_for_width(W);
        // Batch size bounds resident memory at gate_count × W × 16 words.
        const GROUPS_PER_BATCH: usize = 16;
        for batch_start in (0..full_groups).step_by(GROUPS_PER_BATCH) {
            let batch_end = (batch_start + GROUPS_PER_BATCH).min(full_groups);
            let mut blocks: Vec<Vec<[u64; W]>> = (batch_start..batch_end)
                .map(|g| {
                    let mut vals = vec![[0u64; W]; self.kernel.slot_count()];
                    self.kernel.init_constants_wide(&mut vals);
                    for (i, &slot) in self.kernel.pi_slots().iter().enumerate() {
                        let mut wide = [0u64; W];
                        for (w, lane) in wide.iter_mut().enumerate() {
                            *lane = patterns.block(g * W + w)[i];
                        }
                        vals[slot as usize] = wide;
                    }
                    vals
                })
                .collect();
            self.kernel.eval_blocks_banded(&bands, &mut blocks);
            let gates = self.kernel.gate_count();
            for wide in &blocks {
                for w in 0..W {
                    values.push(wide[..gates].iter().map(|b| b[w]).collect());
                }
            }
        }
    }
}

/// The response of a [`CompiledSim`] run: per-gate packed values for
/// every 64-pattern block.
#[derive(Clone, Debug)]
pub struct Response {
    pattern_count: usize,
    gate_count: usize,
    outputs: Vec<GateId>,
    /// `values[block][gate]`
    values: Vec<Vec<u64>>,
}

impl Response {
    /// Number of patterns simulated.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Packed values of one gate in one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn word(&self, gate: GateId, block: usize) -> u64 {
        self.values[block][gate.index()]
    }

    /// The value of `gate` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn gate_bit(&self, gate: GateId, pattern: usize) -> bool {
        assert!(pattern < self.pattern_count, "pattern out of range");
        self.values[pattern / 64][gate.index()] >> (pattern % 64) & 1 == 1
    }

    /// The value of primary output `output` (by position) under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn output_bit(&self, output: usize, pattern: usize) -> bool {
        self.gate_bit(self.outputs[output], pattern)
    }

    /// Extracts the primary output row for one pattern.
    #[must_use]
    pub fn output_row(&self, pattern: usize) -> Vec<bool> {
        (0..self.outputs.len())
            .map(|o| self.output_bit(o, pattern))
            .collect()
    }

    /// Number of gates in the simulated netlist.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Logic, ThreeValueSim};
    use dft_netlist::circuits::{
        c17, full_adder, parity_tree, random_combinational, wallace_multiplier,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every output of every pattern agrees with the per-gate
    /// three-valued walk (all inputs known, so no X survives).
    fn agree(n: &Netlist, patterns: &PatternSet) {
        let reference = ThreeValueSim::new(n).unwrap();
        let r = CompiledSim::new(n).unwrap().run(patterns);
        for p in 0..patterns.len() {
            let row: Vec<Logic> = patterns.get(p).into_iter().map(Logic::from).collect();
            let vals = reference.eval(&row, &[]);
            let want: Vec<bool> = n
                .primary_outputs()
                .iter()
                .map(|&(g, _)| vals[g.index()].to_bool().expect("inputs are known"))
                .collect();
            assert_eq!(r.output_row(p), want, "pattern {p} on {}", n.name());
        }
    }

    #[test]
    fn matches_three_value_sim_on_c17() {
        let n = c17();
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        agree(&n, &PatternSet::from_rows(5, &rows));
    }

    #[test]
    fn matches_three_value_sim_on_random_logic() {
        for seed in 0..4 {
            let n = random_combinational(12, 200, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 99);
            let p = PatternSet::random(12, 100, &mut rng);
            agree(&n, &p);
        }
    }

    #[test]
    fn matches_on_multiplier_with_constants() {
        // The multiplier's final pass emits Const0 sums — exercises the
        // constant-initialization path.
        let n = wallace_multiplier(4);
        let mut rng = StdRng::seed_from_u64(3);
        let p = PatternSet::random(8, 64, &mut rng);
        agree(&n, &p);
    }

    #[test]
    fn wide_path_matches_three_value_sim() {
        // 9 blocks: one full 512-lane group plus a scalar remainder, so
        // both paths and the seam between them are exercised.
        let n = random_combinational(14, 250, 21);
        let mut rng = StdRng::seed_from_u64(17);
        let p = PatternSet::random(14, 9 * 64, &mut rng);
        agree(&n, &p);
        // Non-multiple-of-64 tail on top of the wide path.
        let p = PatternSet::random(14, 8 * 64 + 13, &mut rng);
        agree(&n, &p);
    }

    #[test]
    fn op_count_matches_non_source_gates() {
        let n = c17();
        let sim = CompiledSim::new(&n).unwrap();
        assert_eq!(sim.op_count(), 6);
    }

    #[test]
    fn full_adder_all_eight_rows() {
        let fa = full_adder();
        let sim = CompiledSim::new(&fa).unwrap();
        let mut rows = Vec::new();
        for bits in 0..8u8 {
            rows.push(vec![bits & 1 == 1, bits & 2 == 2, bits & 4 == 4]);
        }
        let p = PatternSet::from_rows(3, &rows);
        let r = sim.run(&p);
        for bits in 0..8usize {
            let ones = (bits & 1) + (bits >> 1 & 1) + (bits >> 2 & 1);
            assert_eq!(r.output_bit(0, bits), ones % 2 == 1, "sum {bits}");
            assert_eq!(r.output_bit(1, bits), ones >= 2, "cout {bits}");
        }
    }

    #[test]
    fn parity_tree_matches_popcount() {
        let n = parity_tree(8);
        let sim = CompiledSim::new(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let p = PatternSet::random(8, 200, &mut rng);
        let r = sim.run(&p);
        for i in 0..p.len() {
            let ones = p.get(i).iter().filter(|&&b| b).count();
            assert_eq!(r.output_bit(0, i), ones % 2 == 1);
        }
    }

    #[test]
    fn c17_all_32_patterns() {
        let n = c17();
        let sim = CompiledSim::new(&n).unwrap();
        let mut rows = Vec::new();
        for v in 0..32u8 {
            rows.push((0..5).map(|i| v >> i & 1 == 1).collect());
        }
        let p = PatternSet::from_rows(5, &rows);
        let r = sim.run(&p);
        // Reference: direct formula. c17 outputs:
        // g22 = NAND(NAND(x1,x3), NAND(x2, NAND(x3,x6)))
        // g23 = NAND(NAND(x2, NAND(x3,x6)), NAND(NAND(x3,x6), x7))
        for v in 0..32usize {
            let x = |i: usize| v >> i & 1 == 1;
            let n11 = !(x(2) && x(3));
            let n10 = !(x(0) && x(2));
            let n16 = !(x(1) && n11);
            let n19 = !(n11 && x(4));
            let g22 = !(n10 && n16);
            let g23 = !(n16 && n19);
            assert_eq!(r.output_bit(0, v), g22, "g22 at {v:05b}");
            assert_eq!(r.output_bit(1, v), g23, "g23 at {v:05b}");
        }
    }

    #[test]
    fn multi_block_runs() {
        let n = parity_tree(4);
        let sim = CompiledSim::new(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let p = PatternSet::random(4, 130, &mut rng); // 3 blocks
        let r = sim.run(&p);
        assert_eq!(r.pattern_count(), 130);
        for i in [0, 63, 64, 127, 128, 129] {
            let ones = p.get(i).iter().filter(|&&b| b).count();
            assert_eq!(r.output_bit(0, i), ones % 2 == 1, "pattern {i}");
        }
    }
}
