//! Seeded random combinational circuit generation.
//!
//! Stands in for the paper's proprietary production designs: the scaling
//! (E2), collapsing (E3) and coverage experiments sweep over random logic
//! whose *shape* — gate count, bounded fan-in, reconvergence — matches the
//! "random combinational logic networks with maximum fan-in of 4" the
//! paper says respond well to random patterns (§V-A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{GateId, GateKind, Netlist};

/// Builder for random combinational circuits.
///
/// ```
/// use dft_netlist::circuits::RandomCircuit;
///
/// let n = RandomCircuit::new(8, 100)
///     .max_fanin(4)
///     .outputs(4)
///     .seed(42)
///     .build();
/// assert_eq!(n.primary_inputs().len(), 8);
/// // at least the requested outputs; dangling signals are also exposed
/// assert!(n.primary_outputs().len() >= 4);
/// assert_eq!(n.logic_gate_count(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct RandomCircuit {
    inputs: usize,
    gates: usize,
    max_fanin: usize,
    outputs: usize,
    seed: u64,
    locality: usize,
}

impl RandomCircuit {
    /// Starts a builder for a circuit with `inputs` primary inputs and
    /// `gates` logic gates.
    ///
    /// Defaults: fan-in ≤ 4, 8 outputs (or fewer if the circuit is tiny),
    /// seed 0, locality window 64.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0` or `gates == 0`.
    #[must_use]
    pub fn new(inputs: usize, gates: usize) -> Self {
        assert!(inputs > 0, "need at least one input");
        assert!(gates > 0, "need at least one gate");
        RandomCircuit {
            inputs,
            gates,
            max_fanin: 4,
            outputs: 8,
            seed: 0,
            locality: 64,
        }
    }

    /// Sets the maximum gate fan-in (≥ 2).
    #[must_use]
    pub fn max_fanin(mut self, max_fanin: usize) -> Self {
        assert!(max_fanin >= 2, "max fan-in must be at least 2");
        self.max_fanin = max_fanin;
        self
    }

    /// Sets how many primary outputs to expose.
    #[must_use]
    pub fn outputs(mut self, outputs: usize) -> Self {
        assert!(outputs > 0, "need at least one output");
        self.outputs = outputs;
        self
    }

    /// Sets the RNG seed (generation is fully deterministic in the seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the locality window: each gate draws its inputs from the most
    /// recent `window` signals, which controls depth and reconvergence.
    #[must_use]
    pub fn locality(mut self, window: usize) -> Self {
        assert!(window >= 2, "locality window must be at least 2");
        self.locality = window;
        self
    }

    /// Builds the netlist.
    #[must_use]
    pub fn build(&self) -> Netlist {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut n = Netlist::new(format!(
            "rand_i{}_g{}_f{}_s{}",
            self.inputs, self.gates, self.max_fanin, self.seed
        ));
        let mut signals: Vec<GateId> = (0..self.inputs)
            .map(|i| n.add_input(format!("x{i}")))
            .collect();
        // `used` tracks signals that have at least one reader, so we can
        // expose the dangling ones as outputs.
        let mut fanout_count = vec![0usize; self.inputs];

        const KINDS: [GateKind; 8] = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];

        for _ in 0..self.gates {
            // Inverters/buffers are rarer than 2+-input gates.
            let kind = if rng.gen_bool(0.1) {
                if rng.gen_bool(0.8) {
                    GateKind::Not
                } else {
                    GateKind::Buf
                }
            } else {
                KINDS[rng.gen_range(0..6)]
            };
            let (min, _) = kind.fanin_range();
            let fanin = if min <= 1 {
                1
            } else {
                rng.gen_range(2..=self.max_fanin.max(2))
            };
            let window_start = signals.len().saturating_sub(self.locality);
            let mut ins = Vec::with_capacity(fanin);
            for _ in 0..fanin {
                let pick = rng.gen_range(window_start..signals.len());
                ins.push(signals[pick]);
                fanout_count[pick] += 1;
            }
            let g = n.add_gate(kind, &ins).expect("arity chosen to fit kind");
            signals.push(g);
            fanout_count.push(0);
        }

        // Outputs: prefer signals nobody reads (so no logic dangles), then
        // fill with the most recent signals.
        let mut out_ids: Vec<GateId> = signals
            .iter()
            .copied()
            .zip(fanout_count.iter().copied())
            .filter(|&(id, fo)| fo == 0 && !n.gate(id).kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut tail = signals.len();
        while out_ids.len() < self.outputs && tail > 0 {
            tail -= 1;
            let cand = signals[tail];
            if !out_ids.contains(&cand) {
                out_ids.push(cand);
            }
        }
        for (i, id) in out_ids.into_iter().enumerate() {
            n.mark_output(id, format!("y{i}")).expect("fresh name");
        }
        n
    }
}

/// Convenience wrapper: random combinational circuit with default knobs.
///
/// Equivalent to `RandomCircuit::new(inputs, gates).seed(seed).build()`.
#[must_use]
pub fn random_combinational(inputs: usize, gates: usize, seed: u64) -> Netlist {
    RandomCircuit::new(inputs, gates).seed(seed).build()
}

/// Builder for industrial-scale layered random circuits.
///
/// Where [`RandomCircuit`] wires each gate into a sliding window of
/// recent signals (good reconvergence statistics, but depth grows with
/// gate count), `LayeredCircuit` stamps out fixed-width layers whose
/// gates read only the previous layer. Depth is `gates / width`, every
/// signal is guaranteed at least one reader (round-robin first pins),
/// and — crucially for the 10⁵–10⁶-gate ingest benchmarks — no
/// per-gate name strings are materialized: only primary inputs and
/// outputs are named, so the interned-name arena stays a few kilobytes
/// while the gate tables grow to millions of rows.
///
/// ```
/// use dft_netlist::circuits::LayeredCircuit;
///
/// let n = LayeredCircuit::new(64, 10_000).seed(7).build();
/// assert_eq!(n.logic_gate_count(), 10_000);
/// assert!(n.levelize().is_ok());
/// // Unnamed interior: the name arena holds only the I/O names.
/// assert!(n.memory_footprint().name_bytes < 1024);
/// ```
#[derive(Clone, Debug)]
pub struct LayeredCircuit {
    inputs: usize,
    gates: usize,
    width: usize,
    max_fanin: usize,
    seed: u64,
}

impl LayeredCircuit {
    /// Starts a builder for a layered circuit with `inputs` primary
    /// inputs and `gates` logic gates.
    ///
    /// Defaults: layer width 256 (clamped up to `inputs`), fan-in ≤ 4,
    /// seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0` or `gates == 0`.
    #[must_use]
    pub fn new(inputs: usize, gates: usize) -> Self {
        assert!(inputs > 0, "need at least one input");
        assert!(gates > 0, "need at least one gate");
        LayeredCircuit {
            inputs,
            gates,
            width: 256.max(inputs),
            max_fanin: 4,
            seed: 0,
        }
    }

    /// Sets the layer width (circuit depth is roughly `gates / width`).
    #[must_use]
    pub fn width(mut self, width: usize) -> Self {
        assert!(width > 0, "layer width must be positive");
        self.width = width;
        self
    }

    /// Sets the maximum gate fan-in (≥ 2).
    #[must_use]
    pub fn max_fanin(mut self, max_fanin: usize) -> Self {
        assert!(max_fanin >= 2, "max fan-in must be at least 2");
        self.max_fanin = max_fanin;
        self
    }

    /// Sets the RNG seed (generation is fully deterministic in the seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the netlist.
    #[must_use]
    pub fn build(&self) -> Netlist {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut n = Netlist::new(format!(
            "layered_i{}_g{}_w{}_s{}",
            self.inputs, self.gates, self.width, self.seed
        ));
        // Mostly controlled gates, with a thin parity seam. Controlled
        // gates mask fault differences at controlling inputs, which is
        // what keeps event-driven fault simulation tractable at depth;
        // an all-parity fabric would propagate every excited fault
        // through the full downstream cone. But a pure AND/OR fabric
        // drives signal probabilities to the rails after a few layers
        // and nothing stays excitable, so one XOR per eight gates
        // re-randomizes line values the way real datapath logic does.
        const KINDS: [GateKind; 8] = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::And,
            GateKind::Nor,
            GateKind::Nand,
            GateKind::Xor,
        ];
        let mut prev: Vec<GateId> = (0..self.inputs)
            .map(|i| n.add_input(format!("x{i}")))
            .collect();
        let mut prev_read = vec![false; prev.len()];
        // Signals left unread when a layer closes (only possible on the
        // final, truncated layer) become extra outputs so no logic — and
        // no fault site — dangles.
        let mut stragglers: Vec<GateId> = Vec::new();
        let mut ins: Vec<GateId> = Vec::with_capacity(self.max_fanin);
        let mut remaining = self.gates;
        while remaining > 0 {
            let layer = self.width.min(remaining);
            let mut cur = Vec::with_capacity(layer);
            for j in 0..layer {
                let kind = if rng.gen_bool(0.08) {
                    GateKind::Not
                } else {
                    KINDS[rng.gen_range(0..KINDS.len())]
                };
                let fanin = if kind == GateKind::Not {
                    1
                } else {
                    rng.gen_range(2..=self.max_fanin.max(2))
                };
                ins.clear();
                // First pin round-robins over the previous layer so every
                // signal gets a reader; the rest are uniform draws.
                ins.push(prev[j % prev.len()]);
                prev_read[j % prev.len()] = true;
                for _ in 1..fanin {
                    let pick = rng.gen_range(0..prev.len());
                    ins.push(prev[pick]);
                    prev_read[pick] = true;
                }
                cur.push(n.add_gate(kind, &ins).expect("arity chosen to fit kind"));
            }
            stragglers.extend(
                prev.iter()
                    .zip(&prev_read)
                    .filter(|&(_, &read)| !read)
                    .map(|(&id, _)| id),
            );
            remaining -= layer;
            prev = cur;
            prev_read.clear();
            prev_read.resize(prev.len(), false);
        }
        for (i, id) in prev.iter().chain(&stragglers).enumerate() {
            n.mark_output(*id, format!("y{i}")).expect("fresh name");
        }
        n
    }
}

/// Convenience wrapper: layered random circuit with default knobs.
///
/// Equivalent to `LayeredCircuit::new(inputs, gates).seed(seed).build()`.
#[must_use]
pub fn layered_random(inputs: usize, gates: usize, seed: u64) -> Netlist {
    LayeredCircuit::new(inputs, gates).seed(seed).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_shape() {
        let n = RandomCircuit::new(10, 200).outputs(5).seed(1).build();
        assert_eq!(n.primary_inputs().len(), 10);
        assert_eq!(n.logic_gate_count(), 200);
        assert!(n.primary_outputs().len() >= 5);
        assert!(n.levelize().is_ok());
        assert!(n.is_combinational());
    }

    #[test]
    fn respects_max_fanin() {
        let n = RandomCircuit::new(6, 300).max_fanin(3).seed(2).build();
        for (_, g) in n.iter() {
            assert!(g.fanin() <= 3, "gate exceeds fan-in bound");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_combinational(8, 50, 9);
        let b = random_combinational(8, 50, 9);
        assert_eq!(a, b);
        let c = random_combinational(8, 50, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn layered_covers_every_signal_and_levelizes() {
        let n = LayeredCircuit::new(32, 2_000).width(64).seed(5).build();
        assert_eq!(n.logic_gate_count(), 2_000);
        assert!(n.is_combinational());
        let lev = n.levelize().unwrap();
        assert_eq!(lev.depth(), 2_000u32.div_ceil(64), "depth = ⌈gates/width⌉");
        // Every non-output signal has a reader (round-robin first pins +
        // straggler outputs).
        let fan = n.topology().readers();
        let outs: Vec<_> = n.primary_outputs().iter().map(|&(g, _)| g).collect();
        for (id, _) in n.iter() {
            assert!(
                !fan[id.index()].is_empty() || outs.contains(&id),
                "signal {id} dangles"
            );
        }
    }

    #[test]
    fn layered_is_deterministic_and_lean() {
        let a = layered_random(64, 5_000, 11);
        let b = layered_random(64, 5_000, 11);
        assert_eq!(a, b);
        // Interior gates carry no names: arena holds only x*/y* strings.
        assert!(a.memory_footprint().name_bytes < 4 * 1024);
        for (_, g) in a.iter() {
            if !g.kind().is_source() {
                assert_eq!(g.name(), None);
            }
        }
    }

    #[test]
    fn every_non_output_gate_has_a_reader() {
        let n = RandomCircuit::new(8, 100).seed(3).build();
        let fan = n.topology().readers();
        let outs: Vec<_> = n.primary_outputs().iter().map(|&(g, _)| g).collect();
        for (id, g) in n.iter() {
            if g.kind().is_source() {
                continue;
            }
            assert!(
                !fan[id.index()].is_empty() || outs.contains(&id),
                "gate {id} dangles"
            );
        }
    }
}
