//! Autonomous testing (§V-D; McCluskey & Bozorgui-Nesbat \[118\]).
//!
//! "Autonomous Testing … requires all possible patterns be applied to the
//! network inputs \[and\] the outputs … checked for each pattern against
//! the value for the good machine" — so it detects faults *irrespective
//! of the fault model*. Reconfigurable LFSR modules (Figs. 26–29)
//! generate the patterns and sign the responses; partitioning keeps the
//! 2ⁿ cost feasible:
//!
//! * multiplexer partitioning (Figs. 30–32) — [`MuxPartition`];
//! * sensitized partitioning (Figs. 33–34) — demonstrated on the SN74181
//!   by [`sensitized_partition_74181`].

use dft_fault::{simulate, universe, Fault};
use dft_lfsr::{Misr, Polynomial};
use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};
use dft_sim::{exhaustive, PatternSet};

/// The reconfigurable LFSR module of Figs. 26–29: one register that the
/// N/S control lines switch between normal operation, exhaustive input
/// generation and signature accumulation — autonomous testing's entire
/// tester, built from the circuit's own storage.
#[derive(Clone, Debug)]
pub struct ReconfigurableLfsr {
    misr: Misr,
    mode: LfsrModuleMode,
}

/// Mode selected by the N and S lines (Figs. 27–29).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LfsrModuleMode {
    /// N = 1: normal register operation.
    Normal,
    /// N = 0, S = 1: signature analyzer (MISR).
    SignatureAnalyzer,
    /// N = 0, S = 0: input generator (maximal-length pattern source).
    InputGenerator,
}

impl ReconfigurableLfsr {
    /// A `width`-stage module (2..=32), in normal mode, state 0.
    ///
    /// Returns `None` if no primitive polynomial of that degree exists in
    /// the table.
    #[must_use]
    pub fn new(width: u32) -> Option<Self> {
        Some(ReconfigurableLfsr {
            misr: Misr::new(Polynomial::primitive(width)?),
            mode: LfsrModuleMode::Normal,
        })
    }

    /// Applies the N/S control lines.
    pub fn set_mode(&mut self, n: bool, s: bool) {
        self.mode = match (n, s) {
            (true, _) => LfsrModuleMode::Normal,
            (false, true) => LfsrModuleMode::SignatureAnalyzer,
            (false, false) => LfsrModuleMode::InputGenerator,
        };
    }

    /// The current mode.
    #[must_use]
    pub fn mode(&self) -> LfsrModuleMode {
        self.mode
    }

    /// Register state (the pattern in generator mode; the signature in
    /// analyzer mode).
    #[must_use]
    pub fn state(&self) -> u64 {
        self.misr.signature()
    }

    /// One clock with parallel data `word`: normal mode loads it,
    /// analyzer mode absorbs it, generator mode ignores it and steps the
    /// maximal-length sequence.
    pub fn clock(&mut self, word: u64) {
        match self.mode {
            LfsrModuleMode::Normal => {
                self.misr.reset();
                self.misr.clock_word(word); // reset + absorb == load
            }
            LfsrModuleMode::SignatureAnalyzer => self.misr.clock_word(word),
            LfsrModuleMode::InputGenerator => self.misr.clock_word(0),
        }
    }
}

/// Runs the exhaustive autonomous self-test of a (small-input)
/// combinational network, returning the MISR signature the checker
/// compares against the good machine's stored value. A 16-stage register
/// is used (the register the paper's signature-analysis discussion
/// recommends); wider output buses fold in (output *o* → stage
/// *o mod 16*).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the input count exceeds
/// [`exhaustive::MAX_EXHAUSTIVE_INPUTS`].
pub fn autonomous_signature(netlist: &Netlist) -> Result<u64, LevelizeError> {
    let outs: Vec<GateId> = netlist.primary_outputs().iter().map(|&(g, _)| g).collect();
    let mut misr = Misr::new(Polynomial::primitive(16).expect("table entry"));
    let n = netlist.primary_inputs().len();
    let lanes = exhaustive::lanes(n);
    exhaustive::for_each_block(netlist, |_, vals| {
        for lane in 0..lanes {
            let mut word = 0u64;
            for (o, &g) in outs.iter().enumerate() {
                if vals[g.index()] >> lane & 1 == 1 {
                    word ^= 1 << (o % 16);
                }
            }
            misr.clock_word(word);
        }
    })?;
    Ok(misr.signature())
}

/// Multiplexer partitioning: inserts test-mode multiplexers on a set of
/// cut nets so each side of the cut can be exercised exhaustively from
/// outside (Figs. 30–32).
///
/// In test mode (`sel` = 1) every cut net is driven by a fresh primary
/// input `cut<i>` and also observed at a fresh primary output
/// `cut_obs<i>`; in functional mode (`sel` = 0) the original driver
/// passes through. Each cut costs 3 gates (the 2-way multiplexer) plus
/// one observation tap.
#[derive(Clone, Debug)]
pub struct MuxPartition {
    netlist: Netlist,
    sel: GateId,
    cut_inputs: Vec<GateId>,
    original_gate_count: usize,
}

impl MuxPartition {
    /// Builds the partitioned netlist by cutting `cut_nets`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the source netlist has combinational
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if a cut net id is foreign to `netlist`.
    pub fn new(netlist: &Netlist, cut_nets: &[GateId]) -> Result<Self, LevelizeError> {
        netlist.levelize()?;
        let mut out = netlist.clone();
        out.set_name(format!("{}_muxpart", netlist.name()));
        let original_gate_count = netlist.gate_count();
        let fanout = netlist.topology().readers();
        let sel = out.add_input("test_sel");
        let sel_n = out.add_gate(GateKind::Not, &[sel]).expect("valid");
        let mut cut_inputs = Vec::with_capacity(cut_nets.len());
        for (k, &net) in cut_nets.iter().enumerate() {
            assert!(net.index() < original_gate_count, "cut net out of range");
            let test_in = out.add_input(format!("cut{k}"));
            cut_inputs.push(test_in);
            // mux = (¬sel ∧ net) ∨ (sel ∧ test_in)
            let a = out.add_gate(GateKind::And, &[sel_n, net]).expect("valid");
            let b = out.add_gate(GateKind::And, &[sel, test_in]).expect("valid");
            let mux = out.add_gate(GateKind::Or, &[a, b]).expect("valid");
            // Re-route every original reader of `net` through the mux.
            for &(reader, pin) in &fanout[net.index()] {
                out.reconnect_input(reader, pin as usize, mux)
                    .expect("valid pin");
            }
            // Observation tap.
            out.mark_output(net, format!("cut_obs{k}"))
                .expect("fresh name");
        }
        Ok(MuxPartition {
            netlist: out,
            sel,
            cut_inputs,
            original_gate_count,
        })
    }

    /// The partitioned netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The test-mode select input.
    #[must_use]
    pub fn select(&self) -> GateId {
        self.sel
    }

    /// The per-cut test inputs.
    #[must_use]
    pub fn cut_inputs(&self) -> &[GateId] {
        &self.cut_inputs
    }

    /// Gate overhead of the partitioning hardware.
    #[must_use]
    pub fn overhead_gates(&self) -> usize {
        self.netlist.gate_count()
            - self.original_gate_count
            - 1 // test_sel input
            - self.cut_inputs.len() // cut inputs
    }
}

/// The outcome of the SN74181 sensitized-partitioning experiment
/// (Figs. 33–34).
#[derive(Clone, Debug, PartialEq)]
pub struct Sensitized74181Report {
    /// Patterns applied by the two sensitized phases.
    pub patterns_applied: usize,
    /// Patterns full exhaustive testing would need (2¹⁴).
    pub exhaustive_patterns: usize,
    /// Coverage of the N1-slice fault universe by the sensitized phases.
    pub n1_coverage: f64,
    /// Coverage of the whole-chip fault universe by the sensitized
    /// phases.
    pub total_coverage: f64,
    /// Whole-chip coverage achievable exhaustively (detects every
    /// non-redundant fault).
    pub exhaustive_total_coverage: f64,
}

/// Runs the paper's sensitized partitioning on the SN74181-style ALU:
/// phase L holds S2 = S3 = 0 and exhausts the remaining 12 inputs
/// (sensitizing the `x`/"Li" slice outputs, whose `y` companions are
/// forced to 1); phase H holds S0 = S1 = 1 (forcing `x` to 0 so
/// F_i = y_i). Far fewer than 2¹⁴ patterns result.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn sensitized_partition_74181() -> Result<Sensitized74181Report, LevelizeError> {
    let (alu, ports) = dft_netlist::circuits::sn74181();
    let faults = universe(&alu);
    let pi_pos = |g: GateId| {
        alu.primary_inputs()
            .iter()
            .position(|&p| p == g)
            .expect("port map points at primary inputs")
    };
    let s = [
        pi_pos(ports.s[0]),
        pi_pos(ports.s[1]),
        pi_pos(ports.s[2]),
        pi_pos(ports.s[3]),
    ];

    let n = alu.primary_inputs().len(); // 14
    let free: Vec<usize> = (0..n).collect();

    // Build a phase: exhaust all inputs except the held ones.
    let phase = |holds: &[(usize, bool)]| -> PatternSet {
        let vary: Vec<usize> = free
            .iter()
            .copied()
            .filter(|i| !holds.iter().any(|&(h, _)| h == *i))
            .collect();
        let mut rows = Vec::with_capacity(1 << vary.len());
        for v in 0..1usize << vary.len() {
            let mut row = vec![false; n];
            for (bit, &i) in vary.iter().enumerate() {
                row[i] = v >> bit & 1 == 1;
            }
            for &(i, val) in holds {
                row[i] = val;
            }
            rows.push(row);
        }
        PatternSet::from_rows(n, &rows)
    };

    let mut patterns = phase(&[(s[2], false), (s[3], false)]); // L phase
    patterns.extend_from(&phase(&[(s[0], true), (s[1], true)])); // H phase
    let sens = simulate(&alu, &patterns, &faults)?;

    // Exhaustive reference (2^14 = 16384 patterns).
    let ex = dft_atpg_free_exhaustive(&alu, &faults)?;

    // N1-slice fault subset: faults on gates in the x/y cones (the
    // per-bit input slices). Identify them as gates at levels feeding
    // x_i / y_i, i.e. the gates whose id is one of the slice internals:
    // use the port map: x_i, y_i and their AND feeders plus the B
    // inverters.
    let mut n1_gates: Vec<GateId> = Vec::new();
    for i in 0..4 {
        n1_gates.push(ports.x[i]);
        n1_gates.push(ports.y[i]);
        n1_gates.extend(alu.gate(ports.x[i]).inputs().iter().copied());
        n1_gates.extend(alu.gate(ports.y[i]).inputs().iter().copied());
    }
    let n1_fault_idx: Vec<usize> = faults
        .iter()
        .enumerate()
        .filter(|(_, f)| n1_gates.contains(&f.site.gate))
        .map(|(i, _)| i)
        .collect();

    let n1_detected = n1_fault_idx
        .iter()
        .filter(|&&i| sens.first_detected[i].is_some())
        .count();
    let n1_possible = n1_fault_idx
        .iter()
        .filter(|&&i| ex.first_detected[i].is_some())
        .count();

    Ok(Sensitized74181Report {
        patterns_applied: patterns.len(),
        exhaustive_patterns: 1 << n,
        n1_coverage: if n1_possible == 0 {
            1.0
        } else {
            n1_detected as f64 / n1_possible as f64
        },
        total_coverage: sens.coverage(),
        exhaustive_total_coverage: ex.coverage(),
    })
}

/// Exhaustive fault simulation without depending on `dft-atpg`.
fn dft_atpg_free_exhaustive(
    netlist: &Netlist,
    faults: &[Fault],
) -> Result<dft_fault::DetectionResult, LevelizeError> {
    let n = netlist.primary_inputs().len();
    let rows: Vec<Vec<bool>> = (0..1usize << n)
        .map(|v| (0..n).map(|i| v >> i & 1 == 1).collect())
        .collect();
    let p = PatternSet::from_rows(n, &rows);
    simulate(netlist, &p, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{c17, majority};

    #[test]
    fn autonomous_signature_distinguishes_faulty_machines() {
        // Build a "faulty machine" netlist: AND replaced by OR.
        let mut bad = Netlist::new("maj_bad");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let c = bad.add_input("c");
        let ab = bad.add_gate(GateKind::Or, &[a, b]).unwrap(); // was AND
        let ac = bad.add_gate(GateKind::And, &[a, c]).unwrap();
        let bc = bad.add_gate(GateKind::And, &[b, c]).unwrap();
        let m = bad.add_gate(GateKind::Or, &[ab, ac, bc]).unwrap();
        bad.mark_output(m, "maj").unwrap();
        // A second output so the MISR has ≥ 2 stages.
        bad.mark_output(ab, "t").unwrap();
        let mut good_netlist = majority();
        let tap = good_netlist
            .gate(good_netlist.find_output("maj").unwrap())
            .inputs()[0];
        good_netlist.mark_output(tap, "t").unwrap();
        let good2 = autonomous_signature(&good_netlist).unwrap();
        let bad_sig = autonomous_signature(&bad).unwrap();
        assert_ne!(good2, bad_sig);
    }

    #[test]
    fn reconfigurable_module_modes() {
        let mut m = ReconfigurableLfsr::new(8).unwrap();
        // Normal: loads parallel data.
        m.clock(0xA5);
        assert_eq!(m.state(), 0xA5);
        assert_eq!(m.mode(), LfsrModuleMode::Normal);
        // Generator: walks the maximal-length sequence (all 255 nonzero
        // states from any nonzero start).
        m.set_mode(false, false);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..255 {
            seen.insert(m.state());
            m.clock(0);
        }
        assert_eq!(seen.len(), 255);
        // Analyzer: different streams, different residues.
        let mut a = ReconfigurableLfsr::new(8).unwrap();
        a.set_mode(false, true);
        let mut b = ReconfigurableLfsr::new(8).unwrap();
        b.set_mode(false, true);
        for w in 0..40u64 {
            a.clock(w % 251);
            b.clock(if w == 17 { 99 } else { w % 251 });
        }
        assert_ne!(a.state(), b.state());
    }

    #[test]
    fn autonomous_signature_is_reproducible() {
        let n = c17();
        assert_eq!(
            autonomous_signature(&n).unwrap(),
            autonomous_signature(&n).unwrap()
        );
    }

    #[test]
    fn mux_partition_cuts_are_controllable_and_observable() {
        let n = c17();
        // Cut the two internal stem nets (the first-level NANDs).
        let lv = n.levelize().unwrap();
        let cuts: Vec<GateId> = n
            .ids()
            .filter(|&id| {
                !n.gate(id).kind().is_source()
                    && lv.level(id) == 1
                    && !n.primary_outputs().iter().any(|&(g, _)| g == id)
            })
            .collect();
        assert!(!cuts.is_empty());
        let part = MuxPartition::new(&n, &cuts).unwrap();
        let pn = part.netlist();
        assert!(pn.levelize().is_ok());
        // 3 gates per cut plus the select inverter.
        assert_eq!(part.overhead_gates(), 3 * cuts.len() + 1);
        // Functional mode (sel = 0) preserves behaviour.
        let sim_old = dft_sim::CompiledSim::new(&n).unwrap();
        let sim_new = dft_sim::CompiledSim::new(pn).unwrap();
        for v in 0..32u8 {
            let row5: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
            let r_old = sim_old.run(&PatternSet::from_rows(5, std::slice::from_ref(&row5)));
            let mut row_new = row5.clone();
            row_new.push(false); // sel = 0
            row_new.extend(std::iter::repeat_n(false, cuts.len()));
            let r_new = sim_new.run(&PatternSet::from_rows(5 + 1 + cuts.len(), &[row_new]));
            for o in 0..2 {
                assert_eq!(
                    r_old.output_bit(o, 0),
                    r_new.output_bit(o, 0),
                    "functional equivalence at {v:05b} output {o}"
                );
            }
        }
        // Test mode (sel = 1): the cut inputs drive downstream logic.
        let mut row = vec![false; 5];
        row.push(true); // sel
        row.extend(std::iter::repeat_n(true, cuts.len()));
        let r = sim_new.run(&PatternSet::from_rows(5 + 1 + cuts.len(), &[row]));
        // Outputs g22/g23 = NAND of driven-1 cuts … with all cut nets 1
        // and PIs 0: g16 = NAND(0, cut) = 1, g22 = NAND(cut1, g16)=NAND(1,1)=0.
        assert!(!r.output_bit(0, 0));
    }

    #[test]
    fn sensitized_74181_far_fewer_patterns_full_slice_coverage() {
        let report = sensitized_partition_74181().unwrap();
        assert_eq!(report.patterns_applied, 2 * 4096);
        assert_eq!(report.exhaustive_patterns, 16384);
        assert!(
            report.patterns_applied < report.exhaustive_patterns,
            "the whole point: fewer than 2^n patterns"
        );
        assert!(
            report.n1_coverage >= 0.999,
            "sensitized phases must cover the N1 slices (got {})",
            report.n1_coverage
        );
        assert!(report.total_coverage > 0.9);
        assert!(report.exhaustive_total_coverage >= report.total_coverage);
    }
}
