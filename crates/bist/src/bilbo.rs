//! BILBO: Built-In Logic Block Observation (Koenemann/Mucha/Zwiehoff,
//! the paper's reference \[25\], §V-A).

use dft_fault::{Fault, FaultyView};
use dft_lfsr::{Misr, Polynomial, Prpg};
use dft_netlist::{LevelizeError, Netlist};
use dft_sim::PatternSet;

/// The four operating modes selected by the B₁B₂ control lines
/// (Fig. 19).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BilboMode {
    /// B₁B₂ = 11: ordinary parallel register (system operation).
    System,
    /// B₁B₂ = 00: serial shift register (scan path).
    Shift,
    /// B₁B₂ = 10: maximal-length MISR — signature analysis with multiple
    /// inputs; with held inputs, a pseudo-random pattern generator.
    Signature,
    /// B₁B₂ = 01: reset.
    Reset,
}

/// An n-bit BILBO register.
///
/// ```
/// use dft_bist::{BilboMode, BilboRegister};
///
/// let mut reg = BilboRegister::new(8).expect("degree available");
/// reg.seed(1); // a nonzero seed, as for any LFSR
/// reg.set_mode(BilboMode::Signature);
/// reg.clock(&[false; 8], false); // held inputs → PN generation
/// assert_ne!(reg.state(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BilboRegister {
    width: usize,
    poly: Polynomial,
    state: u64,
    mode: BilboMode,
}

impl BilboRegister {
    /// A reset BILBO register of `width` stages (2..=32), in system mode.
    ///
    /// Returns `None` if no primitive polynomial of that degree is
    /// available.
    #[must_use]
    pub fn new(width: usize) -> Option<Self> {
        let poly = Polynomial::primitive(width as u32)?;
        Some(BilboRegister {
            width,
            poly,
            state: 0,
            mode: BilboMode::System,
        })
    }

    /// Register width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> BilboMode {
        self.mode
    }

    /// Switches mode (the B₁B₂ lines).
    pub fn set_mode(&mut self, mode: BilboMode) {
        self.mode = mode;
        if mode == BilboMode::Reset {
            self.state = 0;
        }
    }

    /// Packed register state (bit *i* = stage Lᵢ₊₁ output Qᵢ₊₁).
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Seeds the register (e.g. before pattern generation).
    pub fn seed(&mut self, state: u64) {
        self.state = state & self.poly.state_mask();
    }

    /// One clock: behaviour depends on the mode. `z` are the parallel
    /// data inputs Z₁..Zₙ, `scan_in` the serial input S_IN.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the width.
    pub fn clock(&mut self, z: &[bool], scan_in: bool) {
        assert_eq!(z.len(), self.width, "input width mismatch");
        match self.mode {
            BilboMode::System => {
                self.state = pack(z);
            }
            BilboMode::Shift => {
                self.state = ((self.state << 1) | u64::from(scan_in)) & self.poly.state_mask();
            }
            BilboMode::Signature => {
                let fb = (self.state & self.poly.feedback_mask()).count_ones() & 1;
                let shifted = ((self.state << 1) | u64::from(fb)) & self.poly.state_mask();
                self.state = shifted ^ pack(z);
            }
            BilboMode::Reset => {
                self.state = 0;
            }
        }
    }

    /// Serially unloads the register (shift mode), returning `width`
    /// bits, stage Qₙ first.
    pub fn scan_out(&mut self) -> Vec<bool> {
        let prev = self.mode;
        self.mode = BilboMode::Shift;
        let mut out = Vec::with_capacity(self.width);
        for _ in 0..self.width {
            out.push(self.state >> (self.width - 1) & 1 == 1);
            self.clock(&vec![false; self.width], false);
        }
        self.mode = prev;
        out
    }

    /// The register outputs as a pattern row (Q₁..Qₙ).
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        (0..self.width).map(|i| self.state >> i & 1 == 1).collect()
    }
}

fn pack(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

/// The Fig. 20/21 structure: two BILBO registers around two combinational
/// networks, tested ping-pong.
///
/// `cln1`'s inputs are driven by register 1 and observed by register 2;
/// `cln2` closes the loop back to register 1. During phase 1, register 1
/// generates PN patterns and register 2 signs CLN1's responses; phase 2
/// reverses the roles.
#[derive(Debug)]
pub struct SelfTestSession<'n> {
    cln1: &'n Netlist,
    cln2: &'n Netlist,
}

/// The outcome of a self-test phase.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTestReport {
    /// Final MISR signature of the good machine.
    pub good_signature: u64,
    /// Patterns applied.
    pub patterns: u64,
    /// Fraction of faults whose session signature differs from the good
    /// one (exact detection including any aliasing).
    pub signature_coverage: f64,
    /// Fraction of faults that produced at least one erroneous network
    /// output during the session (detection before compression — the
    /// difference to `signature_coverage` is aliasing loss).
    pub response_coverage: f64,
    /// Test-data volume in bits a stored-pattern scan test of the same
    /// pattern count would need (shift in + out per pattern).
    pub scan_data_volume_bits: u64,
    /// Test-data volume BILBO needs (seed + final signature + mode
    /// control).
    pub bilbo_data_volume_bits: u64,
}

impl SelfTestReport {
    /// The paper's data-volume claim: "if 100 patterns are run between
    /// scan-outs, the test data volume may be reduced by a factor of
    /// 100".
    #[must_use]
    pub fn data_volume_reduction(&self) -> f64 {
        if self.bilbo_data_volume_bits == 0 {
            0.0
        } else {
            self.scan_data_volume_bits as f64 / self.bilbo_data_volume_bits as f64
        }
    }
}

impl<'n> SelfTestSession<'n> {
    /// Creates the session. Network input widths must be within the
    /// BILBO-register range (2..=32 stages); wider output buses fold
    /// into the MISR (output *o* feeds stage *o mod width*).
    ///
    /// # Panics
    ///
    /// Panics if either network's input width is outside 2..=32 or a
    /// network has fewer than 2 outputs.
    #[must_use]
    pub fn new(cln1: &'n Netlist, cln2: &'n Netlist) -> Self {
        for n in [cln1, cln2] {
            assert!(
                (2..=32).contains(&n.primary_inputs().len()),
                "network inputs must fit a BILBO register"
            );
            assert!(
                n.primary_outputs().len() >= 2,
                "network needs at least 2 outputs"
            );
        }
        SelfTestSession { cln1, cln2 }
    }

    /// Runs one phase against `cln1` (Fig. 20): register 1 as PN
    /// generator (seeded with `seed`), register 2 as MISR, for `patterns`
    /// clocks. Fault coverage is measured against `faults` (sites in
    /// `cln1`) by running each faulty machine through the same session.
    ///
    /// Every machine sees the same PRPG sequence, so it is packed once,
    /// 64 consecutive patterns per evaluated block; the MISR is then
    /// clocked lane by lane in pattern order, exactly as the hardware
    /// would see the responses.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn run_phase(
        &self,
        patterns: u64,
        seed: u64,
        faults: &[Fault],
    ) -> Result<SelfTestReport, LevelizeError> {
        let n_in = self.cln1.primary_inputs().len();
        let n_out = self.cln1.primary_outputs().len();
        let misr_width = n_out.min(32) as u32;
        let view = FaultyView::new(self.cln1)?;
        let outputs: Vec<_> = self
            .cln1
            .primary_outputs()
            .iter()
            .map(|&(g, _)| g)
            .collect();

        let mut prpg = Prpg::new(n_in, seed).expect("width validated");
        let applied = PatternSet::from_rows(n_in, &prpg.patterns(patterns as usize));
        let lane_mask = |b: usize| u64::MAX >> (64 - applied.lanes_in_block(b));
        // Packed output words of one machine, `[block][output]`.
        let responses = |fault: Option<Fault>| -> Vec<Vec<u64>> {
            (0..applied.block_count())
                .map(|b| {
                    let vals = view.eval_block(applied.block(b), &[], fault);
                    outputs.iter().map(|g| vals[g.index()]).collect()
                })
                .collect()
        };
        let signature = |words: &[Vec<u64>]| -> u64 {
            let mut misr = Misr::new(Polynomial::primitive(misr_width).expect("width validated"));
            for (b, block) in words.iter().enumerate() {
                for lane in 0..applied.lanes_in_block(b) {
                    // Fold wide output buses into the MISR stages.
                    let mut word = 0u64;
                    for (o, &w) in block.iter().enumerate() {
                        if w >> lane & 1 == 1 {
                            word ^= 1 << (o as u32 % misr_width);
                        }
                    }
                    misr.clock_word(word);
                }
            }
            misr.signature()
        };

        let good = responses(None);
        let good_signature = signature(&good);
        let mut sig_detected = 0usize;
        let mut resp_detected = 0usize;
        for &f in faults {
            let faulty = responses(Some(f));
            if signature(&faulty) != good_signature {
                sig_detected += 1;
            }
            let any_diff =
                faulty.iter().zip(&good).enumerate().any(|(b, (fw, gw))| {
                    fw.iter().zip(gw).any(|(x, y)| (x ^ y) & lane_mask(b) != 0)
                });
            if any_diff {
                resp_detected += 1;
            }
        }
        let denom = faults.len().max(1) as f64;

        // Data volume accounting.
        let scan_bits = patterns * (2 * (n_in as u64 + n_out as u64));
        let bilbo_bits = (n_in as u64) + (n_out as u64) + 2 /* B1B2 */;

        Ok(SelfTestReport {
            good_signature,
            patterns,
            signature_coverage: if faults.is_empty() {
                1.0
            } else {
                sig_detected as f64 / denom
            },
            response_coverage: if faults.is_empty() {
                1.0
            } else {
                resp_detected as f64 / denom
            },
            scan_data_volume_bits: scan_bits,
            bilbo_data_volume_bits: bilbo_bits,
        })
    }

    /// Runs the reversed phase (Fig. 21) against `cln2`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn run_reverse_phase(
        &self,
        patterns: u64,
        seed: u64,
        faults: &[Fault],
    ) -> Result<SelfTestReport, LevelizeError> {
        SelfTestSession {
            cln1: self.cln2,
            cln2: self.cln1,
        }
        .run_phase(patterns, seed, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe;
    use dft_netlist::circuits::{random_combinational, random_pattern_resistant_pla};

    #[test]
    fn bilbo_modes() {
        let mut reg = BilboRegister::new(4).unwrap();
        // System mode: parallel load.
        reg.clock(&[true, false, true, false], false);
        assert_eq!(reg.state(), 0b0101);
        // Shift mode: serial path.
        reg.set_mode(BilboMode::Shift);
        reg.clock(&[false; 4], true);
        assert_eq!(reg.state(), 0b1011);
        // Reset.
        reg.set_mode(BilboMode::Reset);
        assert_eq!(reg.state(), 0);
        // Signature mode with held inputs = PN generation.
        reg.seed(1);
        reg.set_mode(BilboMode::Signature);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..15 {
            seen.insert(reg.state());
            reg.clock(&[false; 4], false);
        }
        assert_eq!(seen.len(), 15, "maximal-length PN sequence");
    }

    #[test]
    fn bilbo_signature_mode_compresses_responses() {
        let mut a = BilboRegister::new(8).unwrap();
        let mut b = BilboRegister::new(8).unwrap();
        a.set_mode(BilboMode::Signature);
        b.set_mode(BilboMode::Signature);
        for i in 0..50u64 {
            let w: Vec<bool> = (0..8).map(|k| (i * 13 + k) % 5 == 0).collect();
            a.clock(&w, false);
            let w2: Vec<bool> = (0..8)
                .map(|k| {
                    if i == 20 && k == 3 {
                        (i * 13 + k) % 5 != 0
                    } else {
                        (i * 13 + k) % 5 == 0
                    }
                })
                .collect();
            b.clock(&w2, false);
        }
        assert_ne!(
            a.state(),
            b.state(),
            "one corrupted response changes the signature"
        );
    }

    #[test]
    fn scan_out_unloads_state() {
        let mut reg = BilboRegister::new(4).unwrap();
        reg.clock(&[true, true, false, true], false);
        let bits = reg.scan_out();
        // Q4 first: state 0b1011 -> [true, false, true, true].
        assert_eq!(bits, vec![true, false, true, true]);
    }

    #[test]
    fn random_logic_self_test_has_high_coverage() {
        let cln1 = random_combinational(10, 80, 21);
        let cln2 = random_combinational(10, 80, 22);
        // Widths: PRPG drives cln inputs; MISR absorbs outputs. The
        // generated circuits expose ≥ 8 outputs; wire widths must match,
        // so only require the assertion inside new() to pass.
        let session = SelfTestSession::new(&cln1, &cln2);
        let faults = universe(&cln1);
        let report = session.run_phase(512, 1, &faults).unwrap();
        assert!(
            report.response_coverage > 0.85,
            "random patterns should cover fan-in-4 logic (got {})",
            report.response_coverage
        );
        // Aliasing loss is bounded.
        assert!(report.signature_coverage >= report.response_coverage - 0.05);
        assert!(report.data_volume_reduction() > 100.0);
    }

    #[test]
    fn pla_resists_bilbo_self_test() {
        let pla = random_pattern_resistant_pla(20, 6, 18, 4, 9).synthesize("pla");
        let trivially_easy = random_combinational(20, 40, 5);
        let session = SelfTestSession::new(&pla, &trivially_easy);
        let faults = universe(&pla);
        let report = session.run_phase(512, 3, &faults).unwrap();
        assert!(
            report.response_coverage < 0.8,
            "wide AND terms must defeat PN patterns (got {})",
            report.response_coverage
        );
    }

    /// Signatures and detection counts recorded with one pattern per
    /// evaluation: packing 64 patterns per block must not change what
    /// the MISR sees (one pattern, a ragged second block, four blocks).
    #[test]
    fn packed_phase_reproduces_pattern_at_a_time_results() {
        let cln1 = random_combinational(10, 80, 21);
        let cln2 = random_combinational(10, 80, 22);
        let session = SelfTestSession::new(&cln1, &cln2);
        let faults = universe(&cln1);
        assert_eq!(faults.len(), 644);
        let count = |coverage: f64| (coverage * 644.0).round() as usize;
        for (patterns, signature, detected) in [
            (1u64, 141_326, 213),
            (100, 1_703_521, 523),
            (200, 752_073, 528),
        ] {
            let r = session.run_phase(patterns, 5, &faults).unwrap();
            assert_eq!(r.good_signature, signature, "{patterns} patterns");
            assert_eq!(count(r.signature_coverage), detected);
            assert_eq!(count(r.response_coverage), detected);
        }
    }

    #[test]
    fn reverse_phase_swaps_roles() {
        let cln1 = random_combinational(8, 40, 31);
        let cln2 = random_combinational(8, 40, 32);
        let session = SelfTestSession::new(&cln1, &cln2);
        let f2 = universe(&cln2);
        let rev = session.run_reverse_phase(256, 7, &f2).unwrap();
        assert!(rev.response_coverage > 0.5);
    }
}
