//! Scan test scheduling: translating combinational patterns into
//! shift/capture programs and accounting for their cost.
//!
//! "An apparent disadvantage is the serialization of the test,
//! potentially costing more time for actually running a test" (§IV-A) —
//! and the flip side BILBO exploits: "In LSSD, Scan Path, Scan/Set, or
//! Random-Access Scan, a considerable amount of test data volume is
//! involved with the shifting in and out" (§V-A). This module computes
//! both quantities.

use dft_sim::{Logic, PatternSet};

use crate::{ScanDesign, TestView};

/// The per-pattern structure of a scan test: shift in the state part,
/// apply the PI part, pulse the system clock, shift out the response
/// (overlapped with the next shift-in).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanSchedule {
    /// Number of test patterns.
    pub pattern_count: usize,
    /// Scan chain length (shift cycles per load/unload).
    pub chain_len: usize,
    /// Primary-input bits applied in parallel per pattern.
    pub pi_bits: usize,
    /// Primary-output bits observed in parallel per pattern.
    pub po_bits: usize,
}

impl ScanSchedule {
    /// Builds the schedule for running `patterns` view-patterns on
    /// `design`.
    #[must_use]
    pub fn new(design: &ScanDesign, patterns: usize) -> Self {
        let netlist = design.netlist();
        ScanSchedule {
            pattern_count: patterns,
            chain_len: design.access_cycles(),
            pi_bits: netlist.primary_inputs().len(),
            po_bits: netlist.primary_outputs().len(),
        }
    }

    /// Total tester clock cycles: each pattern costs a chain load plus
    /// one capture; the final unload adds one more chain traversal
    /// (loads and unloads overlap in between).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        if self.pattern_count == 0 {
            return 0;
        }
        (self.pattern_count as u64) * (self.chain_len as u64 + 1) + self.chain_len as u64
    }

    /// Total test-data volume in bits: serial scan-in/out streams plus
    /// the parallel PI stimulus and PO strobes per pattern. This is the
    /// quantity BILBO divides by ~100 (experiment E11).
    #[must_use]
    pub fn data_volume_bits(&self) -> u64 {
        let per_pattern = 2 * self.chain_len as u64 // scan in + scan out
            + self.pi_bits as u64
            + self.po_bits as u64;
        per_pattern * self.pattern_count as u64
    }
}

/// A fully-elaborated scan test program: per pattern, the state to shift
/// in and the PI values to apply, with the expected responses.
#[derive(Clone, Debug)]
pub struct ScanTestProgram {
    /// Per pattern: (scan-in state, PI row, expected PO row, expected
    /// captured state).
    pub steps: Vec<ProgramStep>,
    /// The schedule (cycle/data accounting).
    pub schedule: ScanSchedule,
}

/// One pattern of a [`ScanTestProgram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramStep {
    /// State to shift in (chain order).
    pub load_state: Vec<bool>,
    /// Primary-input values to apply.
    pub pi: Vec<bool>,
    /// Expected primary-output response (strobed before capture).
    pub expect_po: Vec<bool>,
    /// Expected state captured by the system clock (observed on the next
    /// shift-out).
    pub expect_capture: Vec<bool>,
}

impl ScanTestProgram {
    /// Translates combinational `view_patterns` (original PIs followed by
    /// pseudo-PIs, as produced by ATPG on [`TestView::netlist`]) into a
    /// scan program for `design`, computing expected responses with the
    /// good-machine simulator.
    ///
    /// # Errors
    ///
    /// Returns [`dft_netlist::LevelizeError`] on combinational cycles.
    ///
    /// # Panics
    ///
    /// Panics if pattern width disagrees with the view.
    pub fn assemble(
        design: &ScanDesign,
        view: &TestView,
        view_patterns: &PatternSet,
    ) -> Result<Self, dft_netlist::LevelizeError> {
        let vnet = view.netlist();
        assert_eq!(view_patterns.input_count(), vnet.primary_inputs().len());
        let sim = dft_sim::CompiledSim::new(vnet)?;
        let resp = sim.run(view_patterns);
        let n_pi = view.original_pi_count();
        let n_state = view.pseudo_ports().len();
        let n_po = vnet.primary_outputs().len() - n_state;

        let mut steps = Vec::with_capacity(view_patterns.len());
        for p in 0..view_patterns.len() {
            let row = view_patterns.get(p);
            let (pi, state) = row.split_at(n_pi);
            let outs = resp.output_row(p);
            let (po, capture) = outs.split_at(n_po);
            steps.push(ProgramStep {
                load_state: state.to_vec(),
                pi: pi.to_vec(),
                expect_po: po.to_vec(),
                expect_capture: capture.to_vec(),
            });
        }
        Ok(ScanTestProgram {
            schedule: ScanSchedule::new(design, view_patterns.len()),
            steps,
        })
    }

    /// Executes the program against the *functional* machine (frame by
    /// frame, loading state through the scan structure) and checks every
    /// expectation — the end-to-end validation that the combinational
    /// test view predicts real scan-mode behaviour. Returns the number of
    /// mismatches (0 for a good machine).
    ///
    /// # Errors
    ///
    /// Returns [`dft_netlist::LevelizeError`] on combinational cycles.
    pub fn run_good_machine(
        &self,
        design: &ScanDesign,
    ) -> Result<usize, dft_netlist::LevelizeError> {
        let netlist = design.netlist();
        let sim = dft_sim::ThreeValueSim::new(netlist)?;
        let mut mismatches = 0usize;
        let chain = design.chain();
        for step in &self.steps {
            // Shift in (modelled as a state load through the style's
            // access mechanism).
            let current = vec![Logic::X; chain.len()];
            let target: Vec<Logic> = step.load_state.iter().map(|&b| Logic::from(b)).collect();
            let state = design.load_state(&current, &target);
            // Apply PIs, strobe POs.
            let pis: Vec<Logic> = step.pi.iter().map(|&b| Logic::from(b)).collect();
            let vals = sim.eval(&pis, &state);
            for (o, &(g, _)) in netlist.primary_outputs().iter().enumerate() {
                if vals[g.index()].to_bool() != Some(step.expect_po[o]) {
                    mismatches += 1;
                }
            }
            // Capture and observe.
            let captured = sim.next_state(&vals);
            let observed = design.observe_state(&captured);
            for (k, &exp) in step.expect_capture.iter().enumerate() {
                if observed[k].to_bool() != Some(exp) {
                    mismatches += 1;
                }
            }
        }
        Ok(mismatches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_test_view, insert_scan, ScanConfig, ScanStyle};
    use dft_netlist::circuits::{binary_counter, random_sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_cycle_accounting() {
        let n = binary_counter(8);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        let s = ScanSchedule::new(&d, 100);
        // 100 × (8 + 1) + 8 = 908.
        assert_eq!(s.total_cycles(), 908);
        assert!(s.data_volume_bits() > 0);
        assert_eq!(ScanSchedule::new(&d, 0).total_cycles(), 0);
    }

    #[test]
    fn program_expectations_hold_on_good_machine() {
        let n = random_sequential(4, 6, 12, 3, 5);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        let view = extract_test_view(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let patterns = PatternSet::random(view.netlist().primary_inputs().len(), 40, &mut rng);
        let prog = ScanTestProgram::assemble(&d, &view, &patterns).unwrap();
        assert_eq!(prog.steps.len(), 40);
        let mismatches = prog.run_good_machine(&d).unwrap();
        assert_eq!(mismatches, 0, "view predictions must match the machine");
    }

    #[test]
    fn longer_chains_cost_more_cycles() {
        let small = binary_counter(4);
        let large = binary_counter(16);
        let ds = insert_scan(&small, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        let dl = insert_scan(&large, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        let cs = ScanSchedule::new(&ds, 50).total_cycles();
        let cl = ScanSchedule::new(&dl, 50).total_cycles();
        assert!(cl > cs);
    }
}
