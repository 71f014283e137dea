//! SCOAP controllability/observability as framework analyses.
//!
//! Goldstein's SCOAP measures (the paper's §II, reference \[70\]) on
//! the [`Analysis`] trait: [`Controllability`] is the forward CC0/CC1
//! pass, [`Observability`] the backward CO pass (it borrows the finished
//! CC arrays, since side-input costs enter the pin formulas).
//! [`ScoapResult`] is the toolkit's one SCOAP result: per-net
//! [`Measure`] triples plus the rankings the test-point planner reads.
//! `dft-testability` re-exports [`compute`] as `analyze`, and its golden
//! c17 test pins the values.

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};

use crate::solver::{solve_capped, Analysis, Direction, GraphView};

/// Sentinel for "cannot be controlled/observed at all" (for example the
/// 1-controllability of a constant 0). Saturating arithmetic keeps sums
/// below it.
pub const INFINITE: u32 = u32::MAX / 4;

/// Saturating add, capped at [`INFINITE`].
#[inline]
#[must_use]
pub fn sat(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(INFINITE)
}

/// Sweep cap for the controllability relaxation (storage feedback).
pub(crate) const CC_SWEEP_CAP: u32 = 64;
/// Total sweep cap (controllability + observability), legacy-compatible.
pub(crate) const TOTAL_SWEEP_CAP: u32 = 160;

/// Forward SCOAP controllability: value is `(cc0, cc1)` per net.
#[derive(Clone, Copy, Debug, Default)]
pub struct Controllability;

impl Analysis for Controllability {
    type Value = (u32, u32);

    fn name(&self) -> &'static str {
        "scoap-cc"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn initial(&self) -> Self::Value {
        (INFINITE, INFINITE)
    }

    fn transfer(&self, view: &GraphView<'_>, id: GateId, cc: &[Self::Value]) -> Self::Value {
        let g = view.netlist.gate(id);
        let cc0 = |s: GateId| cc[s.index()].0;
        let cc1 = |s: GateId| cc[s.index()].1;
        match g.kind() {
            GateKind::Input => (1, 1),
            GateKind::Const0 => (0, INFINITE),
            GateKind::Const1 => (INFINITE, 0),
            GateKind::Buf => {
                let s = g.inputs()[0];
                (sat(cc0(s), 1), sat(cc1(s), 1))
            }
            GateKind::Not => {
                let s = g.inputs()[0];
                (sat(cc1(s), 1), sat(cc0(s), 1))
            }
            GateKind::Dff => {
                // One clock of "distance" on top of steering the input.
                let s = g.inputs()[0];
                (sat(cc0(s), 1), sat(cc1(s), 1))
            }
            GateKind::And | GateKind::Nand => {
                let all1 = g.inputs().iter().fold(0u32, |a, &s| sat(a, cc1(s)));
                let any0 = g.inputs().iter().map(|&s| cc0(s)).min().unwrap_or(INFINITE);
                let (z0, z1) = (sat(any0, 1), sat(all1, 1));
                if g.kind() == GateKind::And {
                    (z0, z1)
                } else {
                    (z1, z0)
                }
            }
            GateKind::Or | GateKind::Nor => {
                let all0 = g.inputs().iter().fold(0u32, |a, &s| sat(a, cc0(s)));
                let any1 = g.inputs().iter().map(|&s| cc1(s)).min().unwrap_or(INFINITE);
                let (z1, z0) = (sat(any1, 1), sat(all0, 1));
                if g.kind() == GateKind::Or {
                    (z0, z1)
                } else {
                    (z1, z0)
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // DP over parity: cheapest way to reach even/odd parity.
                let (mut even, mut odd) = (0u32, INFINITE);
                for &s in g.inputs() {
                    let (e, o) = (even, odd);
                    even = sat(e, cc0(s)).min(sat(o, cc1(s)));
                    odd = sat(e, cc1(s)).min(sat(o, cc0(s)));
                }
                let (z0, z1) = (sat(even, 1), sat(odd, 1));
                if g.kind() == GateKind::Xor {
                    (z0, z1)
                } else {
                    (z1, z0)
                }
            }
        }
    }
}

/// Backward SCOAP observability. The value is the CO cost of a net; the
/// boundary (a primary-output net) costs 0, unread non-output nets stay
/// [`INFINITE`]. Side-input controllability costs come from the
/// borrowed CC arrays, which must already be at their fixpoint.
#[derive(Clone, Copy, Debug)]
pub struct Observability<'a> {
    /// Finished `(cc0, cc1)` per net.
    pub cc: &'a [(u32, u32)],
}

impl Analysis for Observability<'_> {
    type Value = u32;

    fn name(&self) -> &'static str {
        "scoap-co"
    }

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn initial(&self) -> Self::Value {
        INFINITE
    }

    fn transfer(&self, view: &GraphView<'_>, id: GateId, co: &[Self::Value]) -> Self::Value {
        let mut best = if view.is_output[id.index()] {
            0
        } else {
            INFINITE
        };
        for &(reader, pin) in &view.readers[id.index()] {
            let g = view.netlist.gate(reader);
            let out_co = co[reader.index()];
            let pin = pin as usize;
            let cost = match g.kind() {
                GateKind::Buf | GateKind::Not | GateKind::Dff => sat(out_co, 1),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let noncontrolling = !g.kind().controlling_value().expect("AND/OR family");
                    let side: u32 = g
                        .inputs()
                        .iter()
                        .enumerate()
                        .filter(|&(q, _)| q != pin)
                        .fold(0u32, |a, (_, &s)| {
                            let c = if noncontrolling {
                                self.cc[s.index()].1
                            } else {
                                self.cc[s.index()].0
                            };
                            sat(a, c)
                        });
                    sat(sat(out_co, side), 1)
                }
                GateKind::Xor | GateKind::Xnor => {
                    let side: u32 = g
                        .inputs()
                        .iter()
                        .enumerate()
                        .filter(|&(q, _)| q != pin)
                        .fold(0u32, |a, (_, &s)| {
                            sat(a, self.cc[s.index()].0.min(self.cc[s.index()].1))
                        });
                    sat(sat(out_co, side), 1)
                }
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => continue,
            };
            best = best.min(cost);
        }
        best
    }
}

/// A testability measure triple for one net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Measure {
    /// Cost of driving the net to 0 (SCOAP CC0).
    pub cc0: u32,
    /// Cost of driving the net to 1 (SCOAP CC1).
    pub cc1: u32,
    /// Cost of observing the net at a primary output (SCOAP CO).
    pub co: u32,
}

impl Measure {
    /// Cost of controlling the net to `value`.
    #[must_use]
    pub fn control(&self, value: bool) -> u32 {
        if value {
            self.cc1
        } else {
            self.cc0
        }
    }

    /// Combined difficulty of *testing* at this net: the cheaper
    /// controllability plus the observability (a stuck-at fault needs the
    /// complement value driven and the effect observed).
    #[must_use]
    pub fn difficulty(&self) -> u32 {
        sat(self.cc0.min(self.cc1), self.co)
    }
}

/// The full SCOAP result over one netlist.
///
/// Nets are identified by their driving gate. Storage elements add one
/// unit of cost per crossing (a simplified sequential SCOAP: each clock
/// cycle needed to steer or observe state costs like a gate level), and
/// the relaxation iterates to a fixpoint so feedback loops are priced
/// correctly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScoapResult {
    /// `(cc0, cc1)` per net.
    pub cc: Vec<(u32, u32)>,
    /// Observability per net.
    pub co: Vec<u32>,
    /// Relaxation sweeps used to reach the fixpoint.
    pub iterations: u32,
}

impl ScoapResult {
    /// CC0 of a net.
    #[must_use]
    pub fn cc0(&self, net: GateId) -> u32 {
        self.cc[net.index()].0
    }

    /// CC1 of a net.
    #[must_use]
    pub fn cc1(&self, net: GateId) -> u32 {
        self.cc[net.index()].1
    }

    /// CO of a net.
    #[must_use]
    pub fn co(&self, net: GateId) -> u32 {
        self.co[net.index()]
    }

    /// The measure triple of a net.
    #[must_use]
    pub fn measure(&self, net: GateId) -> Measure {
        let (cc0, cc1) = self.cc[net.index()];
        Measure {
            cc0,
            cc1,
            co: self.co[net.index()],
        }
    }

    /// Combined test difficulty at a net ([`Measure::difficulty`]).
    #[must_use]
    pub fn difficulty(&self, net: GateId) -> u32 {
        self.measure(net).difficulty()
    }

    /// The `k` nets with the highest `key`, highest first (ties in
    /// arena order).
    fn hardest(&self, k: usize, key: impl Fn(Measure) -> u32) -> Vec<GateId> {
        let mut ids: Vec<GateId> = (0..self.co.len()).map(GateId::from_index).collect();
        ids.sort_by_key(|&id| std::cmp::Reverse(key(self.measure(id))));
        ids.truncate(k);
        ids
    }

    /// The `k` hardest-to-control nets (by the cheaper of CC0/CC1),
    /// hardest first.
    #[must_use]
    pub fn hardest_to_control(&self, k: usize) -> Vec<GateId> {
        self.hardest(k, |m| m.cc0.min(m.cc1))
    }

    /// The `k` hardest-to-observe nets, hardest first.
    #[must_use]
    pub fn hardest_to_observe(&self, k: usize) -> Vec<GateId> {
        self.hardest(k, |m| m.co)
    }

    /// The `k` hardest-to-test nets by [`Measure::difficulty`],
    /// hardest first — the candidates the test-point inserter targets.
    #[must_use]
    pub fn hardest_to_test(&self, k: usize) -> Vec<GateId> {
        self.hardest(k, |m| m.difficulty())
    }

    /// Sum of every net's difficulty — a single scalar to compare a
    /// design before and after a DFT transform (experiment E15).
    #[must_use]
    pub fn total_difficulty(&self) -> u64 {
        (0..self.co.len())
            .map(|i| u64::from(self.difficulty(GateId::from_index(i))))
            .sum()
    }
}

/// Computes SCOAP measures from scratch via the framework solver.
///
/// # Errors
///
/// Returns [`LevelizeError`] if the combinational frame has a cycle.
pub fn compute(netlist: &Netlist) -> Result<ScoapResult, LevelizeError> {
    let (view, order) = GraphView::of(netlist)?;
    Ok(compute_with(&view, order))
}

/// [`compute`] over a caller-maintained [`GraphView`] and topological
/// order (the cache path — no re-levelization).
#[must_use]
pub fn compute_with(view: &GraphView<'_>, order: &[GateId]) -> ScoapResult {
    let mut iterations = 0;
    let cc = solve_capped(&Controllability, view, order, &mut iterations, CC_SWEEP_CAP);
    let obs = Observability { cc: &cc };
    let co = solve_capped(&obs, view, order, &mut iterations, TOTAL_SWEEP_CAP);
    ScoapResult { cc, co, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{binary_counter, c17};

    #[test]
    fn framework_scoap_matches_known_values() {
        let n = c17();
        let r = compute(&n).unwrap();
        for &pi in n.primary_inputs() {
            assert_eq!(r.cc0(pi), 1);
            assert_eq!(r.cc1(pi), 1);
        }
        for &(g, _) in n.primary_outputs() {
            assert_eq!(r.co(g), 0);
        }
    }

    #[test]
    fn storage_feedback_converges_under_the_cap() {
        let n = binary_counter(6);
        let r = compute(&n).unwrap();
        assert!(r.iterations < 200);
        let q0 = n.find_output("q0").unwrap();
        assert_eq!(r.cc0(q0), INFINITE);
        assert_eq!(r.cc1(q0), INFINITE);
    }
}
