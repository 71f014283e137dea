//! Structural constant propagation as a framework analysis.
//!
//! Three-valued forward evaluation with every primary input and every
//! storage output pinned at X: whatever comes out known is a value the
//! net holds under *every* input assignment. On [`Analysis`] the pass
//! gets the incremental path for free — the DFF transfer ignores its
//! input, so the value graph is acyclic even on sequential designs and
//! the worklist re-solve is always exact. For the same reason any
//! topological sweep order reaches the same values.

use dft_netlist::{GateId, GateKind};
use dft_sim::Logic;

use crate::solver::{Analysis, Direction, GraphView};

/// Forward three-valued constant propagation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Constants;

impl Analysis for Constants {
    type Value = Logic;

    fn name(&self) -> &'static str {
        "constants"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn initial(&self) -> Self::Value {
        Logic::X
    }

    fn transfer(&self, view: &GraphView<'_>, id: GateId, values: &[Self::Value]) -> Self::Value {
        let gate = view.netlist.gate(id);
        match gate.kind() {
            GateKind::Input | GateKind::Dff => Logic::X,
            GateKind::Const0 => Logic::Zero,
            GateKind::Const1 => Logic::One,
            kind => {
                let ins: Vec<Logic> = gate.inputs().iter().map(|&s| values[s.index()]).collect();
                Logic::eval_gate(kind, &ins)
            }
        }
    }
}
