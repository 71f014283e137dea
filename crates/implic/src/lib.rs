//! # dft-implic
//!
//! Static implication analysis for the *tessera* DFT toolkit: a binary-
//! implication graph over any [`dft_netlist::Netlist`], grown by
//! SOCRATES-style static learning, plus a FIRE-style identifier for
//! faults that are untestable *without any search at all*.
//!
//! The paper (§I-B) prices the whole testing problem in the size of the
//! stuck-at fault universe and in redundant logic that deterministic
//! ATPG burns exponential search on before conceding `Untestable`. Most
//! of that redundancy is provable statically:
//!
//! * **Direct implications** come straight from gate semantics in three-
//!   valued logic (an AND output at 1 forces every input to 1 — the same
//!   [`dft_sim::justify::forced_inputs`] tables the D-algorithm uses).
//! * **Indirect implications** are learned by *assign–propagate–
//!   contrapose*: tentatively assert net = v, propagate to a fixpoint,
//!   and for every consequence record the contrapositive. Whatever the
//!   direct rules could not see (typically across reconvergent fanout)
//!   becomes a learned edge, and learning iterates until no round adds
//!   an edge.
//! * **Unsettable literals** — assertions whose propagation hits a
//!   contradiction — prove stuck-at faults *unexcitable*; implied side
//!   values that block every path to an output prove faults
//!   *unobservable* ([`ImplicationEngine::fault_untestable`]; a whole
//!   fault list at once with [`ImplicationEngine::faults_untestable`]).
//!
//! The engine is the shared static-analysis substrate behind three
//! consumers:
//!
//! * `dft-atpg`: PODEM and the D-algorithm consult the learned store on
//!   every assignment for early conflict detection (fewer backtracks).
//! * `dft-fault`: `prefilter_untestable` drops statically-proven faults
//!   before fault-simulation campaigns.
//! * `dft-lint`: the `redundant-logic` and `constant-implied-net` rules
//!   anchor their diagnostics on implication witnesses.
//!
//! Static analysis is deliberately *incomplete*: every verdict it
//! returns is sound (cross-checked against search ATPG and exhaustive
//! simulation in tests), but search still finds redundancies the
//! implication closure cannot express. See `DESIGN.md` for the model and
//! its limits.
//!
//! ```
//! use dft_netlist::{GateKind, Netlist, Pin};
//! use dft_implic::ImplicationEngine;
//!
//! // z = AND(a, NOT a) is constant 0, invisibly to plain constant
//! // propagation — but not to implication analysis.
//! let mut n = Netlist::new("contradiction");
//! let a = n.add_input("a");
//! let na = n.add_gate(GateKind::Not, &[a]).unwrap();
//! let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
//! n.mark_output(z, "z").unwrap();
//!
//! let engine = ImplicationEngine::new(&n);
//! assert_eq!(engine.implied_constant(z), Some(false));
//! assert!(engine.fault_untestable(z, Pin::Output, false).is_some());
//! ```

#![forbid(unsafe_code)]

mod engine;
mod untestable;

pub use engine::{ImplicationEngine, Implications, LearnStats, Literal};
pub use untestable::{UntestableReason, VerdictRecord};

/// The telemetry crate whose [`Collector`](dft_obs::Collector)
/// [`ImplicationEngine::new_observed`] takes, re-exported so a dependent
/// can name the collector (and observe its own work) through this crate.
pub use dft_obs as obs;
