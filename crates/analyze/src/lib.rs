//! dft-analyze: an incremental monotone dataflow-analysis framework for
//! the tessera DFT toolkit.
//!
//! Testability analysis is static analysis: SCOAP controllability and
//! observability, structural constant propagation, X-taint tracking and
//! observability dominators are all monotone fixpoint computations over
//! the same gate-level graph. This crate factors that shape out once:
//!
//! * [`Analysis`] — a lattice value per net, a transfer function, a
//!   direction ([`solver`] has the full contract);
//! * [`solve`]/[`solve_capped`] — from-scratch Gauss–Seidel sweeps,
//!   bit-compatible with the legacy relaxation loops they replaced;
//! * [`resolve`] — a level-prioritized worklist that repairs a cached
//!   result from a dirty seed set after an edit;
//! * [`AnalysisCache`] — owns a netlist plus every cached result, applies
//!   [`NetlistDelta`] ECO edits (with cycle checking and incremental
//!   re-levelization), and re-runs each analysis only over the dirty
//!   cone. On acyclic value graphs the incremental results are
//!   bit-identical to from-scratch solves; randomized-edit proptests
//!   enforce exactly that.
//!
//! The concrete analyses live in [`scoap`], [`constants`], [`xprop`] and
//! [`dominators`]. [`ScoapResult`] is the toolkit's one SCOAP result
//! (`dft-testability` only re-exports it), and `dft-lint` runs the same
//! analyses from scratch over the netlist's memoized
//! [`dft_netlist::Topology`] ([`GraphView::of`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod constants;
pub mod delta;
pub mod dominators;
pub mod scoap;
pub mod solver;
pub mod xprop;

pub use cache::AnalysisCache;
pub use delta::{DeltaError, NetlistDelta};
pub use dominators::Dominators;
pub use scoap::{Measure, Observability, ScoapResult, INFINITE};
pub use solver::{order_by_level, resolve, solve, solve_capped, Analysis, Direction, GraphView};
pub use xprop::{XProp, XWitness};
