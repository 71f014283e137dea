//! # dft-testability
//!
//! Analytic controllability/observability measures for the *tessera* DFT
//! toolkit — the "programs … which essentially give analytic measures of
//! controllability and observability for different nets in a given
//! sequential network" of the paper's §II (references \[69\]-\[73\]; the
//! algorithm follows Goldstein's SCOAP \[70\]).
//!
//! The measures are computed by `dft-analyze`'s SCOAP pass; this crate
//! re-exports its entry point as [`analyze`] and its one result type,
//! [`ScoapResult`]. After running [`analyze`], a designer (or the
//! planner in `dft-core`) can rank nets by how hard they are to control
//! or observe and decide where to apply the techniques the paper
//! surveys: test points at unobservable nets, scan for deep state,
//! degating for wide modules.
//!
//! ```
//! use dft_netlist::circuits::ripple_carry_adder;
//! use dft_testability::analyze;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let adder = ripple_carry_adder(8);
//! let report = analyze(&adder)?;
//! // The deep carry chain is the hardest place to reach.
//! let worst = report.hardest_to_observe(1)[0];
//! assert!(report.co(worst) > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use dft_analyze::scoap::{compute as analyze, Measure, ScoapResult, INFINITE};
