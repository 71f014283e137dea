//! # dft-atpg
//!
//! Automatic test-pattern generation for the *tessera* DFT toolkit.
//!
//! §I of Williams & Parker frames the VLSI testing problem as the twin
//! costs of *test generation* and *test verification*; §IV's structured
//! techniques exist to make the generators here applicable ("techniques
//! such as the D-Algorithm, compiled code Boolean simulation, and
//! adaptive random test generation are again viable"). This crate
//! implements those generators:
//!
//! * [`podem`] — PI-decision based deterministic ATPG (complete for
//!   combinational logic); the flow's deterministic engine.
//!   [`Podem::settle`] stops the search at a gate-evaluation budget and
//!   hands the fault to a from-scratch CDCL solver on its good/faulty
//!   miter, which can only prove it untestable; every test cube stays
//!   PODEM's.
//! * [`dalg`] — the D-Algorithm (Roth, the paper's reference \[93\]):
//!   internal-line decisions with a J-frontier. It is PODEM's
//!   independent reference, cross-checked against it by test; the flow
//!   does not run it.
//! * [`random_atpg`] / [`weighted_random_atpg`] — random-pattern
//!   generation with fault dropping (references \[87\], \[95\], \[98\]).
//! * [`exhaustive_atpg`] — all-2ⁿ application for small cones.
//! * [`merge_cubes`] / [`reverse_order_drop`] — static cube merging plus
//!   reverse-order pattern dropping.
//! * [`generate_tests`] — the production flow: random phase, then PODEM
//!   top-off, then compaction; returns patterns and per-fault status
//!   (used by the Eq. (1) scaling experiment). It compiles one
//!   [`dft_fault::Ppsfp`] engine at [`AtpgConfig::threads`] and runs
//!   every phase on it: the generators above, [`reverse_order_drop`]
//!   and [`DetDriver`] take a compiled engine.
//!   [`generate_tests_observed`] reports the flow's effort counters on
//!   `dft-obs` spans.
//!
//! ```
//! use dft_netlist::circuits::c17;
//! use dft_fault::universe;
//! use dft_atpg::{generate_tests, AtpgConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c17 = c17();
//! let faults = universe(&c17);
//! let run = generate_tests(&c17, &faults, &AtpgConfig::default())?;
//! assert_eq!(run.coverage(), 1.0);
//! assert!(run.patterns.len() <= 16, "c17 needs only a handful of tests");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod cdcl;
mod compact;
mod dalg;
mod engine;
pub mod parallel;
mod podem;
mod random;
mod timeframe;
mod v5;

pub use compact::{merge_cubes, reverse_order_drop};
pub use dalg::{dalg, DalgConfig};
pub use engine::{generate_tests, generate_tests_observed, AtpgConfig, AtpgRun, FaultStatus};
pub use parallel::{DetDriver, DetPhase, DetVerdict};
pub use podem::{podem, GenOutcome, Podem, PodemConfig, Prover, SolveStats, TestCube};
pub use random::{exhaustive_atpg, random_atpg, weighted_random_atpg, RandomAtpgOutcome};
pub use timeframe::{sequential_podem, Unrolled};
pub use v5::DVal;
