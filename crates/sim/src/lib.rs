//! # dft-sim
//!
//! Logic-simulation engines for the *tessera* DFT toolkit.
//!
//! The paper's techniques all rest on the ability to predict a network's
//! good-machine response. This crate provides several engines, each tuned
//! to a different consumer:
//!
//! * [`CompiledSim`] / [`Kernel`] — 64 patterns per machine word, with
//!   the levelized netlist lowered to a flat structure-of-arrays op
//!   program ("compiled code Boolean simulation", §IV-A). Every 64-lane
//!   good-machine run goes through it: whole pattern sets, exhaustive
//!   enumeration, scan-program expectations, and the PPSFP fault
//!   simulator in `dft-fault`, whose shared execution core the kernel is.
//! * [`ThreeValueSim`] — 0/1/X simulation for initialization reasoning
//!   (the paper's "predictability" concern: a machine whose latches power
//!   up unknown).
//! * [`SequentialSim`] — cycle-accurate clocked simulation, used for scan
//!   shift schedules and board-level self-test sessions.
//! * [`EventSim`] — selective-trace event-driven simulation with activity
//!   accounting.
//! * [`exhaustive`] — all-2ⁿ-pattern enumeration (syndrome testing, Walsh
//!   coefficients and autonomous testing all demand exhaustive
//!   application; §V-B–V-D).
//!
//! ```
//! use dft_netlist::circuits::c17;
//! use dft_sim::{CompiledSim, PatternSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c17 = c17();
//! let sim = CompiledSim::new(&c17)?;
//! let patterns = PatternSet::all_inputs_low(5, 1); // one all-zero pattern
//! let resp = sim.run(&patterns);
//! // First-level NANDs all rise, so the second level falls.
//! assert!(!resp.output_bit(0, 0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod compiled;
mod event;
pub mod exhaustive;
pub mod justify;
mod kernel;
mod pattern;
mod sequential;
mod threeval;
mod value;
pub mod word;

pub use compiled::{CompiledSim, Response};
pub use event::EventSim;
pub use kernel::Kernel;
pub use pattern::PatternSet;
pub use sequential::SequentialSim;
pub use threeval::ThreeValueSim;
pub use value::Logic;
