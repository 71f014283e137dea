//! # dft-netlist
//!
//! Gate-level netlist model and benchmark-circuit library for the *tessera*
//! Design-for-Testability toolkit — the substrate every other crate in this
//! workspace builds on.
//!
//! The model follows the abstractions of Williams & Parker, *Design for
//! Testability — A Survey* (1982): networks of bounded-fan-in logic gates
//! plus D-type storage elements, with named primary inputs and outputs.
//! Nets are identified with the gate that drives them (single-driver
//! discipline), so a [`GateId`] doubles as a net identifier.
//!
//! ## Quick start
//!
//! ```
//! use dft_netlist::{Netlist, GateKind};
//!
//! # fn main() -> Result<(), dft_netlist::NetlistError> {
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate(GateKind::And, &[a, b])?;
//! n.mark_output(g, "y")?;
//! assert_eq!(n.gate_count(), 3);
//! assert_eq!(n.primary_inputs().len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Contents
//!
//! * [`Netlist`] — arena-based circuit graph with validation and
//!   structural statistics. Storage is struct-of-arrays with an
//!   interned name arena ([`Netlist::memory_footprint`] reports the
//!   bytes/gate), sized for 10⁵–10⁶-gate industrial netlists.
//! * [`Topology`] — one netlist revision's structure: the
//!   [`Levelization`] (or its [`LevelizeError`]), every gate's
//!   [`Readers`] list and the primary-output mask. [`Netlist::topology`]
//!   builds it on first use and keeps it until the next structural edit,
//!   so every analysis, simulator and generator borrows one copy.
//! * [`cones`] — fan-in closures, exclusive fan-in regions and
//!   reconvergent fanout stems over a [`Topology`].
//! * [`bench_format`] — a `.bench`-style (ISCAS-85 flavoured) text
//!   parser/writer so circuits can be stored and exchanged.
//! * [`blif`] — a Berkeley Logic Interchange Format parser/writer
//!   (`.model`/`.inputs`/`.outputs`/`.names` cover tables, `.latch`),
//!   the distribution format of the ISCAS/MCNC benchmark suites.
//! * [`circuits`] — the benchmark library: ISCAS c17, adders, multipliers,
//!   parity trees, comparators, decoders, a structural SN74181-style ALU
//!   (used by the paper's autonomous-testing experiment), PLAs, and seeded
//!   random combinational/sequential circuit generators.

#![forbid(unsafe_code)]

pub mod bench_format;
pub mod blif;
pub mod circuits;
pub mod cones;
mod error;
mod gate;
mod id;
mod level;
#[allow(clippy::module_inception)]
mod netlist;
mod topology;

pub use error::{NetlistError, ParseBenchError, ParseBlifError};
pub use gate::{Gate, GateKind};
pub use id::{GateId, Pin, PortRef};
pub use level::{Levelization, LevelizeError};
pub use netlist::{ArenaDiff, MemoryFootprint, Netlist, NetlistStats};
pub use topology::{Readers, Topology};
