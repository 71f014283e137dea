//! # dft-scan
//!
//! Structured Design for Testability: the scan techniques of §IV of
//! Williams & Parker.
//!
//! "Most structured design practices are built upon the concept that if
//! the values in all the latches can be controlled to any specific value,
//! and if they can be observed with a very straightforward operation then
//! the test generation … can be reduced to that of doing test generation
//! … for a combinational logic network."
//!
//! * [`cells`] — behavioural models of the storage cells each style uses:
//!   the LSSD shift-register latch (Fig. 10), the Scan Path raceless
//!   D-type flip-flop (Fig. 13), the Random-Access Scan addressable
//!   latches (Figs. 16–17) and the Scan/Set shadow register (Fig. 15).
//! * [`insert_scan`] — threads a sequential netlist's storage into a scan
//!   chain (Fig. 11) and reports the style's gate/pin overhead (§IV-A's
//!   4–20 %, §IV-D's 3–4 gates per latch, …).
//! * [`extract_test_view`] — the payoff: a purely combinational test view
//!   whose pseudo-inputs/outputs stand for latch state, with a two-way
//!   fault mapping.
//! * [`ScanSchedule`] — shift/capture cycle accounting ("an apparent
//!   disadvantage is the serialization of the test").
//! * [`lint_scan_design`] — an LSSD-flavoured design-rule check,
//!   reported as `dft-lint` diagnostics of the four `scan-*` entries of
//!   the `dft-lint` rule table.
//!
//! ```
//! use dft_netlist::circuits::binary_counter;
//! use dft_scan::{insert_scan, ScanConfig, ScanStyle};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let counter = binary_counter(8);
//! let scan = insert_scan(&counter, &ScanConfig::new(ScanStyle::Lssd))?;
//! assert_eq!(scan.chain().len(), 8);
//! assert!(scan.overhead().extra_gates > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod card;
pub mod cells;
mod design;
mod extract;
mod monitor;
mod overhead;
mod rules;
mod schedule;

pub use card::{CardSubsystem, ScanCard};
pub use cells::{flush_test, ChainBreak};
pub use design::{insert_scan, ScanConfig, ScanDesign, ScanStyle};
pub use extract::{extract_test_view, TestView};
pub use monitor::{ScanSetMonitor, Snapshot};
pub use overhead::{overhead, overhead_for, OverheadReport};
pub use rules::{lint_scan_design, RuleConfig};
pub use schedule::{ScanSchedule, ScanTestProgram};
