//! # dft-json
//!
//! The one hand-rolled JSON layer of the workspace. Every tessera crate
//! that emits JSON (`dft-lint` diagnostics, `dft-obs` run reports,
//! `dft-repair` plans, the `tessera-*` CLIs) used to carry its own
//! string-escaping and number-formatting helpers; they now share this
//! crate, and the `tessera-serve` request/response codec builds its
//! parser on the [`Value`] tree here. The workspace deliberately vendors
//! no serde — the schemas are small, stable, and versioned by hand — so
//! this crate is the single place escaping, float formatting and parsing
//! live.
//!
//! Three layers:
//!
//! * [`escape_into`] / [`escaped`] / [`write_f64`] — the primitive
//!   fragments the byte-stable emitters are built from (RFC 8259 string
//!   escaping, `null` for non-finite floats).
//! * [`JsonWriter`] — a streaming writer with compact and pretty styles
//!   for code that produces JSON without materializing a tree.
//! * [`Value`] + [`parse`] — a document tree and a recursive-descent
//!   parser (depth-capped, full `\uXXXX` handling including surrogate
//!   pairs) for code that consumes JSON.
//!
//! The serve codec sends a ~120 KB lint report through this crate on
//! every lint request, so the hot paths are lean. None of them changes
//! an emitted byte, an accepted document or an error and its offset:
//!
//! * [`parse`] slices a string's escape-free runs straight from the
//!   input `&str` (no per-run UTF-8 check), and reads a plain integer of
//!   up to 15 digits exactly without the `f64` parser.
//! * [`escape_into`] copies each escape-free run with one `push_str`.
//! * [`write_f64`] prints an integral value below 2^53 through the
//!   integer formatter (`-0.0` excepted).
//! * [`JsonWriter::value`] writes a [`Value`] tree straight into the
//!   writer's output, with no intermediate string.

#![forbid(unsafe_code)]

mod parser;
mod value;
mod writer;

pub use parser::{parse, JsonError, MAX_DEPTH};
pub use value::Value;
pub use writer::{escape_into, escaped, write_f64, JsonWriter, Style};
