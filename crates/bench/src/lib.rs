//! # dft-bench
//!
//! The experiment harness: one binary per table/figure/quantitative
//! claim of Williams & Parker (see `DESIGN.md` §3 for the full index),
//! plus criterion benches for the timing-based experiments.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p dft-bench --bin exp_eq1_scaling
//! ```

#![forbid(unsafe_code)]

use std::fmt;

use dft_netlist::{bench_format, circuits, Netlist};

pub mod cli;

/// A named entry in the built-in circuit menu.
pub type CircuitEntry = (&'static str, fn() -> Netlist);

/// The built-in circuit menu (name → constructor) shared by the
/// `tessera-*` CLIs.
#[must_use]
pub fn circuit_menu() -> Vec<CircuitEntry> {
    vec![
        ("c17", circuits::c17 as fn() -> Netlist),
        ("full-adder", circuits::full_adder),
        ("majority", circuits::majority),
        ("parity8", || circuits::parity_tree(8)),
        ("ripple8", || circuits::ripple_carry_adder(8)),
        ("cla8", || circuits::carry_lookahead_adder(8)),
        ("comparator8", || circuits::comparator(8)),
        ("mux3", || circuits::mux_tree(3)),
        ("decoder4", || circuits::decoder(4)),
        ("wallace4", || circuits::wallace_multiplier(4)),
        ("barrel3", || circuits::barrel_shifter(3)),
        ("shift8", || circuits::shift_register(8)),
        ("counter8", || circuits::binary_counter(8)),
        ("johnson8", || circuits::johnson_counter(8)),
        ("sn74181", || circuits::sn74181().0),
        ("redundant-fixture", circuits::redundant_fixture),
    ]
}

/// Every name [`resolve_circuit`] accepts without a file: the built-in
/// menu, then the benchmark roster.
pub fn circuit_names() -> impl Iterator<Item = &'static str> {
    circuit_menu()
        .into_iter()
        .map(|(n, _)| n)
        .chain(SERVE_ROSTER.iter().map(|(n, ..)| *n))
}

/// A failed circuit lookup, with enough structure for a tool (or the
/// daemon's `/load` endpoint) to tell the caller what *would* have
/// worked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolveError {
    /// What the caller asked for.
    pub name: String,
    /// Why it failed (human-readable).
    pub message: String,
    /// The built-in names the resolver would have accepted. Empty when
    /// the name *was* recognized but loading it failed (file unreadable,
    /// parse error) — listing the menu there would misdiagnose.
    pub available: Vec<String>,
}

impl ResolveError {
    fn unknown(name: &str) -> Self {
        ResolveError {
            name: name.to_owned(),
            message: format!(
                "unknown circuit '{name}' (not a built-in, not a file; try --list-circuits)"
            ),
            available: circuit_names().map(str::to_owned).collect(),
        }
    }

    fn load_failed(name: &str, message: String) -> Self {
        ResolveError {
            name: name.to_owned(),
            message,
            available: Vec::new(),
        }
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ResolveError {}

impl From<ResolveError> for String {
    fn from(e: ResolveError) -> Self {
        e.message
    }
}

/// Resolves a target circuit the way every `tessera-*` tool and the
/// daemon's `/load` endpoint do: a built-in menu name first, then a
/// benchmark-roster name ([`SERVE_ROSTER`]), then a scaled-generator
/// spec, then a path to a `.bench` or `.blif` netlist file (chosen by
/// extension; anything that isn't `.blif` goes through the `.bench`
/// parser).
///
/// A roster name such as `rand_15x140` builds the benchmark's random
/// circuit with its fixed seed, named after the roster entry so
/// follow-up requests can address the design by the name they loaded it
/// under.
///
/// A scaled-generator spec has the shape `layered_<inputs>x<gates>`
/// with an optional `k`/`m` suffix on the gate count —
/// `layered_256x100k` is a 100 000-gate, 256-input layered random
/// circuit (fixed seed, so every tool sees the same netlist). This is
/// the ingest path for the 10⁵–10⁶-gate benchmarks: no netlist file is
/// materialized.
///
/// # Errors
///
/// [`ResolveError`] when `name` is none of the above or loading fails;
/// for an unrecognized name the error carries the menu and the roster
/// in `available`.
pub fn resolve_circuit(name: &str) -> Result<Netlist, ResolveError> {
    if let Some((_, build)) = circuit_menu().into_iter().find(|(n, _)| *n == name) {
        return Ok(build());
    }
    if let Some(&(_, inputs, gates, seed)) = SERVE_ROSTER.iter().find(|(n, ..)| *n == name) {
        let mut netlist = circuits::random_combinational(inputs, gates, seed);
        netlist.set_name(name);
        return Ok(netlist);
    }
    if let Some(netlist) = resolve_layered_spec(name) {
        return Ok(netlist);
    }
    if std::path::Path::new(name).is_file() {
        let path = std::path::Path::new(name);
        let text = std::fs::read_to_string(name)
            .map_err(|e| ResolveError::load_failed(name, format!("cannot read '{name}': {e}")))?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("netlist");
        let is_blif = path
            .extension()
            .and_then(|s| s.to_str())
            .is_some_and(|ext| ext.eq_ignore_ascii_case("blif"));
        return if is_blif {
            dft_netlist::blif::parse(&text, stem)
                .map_err(|e| ResolveError::load_failed(name, format!("{name}: {e}")))
        } else {
            bench_format::parse(&text, stem)
                .map_err(|e| ResolveError::load_failed(name, format!("{name}: {e}")))
        };
    }
    Err(ResolveError::unknown(name))
}

/// Parses a `layered_<inputs>x<gates>[k|m]` scaled-generator spec into
/// a deterministic (seed 42) layered random circuit named after the
/// spec itself.
fn resolve_layered_spec(name: &str) -> Option<Netlist> {
    let rest = name.strip_prefix("layered_")?;
    let (inputs, gates) = rest.split_once('x')?;
    let inputs: usize = inputs.parse().ok()?;
    let gates = parse_scaled_count(gates)?;
    if inputs == 0 || gates == 0 {
        return None;
    }
    let mut netlist = circuits::layered_random(inputs, gates, 42);
    netlist.set_name(name);
    Some(netlist)
}

/// Parses a count with an optional `k` (×10³) or `m` (×10⁶) suffix.
fn parse_scaled_count(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1_000),
        b'm' | b'M' => (&s[..s.len() - 1], 1_000_000),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// The benchmark-roster random circuits (`rand_<inputs>x<gates>`) with
/// their fixed seeds — the names `tessera-bench` reports under, loadable
/// by name in every tool and the daemon so results line up with the
/// offline benchmarks.
pub const SERVE_ROSTER: [(&str, usize, usize, u64); 7] = [
    ("rand_12x80", 12, 80, 9),
    ("rand_14x120", 14, 120, 2),
    ("rand_15x140", 15, 140, 6),
    ("rand_16x300", 16, 300, 5),
    ("rand_20x800", 20, 800, 6),
    ("rand_24x2000", 24, 2000, 7),
    ("rand_28x6000", 28, 6000, 8),
];

/// Prints an aligned text table (the format every experiment binary
/// reports in).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with engineering-friendly precision.
#[must_use]
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_errors_carry_the_menu() {
        let err = resolve_circuit("no-such-circuit").unwrap_err();
        assert!(err.message.contains("no-such-circuit"));
        assert!(err.available.iter().any(|n| n == "c17"));
        assert!(err.available.iter().any(|n| n == "sn74181"));
        assert!(err.available.iter().any(|n| n == "rand_24x2000"));
    }

    #[test]
    fn resolver_builds_roster_circuits() {
        let n = resolve_circuit("rand_16x300").unwrap();
        assert_eq!(n.primary_inputs().len(), 16);
        assert_eq!(n.name(), "rand_16x300");
        let bench = resolve_circuit("rand_15x140").unwrap();
        assert_eq!(
            bench.gate_count(),
            circuits::random_combinational(15, 140, 6).gate_count()
        );
    }

    #[test]
    fn resolve_circuit_covers_menu_files_and_unknowns() {
        assert_eq!(resolve_circuit("c17").unwrap().name(), "c17");
        assert!(resolve_circuit("no-such-circuit").is_err());
        // A .bench file on disk resolves through the parser.
        let path = std::env::temp_dir().join("dft_bench_resolve_test.bench");
        let text = dft_netlist::bench_format::write(&circuits::c17());
        std::fs::write(&path, text).unwrap();
        let parsed = resolve_circuit(path.to_str().unwrap()).unwrap();
        assert_eq!(parsed.name(), "dft_bench_resolve_test");
        assert_eq!(
            parsed.primary_inputs().len(),
            circuits::c17().primary_inputs().len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resolve_circuit_reads_blif_by_extension() {
        let path = std::env::temp_dir().join("dft_bench_resolve_test.blif");
        let text = dft_netlist::blif::write_blif(&circuits::c17());
        std::fs::write(&path, text).unwrap();
        let parsed = resolve_circuit(path.to_str().unwrap()).unwrap();
        assert_eq!(parsed.name(), "c17", ".model name wins over the stem");
        assert_eq!(parsed.gate_count(), circuits::c17().gate_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resolve_circuit_builds_layered_specs() {
        let n = resolve_circuit("layered_64x10k").unwrap();
        assert_eq!(n.name(), "layered_64x10k");
        assert_eq!(n.primary_inputs().len(), 64);
        assert_eq!(n.logic_gate_count(), 10_000);
        // Deterministic: the same spec resolves to the same netlist.
        assert_eq!(n, resolve_circuit("layered_64x10k").unwrap());
        assert_eq!(
            resolve_circuit("layered_32x500")
                .unwrap()
                .logic_gate_count(),
            500
        );
        for bad in ["layered_x10k", "layered_0x5", "layered_8x", "layered_8x1q"] {
            assert!(resolve_circuit(bad).is_err(), "{bad} must not resolve");
        }
    }

    #[test]
    fn eng_formats() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(3.77e22), "3.770e22");
        assert_eq!(eng(123.4), "123.4");
        assert_eq!(eng(1.5), "1.500");
    }
}
