//! Reader and writer for a `.bench`-style netlist text format.
//!
//! The format is the ISCAS-85/89 flavour used throughout the testing
//! literature the paper surveys:
//!
//! ```text
//! # full adder
//! INPUT(a)
//! INPUT(b)
//! INPUT(cin)
//! OUTPUT(sum)
//! OUTPUT(cout)
//! t1 = XOR(a, b)
//! sum = XOR(t1, cin)
//! c1 = AND(a, b)
//! c2 = AND(t1, cin)
//! cout = OR(c1, c2)
//! ```
//!
//! Signals are referenced by name; definitions may appear in any order
//! (two-pass resolution). `DFF(x)` declares a storage element. `CONST0()`
//! and `CONST1()` declare constants.
//!
//! ```
//! use dft_netlist::bench_format;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
//! let n = bench_format::parse(text, "inv")?;
//! assert_eq!(n.gate_count(), 2);
//! let round_trip = bench_format::parse(&bench_format::write(&n), "inv")?;
//! assert_eq!(round_trip.gate_count(), 2);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{GateId, GateKind, Netlist, ParseBenchError};

/// Parses `.bench` text into a [`Netlist`] named `name`.
///
/// # Errors
///
/// Returns [`ParseBenchError`] (with a line number) on malformed lines,
/// unknown gate kinds, undefined or multiply-defined signals, or fan-in
/// arity violations.
pub fn parse(text: &str, name: impl Into<String>) -> Result<Netlist, ParseBenchError> {
    enum Decl<'a> {
        Input(&'a str),
        Gate {
            target: &'a str,
            kind: GateKind,
            args: Vec<&'a str>,
        },
    }

    let mut decls: Vec<(usize, Decl)> = Vec::new();
    let mut output_decls: Vec<(usize, &str)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = strip_call(line, "INPUT") {
            decls.push((lineno, Decl::Input(rest)));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            output_decls.push((lineno, rest));
        } else if let Some(eq) = line.find('=') {
            let target = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| {
                ParseBenchError::new(
                    lineno,
                    format!("expected KIND(args) after '=', got {rhs:?}"),
                )
            })?;
            if !rhs.ends_with(')') {
                return Err(ParseBenchError::new(lineno, "missing closing parenthesis"));
            }
            let kw = rhs[..open].trim();
            let kind = GateKind::from_keyword(kw)
                .ok_or_else(|| ParseBenchError::new(lineno, format!("unknown gate kind {kw}")))?;
            if matches!(kind, GateKind::Input) {
                return Err(ParseBenchError::new(
                    lineno,
                    "INPUT is declared as INPUT(name), not by assignment",
                ));
            }
            let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if target.is_empty() {
                return Err(ParseBenchError::new(lineno, "empty signal name before '='"));
            }
            decls.push((lineno, Decl::Gate { target, kind, args }));
        } else {
            return Err(ParseBenchError::new(
                lineno,
                format!("unrecognized line {line:?}"),
            ));
        }
    }

    // Pass 1: declare every signal name so definitions may be out of order.
    // We create gates in declaration order; gate inputs are patched in pass 2.
    let mut netlist = Netlist::new(name);
    let mut by_name: HashMap<&str, GateId> = HashMap::new();
    for (lineno, decl) in &decls {
        let (signal, id) = match decl {
            Decl::Input(n) => {
                let id = netlist
                    .try_add_input(*n)
                    .map_err(|e| ParseBenchError::new(*lineno, e.to_string()))?;
                (*n, id)
            }
            Decl::Gate { target, kind, args } => {
                // Pass 1 only reserves the row (pins self-loop until pass 2
                // patches in the real sources), so no placeholder source
                // gate is ever added to the arena — a gate definition may
                // legally precede the first INPUT line. Arity is still
                // validated here, with the declaration's line number.
                let id = netlist
                    .add_pending_gate(*kind, args.len(), Some(target))
                    .map_err(|e| ParseBenchError::new(*lineno, e.to_string()))?;
                (*target, id)
            }
        };
        if by_name.insert(signal, id).is_some() {
            return Err(ParseBenchError::new(
                *lineno,
                format!("signal {signal} defined more than once"),
            ));
        }
    }

    // Pass 2: connect real sources.
    for (lineno, decl) in &decls {
        if let Decl::Gate { target, args, .. } = decl {
            let id = by_name[target];
            for (pin, arg) in args.iter().enumerate() {
                let src = *by_name.get(arg).ok_or_else(|| {
                    ParseBenchError::new(*lineno, format!("undefined signal {arg}"))
                })?;
                netlist
                    .reconnect_input(id, pin, src)
                    .map_err(|e| ParseBenchError::new(*lineno, e.to_string()))?;
            }
        }
    }

    for (lineno, out) in output_decls {
        let id = *by_name.get(out).ok_or_else(|| {
            ParseBenchError::new(lineno, format!("undefined output signal {out}"))
        })?;
        netlist
            .mark_output(id, out)
            .map_err(|e| ParseBenchError::new(lineno, e.to_string()))?;
    }

    Ok(netlist)
}

fn strip_call<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(kw)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// One display name per gate, shared by the `.bench` and BLIF writers:
/// the gate's own name; else, for an unnamed primary-output driver, the
/// (first) output name it drives — so marking an anonymous gate as
/// output `y` round-trips without a phantom alias buffer; else a
/// synthetic `g<N>`.
pub(crate) fn display_names(netlist: &Netlist) -> Vec<String> {
    let mut names: Vec<Option<String>> = netlist
        .ids()
        .map(|id| netlist.gate(id).name().map(str::to_owned))
        .collect();
    for (gate, po) in netlist.primary_outputs() {
        let slot = &mut names[gate.index()];
        if slot.is_none() {
            *slot = Some(po.clone());
        }
    }
    names
        .into_iter()
        .enumerate()
        .map(|(i, n)| n.unwrap_or_else(|| format!("g{i}")))
        .collect()
}

/// Serializes a [`Netlist`] to `.bench` text.
///
/// Unnamed gates receive synthetic `g<N>` names (except unnamed
/// primary-output drivers, which take their output's name). The output
/// parses back into a structurally identical netlist (gate order may
/// differ).
#[must_use]
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", netlist.name());
    let names = display_names(netlist);
    let name_of = |id: GateId| -> &str { &names[id.index()] };
    for &pi in netlist.primary_inputs() {
        let _ = writeln!(out, "INPUT({})", name_of(pi));
    }
    for (gate, name) in netlist.primary_outputs() {
        let _ = writeln!(out, "OUTPUT({name})");
        let _ = gate;
    }
    for (id, gate) in netlist.iter() {
        match gate.kind() {
            GateKind::Input => {}
            kind => {
                let args: Vec<&str> = gate.inputs().iter().map(|&src| name_of(src)).collect();
                let _ = writeln!(
                    out,
                    "{} = {}({})",
                    name_of(id),
                    kind.keyword(),
                    args.join(", ")
                );
            }
        }
    }
    // Alias buffers for outputs whose name differs from the driver's
    // (a named driver, or a second output on one driver).
    for (gate, name) in netlist.primary_outputs() {
        let gate_name = name_of(*gate);
        if gate_name != name {
            let _ = writeln!(out, "{name} = BUF({gate_name})");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_ADDER: &str = "\
# full adder
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
t1 = XOR(a, b)
sum = XOR(t1, cin)
c1 = AND(a, b)
c2 = AND(t1, cin)
cout = OR(c1, c2)
";

    #[test]
    fn parses_full_adder() {
        let n = parse(FULL_ADDER, "fa").unwrap();
        assert_eq!(n.primary_inputs().len(), 3);
        assert_eq!(n.primary_outputs().len(), 2);
        assert_eq!(n.logic_gate_count(), 5);
        assert!(n.is_combinational());
        assert!(n.levelize().is_ok());
    }

    #[test]
    fn out_of_order_definitions_resolve() {
        let text = "OUTPUT(y)\ny = AND(p, q)\nINPUT(p)\nINPUT(q)\n";
        let n = parse(text, "t").unwrap();
        assert_eq!(n.logic_gate_count(), 1);
        let y = n.find_output("y").unwrap();
        assert_eq!(n.gate(y).inputs().len(), 2);
        assert_eq!(n.gate(n.gate(y).inputs()[0]).name(), Some("p"));
    }

    #[test]
    fn dff_and_const_parse() {
        let text = "INPUT(d)\nOUTPUT(q)\nq = DFF(d)\nzero = CONST0()\n";
        let n = parse(text, "t").unwrap();
        assert_eq!(n.storage_elements().len(), 1);
        assert!(!n.is_combinational());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hi\nINPUT(a)  # trailing\nOUTPUT(y)\ny = NOT(a)\n\n";
        assert!(parse(text, "t").is_ok());
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "INPUT(a)\ny = FROB(a)\n";
        let err = parse(text, "t").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("FROB"));

        let text = "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n";
        let err = parse(text, "t").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("ghost"));

        let text = "INPUT(a)\nINPUT(a)\n";
        let err = parse(text, "t").unwrap_err();
        assert_eq!(err.line, 2);

        let text = "INPUT(a)\ny = NOT(a, a)\n";
        let err = parse(text, "t").unwrap_err();
        assert_eq!(err.line, 2);

        let text = "gibberish\n";
        assert_eq!(parse(text, "t").unwrap_err().line, 1);

        let text = "y = NOT a\n";
        assert_eq!(parse(text, "t").unwrap_err().line, 1);
    }

    #[test]
    fn over_wide_gate_is_a_line_numbered_error() {
        let args = vec!["a"; 257].join(", ");
        let text = format!("INPUT(a)\nOUTPUT(y)\ny = AND({args})\n");
        let err = parse(&text, "t").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("got 257"), "{}", err.message);
    }

    #[test]
    fn gate_before_first_input_leaves_no_phantom() {
        // Regression: pass 1 used to add a placeholder Const0 when a gate
        // definition preceded the first INPUT line, and never removed it.
        let n = parse("y = NOT(a)\nINPUT(a)\nOUTPUT(y)\n", "t").unwrap();
        assert_eq!(n.gate_count(), 2, "exactly NOT + INPUT, no phantom");
        assert_eq!(n.stats().count(GateKind::Const0), 0);
        let y = n.find_output("y").unwrap();
        assert_eq!(n.gate(y).kind(), GateKind::Not);
        assert_eq!(n.gate(n.gate(y).inputs()[0]).name(), Some("a"));
        // Same text with the input first parses to an equal netlist.
        let reordered = parse("INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n", "t").unwrap();
        assert_eq!(reordered.gate_count(), 2);
        assert_eq!(n.stats().by_kind, reordered.stats().by_kind);
    }

    #[test]
    fn stock_iscas_spellings_parse() {
        // BUFF and power/ground aliases as found in distribution files.
        let text = "\
OUTPUT(y)
y = BUFF(n1)
n1 = NAND(a, b, one)
one = VDD()
INPUT(a)
INPUT(b)
zero = GND()
OUTPUT(zlow)
zlow = BUFF(zero)
";
        let n = parse(text, "t").unwrap();
        assert_eq!(n.stats().count(GateKind::Buf), 2);
        assert_eq!(n.stats().count(GateKind::Const1), 1);
        assert_eq!(n.stats().count(GateKind::Const0), 1);
        assert_eq!(n.gate_count(), 7, "no phantom placeholder gates");
        // The writer re-emits canonical keywords that parse right back.
        let round = parse(&write(&n), "t").unwrap();
        assert_eq!(round.stats().by_kind, n.stats().by_kind);
        assert!(write(&n).contains("BUF("));
        assert!(!write(&n).contains("BUFF("));
    }

    #[test]
    fn write_is_byte_stable_after_one_round_trip() {
        let n = parse(FULL_ADDER, "fa").unwrap();
        let t1 = write(&n);
        let t2 = write(&parse(&t1, "fa").unwrap());
        assert_eq!(t1, t2);
    }

    #[test]
    fn duplicate_definition_rejected() {
        let text = "INPUT(a)\ny = NOT(a)\ny = BUF(a)\n";
        let err = parse(text, "t").unwrap_err();
        assert!(err.message.contains("more than once"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let n = parse(FULL_ADDER, "fa").unwrap();
        let text = write(&n);
        let n2 = parse(&text, "fa").unwrap();
        assert_eq!(n2.primary_inputs().len(), n.primary_inputs().len());
        assert_eq!(n2.primary_outputs().len(), n.primary_outputs().len());
        assert_eq!(n2.logic_gate_count(), n.logic_gate_count());
        let s1 = n.stats();
        let s2 = n2.stats();
        assert_eq!(s1.by_kind, s2.by_kind);
    }

    #[test]
    fn sequential_round_trip_preserves_storage() {
        let n = crate::circuits::binary_counter(4);
        let text = write(&n);
        let back = parse(&text, n.name()).unwrap();
        assert_eq!(back.storage_elements().len(), 4);
        assert_eq!(back.primary_outputs().len(), n.primary_outputs().len());
        assert!(back.levelize().is_ok());
        // Same logic profile (the writer may add BUF aliases for outputs
        // named differently from their driving signal).
        for kind in [GateKind::Dff, GateKind::Xor, GateKind::And] {
            assert_eq!(n.stats().count(kind), back.stats().count(kind), "{kind}");
        }
    }

    #[test]
    fn write_aliases_renamed_outputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g, "out_name").unwrap();
        let text = write(&n);
        let n2 = parse(&text, "t").unwrap();
        assert!(n2.find_output("out_name").is_some());
    }
}
