//! Mutation tests for the `.bench` and BLIF front ends: every truncation
//! and every single-byte substitution of the checked-in netlists either
//! parses or fails with a line-numbered error. No mutant may panic, and
//! no error may point at line 0.

use dft_netlist::{bench_format, blif};

const C17_BENCH: &str = include_str!("data/c17.bench");
const FANOUT4_BENCH: &str = include_str!("data/fanout4.bench");
const C17_BLIF: &str = include_str!("data/c17.blif");

/// The bytes substituted at every position: both formats' punctuation,
/// the cover digits, and whitespace.
const SUBSTITUTES: &[u8] = b"\"\\{}[],:01-=()#. \n";

/// Every prefix of `text` (the empty one and `text` itself included),
/// then every copy of `text` with one byte replaced by one of
/// [`SUBSTITUTES`].
fn mutants(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<Vec<u8>> = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for at in 0..bytes.len() {
        for &b in SUBSTITUTES {
            let mut m = bytes.to_vec();
            m[at] = b;
            out.push(m);
        }
    }
    out.into_iter()
        .map(|m| String::from_utf8(m).expect("the data files are ASCII"))
        .collect()
}

#[test]
fn bench_mutants_parse_or_name_their_line() {
    for (name, text) in [("c17", C17_BENCH), ("fanout4", FANOUT4_BENCH)] {
        for m in mutants(text) {
            if let Err(e) = bench_format::parse(&m, name) {
                assert!(e.line >= 1, "{name}: {e} for mutant\n{m}");
            }
        }
    }
}

#[test]
fn blif_mutants_parse_or_name_their_line() {
    for m in mutants(C17_BLIF) {
        if let Err(e) = blif::parse(&m, "c17") {
            assert!(e.line >= 1, "c17.blif: {e} for mutant\n{m}");
        }
    }
}
