//! Property tests of the parser and the writer primitives on random
//! finite documents.
//!
//! The strings mix plain ASCII with everything the escaper and the
//! parser's string runs must get right: `"`, `\`, every C0 control, a
//! two-byte character (`§`), BMP characters and astral characters. The
//! numbers mix ±0, ±(2^53 − 1), integers of every size below 2^53,
//! fractions, exponents and arbitrary finite bit patterns.
//!
//! `escape_into` copies escape-free runs whole and `write_f64` prints
//! integers through the integer formatter. The plain versions — one
//! char at a time, every float through `{}` — stay here as the
//! references they must match byte for byte.

use std::fmt::Write as _;

use dft_json::{escape_into, parse, write_f64, Value};
use proptest::prelude::*;
use proptest::TestRunner;

/// 2^53 − 1, the largest integer `Value::as_u64` accepts.
const MAX_EXACT: f64 = 9_007_199_254_740_991.0;

/// Characters a generated string draws from besides random ones.
const SPECIAL: [char; 12] = [
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{7f}',
    '§',
    '€',
    '\u{fffd}',
    '\u{1F600}',
    '\u{1D11E}',
];

fn pick_char(r: &mut TestRunner) -> char {
    match r.pick(0..8) {
        0..=2 => char::from(b'a' + u8::try_from(r.pick(0..26)).expect("below 26")),
        3 => SPECIAL[r.pick(0..SPECIAL.len())],
        4 => char::from(u8::try_from(r.pick(0..0x20)).expect("below 0x20")),
        5 => char::from_u32(u32::try_from(r.pick(0xa0..0xd800)).expect("BMP"))
            .expect("below the surrogates"),
        6 => char::from_u32(u32::try_from(r.pick(0x10000..0x110000)).expect("astral"))
            .expect("a scalar value"),
        _ => ' ',
    }
}

fn pick_string(r: &mut TestRunner, max_len: usize) -> String {
    (0..r.pick(0..max_len + 1)).map(|_| pick_char(r)).collect()
}

/// A finite number, either sign.
#[allow(clippy::cast_precision_loss)]
fn pick_number(r: &mut TestRunner) -> f64 {
    let magnitude = match r.pick(0..8) {
        0 => 0.0,
        1 => MAX_EXACT,
        2 => (r.next_u64() % 1_000) as f64,
        // Up to 2^53 − 1: both sides of the parser's 15-digit cut.
        3 => (r.next_u64() >> 11) as f64,
        4 => (r.next_u64() % 1_000_000) as f64 / 1_000.0,
        5 => {
            let exponent = i32::try_from(r.pick(0..600)).expect("below 600") - 300;
            (r.next_u64() % 9_999 + 1) as f64 * 10f64.powi(exponent)
        }
        6 => f64::from_bits(r.next_u64() >> 2),
        _ => 1.0 / (r.next_u64() % 1_000 + 1) as f64,
    };
    let v = if magnitude.is_finite() {
        magnitude
    } else {
        0.5
    };
    if r.next_u64() & 1 == 1 {
        -v
    } else {
        v
    }
}

fn pick_value(r: &mut TestRunner, depth: usize) -> Value {
    let kinds = match depth {
        0 => 4..6,
        1..=3 => 0..6,
        _ => 0..4,
    };
    match r.pick(kinds) {
        0 => Value::Null,
        1 => Value::Bool(r.next_u64() & 1 == 1),
        2 => Value::Num(pick_number(r)),
        3 => Value::Str(pick_string(r, 12)),
        4 => Value::Arr(
            (0..r.pick(0..6))
                .map(|_| pick_value(r, depth + 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..r.pick(0..6))
                .map(|_| (pick_string(r, 6), pick_value(r, depth + 1)))
                .collect(),
        ),
    }
}

/// Random finite documents: an array or object at the root, nested at
/// most five deep.
struct Documents;

impl Strategy for Documents {
    type Value = Value;

    fn generate(&self, runner: &mut TestRunner) -> Value {
        pick_value(runner, 0)
    }
}

/// Random strings, up to 64 characters.
struct Strings;

impl Strategy for Strings {
    type Value = String;

    fn generate(&self, runner: &mut TestRunner) -> String {
        pick_string(runner, 64)
    }
}

/// Numbers for the writer: finite picks, the integers around ±2^53,
/// and arbitrary bit patterns (NaN and the infinities included).
struct Floats;

impl Strategy for Floats {
    type Value = f64;

    #[allow(clippy::cast_precision_loss)]
    fn generate(&self, runner: &mut TestRunner) -> f64 {
        match runner.pick(0..4) {
            0 => pick_number(runner),
            1 => {
                let near = [MAX_EXACT - 1.0, MAX_EXACT, MAX_EXACT + 1.0, MAX_EXACT + 3.0];
                let v = near[runner.pick(0..near.len())];
                if runner.next_u64() & 1 == 1 {
                    -v
                } else {
                    v
                }
            }
            2 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][runner.pick(0..5)],
            _ => f64::from_bits(runner.next_u64()),
        }
    }
}

/// The reference escape: one char at a time.
fn reference_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The reference number format: every finite value through `{}`.
fn reference_write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact form parses back to the same tree, and to the same
    /// bytes (which also tells `-0` from `0`).
    #[test]
    fn compact_documents_parse_back(doc in Documents) {
        let text = doc.to_compact();
        let back = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        prop_assert_eq!(&back, &doc, "{}", text);
        prop_assert_eq!(back.to_compact(), text);
    }

    /// The writer primitives match their references byte for byte.
    #[test]
    fn writer_primitives_match_their_references(s in Strings, v in Floats) {
        let (mut got, mut want) = (String::from("x"), String::from("x"));
        escape_into(&mut got, &s);
        reference_escape_into(&mut want, &s);
        prop_assert_eq!(&got, &want);
        write_f64(&mut got, v);
        reference_write_f64(&mut want, v);
        prop_assert_eq!(got, want, "{:?} = {:#x}", v, v.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every prefix of a document parses without panicking, and a
    /// failure points inside the prefix.
    #[test]
    fn prefixes_fail_inside_themselves(doc in Documents) {
        let text = doc.to_compact();
        let ends = text.char_indices().map(|(i, _)| i).chain([text.len()]);
        for end in ends {
            if let Err(e) = parse(&text[..end]) {
                prop_assert!(e.offset <= end, "offset {} past {end} in {text}", e.offset);
            }
        }
        prop_assert!(parse(&text).is_ok());
    }
}
