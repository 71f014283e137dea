//! Gate primitives and their evaluation semantics.

use std::fmt;

use crate::GateId;

/// The primitive gate alphabet of the netlist model.
///
/// This is the gate set the paper reasons about: simple bounded-fan-in
/// combinational primitives plus a D-type storage element. Fan-in arity
/// rules are enforced by [`Netlist::add_gate`](crate::Netlist::add_gate):
///
/// | kind | fan-in |
/// |------|--------|
/// | `Input`, `Const0`, `Const1` | 0 |
/// | `Buf`, `Not`, `Dff` | 1 |
/// | `And`, `Or`, `Nand`, `Nor`, `Xor`, `Xnor` | 2 ..= 256 |
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// A primary input (no fan-in; value supplied by the environment).
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Not,
    /// AND of all inputs.
    And,
    /// OR of all inputs.
    Or,
    /// NAND of all inputs.
    Nand,
    /// NOR of all inputs.
    Nor,
    /// XOR (odd parity) of all inputs.
    Xor,
    /// XNOR (even parity) of all inputs.
    Xnor,
    /// D-type storage element clocked by the (implicit) system clock.
    ///
    /// Scan styles (LSSD SRLs, raceless scan-path flip-flops, addressable
    /// latches, …) are modelled in the `dft-scan` crate as refinements of
    /// this primitive.
    Dff,
}

impl GateKind {
    /// All gate kinds, in a stable order.
    pub const ALL: [GateKind; 12] = [
        GateKind::Input,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Dff,
    ];

    /// Returns the valid fan-in range `(min, max)` for this kind.
    ///
    /// Multi-input gates take at most 256 inputs: an input pin is named
    /// by a `u8` ([`Pin::Input`](crate::Pin::Input)), so a wider gate
    /// could not give every pin its own fault site.
    #[must_use]
    pub fn fanin_range(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, 1),
            _ => (2, 256),
        }
    }

    /// Whether this kind is a source (has no combinational fan-in for
    /// levelization purposes). `Dff` outputs are treated as sources of the
    /// combinational frame.
    #[must_use]
    pub fn is_source(self) -> bool {
        matches!(
            self,
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff
        )
    }

    /// Whether this kind is a storage element.
    #[must_use]
    pub fn is_storage(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// The *controlling value* of the gate, if it has one.
    ///
    /// A controlling value on any input determines the output regardless of
    /// the other inputs (0 for AND/NAND, 1 for OR/NOR). XOR-family gates
    /// and single-input gates have none. This drives PODEM backtrace,
    /// D-frontier reasoning and SCOAP controllability in the downstream
    /// crates.
    #[must_use]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Whether the gate inverts: the output produced by a controlling input
    /// (or by the single input for `Not`) is the complement of what the
    /// non-inverting form would give.
    #[must_use]
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }

    /// Evaluates the gate over 64 parallel boolean lanes.
    ///
    /// Each bit position of the `u64` words is an independent pattern; this
    /// is the primitive behind the parallel-pattern simulators in `dft-sim`
    /// and the parallel fault simulator in `dft-fault`.
    ///
    /// `Input`, `Const*` and `Dff` are sources: their value does not derive
    /// from `inputs` (constants return their fixed word; sources return the
    /// single provided word, i.e. the externally supplied value).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for a kind that requires fan-in.
    #[must_use]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Input | GateKind::Buf | GateKind::Dff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0, |acc, &w| acc ^ w),
        }
    }

    /// Evaluates the gate on single boolean values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for a kind that requires fan-in.
    #[must_use]
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_word(&words) & 1 == 1
    }

    /// The textual keyword used by the `.bench` format for this kind.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Dff => "DFF",
        }
    }

    /// Parses a `.bench` keyword (case-insensitive) into a gate kind.
    ///
    /// Besides the canonical keywords this accepts the spellings found
    /// in stock benchmark distributions: the ISCAS-85 files write
    /// buffers as `BUFF` (some tools use `BUFFER`), and tied nets
    /// appear as power/ground pseudo-gates (`VDD`/`VCC`/`TIE1` for
    /// constant 1, `GND`/`VSS`/`TIE0` for constant 0). These are
    /// parse-side aliases only: [`GateKind::keyword`] (and therefore
    /// every writer) still emits the canonical spelling.
    #[must_use]
    pub fn from_keyword(kw: &str) -> Option<GateKind> {
        let up = kw.to_ascii_uppercase();
        match up.as_str() {
            "BUFF" | "BUFFER" => return Some(GateKind::Buf),
            "VDD" | "VCC" | "TIE1" => return Some(GateKind::Const1),
            "GND" | "VSS" | "TIE0" => return Some(GateKind::Const0),
            _ => {}
        }
        GateKind::ALL.iter().copied().find(|k| k.keyword() == up)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A borrowed view of one gate inside a [`Netlist`](crate::Netlist).
///
/// The netlist stores gates struct-of-arrays style (kinds, a shared
/// edge arena, an interned name arena — see `DESIGN.md` §11), so a
/// "gate" is not a stored object but a cheap `Copy` view assembled on
/// access. All accessors return data borrowed from the netlist (`'n`),
/// so a view obtained from a temporary expression like
/// `netlist.gate(id).inputs()` stays usable for as long as the netlist
/// is borrowed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Gate<'n> {
    pub(crate) kind: GateKind,
    pub(crate) inputs: &'n [GateId],
    /// The name's UTF-8 bytes, decoded only when asked for: most
    /// accesses read the kind and inputs alone.
    pub(crate) name: Option<&'n [u8]>,
}

impl std::fmt::Debug for Gate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind)
            .field("inputs", &self.inputs)
            .field("name", &self.name())
            .finish()
    }
}

impl<'n> Gate<'n> {
    /// The gate's primitive kind.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gates driving this gate's input pins, in pin order.
    #[must_use]
    pub fn inputs(&self) -> &'n [GateId] {
        self.inputs
    }

    /// Fan-in count.
    #[must_use]
    pub fn fanin(&self) -> usize {
        self.inputs.len()
    }

    /// Optional instance name (always present for primary inputs).
    #[must_use]
    pub fn name(&self) -> Option<&'n str> {
        // Spans are only ever created from whole `&str`s, so they sit on
        // UTF-8 boundaries by construction.
        self.name
            .map(|bytes| std::str::from_utf8(bytes).expect("name arena corrupted"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_word_basic_identities() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(GateKind::And.eval_word(&[a, b]) & 0xF, 0b1000);
        assert_eq!(GateKind::Or.eval_word(&[a, b]) & 0xF, 0b1110);
        assert_eq!(GateKind::Nand.eval_word(&[a, b]) & 0xF, 0b0111);
        assert_eq!(GateKind::Nor.eval_word(&[a, b]) & 0xF, 0b0001);
        assert_eq!(GateKind::Xor.eval_word(&[a, b]) & 0xF, 0b0110);
        assert_eq!(GateKind::Xnor.eval_word(&[a, b]) & 0xF, 0b1001);
        assert_eq!(GateKind::Not.eval_word(&[a]) & 0xF, 0b0011);
        assert_eq!(GateKind::Buf.eval_word(&[a]), a);
        assert_eq!(GateKind::Const0.eval_word(&[]), 0);
        assert_eq!(GateKind::Const1.eval_word(&[]), u64::MAX);
    }

    #[test]
    fn eval_bool_matches_eval_word_on_all_two_input_patterns() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in [false, true] {
                for b in [false, true] {
                    let via_bool = kind.eval_bool(&[a, b]);
                    let via_word = kind.eval_word(&[u64::from(a), u64::from(b)]) & 1 == 1;
                    assert_eq!(via_bool, via_word, "{kind} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn wide_gates_fold_over_all_inputs() {
        // 3-input XOR is odd parity.
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, false]));
        // 3-input NAND only low when all high.
        assert!(!GateKind::Nand.eval_bool(&[true, true, true]));
        assert!(GateKind::Nand.eval_bool(&[true, true, false]));
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Buf.controlling_value(), None);
    }

    #[test]
    fn keyword_round_trip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_keyword(kind.keyword()), Some(kind));
            assert_eq!(
                GateKind::from_keyword(&kind.keyword().to_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(GateKind::from_keyword("FROB"), None);
    }

    #[test]
    fn distribution_aliases_parse_but_do_not_write() {
        for (alias, kind) in [
            ("BUFF", GateKind::Buf),
            ("buff", GateKind::Buf),
            ("BUFFER", GateKind::Buf),
            ("VDD", GateKind::Const1),
            ("VCC", GateKind::Const1),
            ("TIE1", GateKind::Const1),
            ("GND", GateKind::Const0),
            ("vss", GateKind::Const0),
            ("TIE0", GateKind::Const0),
        ] {
            assert_eq!(GateKind::from_keyword(alias), Some(kind), "{alias}");
        }
        // The writer side is untouched: canonical keywords only.
        assert_eq!(GateKind::Buf.keyword(), "BUF");
        assert_eq!(GateKind::Const1.keyword(), "CONST1");
        assert_eq!(GateKind::Const0.keyword(), "CONST0");
    }
}
