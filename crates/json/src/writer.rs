//! Streaming JSON output: escaping primitives and the [`JsonWriter`].

use std::fmt::Write as _;

use crate::value::{Value, EXACT_INT_LIMIT};

/// Appends the RFC 8259 escape of `s` (no surrounding quotes) to `out`.
///
/// This is byte-for-byte the escaping every tessera emitter has always
/// used: `"` `\` and the C0 controls are escaped (`\n` `\r` `\t` get
/// their short forms, the rest `\u00xx`), everything else passes
/// through verbatim. Each escape-free run is copied with one
/// `push_str`: every byte that needs an escape is ASCII, so the runs
/// between them split `s` at char boundaries.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
}

/// `s` as a complete JSON string literal, quotes included.
#[must_use]
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Appends `v` as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values render as `null` (the convention the obs reports
/// established). Finite values use Rust's shortest round-trip `{}`
/// formatting. An integral value of magnitude below 2^53, `-0.0`
/// excepted, prints through the integer formatter instead: the
/// shortest round-trip digits of such a value are the integer's own.
pub fn write_f64(out: &mut String, v: f64) {
    let negative_zero = v == 0.0 && v.is_sign_negative();
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < EXACT_INT_LIMIT && !negative_zero {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Output style of a [`JsonWriter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// No whitespace at all: `{"k":1,"a":[true]}` — the wire format of
    /// the obs reports and the serve codec.
    Compact,
    /// Two-space indentation, one key per line — for artifacts meant to
    /// be read in a diff.
    Pretty,
}

/// A streaming JSON writer over an owned `String`.
///
/// The writer tracks the container stack and inserts commas (and, in
/// [`Style::Pretty`], newlines and indentation) automatically; callers
/// just alternate `key`/value calls inside objects and value calls
/// inside arrays. [`JsonWriter::value`] embeds a whole [`Value`] tree.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// One frame per open container: `(is_object, member_count)`.
    stack: Vec<(bool, usize)>,
    style: Style,
    /// Set by [`JsonWriter::key`]: the next value call writes in place
    /// (no comma/indent pass of its own).
    pending_key: bool,
}

impl JsonWriter {
    /// A writer in the given style.
    #[must_use]
    pub fn new(style: Style) -> Self {
        JsonWriter {
            out: String::with_capacity(256),
            stack: Vec::new(),
            style,
            pending_key: false,
        }
    }

    /// Finishes writing and returns the accumulated output.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open — an unbalanced writer is a
    /// bug at the call site, not a runtime condition.
    #[must_use]
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty(),
            "JsonWriter finished with {} open container(s)",
            self.stack.len()
        );
        self.out
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Comma/indent bookkeeping before a value (or a key) is written.
    /// A value directly after [`JsonWriter::key`] goes in place — the
    /// key already did the punctuation.
    fn pre_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            if let Some((_, count)) = self.stack.last_mut() {
                *count += 1;
            }
            return;
        }
        if let Some((_, count)) = self.stack.last_mut() {
            if *count > 0 {
                self.out.push(',');
            }
            *count += 1;
            if self.style == Style::Pretty {
                self.newline_indent();
            }
        }
    }

    /// Opens an object (as the next value in the current container).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.stack.push((true, 0));
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        let frame = self.stack.pop().expect("end_object with no open object");
        assert!(frame.0, "end_object closing an array");
        if self.style == Style::Pretty && frame.1 > 0 {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens an array (as the next value in the current container).
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.stack.push((false, 0));
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        let frame = self.stack.pop().expect("end_array with no open array");
        assert!(!frame.0, "end_array closing an object");
        if self.style == Style::Pretty && frame.1 > 0 {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Writes an object key. The next call must write its value.
    pub fn key(&mut self, k: &str) {
        assert!(
            self.stack.last().is_some_and(|f| f.0),
            "key outside an object"
        );
        assert!(!self.pending_key, "key written where a value was due");
        self.pre_value();
        self.out.push('"');
        escape_into(&mut self.out, k);
        self.out.push_str(if self.style == Style::Pretty {
            "\": "
        } else {
            "\":"
        });
        // The value belongs to this key: undo the member-count bump so
        // the value's own pre_value pass only re-counts it.
        if let Some((_, count)) = self.stack.last_mut() {
            *count -= 1;
        }
        self.pending_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.pre_value();
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float value (`null` when non-finite).
    pub fn f64(&mut self, v: f64) {
        self.pre_value();
        write_f64(&mut self.out, v);
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a JSON `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }

    /// Writes a document tree as the next value, in compact form (on
    /// one line in [`Style::Pretty`] too), straight into the output.
    pub fn value(&mut self, v: &Value) {
        self.pre_value();
        v.write_compact(&mut self.out);
    }
}

impl JsonWriter {
    /// Convenience: `key` + `string`.
    pub fn kv_string(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Convenience: `key` + `u64`.
    pub fn kv_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// Convenience: `key` + `f64`.
    pub fn kv_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// Convenience: `key` + `bool`.
    pub fn kv_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_matches_the_legacy_emitters() {
        assert_eq!(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escaped("x\ny"), "\"x\\ny\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("täst"), "\"täst\"");
    }

    #[test]
    fn nonfinite_floats_render_null() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        write_f64(&mut s, 0.5);
        assert_eq!(s, "null0.5");
    }

    #[test]
    fn compact_writer_emits_wire_format() {
        let mut w = JsonWriter::new(Style::Compact);
        w.begin_object();
        w.kv_string("name", "x");
        w.kv_u64("n", 3);
        w.key("list");
        w.begin_array();
        w.bool(true);
        w.null();
        w.f64(1.0);
        w.end_array();
        w.key("nested");
        w.begin_object();
        w.end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"name\":\"x\",\"n\":3,\"list\":[true,null,1],\"nested\":{}}"
        );
    }

    #[test]
    fn pretty_writer_indents() {
        let mut w = JsonWriter::new(Style::Pretty);
        w.begin_object();
        w.kv_string("a", "b");
        w.key("c");
        w.begin_array();
        w.u64(1);
        w.u64(2);
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"a\": \"b\",\n  \"c\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn value_embeds_a_document_tree() {
        let doc = crate::parse("{\"pre\": [1, \"x\"]}").unwrap();
        let mut w = JsonWriter::new(Style::Compact);
        w.begin_object();
        w.key("frag");
        w.value(&doc);
        w.kv_bool("after", true);
        w.end_object();
        assert_eq!(w.finish(), "{\"frag\":{\"pre\":[1,\"x\"]},\"after\":true}");
    }

    #[test]
    fn top_level_scalar_is_fine() {
        let mut w = JsonWriter::new(Style::Compact);
        w.string("only");
        assert_eq!(w.finish(), "\"only\"");
    }

    #[test]
    #[should_panic(expected = "open container")]
    fn unbalanced_finish_panics() {
        let mut w = JsonWriter::new(Style::Compact);
        w.begin_object();
        let _ = w.finish();
    }
}
