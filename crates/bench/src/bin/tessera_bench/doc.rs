//! Document helpers. Every section builds its artifact once, as a
//! [`Value`] document; the file layout, the text tables and the baseline
//! gates all read that document.

use dft_json::{JsonWriter, Style, Value};

/// A value a document member can hold.
pub trait Field {
    fn field(self) -> Value;
}

impl Field for Value {
    fn field(self) -> Value {
        self
    }
}

impl Field for bool {
    fn field(self) -> Value {
        Value::Bool(self)
    }
}

impl Field for &str {
    fn field(self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Field for String {
    fn field(self) -> Value {
        Value::Str(self)
    }
}

impl Field for usize {
    fn field(self) -> Value {
        Value::Num(self as f64)
    }
}

impl Field for u64 {
    fn field(self) -> Value {
        Value::Num(self as f64)
    }
}

/// A document object, members in the order written:
/// `obj! { "circuit" => name, "gates" => n.gate_count() }`.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        dft_json::Value::Obj(vec![$(($key.to_owned(), $crate::doc::Field::field($value))),*])
    };
}
pub(crate) use obj;

/// `x` rounded to `decimals` places as `format!` rounds it: each
/// measurement keeps the precision its artifact has always printed.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Num(
        format!("{x:.decimals$}")
            .parse()
            .expect("a formatted float parses"),
    )
}

/// The records array `key` of a document.
///
/// # Panics
///
/// Panics if the document has no such array.
pub fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("document has no {key} array"))
}

/// Number member `key` of a record.
///
/// # Panics
///
/// Panics if the record has no such number.
pub fn num(record: &Value, key: &str) -> f64 {
    record
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("record has no number {key}"))
}

/// String member `key` of a record (empty when absent).
pub fn text<'a>(record: &'a Value, key: &str) -> &'a str {
    record.get(key).and_then(Value::as_str).unwrap_or_default()
}

/// Whether member `key` is `true`.
pub fn flag(record: &Value, key: &str) -> bool {
    record.get(key).and_then(Value::as_bool) == Some(true)
}

/// Reads and parses a committed `BENCH_*.json` baseline.
pub fn read(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    dft_json::parse(&text).unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"))
}

/// The artifact bytes of `doc`: one top-level member per line, and each
/// element of a top-level array (a record) compact on a line of its own.
pub fn layout(doc: &Value) -> String {
    let mut w = JsonWriter::new(Style::Pretty);
    w.begin_object();
    for (key, value) in doc.as_object().expect("a document is an object") {
        w.key(key);
        if let Value::Arr(records) = value {
            w.begin_array();
            records.iter().for_each(|r| w.value(r));
            w.end_array();
        } else {
            w.value(value);
        }
    }
    w.end_object();
    let mut bytes = w.finish();
    bytes.push('\n');
    bytes
}

/// Prints `doc` as text: a table per non-empty array of records, one
/// column per key, with a nested object's members as `outer.inner`
/// columns; then every other top-level member as `key: value` lines.
pub fn print(doc: &Value) {
    let bench = text(doc, "bench");
    let mut lines = Vec::new();
    for (key, value) in doc.as_object().expect("a document is an object") {
        let Some(records) = value.as_array() else {
            flatten(key, value, &mut lines);
            continue;
        };
        let table: Vec<Vec<(String, String)>> = records
            .iter()
            .map(|r| {
                let mut cells = Vec::new();
                flatten("", r, &mut cells);
                cells
            })
            .collect();
        let Some(first) = table.first() else { continue };
        let header: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        let body: Vec<Vec<String>> = table
            .iter()
            .map(|cells| cells.iter().map(|(_, v)| v.clone()).collect())
            .collect();
        dft_bench::print_table(&format!("{bench}: {key}"), &header, &body);
    }
    println!();
    for (key, value) in lines {
        println!("{key}: {value}");
    }
}

/// `(column, cell)` pairs of `value` under `prefix`: an object's members
/// become `prefix.member` columns, a string its bare text, anything else
/// its compact JSON.
fn flatten(prefix: &str, value: &Value, out: &mut Vec<(String, String)>) {
    match value {
        Value::Obj(members) => {
            for (key, v) in members {
                let column = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(&column, v, out);
            }
        }
        Value::Str(s) => out.push((prefix.to_owned(), s.clone())),
        other => out.push((prefix.to_owned(), other.to_compact())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_keeps_the_given_decimals() {
        assert_eq!(fixed(0.000_025_4, 6).to_compact(), "0.000025");
        assert_eq!(fixed(59_546_925.64, 1).to_compact(), "59546925.6");
        assert_eq!(fixed(0.624_04, 4).to_compact(), "0.624");
        assert_eq!(fixed(1.0, 4).to_compact(), "1");
        // Ties round to even, as `{:.4}` always printed them.
        assert_eq!(fixed(0.531_25, 4).to_compact(), "0.5312");
    }

    #[test]
    fn layout_puts_each_record_on_one_line() {
        let doc = obj! {
            "bench" => "t",
            "records" => Value::Arr(vec![obj! { "a" => 1usize, "b" => obj! { "c" => true } }]),
            "empty" => Value::Arr(Vec::new()),
        };
        assert_eq!(
            layout(&doc),
            "{\n  \"bench\": \"t\",\n  \"records\": [\n    {\"a\":1,\"b\":{\"c\":true}}\n  ],\n  \
             \"empty\": []\n}\n"
        );
    }

    #[test]
    fn nested_members_flatten_to_dotted_columns() {
        let mut cells = Vec::new();
        flatten(
            "",
            &obj! { "c" => "x", "with" => obj! { "n" => 2usize } },
            &mut cells,
        );
        assert_eq!(
            cells,
            [("c".into(), "x".into()), ("with.n".into(), "2".into())]
        );
    }

    /// The committed artifacts are this layout, byte for byte.
    #[test]
    fn committed_artifacts_are_in_the_layout() {
        for text in [
            include_str!("../../../../../BENCH_fault_sim.json"),
            include_str!("../../../../../BENCH_atpg.json"),
            include_str!("../../../../../BENCH_analysis.json"),
        ] {
            assert_eq!(layout(&dft_json::parse(text).unwrap()), text);
        }
    }
}
