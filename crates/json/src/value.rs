//! The JSON document tree.

use crate::writer::{escape_into, write_f64};

/// 2^53: every integer of smaller magnitude is exact in an `f64`, and
/// 2^53 itself is not exact input (`9007199254740993` parses to it).
pub(crate) const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON document.
///
/// Objects keep their members in document order (a `Vec`, not a map):
/// the serve codec's envelopes are small, order carries meaning for
/// byte-stable re-emission, and linear lookup is cheaper than hashing
/// at these sizes. Numbers are stored as `f64` — every integer the
/// tessera schemas carry fits in the 53-bit exact range, and
/// [`Value::as_u64`]/[`Value::as_i64`] reject anything that does not
/// round-trip.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (first occurrence), if this is an
    /// object and the key is present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer. `None` when
    /// not a number, negative, fractional, or not below 2^53 — the
    /// first magnitude at which distinct JSON integers parse to the same
    /// `f64`.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..EXACT_INT_LIMIT).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The numeric payload as an exact signed integer (same exactness
    /// rules as [`Value::as_u64`]).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.abs() < EXACT_INT_LIMIT && n.fract() == 0.0 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes the tree in compact wire form (no whitespace).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact wire form to `out`.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_navigate() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(3.0)),
            ("b".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("s".into(), Value::Str("hi".into())),
        ]);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(3));
        assert_eq!(
            v.get("b").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-2.0).as_u64(), None);
        assert_eq!(Value::Num(-2.0).as_i64(), Some(-2));
        assert_eq!(Value::Null.as_str(), None);
    }

    #[test]
    fn integers_must_lie_below_two_to_the_53() {
        let below = crate::parse("9007199254740991").unwrap();
        assert_eq!(below.as_u64(), Some(9_007_199_254_740_991));
        assert_eq!(below.as_i64(), Some(9_007_199_254_740_991));
        assert_eq!(
            crate::parse("-9007199254740991").unwrap().as_i64(),
            Some(-9_007_199_254_740_991)
        );
        // 2^53 + 1 parses to 2^53, so neither may pass as exact.
        for text in [
            "9007199254740992",
            "9007199254740993",
            "-9007199254740992",
            "-9007199254740993",
        ] {
            let v = crate::parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert_eq!(v.as_i64(), None, "{text}");
        }
    }

    #[test]
    fn compact_round_shape() {
        let v = Value::Obj(vec![
            ("k".into(), Value::Str("a\"b".into())),
            ("n".into(), Value::Num(2.0)),
            ("l".into(), Value::Arr(vec![Value::Num(0.5)])),
        ]);
        assert_eq!(v.to_compact(), "{\"k\":\"a\\\"b\",\"n\":2,\"l\":[0.5]}");
    }
}
