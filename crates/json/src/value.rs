//! The JSON value tree and its printers.

use std::fmt;

/// A JSON document. Objects preserve insertion order (a `Vec` of pairs —
/// the repo's objects have a handful of keys, so linear lookup wins over a
/// map and keeps output deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required key in an object, with a descriptive error.
    pub fn req(&self, key: &str) -> Result<&Json, crate::JsonError> {
        self.get(key)
            .ok_or_else(|| crate::JsonError::new(format!("missing key {key:?}")))
    }

    /// The numeric value, if this is a number (or `null`, read as NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty rendering with 2-space indentation. (The compact single-line
    /// form is the `Display` impl, i.e. `v.to_string()`.)
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '[',
                    ']',
                    items.iter(),
                    |out, item, d| item.write(out, indent, d),
                );
            }
            Json::Obj(pairs) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    pairs.iter(),
                    |out, (k, v), d| {
                        write_string(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, d);
                    },
                );
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    write_item: impl Fn(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

/// Writes a number using Rust's shortest-round-trip float formatting (the
/// `{:?}` form always includes a decimal point or exponent, but plain
/// integers print bare, which is valid JSON either way).
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 1e15 {
        // Integral values: print without the trailing ".0". Negative zero
        // must keep its sign ("-0" parses back to -0.0), which the `as i64`
        // cast would drop.
        if n == 0.0 && n.is_sign_negative() {
            out.push_str("-0");
        } else {
            out.push_str(&format!("{}", n as i64));
        }
    } else {
        out.push_str(&format!("{n:?}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Json::obj([
            ("a", Json::Num(1.0)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Json::obj([("k", Json::Arr(vec![Json::Num(1.0)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn strings_escape_controls() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn get_finds_keys_in_order() {
        let v = Json::obj([("x", Json::Num(1.0)), ("y", Json::Num(2.0))]);
        assert_eq!(v.get("y").unwrap().as_f64().unwrap(), 2.0);
        assert!(v.get("z").is_none());
    }
}
