//! The workspace's one JSON emitter.
//!
//! The workspace takes no external dependencies, so this is the smallest
//! thing that can serialize every machine-readable record — the served
//! job responses and `/stats`, Chrome traces, the `results/` files of the
//! figure binaries and the lint reports: a value tree with correct string
//! escaping and `null` for non-finite floats (JSON has no NaN/Infinity).
//! It sits in this leaf crate so that nothing has to link the bench
//! harness to print a report. Compact output by default;
//! [`Json::pretty`] indents for humans.

use std::fmt;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number (covers `usize` byte counts exactly).
    Int(i128),
    /// Floating number; non-finite values serialize as `null`.
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object, to be filled with [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics on non-objects: a wiring bug
    /// in the caller, not a data error).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// The value of an object's field `key` (`None` on other variants or
    /// a missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indented rendering for humans; same data as `Display`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&INDENT.repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&INDENT.repeat(depth + 1));
                    // Writing into a `String` cannot fail.
                    let _ = write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

/// Write `doc` to `results/<name>.json` (pretty-printed with a trailing
/// newline), creating the directory if needed. Returns the written path —
/// the shared sink for every binary's machine-readable output.
#[allow(clippy::disallowed_methods)] // the binaries' one file sink
pub fn write_results(name: &str, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let out = std::path::Path::new("results").join(format!("{name}.json"));
    std::fs::create_dir_all("results")?;
    std::fs::write(&out, doc.pretty() + "\n")?;
    Ok(out)
}

/// Write `s` as a JSON string literal (quoted, escaped).
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => write!(f, "null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i128)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i128::from(i))
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i128::from(i))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_valid_json() {
        let j = Json::obj()
            .field("name", "audi\n\"proxy\"")
            .field("peak_bytes", 123_456_789usize)
            .field("ratio", 0.5)
            .field("bad", f64::NAN)
            .field("phases", vec![Json::obj().field("n", 1usize)])
            .field("missing", Option::<usize>::None);
        assert_eq!(
            j.to_string(),
            "{\"name\":\"audi\\n\\\"proxy\\\"\",\"peak_bytes\":123456789,\
             \"ratio\":0.5,\"bad\":null,\"phases\":[{\"n\":1}],\"missing\":null}"
        );
    }

    #[test]
    fn pretty_rendering_round_trips_the_same_data() {
        let j = Json::obj()
            .field("a", vec![1usize, 2, 3])
            .field("b", Json::obj().field("c", true));
        let pretty = j.pretty();
        assert!(pretty.contains("\n  \"a\": [\n"));
        // Stripping all structural whitespace recovers the compact form.
        let stripped: String = {
            let mut out = String::new();
            let mut in_str = false;
            let mut esc = false;
            for c in pretty.chars() {
                if in_str {
                    out.push(c);
                    if esc {
                        esc = false;
                    } else if c == '\\' {
                        esc = true;
                    } else if c == '"' {
                        in_str = false;
                    }
                } else if c == '"' {
                    in_str = true;
                    out.push(c);
                } else if !c.is_whitespace() {
                    out.push(c);
                }
            }
            out
        };
        assert_eq!(stripped, j.to_string());
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::from("\u{1}").to_string(), "\"\\u0001\"");
    }
}
