//! A self-contained JSON value and writer (no serde: the workspace is
//! dependency-free by policy). Snapshots and the bench bins' reports
//! render through `Display`, which emits valid, deterministic JSON —
//! object fields keep insertion order.

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<JsonValue>),
    /// Fields in insertion order (deterministic output).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a field up in an object (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, for numeric variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Parses a JSON document (the reader half of the writer above, so
    /// exporter output can be round-trip validated without serde).
    /// Integral numbers parse to `UInt`/`Int`, everything else numeric
    /// to `Float`; duplicate object keys are kept in order like the
    /// writer emits them.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Recursion guard for the parser (snapshots nest a handful of levels;
/// anything deeper is hostile input, not telemetry).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Snapshot output only escapes control chars;
                            // surrogate pairs decode to the replacement
                            // char rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(n) => out.push_str(&n.to_string()),
        JsonValue::UInt(n) => out.push_str(&n.to_string()),
        JsonValue::Float(f) => {
            // JSON has no NaN/Infinity; clamp to null like JS does.
            if f.is_finite() {
                out.push_str(&format!("{f:.6}"));
            } else {
                out.push_str("null");
            }
        }
        JsonValue::Str(s) => escape(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

/// Pretty-prints with two-space indentation (for committed baselines).
pub fn pretty(v: &JsonValue) -> String {
    fn go(v: &JsonValue, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match v {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    go(item, indent + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, item)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    escape(k, out);
                    out.push_str(": ");
                    go(item, indent + 1, out);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
            other => write_value(other, out),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_is_valid_json() {
        let v = JsonValue::object([
            ("name", JsonValue::str("obs")),
            ("count", JsonValue::UInt(3)),
            ("ratio", JsonValue::Float(0.5)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![JsonValue::Int(-1), JsonValue::str("a\"b")]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"obs","count":3,"ratio":0.500000,"ok":true,"none":null,"items":[-1,"a\"b"]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        let v = JsonValue::str("a\nb\tc\u{1}");
        assert_eq!(v.to_string(), "\"a\\nb\\tc\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn get_and_as_f64() {
        let v = JsonValue::object([("x", JsonValue::UInt(4))]);
        assert_eq!(v.get("x").and_then(|x| x.as_f64()), Some(4.0));
        assert!(v.get("y").is_none());
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = JsonValue::object([
            ("name", JsonValue::str("obs \"quoted\"\n")),
            ("count", JsonValue::UInt(3)),
            ("neg", JsonValue::Int(-7)),
            ("ratio", JsonValue::Float(0.5)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::Object(Vec::new())]),
            ),
        ]);
        let compact = JsonValue::parse(&v.to_string()).expect("compact parses");
        assert_eq!(compact, v);
        let prettied = JsonValue::parse(&pretty(&v)).expect("pretty parses");
        assert_eq!(prettied, v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"abc", "{]"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&deep).is_err(), "depth limit enforced");
    }

    #[test]
    fn parse_decodes_escapes() {
        let v = JsonValue::parse(r#""aA\n\t\\""#).expect("escapes parse");
        assert_eq!(v, JsonValue::Str("aA\n\t\\".into()));
    }

    #[test]
    fn pretty_round_trips_shape() {
        let v = JsonValue::object([
            ("a", JsonValue::Array(vec![JsonValue::UInt(1)])),
            ("b", JsonValue::object([("c", JsonValue::Null)])),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let p = pretty(&v);
        assert!(p.contains("\"a\": [\n"), "{p}");
        assert!(p.contains("\"empty\": []"), "{p}");
        assert!(p.ends_with("}\n"), "{p}");
    }
}
