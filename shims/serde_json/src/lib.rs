//! Offline shim for `serde_json`: renders and parses the `serde`
//! shim's [`serde::Value`] tree as standard JSON.
//!
//! Floats are written with Rust's shortest round-trip `Display`, so a
//! serialize → parse cycle reproduces every `f64` bit-exactly (finite
//! values; non-finite floats serialize as `null`, as serde_json does).

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error type for both serialization and parsing.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// An error with a caller's message, for checks a type makes after
    /// parsing (serde's `de::Error::custom`).
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error::new(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out);
    Ok(out)
}

/// Serializes a value to human-readable, indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render_pretty(&value.to_value(), &mut out, 0);
    Ok(out)
}

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_complete(s)?;
    T::from_value(&value).map_err(|e| Error::new(e.to_string()))
}

fn render_string(s: &str, out: &mut String) {
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

fn render_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep integral floats distinguishable as numbers ("1.0").
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => render_f64(*x, out),
        Value::Str(s) => render_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render(val, out);
            }
            out.push('}');
        }
    }
}

fn render_pretty(v: &Value, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                render_pretty(item, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                render_string(k, out);
                out.push_str(": ");
                render_pretty(val, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push('}');
        }
        other => render(other, out),
    }
}

// ---- parser ----

/// Deepest array/object nesting the parser accepts. The parser recurses
/// once per level, so without a bound a hostile `[[[…]]]` overflows the
/// stack and aborts the process; past this depth it returns an [`Error`]
/// instead. Model artifacts nest about 50 levels (forest trees serialize
/// recursively); the bound leaves ten times that as headroom and still
/// fits a 2 MiB thread stack.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value_complete(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!(
                        "invalid literal at offset {}",
                        self.pos
                    )))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!(
                        "invalid literal at offset {}",
                        self.pos
                    )))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!(
                        "invalid literal at offset {}",
                        self.pos
                    )))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!(
                "unexpected character `{}` at offset {}",
                b as char, self.pos
            ))),
        }
    }

    /// Parses one array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path over unescaped runs.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )));
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            // Keep integers exact (u64 seeds exceed f64's 53-bit mantissa).
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<i64>() {
                    return Ok(Value::I64(-n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested_value() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("kernel \"a\"\n".into())),
            (
                "xs".into(),
                Value::Seq(vec![Value::F64(1.5), Value::F64(0.1 + 0.2), Value::Null]),
            ),
            ("n".into(), Value::U64(u64::MAX)),
            ("neg".into(), Value::I64(-42)),
            ("ok".into(), Value::Bool(true)),
        ]);
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for &x in &[1.0f64 / 3.0, 6.02214076e23, 1e-300, -0.0, 123456789.25] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("\"open").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        assert!(from_str::<Value>(&nested_arrays(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        assert!(from_str::<Value>(&nested_arrays(100_000)).is_err());
        let objects = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(from_str::<Value>(&objects).is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1), Value::U64(2)])),
            (
                "b".into(),
                Value::Map(vec![("c".into(), Value::Bool(false))]),
            ),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Value>(&s).unwrap(), v);
    }
}
