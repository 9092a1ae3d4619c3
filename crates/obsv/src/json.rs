//! A stable, dependency-free JSON value type with a serializer and a
//! minimal parser.
//!
//! The workspace builds fully offline, so the metrics layer cannot pull
//! `serde_json`. This module provides the small slice it needs:
//!
//! - [`Json`] — an ordered value tree. Objects preserve insertion order,
//!   so a snapshot built from sorted inputs serializes byte-stably.
//! - [`Json::render`] — compact serialization. Non-finite floats have no
//!   JSON encoding and are rendered as `null`; every report-facing
//!   fraction is already guarded by [`crate::frac`], so a `null` in an
//!   emitted file indicates a bug upstream rather than a crash here.
//! - [`parse`] — a recursive-descent parser, used by round-trip tests
//!   and the CI metrics gate.

use std::fmt;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A floating-point number; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Sets `key` on an object, replacing an existing entry in place.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
    }

    /// The entry for `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `/`-separated key path through nested objects
    /// (`snapshot.get_path("counters/serve/frames/dropped")`), mirroring
    /// the registry's metric-name nesting.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        path.split('/').try_fold(self, Json::get)
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            Json::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses `input`; convenience alias for [`parse`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] locating the first malformed byte.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        parse(input)
    }

    /// Compact serialization.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Rust's shortest-roundtrip Display is stable and a
                    // valid JSON number (`2` for 2.0, `0.1` for 0.1).
                    let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was expected or found.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for metric
                            // names; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a
                    // character boundary of the input `&str` and each
                    // byte is validated once.
                    let run = &self.bytes[self.pos..];
                    let len = run
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(run.len());
                    let text =
                        std::str::from_utf8(&run[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    s.push_str(text);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_path_walks_nested_objects() {
        let parsed = Json::parse(r#"{"counters":{"serve":{"frames":{"dropped":0}}}}"#).unwrap();
        assert_eq!(
            parsed
                .get_path("counters/serve/frames/dropped")
                .and_then(Json::as_u64),
            Some(0)
        );
        assert!(parsed.get_path("counters/serve/missing").is_none());
        assert!(parsed
            .get_path("counters/serve/frames/dropped/deeper")
            .is_none());
        assert_eq!(parsed.get_path("counters"), parsed.get("counters"));
    }

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Float(0.5).render(), "0.5");
        assert_eq!(Json::Float(2.0).render(), "2");
        assert_eq!(Json::Str("a\"b".into()).render(), "\"a\\\"b\"");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut o = Json::obj();
        o.set("b", Json::UInt(1));
        o.set("a", Json::UInt(2));
        o.set("b", Json::UInt(3));
        assert_eq!(o.render(), "{\"b\":3,\"a\":2}");
        assert_eq!(o.get("a"), Some(&Json::UInt(2)));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn roundtrip() {
        let mut inner = Json::obj();
        inner.set("count", Json::UInt(3));
        inner.set("ratio", Json::Float(0.25));
        let mut doc = Json::obj();
        doc.set("name", Json::Str("emit/simulate".into()));
        doc.set("stats", inner);
        doc.set("tags", Json::Arr(vec![Json::Bool(false), Json::Null]));
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\\n\" : [ 1 , -2 , 3.5 ] } ").unwrap();
        assert_eq!(
            v.get("a\n"),
            Some(&Json::Arr(vec![
                Json::UInt(1),
                Json::Int(-2),
                Json::Float(3.5)
            ]))
        );
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn parses_a_large_flat_document() {
        // As many keys as the serve loopback test's oversized registry,
        // each mixing multi-byte characters and escapes into its runs.
        let entries: Vec<(String, Json)> = (0..24_000u64)
            .map(|i| {
                let key = format!("serve/conn/{i}/fr\u{e9}mes \"q\" \u{2192} \\{i}\n");
                (key, Json::UInt(i))
            })
            .collect();
        let doc = Json::Obj(entries);
        let text = doc.render();
        assert!(text.len() > 1 << 20, "{} bytes", text.len());
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_a_deeply_nested_document() {
        let mut doc = Json::Str("leaf \u{e9}\t\\".into());
        for depth in 0..512u64 {
            doc = if depth % 2 == 0 {
                Json::Obj(vec![(format!("level {depth} \u{2192}"), doc)])
            } else {
                Json::Arr(vec![Json::UInt(depth), doc, Json::Null])
            };
        }
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn number_widths() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            Json::Int(-9007199254740993)
        );
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn as_accessors() {
        assert_eq!(Json::UInt(5).as_u64(), Some(5));
        assert_eq!(Json::Int(5).as_u64(), Some(5));
        assert_eq!(Json::Int(-5).as_u64(), None);
        assert_eq!(Json::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Json::Str("x".into()).as_f64(), None);
    }
}
