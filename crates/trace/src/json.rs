//! Minimal in-repo JSON support: a value type, a recursive-descent parser,
//! and a writer. Exists so the trace exporters stay zero-dependency and so
//! tests can *validate* (not just eyeball) exported Chrome traces and
//! JSONL lines.
//!
//! Scope is deliberately small: numbers parse as `f64` (with an exact
//! `u64` fast path preserved for counters), strings support the standard
//! escapes plus `\uXXXX` for the BMP, and the parser rejects trailing
//! garbage and nesting deeper than [`MAX_DEPTH`]. That is enough for
//! everything this workspace emits.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers that fit are also retrievable via [`Json::as_u64`].
    Num(f64),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap), which is fine for validation.
    /// A repeated key keeps its last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which does not fit: the bound
            // is strict.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escape a string's content for inclusion between JSON double quotes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// How deep [`parse`] lets arrays and objects nest. The parser recurses
/// once per level, so without a bound a line of `[`s overflows the stack;
/// nothing this workspace writes nests deeper than four.
pub const MAX_DEPTH: usize = 512;

/// Why [`parse`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Anything else malformed; the message names the byte offset.
    Syntax(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            ParseError::Syntax(msg) => f.write_str(msg),
        }
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser { s, b: s.as_bytes(), i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    /// `s` as bytes: every token the parser looks for is ASCII.
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around `i`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, ParseError> {
        Err(ParseError::Syntax(format!("{what} at byte {}", self.i)))
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(ParseError::TooDeep);
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("unexpected byte"),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            m.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both are
            // ASCII, so the run ends on a char boundary of the input.
            let Some(run) = self.b[self.i..].iter().position(|&c| c == b'"' || c == b'\\') else {
                return self.err("unterminated string");
            };
            out.push_str(&self.s[self.i..self.i + run]);
            self.i += run + 1;
            if self.b[self.i - 1] == b'"' {
                return Ok(out);
            }
            let Some(e) = self.peek() else {
                return self.err("unterminated escape");
            };
            self.i += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let Some(n) = self
                        .s
                        .get(self.i..self.i + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    else {
                        return self.err("bad \\u escape");
                    };
                    self.i += 4;
                    out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                }
                _ => return self.err("bad escape"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let txt = &self.s[start..self.i];
        match txt.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => Err(ParseError::Syntax(format!("bad number '{txt}' at byte {start}"))),
        }
    }
}

/// Write a value back out as compact JSON (keys in sorted order).
pub fn to_string(v: &Json) -> String {
    let mut s = String::new();
    write_value(&mut s, v);
    s
}

/// Append `n` as JSON: integers below 9e15 without a fraction, and `null`
/// for NaN and the infinities, which JSON cannot spell ([`parse`] reads
/// the `null` back).
pub(crate) fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Json::Arr(a) => {
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, e);
            }
            out.push(']');
        }
        Json::Obj(m) => write_obj(out, m.iter().map(|(k, e)| (k.as_str(), e))),
    }
}

/// Append the object `fields` lists, its keys in the order given. A
/// [`Json::Obj`] goes through here in key order; a caller whose keys are in
/// an order of their own (`repro json`'s columns) passes them as a list, so
/// an ordered object is written but never stored.
pub fn write_obj<'a, V: Borrow<Json>>(out: &mut String, fields: impl IntoIterator<Item = (&'a str, V)>) {
    out.push('{');
    for (i, (k, e)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape(k));
        out.push_str("\":");
        write_value(out, e.borrow());
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"s":"x\ny"}"#).unwrap();
        let Some(Json::Arr(a)) = v.get("a") else { panic!("`a` is not an array") };
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn roundtrips_escapes() {
        let src = Json::Str("line1\nline\"2\"\\t".to_string());
        let txt = to_string(&src);
        assert_eq!(parse(&txt).unwrap(), src);
    }

    #[test]
    fn whatever_to_string_writes_parse_reads_back() {
        // Non-finite numbers have no JSON spelling and come back as null.
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let txt = to_string(&Json::Arr(vec![Json::Num(n), Json::Num(1.0)]));
            assert_eq!(txt, "[null,1]");
            assert_eq!(parse(&txt).unwrap(), Json::Arr(vec![Json::Null, Json::Num(1.0)]));
        }
        // Everything else round-trips exactly: integers on both sides of
        // the 9e15 switch from integer to float formatting, fractions,
        // large and tiny magnitudes, and strings that need every escape.
        let nums = [
            0.0, -1.0, 8_999_999_999_999_999.0, -8_999_999_999_999_999.0, 9e15, -9e15,
            9_000_000_000_000_002.0, u64::MAX as f64, 0.1, -2.5e-7, 1e300, f64::MIN_POSITIVE,
        ];
        let strs = ["", "plain", "q\"uote\\back/slash", "\n\r\t\u{8}\u{c}\u{1}\u{1f}", "café λ \u{1F600}"];
        let mut obj = BTreeMap::new();
        for (i, s) in strs.iter().enumerate() {
            obj.insert(format!("{s}{i}"), Json::Str(s.to_string()));
        }
        obj.insert("nums".into(), Json::Arr(nums.iter().map(|&n| Json::Num(n)).collect()));
        obj.insert("misc".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]));
        let doc = Json::Obj(obj);
        assert_eq!(parse(&to_string(&doc)).unwrap(), doc);
    }

    #[test]
    fn unicode_escape_and_utf8_passthrough() {
        let v = parse(r#""café λ""#).unwrap();
        assert_eq!(v.as_str(), Some("café λ"));
        assert_eq!(parse(r#""\u00e9\u03bb""#).unwrap().as_str(), Some("éλ"));
        // Long runs of multi-byte characters on both sides of an escape.
        let long = "é".repeat(50_000) + "\n" + &"\u{1F600}λ".repeat(25_000);
        let txt = to_string(&Json::Str(long.clone()));
        assert_eq!(parse(&txt).unwrap().as_str(), Some(long.as_str()));
        assert!(parse("\"é\\").is_err());
        assert!(parse("\"\\u00é\"").is_err());
    }

    #[test]
    fn u64_discrimination() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        // The largest f64 below 2^64 fits; 2^64 itself does not.
        assert_eq!(parse("18446744073709549568").unwrap().as_u64(), Some(u64::MAX - 2047));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), Err(ParseError::TooDeep));
        assert_eq!(parse(&"[".repeat(1_000_000)), Err(ParseError::TooDeep));
        assert_eq!(parse(&"{\"k\":".repeat(1_000_000)), Err(ParseError::TooDeep));
    }

    #[test]
    fn scalars_serialize() {
        assert_eq!(to_string(&Json::Null), "null");
        assert_eq!(to_string(&Json::Bool(true)), "true");
        assert_eq!(to_string(&Json::Num(3.0)), "3");
        assert_eq!(to_string(&Json::Num(3.5)), "3.5");
        assert_eq!(to_string(&Json::Num(f64::NAN)), "null");
        assert_eq!(to_string(&Json::Num(123_456_789.0)), "123456789");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(to_string(&Json::Str("a\"b\\c\nd".into())), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_string(&Json::Str("\u{1}".into())), "\"\\u0001\"");
    }

    #[test]
    fn containers_nest() {
        // An ordered object keeps the order it is given; a stored one is
        // written in key order.
        let mut out = String::new();
        let xs = Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]);
        write_obj(&mut out, [("xs", xs.clone()), ("name", Json::Str("k".into()))]);
        assert_eq!(out, r#"{"xs":[1,2],"name":"k"}"#);
        let stored = Json::Obj(BTreeMap::from([("xs".into(), xs), ("name".into(), Json::Str("k".into()))]));
        assert_eq!(to_string(&stored), r#"{"name":"k","xs":[1,2]}"#);
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let v = parse(r#"{"k":1,"j":true,"k":2}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("j"), Some(&Json::Bool(true)));
        assert_eq!(v.get("absent"), None);
    }
}
