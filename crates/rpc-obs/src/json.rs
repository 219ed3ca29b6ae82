//! Minimal JSON helpers for the flat JSON-lines trace format.
//!
//! The workspace hand-rolls its JSON (no serde): the writer side only needs
//! string escaping, and the `profile` report pipeline only needs to parse the
//! *flat* objects the [`TraceWriter`](crate::TraceWriter) emits — one object
//! per line, string/number/bool/null values, no nesting.

use std::fmt::Write as _;

/// A scalar JSON value as found in a flat trace object.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A (decoded) string.
    Str(String),
    /// A number, held as `f64` (trace numbers are counters and nanos, all
    /// exactly representable well past any realistic magnitude here).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a count: `Some` only for a whole number from
    /// 0 to 2^53, the range in which `f64` holds every integer exactly. A
    /// fraction, a negative, or an exponent that overflowed (`4e45032`
    /// parses as infinity) is `None`, never a truncated or saturated value.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Parses one flat JSON object line into its key/value pairs, in source
/// order. Returns `None` on anything that is not a single flat object of
/// scalar values — nested objects/arrays are rejected, because the trace
/// format never produces them.
pub fn parse_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_scalar()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return None,
            }
        }
    }
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(pairs)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        if self.next()? == b {
            Some(())
        } else {
            None
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Some(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.next()? as char).to_digit(16)?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                b => {
                    // Re-decode UTF-8 continuation bytes by slicing the
                    // source instead of pushing raw bytes.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        while self.peek().is_some_and(|c| c & 0xC0 == 0x80) {
                            self.pos += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                    }
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Option<JsonValue> {
        match self.peek()? {
            b'"' => Some(JsonValue::Str(self.parse_string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                text.parse().ok().map(JsonValue::Num)
            }
            _ => None,
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Option<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(value)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ—✓";
        let mut line = String::from("{");
        escape_into(&mut line, "k");
        line.push(':');
        escape_into(&mut line, nasty);
        line.push('}');
        let pairs = parse_object(&line).expect("parses");
        assert_eq!(pairs, vec![("k".to_string(), JsonValue::Str(nasty.to_string()))]);
    }

    #[test]
    fn parses_flat_objects_in_order() {
        let pairs = parse_object(r#"{"ev":"round","round":3,"done":true,"x":null,"f":-1.5}"#)
            .expect("parses");
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], ("ev".to_string(), JsonValue::Str("round".to_string())));
        assert_eq!(pairs[1].1.as_u64(), Some(3));
        assert_eq!(pairs[2].1.as_bool(), Some(true));
        assert_eq!(pairs[3].1, JsonValue::Null);
        assert_eq!(pairs[4].1.as_f64(), Some(-1.5));
    }

    #[test]
    fn as_u64_accepts_only_exact_counts() {
        let count = |text: &str| parse_object(&format!(r#"{{"n":{text}}}"#)).unwrap()[0].1.as_u64();
        assert_eq!(count("0"), Some(0));
        assert_eq!(count("9007199254740992"), Some(1 << 53));
        for bad in ["1.5", "-1", "4e45032", "9007199254740994", "\"7\""] {
            assert_eq!(count(bad), None, "{bad}");
        }
    }

    #[test]
    fn rejects_nesting_and_trailing_garbage() {
        assert!(parse_object(r#"{"a":{"b":1}}"#).is_none());
        assert!(parse_object(r#"{"a":[1]}"#).is_none());
        assert!(parse_object(r#"{"a":1} extra"#).is_none());
        assert!(parse_object(r#"{"a":1,}"#).is_none());
        assert!(parse_object("").is_none());
    }

    #[test]
    fn empty_object_is_fine() {
        assert_eq!(parse_object("{}"), Some(Vec::new()));
        assert_eq!(parse_object("  { }  "), Some(Vec::new()));
    }
}
