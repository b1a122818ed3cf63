//! A minimal dependency-free JSON parser.
//!
//! The build environment is offline (no `serde`), but the exporter
//! needs to *validate* what it emits — a trace that Perfetto rejects is
//! worse than no trace. This module
//! parses standard JSON into a [`JsonValue`] tree; it favors clarity
//! over speed and is meant for tests and tooling, not hot paths.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order preserved, duplicate keys kept as-is.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse failure: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.to_string(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = match self.bump() {
                                Some(d) => d,
                                None => return self.err("truncated \\u escape"),
                            };
                            let v = match (d as char).to_digit(16) {
                                Some(v) => v,
                                None => return self.err("invalid \\u escape digit"),
                            };
                            code = code * 16 + v;
                        }
                        // Surrogates and other invalid scalars map to
                        // the replacement character (validation use
                        // only; lossless round-tripping is not a goal).
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(b) if b < 0x20 => return self.err("raw control character in string"),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences from the
                    // original input slice.
                    let start = self.pos - 1;
                    let width = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xF0 => 4,
                        _ if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let end = start + width;
                    if end > self.bytes.len() {
                        return self.err("truncated UTF-8 sequence");
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid UTF-8 in string"),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return self.err("invalid number bytes"),
        };
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => self.err("invalid number"),
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Array(items)),
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.value()?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(JsonValue::Object(members)),
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\ny"}"#)
            .expect("valid document");
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_array())
                .and_then(|a| a[2].as_f64()),
            Some(-300.0)
        );
        assert!(matches!(
            v.get("b").and_then(|b| b.get("d")),
            Some(JsonValue::Bool(true))
        ));
        assert_eq!(v.get("e").and_then(JsonValue::as_str), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn resolves_escapes_and_unicode() {
        let v = parse(r#""A\t\"\\é""#).expect("valid string");
        assert_eq!(v.as_str(), Some("A\t\"\\é"));
        let v = parse("\"héllo – ☃\"").expect("raw multibyte UTF-8");
        assert_eq!(v.as_str(), Some("héllo – ☃"));
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = parse(" \n{ \"k\" :\t[ 1 , 2 ] }\r\n").expect("valid");
        assert_eq!(
            v.get("k").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
    }
}
