//! The workspace's one JSON reader: a small recursive-descent parser into
//! a [`Value`] tree. The checkpoint codec reads through it, and tests use
//! it to round-trip exported documents (Chrome traces). The workspace
//! deliberately has no serialization dependency.

/// A parsed JSON value (objects keep key order).
#[derive(Debug, Clone, PartialEq)]
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
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset; numbers are read
/// as `f64`.
pub fn parse_json(src: &str) -> Result<Value, String> {
    let mut p = JsonParser { src, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct JsonParser<'a> {
    src: &'a str,
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both delimiters are ASCII, so the run ends on a char
            // boundary of the already-validated source.
            let run = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(
            r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny", "d": true, "e": null}, "f": "π"}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-0.03)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Value::Null));
        assert_eq!(v.get("f").unwrap().as_str(), Some("π"));
        // Multibyte UTF-8 runs interleaved with \uXXXX and \" escapes.
        let u = "\x5cu"; // a backslash-u escape prefix
        let src = format!(r#"{{"s": "a{u}00f1é→\"q\"日{u}672c日\\z"}}"#);
        let v = parse_json(&src).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("añé→\"q\"日本日\\z"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("").is_err());
        // An unterminated string whose last char is multibyte.
        assert_eq!(parse_json("\"abc日").unwrap_err(), "unterminated string");
        assert!(parse_json("{\"k\": \"π").is_err());
        // A dangling escape at the end of input.
        assert!(parse_json("\"ab\\").is_err());
        assert!(parse_json(r#""\u12""#).is_err());
    }

    #[test]
    fn parses_unicode_escape() {
        let v = parse_json(r#""aéb""#).unwrap();
        assert_eq!(v.as_str(), Some("aéb"));
        let v = parse_json(&format!(r#""a{}00e9b""#, "\x5cu")).unwrap();
        assert_eq!(v.as_str(), Some("aéb"));
        // A lone surrogate is not a scalar value: it reads as U+FFFD.
        let v = parse_json(r#""a\ud800b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{fffd}b"));
    }

    /// The parser takes `&str`, so invalid UTF-8 is refused before it
    /// gets here (checkpoints are read with `read_to_string`); its lossy
    /// decoding is an ordinary string with a replacement char.
    #[test]
    fn invalid_utf8_never_reaches_the_parser() {
        let lossy = String::from_utf8_lossy(b"\"a\xffb\"");
        assert_eq!(parse_json(&lossy).unwrap().as_str(), Some("a\u{fffd}b"));
    }

    /// Strings are scanned once, run by run, so a long string parses in
    /// time linear in its length.
    #[test]
    fn long_strings_parse() {
        let body = "é".repeat(1 << 18);
        let doc = format!("[\"{body}\", \"{body}\"]");
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.as_array().unwrap()[1].as_str(), Some(body.as_str()));
    }
}
