//! A small JSON reader — objects, arrays, strings with escapes, numbers,
//! `true`/`false`/`null` — shared by the sparse store's manifest and the
//! bench harness's record files (the build is offline, so no JSON crate).
//!
//! Numbers keep their literal text, so each caller types them as strictly
//! as it needs: [`Json::as_u64`] accepts only an unsigned integer literal,
//! [`Json::as_f64`] any JSON number.
//!
//! ```
//! use awb_sparse::json::Json;
//!
//! let doc = Json::parse(r#"{"n": 3, "x": -1.5e2, "s": "a\"\u00e9", "ok": true}"#).unwrap();
//! assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
//! assert_eq!(doc.get("x").and_then(Json::as_u64), None);
//! assert_eq!(doc.get("x").and_then(Json::as_f64), Some(-150.0));
//! assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"é"));
//! assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
//! assert!(Json::parse("[1, 2,]").is_err());
//! ```

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, with its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!(
                "trailing bytes after JSON value at offset {}",
                p.pos
            ));
        }
        Ok(value)
    }

    /// The value of field `key`, when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when `self` is an unsigned integer literal that fits
    /// `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when `self` is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
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

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b.is_ascii_digit() || b == b'-' => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at offset {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// `{` or `[` already peeked: items separated by `,` up to `close`.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at offset {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.items(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.expect(b':')?;
            Ok((key, p.value()?))
        })
        .map(Json::Obj)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.items(b'[', b']', Self::value).map(Json::Arr)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| "non-UTF8 string".into()),
                b'\\' => {
                    let at = self.pos - 1;
                    let escaped = match self.peek() {
                        Some(b'u') => {
                            // Four hex digits; surrogate code points are
                            // rejected rather than paired.
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            self.pos += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                        }
                        Some(b @ (b'"' | b'\\' | b'/')) => Some(b as char),
                        Some(b'b') => Some('\u{8}'),
                        Some(b'f') => Some('\u{c}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        _ => None,
                    };
                    let escaped = escaped.ok_or_else(|| format!("bad escape at offset {at}"))?;
                    self.pos += 1;
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_owned())),
            Err(_) => Err(format!("bad number `{text}` at offset {start}")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }
}
