//! Minimal self-contained JSON reader for the exporters' round-trip
//! parsers and the Chrome-trace validator. Numbers keep their raw token so
//! 64-bit ids (flood ids pack a shard into the high bits) survive exactly
//! instead of being squeezed through `f64`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    /// Raw number token, validated but not narrowed at parse time.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document (trailing whitespace allowed).
    pub(crate) fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    /// The document; `bytes` is its byte view, `pos` indexes both.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        raw.parse::<f64>()
            .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
        self.pos = end;
        Ok(code)
    }

    /// After a high surrogate: consume a following `\uXXXX` escape if it is
    /// a low surrogate and return its ten payload bits; leave anything else
    /// unconsumed (`None` — the high surrogate was unpaired).
    fn low_surrogate(&mut self) -> Result<Option<u32>, String> {
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Ok(None);
        }
        let escape_start = self.pos;
        self.pos += 2;
        let lo = self.hex4()?;
        if (0xDC00..0xE000).contains(&lo) {
            Ok(Some(lo - 0xDC00))
        } else {
            self.pos = escape_start;
            Ok(None)
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.low_surrogate()?
                                    .map_or(0xFFFD, |lo| 0x10000 + ((hi - 0xD800) << 10) + lo)
                            } else {
                                hi
                            };
                            // a lone low surrogate is no scalar value either
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // copy the run up to the next quote or escape in one
                    // go; both are ASCII, so they never fall inside a
                    // multi-byte sequence and the run is whole scalars
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .ok_or("unterminated string")?;
                    let text = self
                        .src
                        .get(self.pos..self.pos + run)
                        .ok_or("string run off a character boundary")?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }
}

/// Escape a string for embedding in a JSON document (adds no quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "s": "x\ny"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn large_u64_survive_exactly() {
        // 2^54 + 1 is not representable in f64 — the raw-token path is the
        // point of this parser (flood ids pack a shard into the high bits)
        let n = (1u64 << 54) + 1;
        let v = Json::parse(&format!("{{\"flood\": {n}}}")).unwrap();
        assert_eq!(v.get("flood").unwrap().as_u64(), Some(n));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = format!("{{\"s\": \"{}\"}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn unpaired_surrogates_become_replacement_characters() {
        let parsed = |doc: &str| Json::parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(parsed(r#""\ud800A""#), "\u{FFFD}A");
        // mis-paired: the second escape is kept as its own character
        assert_eq!(parsed(r#""\ud800\u0041""#), "\u{FFFD}A");
        assert_eq!(parsed(r#""\udc00""#), "\u{FFFD}");
        assert_eq!(parsed(r#""\ud83d\ude00""#), "\u{1F600}");
        assert!(Json::parse(r#""\ud800\u00""#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // per-character re-validation of the rest of the document made
        // this quadratic: ~1 MB took minutes, not milliseconds
        let body = "x— ".repeat(200_000);
        let doc = format!("[\"{body}\", \"{body}\"]");
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some(body.as_str()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
