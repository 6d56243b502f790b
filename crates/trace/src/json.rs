//! A minimal JSON value model: render and parse, no dependencies.
//!
//! This exists because the container ships no serde; the metrics layer
//! (`multidim-sim`'s `RunMetrics`) and the Chrome trace exporter both
//! round-trip through [`Json`]. Numbers are `f64` (Rust's `Display` for
//! `f64` prints the shortest representation that parses back exactly, so
//! `render → parse` is lossless for every finite value); non-finite
//! numbers render as `null`. The parser recurses once per nesting level,
//! so it refuses documents nested deeper than [`MAX_DEPTH`].

use std::fmt;

/// How deep arrays and objects may nest in a document [`Json::parse`]
/// accepts.
pub const MAX_DEPTH: usize = 128;

/// Why [`Json::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed text: what was wrong, and at which byte.
    Syntax(String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]: the byte offset
    /// of the first bracket past it.
    TooDeep(usize),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(what) => f.write_str(what),
            JsonError::TooDeep(at) => {
                write!(f, "nested deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(what: String) -> Self {
        JsonError::Syntax(what)
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Value as u64 (must be a non-negative integer-valued number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Value as string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Value as array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip representation; strip Rust's
                    // exponent forms JSON doesn't mind but keep it simple.
                    use fmt::Write as _;
                    let _ = write!(out, "{v}");
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Parse a JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Syntax`] with a human-readable message naming
    /// the byte offset of the first syntax error, or
    /// [`JsonError::TooDeep`] for a document nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}").into());
        }
        Ok(value)
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
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The value at `pos`, inside `depth` arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(String::from("unexpected end of input").into()),
        Some(b'n') => Ok(parse_lit(b, pos, "null", Json::Null)?),
        Some(b't') => Ok(parse_lit(b, pos, "true", Json::Bool(true))?),
        Some(b'f') => Ok(parse_lit(b, pos, "false", Json::Bool(false))?),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(JsonError::TooDeep(*pos)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}").into()),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}").into());
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}").into()),
                }
            }
        }
        Some(_) => Ok(parse_number(b, pos)?),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed for our own output;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (j, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::Num(3.0), "3"),
            (Json::Num(-0.25), "-0.25"),
            (Json::Str("hi".into()), "\"hi\""),
        ] {
            assert_eq!(j.render(), s);
            assert_eq!(Json::parse(s).unwrap(), j);
        }
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        let rendered = j.render();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&rendered).unwrap(), j);
    }

    #[test]
    fn nested_structures_round_trip() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("k".into())),
            (
                "values".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("flag".into(), Json::Bool(false))]),
            ),
        ]);
        let text = j.render();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456, f64::MAX, 5e-324] {
            let text = Json::Num(v).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "{text}");
        }
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parses_whitespace_and_rejects_garbage() {
        let j = Json::parse("  { \"a\" : [ 1 , 2 ] }  ").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("").is_err());
    }

    /// The parser recurses once per level, so a document nested deeper
    /// than any real one must be an error, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep(MAX_DEPTH))
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        let at = 5 * MAX_DEPTH;
        assert_eq!(Json::parse(&objects), Err(JsonError::TooDeep(at)));
        assert_eq!(
            Json::parse(&"[".repeat(100_000)),
            Err(JsonError::TooDeep(MAX_DEPTH))
        );
    }

    #[test]
    fn accessors() {
        let j = Json::parse("{\"n\": 4, \"s\": \"x\", \"a\": [true]}").unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::parse("-2.5").unwrap().as_u64(), None);
    }
}
