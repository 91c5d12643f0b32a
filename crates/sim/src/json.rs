//! The crate's one JSON codec: a recursive value type, its parser and
//! single-line writer, and the field helpers the record format and the
//! `raa-sweepd` job protocol decode with.
//!
//! The workspace is offline-vendored (no serde), so the codec is
//! hand-rolled with exactly the rules both formats depend on: object fields
//! keep insertion order, strings escape `"`, `\\` and control characters
//! (and nothing else), numbers use Rust's shortest round-trip formatting
//! and non-finite numbers are written as `null`. One value is always one
//! line. Parsing is linear in the input length and depth-limited, so
//! hostile input can neither blow the stack nor stall the daemon.

use std::fmt::Write as _;

/// Deepest nesting the parser accepts (requests are ~3 levels deep;
/// the limit exists so hostile input cannot blow the stack).
pub(crate) const MAX_DEPTH: usize = 16;

/// A JSON value. Object fields keep insertion order, so encoding is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (written with shortest round-trip formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value (the whole input must be consumed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Serializes to a single line (no interior newlines: every newline in
    /// a string is escaped, so one value is always one line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
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
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes `s` as a JSON string: `"`, `\\` and control characters escaped.
///
/// Every escaped character is ASCII, so the unescaped runs between them
/// end on char boundaries and are copied as whole `&str` slices.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
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

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&other) => Err(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("malformed number at offset {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("malformed number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice:
            // both are ASCII, so the run ends on a char boundary and the
            // whole string is scanned once (linear in its length).
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| "invalid utf-8 in string".to_string())?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a backslash: decode one escape.
                Some(_) => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u code point {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape {other:?}")),
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

// Field helpers: typed lookups whose errors name the offending field, and
// builders for encoding.

pub(crate) fn req_field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

pub(crate) fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    req_field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

pub(crate) fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    req_field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

pub(crate) fn req_opt_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match req_field(obj, key)? {
        Json::Null => Ok(None),
        v => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a number or null")),
    }
}

pub(crate) fn req_usize(obj: &Json, key: &str) -> Result<usize, String> {
    let v = req_f64(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 || v > 2f64.powi(53) {
        return Err(format!("field {key:?} must be a non-negative integer"));
    }
    Ok(v as usize)
}

pub(crate) fn req_u32(obj: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(req_usize(obj, key)?)
        .map_err(|_| format!("field {key:?} is out of range for u32"))
}

pub(crate) fn req_bool(obj: &Json, key: &str) -> Result<bool, String> {
    req_field(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean"))
}

pub(crate) fn req_u64_str(obj: &Json, key: &str) -> Result<u64, String> {
    req_str(obj, key)?
        .parse()
        .map_err(|_| format!("field {key:?} must be a decimal u64 string"))
}

pub(crate) fn req_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req_field(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

pub(crate) fn num(v: f64) -> Json {
    Json::Num(v)
}

pub(crate) fn unum(v: usize) -> Json {
    Json::Num(v as f64)
}

pub(crate) fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-at-a-time writer the slice-copying one replaced, kept as
    /// its byte-for-byte oracle.
    fn write_json_string_oracle(out: &mut String, s: &str) {
        out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Pieces that put every escape class, `\u{7f}` and 1- to 4-byte
    /// UTF-8 scalars next to each other, so escapes land at the start,
    /// middle and end of the unescaped runs.
    const PIECES: [&str; 12] = [
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "plain run",
        "é",
        "中",
        "𝄞",
    ];

    /// One string per draw: a piece by index, or past the table any
    /// control character, or any scalar value.
    fn draws_to_string(draws: &[(usize, u32)]) -> String {
        draws
            .iter()
            .map(|&(kind, x)| match PIECES.get(kind) {
                Some(piece) => (*piece).to_string(),
                None if kind == PIECES.len() => char::from_u32(x % 0x20).unwrap().to_string(),
                None => char::from_u32(x % 0x11_0000)
                    .unwrap_or('\u{fffd}')
                    .to_string(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn string_writer_matches_char_at_a_time_oracle(
            draws in collection::vec((0..PIECES.len() + 2, any::<u32>()), 0..24)
        ) {
            let s = draws_to_string(&draws);
            let (mut fast, mut oracle) = (String::new(), String::new());
            write_json_string(&mut fast, &s);
            write_json_string_oracle(&mut oracle, &s);
            prop_assert_eq!(&fast, &oracle);
            prop_assert_eq!(Json::parse(&fast).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn long_strings_round_trip_across_run_boundaries() {
        // Escapes at the start and end of every plain run, next to
        // multi-byte scalars (2-, 3- and 4-byte UTF-8), over a long line.
        let pieces = [
            "\"", "ascii", "é", "\\", "λx", "\n", "中", "\u{1}", "𝄞", "\t/",
        ];
        let mut text = String::from("\\");
        for i in 0..4_000 {
            text.push_str(pieces[i % pieces.len()]);
            text.push_str(pieces[(i * 7 + 3) % pieces.len()]);
        }
        text.push('"');
        let value = Json::Arr(vec![Json::Str(text.clone()), Json::Str(String::new())]);
        let line = value.to_line();
        assert_eq!(Json::parse(&line).unwrap(), value);
        // Escapes the writer never emits still decode.
        assert_eq!(
            Json::parse(r#""a\/bé\b\f中""#).unwrap(),
            Json::Str("a/bé\u{8}\u{c}中".into())
        );
        assert!(Json::parse("\"é\\").is_err(), "unterminated after escape");
    }
}
