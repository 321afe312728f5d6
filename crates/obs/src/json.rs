//! The workspace's one JSON layer: a streaming writer and a
//! recursive-descent parser (no serde is available offline).
//!
//! Every document the system emits about itself — registry snapshots, event
//! logs, health reports, black boxes, Chrome traces, relay/host/tier stats,
//! scenario outcomes, capture manifests, `BENCH_*.json` — is written through
//! [`object`]: an emitter is a plain function that names keys and hands over
//! values, and [`Obj`]/[`Arr`] place the commas, quote the keys, escape the
//! strings and print the numbers. Whatever it is handed, the writer produces
//! a document [`parse`] accepts. The parser is what tests, the
//! [`crate::schema`] walker and `obs_schema_check` read documents back with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Containers nested deeper than this are written on one line; shallower
/// ones put each member on its own line, so a snapshot greps to one metric
/// per line and a checked-in `BENCH_*.json` diffs row by row.
const BREAK_DEPTH: usize = 2;

/// Write one JSON document: `fill` adds the members of its top-level object.
pub fn object(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, 0, fill);
    out
}

fn write_object(out: &mut String, depth: usize, fill: impl FnOnce(&mut Obj<'_>)) {
    let mut obj = Obj(Scope::open(out, depth, '{'));
    fill(&mut obj);
    obj.0.close('}');
}

fn write_array(out: &mut String, depth: usize, fill: impl FnOnce(&mut Arr<'_>)) {
    let mut arr = Arr(Scope::open(out, depth, '['));
    fill(&mut arr);
    arr.0.close(']');
}

/// An open `{}` or `[]`: where the next member goes and whether it needs a
/// comma.
struct Scope<'a> {
    out: &'a mut String,
    /// Nesting depth of this container; the document itself is 0.
    depth: usize,
    empty: bool,
}

impl<'a> Scope<'a> {
    fn open(out: &'a mut String, depth: usize, bracket: char) -> Scope<'a> {
        out.push(bracket);
        Scope {
            out,
            depth,
            empty: true,
        }
    }

    fn line_break(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", indent));
    }

    /// Comma and spacing before the next member or item.
    fn next(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        if self.depth < BREAK_DEPTH {
            self.line_break(self.depth + 1);
        } else if !self.empty {
            self.out.push(' ');
        }
        self.empty = false;
    }

    fn close(mut self, bracket: char) {
        if !self.empty && self.depth < BREAK_DEPTH {
            self.line_break(self.depth);
        }
        self.out.push(bracket);
    }

    fn display(&mut self, v: impl std::fmt::Display) {
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    /// Finite values in full precision; ±∞ as ±`f64::MAX` and NaN as `null`,
    /// because JSON has no spelling for them and `inf`/`NaN` do not parse.
    fn f64(&mut self, v: f64) {
        if v.is_nan() {
            self.out.push_str("null");
        } else {
            self.display(format_args!("{:?}", v.clamp(f64::MIN, f64::MAX)));
        }
    }
}

/// An object under construction: every method adds one member and returns
/// the object for chaining.
pub struct Obj<'a>(Scope<'a>);

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut Self {
        self.0.next();
        write_string(self.0.out, key);
        self.0.out.push_str(": ");
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(self.key(key).0.out, value);
        self
    }

    /// An unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key).0.display(value);
        self
    }

    /// A signed integer member.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key).0.display(value);
        self
    }

    /// A floating-point member: finite values in full precision, ±∞ as
    /// ±`f64::MAX`, NaN as `null` (JSON spells none of the three, and a
    /// document must parse whatever threshold or ratio it is handed).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key).0.f64(value);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).0.display(value);
        self
    }

    /// A member whose value is an already rendered JSON document (another
    /// emitter's output), embedded verbatim.
    pub fn raw(&mut self, key: &str, document: &str) -> &mut Self {
        self.key(key).0.out.push_str(document);
        self
    }

    /// A nested object member; `fill` adds its members.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.0.out, self.0.depth + 1, fill);
        self
    }

    /// A nested array member; `fill` appends its items.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.key(key);
        write_array(self.0.out, self.0.depth + 1, fill);
        self
    }
}

/// An array under construction: every method appends one item and returns
/// the array for chaining.
pub struct Arr<'a>(Scope<'a>);

impl Arr<'_> {
    /// A string item.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.0.next();
        write_string(self.0.out, value);
        self
    }

    /// An unsigned integer item.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.0.next();
        self.0.display(value);
        self
    }

    /// An object item; `fill` adds its members.
    pub fn object(&mut self, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.0.next();
        write_object(self.0.out, self.0.depth + 1, fill);
        self
    }

    /// An array item; `fill` appends its items.
    pub fn array(&mut self, fill: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.0.next();
        write_array(self.0.out, self.0.depth + 1, fill);
        self
    }
}

/// Escape and write `s` as a JSON string (with surrounding quotes).
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The numeric value as u64, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric value as i64, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
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
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
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
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).unwrap();
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert!(doc.get("d").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ – ünïcodé \u{1}";
        let mut buf = String::new();
        write_string(&mut buf, original);
        assert_eq!(parse(&buf).unwrap().as_str(), Some(original));
    }

    #[test]
    fn written_documents_parse_back_whatever_they_are_handed() {
        let hostile = "sp\"an\\ with\nnewline \u{1}";
        let text = object(|o| {
            o.str(hostile, hostile)
                .u64("max", u64::MAX)
                .i64("negative", -7)
                .bool("flag", true)
                .f64("ratio", 1.25e-7)
                .f64("huge", 1e300)
                .f64("inf", f64::INFINITY)
                .f64("neg_inf", f64::NEG_INFINITY)
                .f64("nan", f64::NAN)
                .raw(
                    "embedded",
                    &object(|o| {
                        o.u64("n", 1);
                    }),
                )
                .object("empty_object", |_| {})
                .array("empty_array", |_| {})
                .array("rows", |rows| {
                    rows.str(hostile).u64(3).array(|pair| {
                        pair.u64(1).u64(2);
                    });
                    rows.object(|o| {
                        o.object("deep", |o| {
                            o.u64("deeper", 4);
                        });
                    });
                });
        });
        let doc = parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(doc.get(hostile).and_then(Json::as_str), Some(hostile));
        assert_eq!(doc.get("max"), Some(&Json::Num(u64::MAX as f64)));
        assert_eq!(doc.get("negative").and_then(Json::as_i64), Some(-7));
        assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("ratio"), Some(&Json::Num(1.25e-7)));
        assert_eq!(doc.get("huge"), Some(&Json::Num(1e300)));
        assert_eq!(doc.get("inf"), Some(&Json::Num(f64::MAX)));
        assert_eq!(doc.get("neg_inf"), Some(&Json::Num(f64::MIN)));
        assert_eq!(doc.get("nan"), Some(&Json::Null));
        let embedded = doc.get("embedded").and_then(|e| e.get("n"));
        assert_eq!(embedded.and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("empty_object"), Some(&Json::Obj(BTreeMap::new())));
        assert_eq!(doc.get("empty_array"), Some(&Json::Arr(Vec::new())));
        let rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].as_str(), Some(hostile));
        assert_eq!(rows[2].as_array().map(<[Json]>::len), Some(2));
        let deeper = rows[3].get("deep").and_then(|d| d.get("deeper"));
        assert_eq!(deeper.and_then(Json::as_u64), Some(4));
        // Shallow members get a line each; deep ones share their parent's.
        assert!(text.lines().any(|l| l.trim_start().starts_with("\"max\"")));
        assert_eq!(text.lines().filter(|l| l.contains("deeper")).count(), 1);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":}",
            "",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn numeric_edge_cases() {
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert!(parse("1.5").unwrap().as_u64().is_none());
        assert!(parse("-1").unwrap().as_u64().is_none());
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
    }
}
