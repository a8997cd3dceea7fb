//! JSON for chaos reproducers (`chaos_repro_*.json`) and experiment
//! records (`BENCH_*.json`): a [`Value`], [`ToJson`] / [`FromJson`], and
//! [`json_struct!`](crate::json_struct) / [`json_enum!`](crate::json_enum)
//! for named-field structs and unit-variant enums. The printed bytes are
//! pinned (reproducers are named by a hash of the compact rendering); the
//! parser is linear-time and caps nesting at [`MAX_DEPTH`].

use crate::PeerId;
use std::fmt;

/// Deepest nesting [`parse`] accepts; the deepest shape written has four.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Non-negative integers keep full `u64` fidelity; every
/// other number is a `Float`.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    /// An object, in insertion order.
    Map(Vec<(String, Value)>),
}

/// Types that encode to a [`Value`].
pub trait ToJson {
    /// The encoded value.
    fn to_json(&self) -> Value;
}

/// Types that decode from a [`Value`].
pub trait FromJson: Sized {
    /// Decodes `v`, or names the mismatch when `v` is not shaped like `Self`.
    fn from_json(v: &Value) -> Result<Self, String>;
}

impl Value {
    /// Decodes field `name` of an object; an error names the field.
    pub fn field<T: FromJson>(&self, name: &str) -> Result<T, String> {
        let Value::Map(entries) = self else {
            return Err(format!("expected object, found {}", self.describe()));
        };
        let (_, v) = (entries.iter().find(|(k, _)| k == name))
            .ok_or_else(|| format!("missing field '{name}'"))?;
        T::from_json(v).map_err(|e| format!("field '{name}': {e}"))
    }

    fn describe(&self) -> String {
        match self {
            Value::Str(_) => "string".into(),
            Value::Seq(_) => "array".into(),
            Value::Map(_) => "object".into(),
            scalar => scalar.to_string(),
        }
    }

    /// Indented rendering: two spaces per level, `": "` after keys.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends the rendering at pretty depth `indent` (`None`: compact).
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) if !f.is_finite() => out.push_str("null"),
            Value::Float(f) => {
                let text = f.to_string();
                out.push_str(&text);
                // Keep floats distinguishable from integers.
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Value::Str(s) => write_str(s, out),
            Value::Seq(items) => write_list(out, "[]", indent, items.iter().map(|v| (None, v))),
            Value::Map(entries) => {
                let items = entries.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_list(out, "{}", indent, items);
            }
        }
    }
}

/// Compact rendering, without any whitespace.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_list<'a>(
    out: &mut String,
    brackets: &str,
    indent: Option<usize>,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let pad = |d: usize| format!("\n{:1$}", "", 2 * d);
    let (sep, colon, end) = match indent {
        Some(d) => (pad(d + 1), ": ", pad(d)),
        None => (String::new(), ":", String::new()),
    };
    out.push_str(&brackets[..1]);
    let nonempty = items.len() > 0;
    for (i, (key, v)) in items.enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        out.push_str(&sep);
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(colon);
        }
        v.write(out, indent.map(|d| d + 1));
    }
    out.push_str(if nonempty { &end } else { "" });
    out.push_str(&brackets[1..]);
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `text` (see [`parse`]) and decodes it as a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_json(&parse(text)?)
}

/// Parses one JSON value spanning all of `text` (whitespace aside); an
/// error names the byte offset of malformed input or trailing input, or
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    let trailing = || format!("trailing input at byte {}", p.pos);
    (p.pos == text.len()).then_some(v).ok_or_else(trailing)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if !self.text[self.pos..].starts_with(token) {
            return Err(match self.pos == self.text.len() {
                true => "unexpected end of input".into(),
                false => format!("expected '{token}' at byte {}", self.pos),
            });
        }
        self.pos += token.len();
        Ok(())
    }

    /// Consumes `close` and returns `true`, or else (past the first item)
    /// the comma before the next item, and the whitespace after it.
    fn at_end(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(true);
        }
        if !first {
            self.expect(",")?;
            self.skip_ws();
        }
        Ok(false)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        let pos = self.pos;
        if depth == MAX_DEPTH && matches!(self.peek(), Some(b'[' | b'{')) {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Value::Null),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.at_end(b']', items.is_empty())? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                while !self.at_end(b'}', entries.is_empty())? {
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Map(entries))
            }
            _ => self.number(),
        }
    }

    /// A string literal. Runs between escapes are copied as whole slices
    /// (`"` and `\` are ASCII, so every cut is a char boundary).
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let run = self.text[self.pos..]
                .find(['"', '\\'])
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let bad = format!("bad escape at byte {}", self.pos);
            out.push(match self.peek() {
                Some(b @ (b'"' | b'\\' | b'/')) => char::from(b),
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = (self.text.get(self.pos + 1..self.pos + 5))
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    self.pos += 4;
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    code.and_then(char::from_u32).ok_or(bad)?
                }
                _ => return Err(bad),
            });
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let len = self.text[start..].find(|c| !"0123456789+-.eE".contains(c));
        self.pos += len.unwrap_or(self.text.len() - start);
        let text = &self.text[start..self.pos];
        (text.parse().map(Value::UInt))
            .or_else(|_| text.parse().map(Value::Float))
            .map_err(|_| format!("expected a value at byte {start}"))
    }
}

fn uint<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    match v {
        Value::UInt(u) => T::try_from(*u).ok(),
        _ => None,
    }
}

/// `ToJson` / `FromJson` for scalars: `$x` (the value) encodes by `$to`;
/// `$v` (the JSON) decodes by `$from`, `None` meaning a mismatch.
macro_rules! scalar_json {
    ($($t:ty: $x:ident => $to:expr, $v:ident => $from:expr;)*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value { let $x = self; $to }
        }
        impl FromJson for $t {
            fn from_json($v: &Value) -> Result<Self, String> {
                $from.ok_or_else(|| format!("expected {}, found {}", stringify!($t), $v.describe()))
            }
        }
    )*};
}

scalar_json! {
    u8: x => Value::UInt(u64::from(*x)), v => uint(v);
    u16: x => Value::UInt(u64::from(*x)), v => uint(v);
    u64: x => Value::UInt(*x), v => uint(v);
    usize: x => Value::UInt(*x as u64), v => uint(v);
    PeerId: x => Value::UInt(x.0 as u64), v => uint(v).map(PeerId);
    bool: x => Value::Bool(*x), v => match v { Value::Bool(b) => Some(*b), _ => None };
    String: x => Value::Str(x.clone()), v => match v { Value::Str(s) => Some(s.into()), _ => None };
    f64: x => Value::Float(*x), v => match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    };
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Seq(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_json).collect(),
            other => Err(format!("expected array, found {}", other.describe())),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// `json_struct!(ToJson for T { a, b })` encodes struct `T` as an object
/// with the listed fields in the listed order; `ToJson, FromJson for …`
/// also decodes it (extra keys ignored, a missing field an error).
#[macro_export]
macro_rules! json_struct {
    (ToJson for $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Map(vec![$(
                    (stringify!($field).into(), $crate::json::ToJson::to_json(&self.$field)),
                )*])
            }
        }
    };
    (ToJson, FromJson for $ty:ident { $($field:ident),* $(,)? }) => {
        $crate::json_struct!(ToJson for $ty { $($field),* });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, String> {
                Ok($ty { $($field: v.field(stringify!($field))?),* })
            }
        }
    };
}

/// `json_enum!(ToJson, FromJson for E { A, B })` encodes each unit variant
/// of enum `E` as the string of its name, and decodes it back.
#[macro_export]
macro_rules! json_enum {
    (ToJson, FromJson for $ty:ident { $($variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let name = match self { $($ty::$variant => stringify!($variant)),* };
                $crate::json::Value::Str(name.into())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, String> {
                match <String as $crate::json::FromJson>::from_json(v)?.as_str() {
                    $(stringify!($variant) => Ok($ty::$variant),)*
                    other => Err(format!("unknown {} '{other}'", stringify!($ty))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: ToJson + FromJson + PartialEq + fmt::Debug>(v: T, text: &str) {
        assert_eq!(v.to_json().to_string(), text);
        assert_eq!(from_str::<T>(text), Ok(v), "{text}");
    }

    #[test]
    fn scalars_and_collections_round_trip() {
        round_trip(u64::MAX, "18446744073709551615");
        round_trip(1.5, "1.5");
        round_trip(2.0, "2.0");
        round_trip(1e-7, "0.0000001");
        round_trip(vec![Some(PeerId(1)), None], "[1,null]");
        round_trip(true, "true");
        assert_eq!(from_str::<f64>(" -7 "), Ok(-7.0));
        assert_eq!(f64::NAN.to_json().to_string(), "null");
    }

    #[test]
    fn objects_keep_key_order_in_both_renderings() {
        let inner = Value::Map(vec![("z".into(), Value::UInt(3))]);
        let v = Value::Map(vec![("p".into(), inner), ("a".into(), Value::Seq(vec![]))]);
        assert_eq!(v.to_string(), r#"{"p":{"z":3},"a":[]}"#);
        let pretty = "{\n  \"p\": {\n    \"z\": 3\n  },\n  \"a\": []\n}";
        assert_eq!(v.pretty(), pretty);
        assert_eq!(parse(pretty), Ok(v));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote\" back\\ nl\n cr\r tab\t bell\u{7} é ✓".to_string();
        round_trip(s, r#""quote\" back\\ nl\n cr\r tab\t bell\u0007 é ✓""#);
        assert_eq!(from_str(r#""\/\b\fé""#), Ok("/\u{8}\u{c}é".to_string()));
        // A quadratic scan would take minutes on 4 MB of multi-byte text.
        let long = "é".repeat(2 << 20);
        assert_eq!(from_str(&long.to_json().to_string()), Ok(long));
    }

    #[test]
    fn errors_name_the_byte_or_the_field() {
        let cases = [
            ("[1,]", "expected a value at byte 3"),
            ("[1 2]", "expected ',' at byte 3"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("12 34", "trailing input at byte 3"),
            ("\"open", "unterminated string"),
            (r#""\ud800""#, "bad escape at byte 2"),
            (r#""\u+0ff""#, "bad escape at byte 2"),
            ("nul", "expected 'null' at byte 0"),
            ("[1,", "unexpected end of input"),
        ];
        for (text, e) in cases {
            assert_eq!(parse(text), Err(e.to_string()), "{text:?}");
        }
        let obj = parse(r#"{"n":-1,"s":"x","b":70000}"#).unwrap();
        let field_errors = [
            ("n", "field 'n': expected u16, found -1.0"),
            ("s", "field 's': expected u16, found string"),
            ("b", "field 'b': expected u16, found 70000"),
            ("k", "missing field 'k'"),
        ];
        for (name, e) in field_errors {
            assert_eq!(obj.field::<u16>(name), Err(e.to_string()));
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |d| "[".repeat(d) + &"]".repeat(d);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e, "nesting deeper than 64 at byte 64");
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
    }
}
