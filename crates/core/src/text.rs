//! The workspace's one TOML-subset reader and writer.
//!
//! Adversary scripts ([`crate::script`]) and scenario files (`bsm_engine::ScenarioFile`)
//! are both written in a small subset of TOML. This module owns that subset — the
//! value lexer, `[table]`/`[[array]]` sections, duplicate-key rejection, the
//! line-positioned [`TextError`] and the canonical [`Writer`] — so each format is
//! schema code only: it declares its table headers, takes its keys through typed
//! accessors, and [`Table::finish`] rejects whatever it did not take.
//!
//! # Grammar
//!
//! * blank lines, full-line `#` comments and `#` comments trailing a value;
//! * `key = value` lines, where the key is a bare key (ASCII letters, digits, `_`,
//!   `-`) and the value is one of
//!   - a `"…"` string whose only escapes are `\"` and `\\`,
//!   - an unsigned decimal integer with no sign and no leading zeros,
//!   - `true` or `false`,
//!   - a `[…]` array whose elements share one kind (arrays nest; one trailing comma
//!     is allowed);
//! * keys before the first header belong to the root table;
//! * `[name]` headers (each at most once) and `[[name]]` headers (any number of
//!   times), limited to those the format declares, each alone on its line.
//!
//! Everything else — floats, signs, dotted keys, inline tables, multi-line strings —
//! is an error positioned at its line.
//!
//! # Canonical form
//!
//! [`Writer`] renders one `key = value` line per pair and one blank line before every
//! header after the first line, with no comments. [`Value`]'s `Display` is the
//! canonical rendering of a value, and parsing it gives the value back, so a format
//! whose renderer writes what its parser takes has `parse ∘ render` as a fixpoint.

use std::fmt::{self, Write as _};
use std::path::Path;
use std::str::FromStr;

/// Arrays nested deeper than this are rejected (both formats need two levels).
const MAX_DEPTH: usize = 32;

/// A line-positioned error reading a TOML-subset file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// What was being read (`"script"`, `"scenario file"`), for the rendered message.
    pub format: &'static str,
    /// 1-based line of the offending line or key; the table header's line for a
    /// missing key; 0 for a file-level error (a missing table, an unreadable file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "{}: {}", self.format, self.message),
            line => write!(f, "{} line {line}: {}", self.format, self.message),
        }
    }
}

impl std::error::Error for TextError {}

/// Reads a file for [`Document::parse`]; an unreadable file is a line-0 error.
///
/// # Errors
///
/// A [`TextError`] at line 0 naming the path and the I/O error.
pub fn read(path: &Path, format: &'static str) -> Result<String, TextError> {
    std::fs::read_to_string(path).map_err(|err| TextError {
        format,
        line: 0,
        message: format!("cannot read {}: {err}", path.display()),
    })
}

/// A parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A quoted string, unescaped.
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// `true` or `false`.
    Bool(bool),
    /// An array whose elements share one kind.
    Array(Vec<Value>),
}

/// The value converters below are the typed accessors' `convert` arguments: each
/// returns the reason a value is unfit, which [`Table::get`] positions at the key.
impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    fn mismatch(&self, wanted: &str) -> String {
        format!("expected {wanted}, found {}", self.kind())
    }

    /// The string.
    pub fn string(self) -> Result<String, String> {
        match self {
            Value::Str(text) => Ok(text),
            other => Err(other.mismatch("string")),
        }
    }

    /// The integer.
    pub fn int(self) -> Result<u64, String> {
        match self {
            Value::Int(n) => Ok(n),
            other => Err(other.mismatch("integer")),
        }
    }

    /// The integer, if it fits `T`.
    pub fn narrow<T: TryFrom<u64>>(self) -> Result<T, String> {
        let n = self.int()?;
        T::try_from(n).map_err(|_| format!("{n} is out of range"))
    }

    /// The boolean.
    pub fn bool(self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(other.mismatch("boolean")),
        }
    }

    /// The array's elements.
    pub fn array(self) -> Result<Vec<Value>, String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(other.mismatch("array")),
        }
    }

    /// The array's elements, each converted by `each`.
    pub fn list<T>(self, each: impl FnMut(Value) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.array()?.into_iter().map(each).collect()
    }

    /// A string read through `T`'s [`FromStr`] — how axis names become enums.
    pub fn parse<T: FromStr>(self) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        self.string()?.parse().map_err(|err: T::Err| err.to_string())
    }
}

/// The canonical rendering: parsing it gives the value back.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(text) => {
                f.write_char('"')?;
                for c in text.chars() {
                    if matches!(c, '"' | '\\') {
                        f.write_char('\\')?;
                    }
                    f.write_char(c)?;
                }
                f.write_char('"')
            }
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(items) => {
                f.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
        }
    }
}

impl From<&str> for Value {
    fn from(text: &str) -> Self {
        Value::Str(text.to_string())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// The text after `key =`: one value, then only spaces or a comment.
fn parse_value(text: &str) -> Result<Value, String> {
    let mut lexer = Lexer { rest: text };
    let value = lexer.value(0)?;
    let rest = lexer.rest.trim_start();
    if rest.is_empty() || rest.starts_with('#') {
        Ok(value)
    } else {
        Err(format!("unexpected trailing content {rest:?}"))
    }
}

struct Lexer<'a> {
    rest: &'a str,
}

impl Lexer<'_> {
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.rest = self.rest.trim_start();
        match self.rest.as_bytes().first() {
            Some(b'"') => self.string(),
            Some(b'[') if depth < MAX_DEPTH => self.array(depth + 1),
            Some(b'[') => Err(format!("arrays nested deeper than {MAX_DEPTH} levels")),
            Some(b'0'..=b'9') => self.integer(),
            _ => self.boolean(),
        }
    }

    fn string(&mut self) -> Result<Value, String> {
        let mut out = String::new();
        let mut chars = self.rest.char_indices().skip(1);
        while let Some((index, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[index + 1..];
                    return Ok(Value::Str(out));
                }
                '\\' => match chars.next() {
                    Some((_, escaped @ ('"' | '\\'))) => out.push(escaped),
                    other => {
                        let shown = other.map(|(_, c)| c.to_string()).unwrap_or_default();
                        return Err(format!("unsupported string escape \\{shown}"));
                    }
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn integer(&mut self) -> Result<Value, String> {
        let end = self.rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(self.rest.len());
        let (digits, rest) = self.rest.split_at(end);
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(format!("integer {digits} has leading zeros"));
        }
        let n = digits.parse().map_err(|_| format!("integer {digits} is out of range"))?;
        self.rest = rest;
        Ok(Value::Int(n))
    }

    fn boolean(&mut self) -> Result<Value, String> {
        for (word, b) in [("true", true), ("false", false)] {
            if let Some(rest) = self.rest.strip_prefix(word) {
                self.rest = rest;
                return Ok(Value::Bool(b));
            }
        }
        Err(format!("invalid value {:?} (expected a string, integer, boolean or array)", self.rest))
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.rest = &self.rest[1..]; // the opening bracket
        let mut items: Vec<Value> = Vec::new();
        loop {
            self.rest = self.rest.trim_start();
            if !items.is_empty() && !self.rest.starts_with(']') {
                let Some(rest) = self.rest.strip_prefix(',') else {
                    return Err(format!("expected ',' or ']' in array, found {:?}", self.rest));
                };
                self.rest = rest.trim_start(); // a single trailing comma is allowed
            }
            if let Some(rest) = self.rest.strip_prefix(']') {
                self.rest = rest;
                return Ok(Value::Array(items));
            }
            let item = self.value(depth)?;
            if items.first().is_some_and(|first| first.kind() != item.kind()) {
                return Err("mixed array element types".into());
            }
            items.push(item);
        }
    }
}

/// ` (expected a, b or c)`, or nothing for an empty list.
fn expected(names: &[&str]) -> String {
    match names.split_last() {
        None => String::new(),
        Some((last, [])) => format!(" (expected {last})"),
        Some((last, rest)) => format!(" (expected {} or {last})", rest.join(", ")),
    }
}

#[derive(Debug)]
struct Entry {
    key: String,
    line: usize,
    /// `None` once a typed accessor has taken it.
    value: Option<Value>,
}

/// One table of a [`Document`]: its header line and its entries, which the schema
/// takes through typed accessors before [`finish`](Self::finish) rejects the rest.
///
/// The default table is empty, standing in for an optional table a file omits.
#[derive(Debug, Default)]
pub struct Table {
    format: &'static str,
    /// The header as written (`"[grid]"`); empty for the root table.
    header: &'static str,
    /// The header's line; 0 for the root table.
    line: usize,
    entries: Vec<Entry>,
    /// Keys the schema asked for, in order — the expected list of an unknown key.
    asked: Vec<&'static str>,
}

impl Table {
    fn new(format: &'static str, header: &'static str, line: usize) -> Self {
        Self { format, header, line, entries: Vec::new(), asked: Vec::new() }
    }

    /// The header's line (0 for the root table).
    pub fn line(&self) -> usize {
        self.line
    }

    /// An error positioned at the header (a problem of the table as a whole).
    pub fn error(&self, message: impl Into<String>) -> TextError {
        TextError { format: self.format, line: self.line, message: message.into() }
    }

    /// An error positioned at `key`'s line, or at the header when the key is absent.
    pub fn key_error(&self, key: &str, message: impl Into<String>) -> TextError {
        let line = self.entries.iter().find(|entry| entry.key == key).map_or(self.line, |e| e.line);
        TextError { format: self.format, line, message: message.into() }
    }

    /// Takes optional `key` and converts its value; a conversion error is positioned
    /// at the key's line and prefixed with the key.
    ///
    /// # Errors
    ///
    /// The reason `convert` gives, as a [`TextError`].
    pub fn get<T>(
        &mut self,
        key: &'static str,
        convert: impl FnOnce(Value) -> Result<T, String>,
    ) -> Result<Option<T>, TextError> {
        self.asked.push(key);
        let format = self.format;
        let Some(entry) = self.entries.iter_mut().find(|entry| entry.key == key) else {
            return Ok(None);
        };
        let Some(value) = entry.value.take() else { return Ok(None) };
        convert(value).map(Some).map_err(|message| TextError {
            format,
            line: entry.line,
            message: format!("{key}: {message}"),
        })
    }

    /// Takes required `key`, like [`get`](Self::get); a missing key is an error at
    /// the header's line.
    ///
    /// # Errors
    ///
    /// A missing key, or the reason `convert` gives.
    pub fn require<T>(
        &mut self,
        key: &'static str,
        convert: impl FnOnce(Value) -> Result<T, String>,
    ) -> Result<T, TextError> {
        let value = self.get(key, convert)?;
        value.ok_or_else(|| self.missing(key))
    }

    /// The error for a missing required `key`, positioned at the header.
    pub fn missing(&self, key: &str) -> TextError {
        match self.header {
            "" => self.error(format!("missing required key {key}")),
            header => self.error(format!("missing required key {key} in {header}")),
        }
    }

    /// Rejects any key the schema did not take.
    ///
    /// # Errors
    ///
    /// The first such key, positioned at its line, with the keys the table takes.
    pub fn finish(&self) -> Result<(), TextError> {
        let Some(entry) = self.entries.iter().find(|entry| entry.value.is_some()) else {
            return Ok(());
        };
        let place = match self.header {
            "" => "outside any section".to_string(),
            header => format!("in {header}"),
        };
        Err(TextError {
            format: self.format,
            line: entry.line,
            message: format!("unknown key {:?} {place}{}", entry.key, expected(&self.asked)),
        })
    }
}

/// A parsed file: the root table and every other table in file order.
#[derive(Debug)]
pub struct Document {
    format: &'static str,
    /// Keys before the first header.
    pub root: Table,
    tables: Vec<Table>,
}

impl Document {
    /// Parses `text` as a `format` file whose only table headers are `headers`, each
    /// written `"[name]"` or `"[[name]]"`.
    ///
    /// # Errors
    ///
    /// The first line outside the grammar, an undeclared or repeated `[name]` header,
    /// or a key repeated within one table, positioned at its line.
    pub fn parse(
        text: &str,
        format: &'static str,
        headers: &[&'static str],
    ) -> Result<Self, TextError> {
        let mut doc = Document { format, root: Table::new(format, "", 0), tables: Vec::new() };
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let error = |message: String| TextError { format, line, message };
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if trimmed.starts_with('[') {
                let Some(&header) = headers.iter().find(|&&header| header == trimmed) else {
                    return Err(error(format!("unknown table {trimmed:?}{}", expected(headers))));
                };
                if !header.starts_with("[[") && doc.tables.iter().any(|t| t.header == header) {
                    return Err(error(format!("duplicate {header} table")));
                }
                doc.tables.push(Table::new(format, header, line));
                continue;
            }
            let Some((key, value)) = trimmed.split_once('=') else {
                return Err(error(format!("expected key = value, found {trimmed:?}")));
            };
            let key = key.trim_end();
            let bare = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
            if key.is_empty() || !key.bytes().all(bare) {
                return Err(error(format!("invalid key {key:?}")));
            }
            let value = parse_value(value).map_err(error)?;
            let table = doc.tables.last_mut().unwrap_or(&mut doc.root);
            if table.entries.iter().any(|entry| entry.key == key) {
                return Err(error(format!("duplicate key {key}")));
            }
            table.entries.push(Entry { key: key.to_string(), line, value: Some(value) });
        }
        Ok(doc)
    }

    /// A file-level error (line 0).
    pub fn error(&self, message: impl Into<String>) -> TextError {
        TextError { format: self.format, line: 0, message: message.into() }
    }

    /// Removes the `[name]` table, if the file has one.
    pub fn table(&mut self, header: &str) -> Option<Table> {
        let index = self.tables.iter().position(|table| table.header == header)?;
        Some(self.tables.remove(index))
    }

    /// Removes every `[[name]]` table, in file order.
    pub fn tables(&mut self, header: &str) -> Vec<Table> {
        let (taken, kept) =
            std::mem::take(&mut self.tables).into_iter().partition(|t| t.header == header);
        self.tables = kept;
        taken
    }
}

/// Renders a document in canonical form.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// Starts a table (`"[name]"` or `"[[name]]"`), after a blank line unless it is
    /// the first line.
    pub fn header(&mut self, header: &str) {
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        self.out.push_str(header);
        self.out.push('\n');
    }

    /// Writes one `key = value` line.
    pub fn pair(&mut self, key: &str, value: impl Into<Value>) {
        let _ = writeln!(self.out, "{key} = {}", value.into());
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::AdversarySpec;
    use crate::problem::AuthMode;
    use crate::solvability::ProtocolPlan;
    use bsm_net::Topology;

    fn parse(text: &str) -> Result<Document, TextError> {
        Document::parse(text, "test", &["[t]", "[[a]]"])
    }

    fn value(text: &str) -> Result<Value, TextError> {
        let mut doc = parse(&format!("v = {text}\n"))?;
        doc.root.require("v", Ok)
    }

    #[test]
    fn values_cover_the_grammar_and_render_canonically() {
        for (text, canonical) in [
            ("\"a \\\"q\\\" \\\\ b\"", "\"a \\\"q\\\" \\\\ b\""),
            ("0", "0"),
            ("18446744073709551615", "18446744073709551615"),
            ("true", "true"),
            ("false # trailing comment", "false"),
            ("[]", "[]"),
            ("[1,2,]", "[1, 2]"),
            ("[ [1, 2], [3] ]", "[[1, 2], [3]]"),
            ("[\"a#b\", \"c\"]  # comment", "[\"a#b\", \"c\"]"),
        ] {
            let parsed = value(text).unwrap_or_else(|err| panic!("{text}: {err}"));
            assert_eq!(parsed.to_string(), canonical, "{text}");
            assert_eq!(value(canonical).unwrap(), parsed, "{canonical} must parse back");
        }
    }

    #[test]
    fn everything_outside_the_grammar_is_a_positioned_error() {
        for (text, needle) in [
            ("007", "leading zeros"),
            ("+5", "invalid value"),
            ("-5", "invalid value"),
            ("1.5", "trailing content"),
            ("18446744073709551616", "out of range"),
            ("\"open", "unterminated string"),
            ("\"\\n\"", "unsupported string escape"),
            ("[1, \"x\"]", "mixed array"),
            ("[1 2]", "expected ',' or ']'"),
            ("[1,,]", "invalid value"),
            ("{a = 1}", "invalid value"),
            ("yes", "invalid value"),
        ] {
            let err = value(text).unwrap_err();
            assert_eq!(err.line, 1, "{text}: {err}");
            assert!(err.message.contains(needle), "{text}: {err}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(value(&deep).unwrap_err().message.contains("nested deeper"));
        for (text, line, needle) in [
            ("x = 1\n[u]\n", 2, "unknown table \"[u]\" (expected [t] or [[a]])"),
            ("[t]\n[t] # c\n", 2, "unknown table"),
            ("[t]\nx = 1\n[t]\n", 3, "duplicate [t] table"),
            ("[[a]]\nx = 1\nx = 2\n", 3, "duplicate key x"),
            ("\n\nnot a pair\n", 3, "expected key = value"),
            ("a.b = 1\n", 1, "invalid key"),
            (" = 1\n", 1, "invalid key"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!((err.line, err.to_string().contains(needle)), (line, true), "{err}");
        }
    }

    #[test]
    fn tables_take_typed_keys_and_reject_the_rest() {
        let text = "r = 1\n\n[[a]]\nn = 2\n[t]\ns = \"x\"\nextra = true\n[[a]]\nn = 3\n";
        let mut doc = parse(text).unwrap();
        assert_eq!(doc.root.require("r", Value::int), Ok(1));
        let arrays = doc.tables("[[a]]");
        assert_eq!(arrays.iter().map(Table::line).collect::<Vec<_>>(), [3, 8]);
        let mut t = doc.table("[t]").unwrap();
        assert!(doc.table("[t]").is_none());
        assert_eq!(t.get("s", Value::string), Ok(Some("x".to_string())));
        assert_eq!(t.get("absent", Value::int), Ok(None));
        let err = t.require("gone", Value::int).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (5, "missing required key gone in [t]"));
        let err = t.finish().unwrap_err();
        assert_eq!(err.line, 7);
        assert_eq!(err.message, "unknown key \"extra\" in [t] (expected s, absent or gone)");
        assert_eq!(
            err.to_string(),
            "test line 7: unknown key \"extra\" in [t] (expected s, absent or gone)"
        );
        // Conversion errors name the key and sit on its line.
        let mut doc = parse("a = \"x\"\nb = 5000000000\n").unwrap();
        let err = doc.root.require("a", Value::int).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (1, "a: expected integer, found string"));
        let err = doc.root.require("b", Value::narrow::<u32>).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "b: 5000000000 is out of range"));
        // A missing root key is a file-level (line 0) error.
        let err = doc.root.require("c", Value::int).unwrap_err();
        assert_eq!((err.line, err.to_string().as_str()), (0, "test: missing required key c"));
    }

    #[test]
    fn the_writer_renders_what_the_reader_reads() {
        let mut writer = Writer::default();
        writer.pair("name", "q\"uote");
        writer.header("[t]");
        writer.pair("n", 7u64);
        writer.pair("list", [1u64, 2].into_iter().collect::<Value>());
        writer.header("[[a]]");
        writer.header("[[a]]");
        writer.pair("ok", true);
        let text = writer.finish();
        assert_eq!(
            text,
            "name = \"q\\\"uote\"\n\n[t]\nn = 7\nlist = [1, 2]\n\n[[a]]\n\n[[a]]\nok = true\n"
        );
        let mut doc = parse(&text).unwrap();
        assert_eq!(doc.root.require("name", Value::string), Ok("q\"uote".to_string()));
        assert_eq!(doc.tables("[[a]]").len(), 2);
    }

    #[test]
    fn axis_names_round_trip_through_from_str() {
        fn round_trip<T>(values: &[T])
        where
            T: Copy + fmt::Display + FromStr<Err = String> + PartialEq + fmt::Debug,
        {
            for &value in values {
                assert_eq!(value.to_string().parse::<T>(), Ok(value));
            }
            let err = "no-such-name".parse::<T>().unwrap_err();
            assert!(err.starts_with("unknown ") && err.ends_with("\"no-such-name\""), "{err}");
        }
        round_trip(&Topology::ALL);
        round_trip(&AuthMode::ALL);
        round_trip(&AdversarySpec::ALL);
        round_trip(&ProtocolPlan::ALL);
        assert_eq!(ProtocolPlan::ALL.len(), 5);
    }
}
