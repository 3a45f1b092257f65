//! Structured result import: a hand-rolled JSON reader for the [`crate::export`]
//! format (no serde).
//!
//! [`from_json`] is the inverse of [`crate::export::to_json`]: it parses an exported
//! campaign document back into a [`CampaignReport`], reconstructing every
//! [`CellRecord`] — grid coordinates, outcome shape and all outcome fields.
//!
//! Both readers keep one contract. They accept any document the writers can produce
//! (plus insignificant whitespace and reordered keys) and reject everything else with
//! a positioned [`ImportError`]: the cells must be in strictly increasing coordinate
//! order, and the totals are *verified* against the cells rather than trusted, so a
//! hand-edited or truncated document can neither reorder its cells nor smuggle in
//! inconsistent aggregates. Every document they accept re-exports byte for byte.
//!
//! # Streaming import
//!
//! Streamed shard exports (JSON lines written by [`crate::export::StreamingExporter`])
//! are read back with [`StreamingCells`], an iterator that parses one cell per line
//! without ever loading the whole document — the lazy per-shard cell source the k-way
//! [`crate::report::CellMerge`] and the [`crate::diff::CampaignDiff`] merge-join run
//! over. The totals footer closing the stream is verified against the cells actually
//! yielded, and [`footer_meta`] reads just that footer (one O(1)-memory pass) so a
//! merge coordinator can pre-compute the merged totals before streaming a single cell.
//!
//! # Crash salvage
//!
//! A shard process that dies mid-run leaves a truncated, footerless `report.jsonl`
//! behind. The strict reader above can only *reject* such a stream; the salvage read
//! mode — [`StreamingCells::salvage`], returning a [`SalvagedPrefix`] — instead stops
//! cleanly at the first broken line and recovers everything before it: the valid
//! ordered cell prefix and its folded [`Totals`]. This is the read path crash recovery
//! is built on: `campaign_ctl resume` salvages the prefix, re-runs only the missing
//! tail of the shard's canonical range, and splices the two back into a complete
//! footered export byte-identical to an uninterrupted run.

use crate::export::check_order;
use crate::grid::ScenarioSpec;
use crate::report::{CampaignReport, CellOutcome, CellRecord, CellStats, Totals};
use std::fmt;
use std::io::BufRead;
use std::str::FromStr;

/// Errors produced while importing an exported campaign document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// The document is not well-formed JSON (of the subset the exporter emits).
    Syntax {
        /// Byte offset of the offending character.
        offset: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// The document is valid JSON but does not match the export schema.
    Schema(String),
    /// Reading the underlying stream failed (I/O, not syntax).
    Io(String),
    /// A streamed (JSON lines) document broke the stream contract at a line.
    Stream {
        /// 1-based line number of the offending line (0: the failure is not tied to
        /// one line, e.g. a missing footer at end of stream).
        line: usize,
        /// What went wrong, including any nested parse error.
        message: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            ImportError::Schema(message) => write!(f, "campaign schema error: {message}"),
            ImportError::Io(message) => write!(f, "stream read failed: {message}"),
            ImportError::Stream { line: 0, message } => {
                write!(f, "streamed campaign error: {message}")
            }
            ImportError::Stream { line, message } => {
                write!(f, "streamed campaign error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// A parsed JSON value of the subset the exporter emits (no floats, no null).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    String(String),
    Number(u64),
    Bool(bool),
}

impl Value {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Object(_) => "object",
            Value::Array(_) => "array",
            Value::String(_) => "string",
            Value::Number(_) => "number",
            Value::Bool(_) => "boolean",
        }
    }
}

/// Objects and arrays nested deeper than this are rejected: the parser recurses per
/// level, and exports nest three levels at most.
const MAX_DEPTH: usize = 64;

/// A recursive-descent parser over the document bytes.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ImportError {
        ImportError::Syntax { offset: self.pos, message: message.into() }
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ImportError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    pub(crate) fn parse_document(&mut self) -> Result<Value, ImportError> {
        let value = self.parse_value()?;
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing content after the document"));
        }
        Ok(value)
    }

    fn parse_value(&mut self) -> Result<Value, ImportError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let value = if open == b'{' { self.parse_object() } else { self.parse_array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of document")),
        }
    }

    fn parse_object(&mut self) -> Result<Value, ImportError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key_offset = self.pos;
            let key = self.parse_string()?;
            // Duplicate keys are well-formed JSON but the writer never emits them, and
            // silently keeping the first match would let `"seed": 0, "seed": 5`
            // import as 0 — reject them with the offending position instead.
            if fields.iter().any(|(existing, _)| *existing == key) {
                return Err(ImportError::Schema(format!(
                    "duplicate object key {key:?} at byte {key_offset}"
                )));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ImportError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Value, ImportError> {
        for (literal, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
                self.pos += literal.len();
                return Ok(Value::Bool(value));
            }
        }
        Err(self.error("expected 'true' or 'false'"))
    }

    fn parse_number(&mut self) -> Result<Value, ImportError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E') | Some(b'-') | Some(b'+')) {
            return Err(self.error("only unsigned integers appear in campaign exports"));
        }
        let digits =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("digit range is ASCII");
        // The writer renders integers canonically, so `007` is something the writer
        // cannot produce — reject it rather than silently normalizing to 7.
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(ImportError::Syntax {
                offset: start,
                message: format!("non-canonical integer with leading zeros: {digits}"),
            });
        }
        digits
            .parse::<u64>()
            .map(Value::Number)
            .map_err(|_| self.error(format!("integer out of range: {digits}")))
    }

    /// Parses a JSON string literal, decoding the escapes the exporter emits
    /// (`\" \\ \/ \n \r \t \b \f \uXXXX` including surrogate pairs).
    fn parse_string(&mut self) -> Result<String, ImportError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&byte) = rest.first() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                0x00..=0x1f => {
                    return Err(self.error("unescaped control character in string"));
                }
                _ => {
                    // Copy the run of plain characters up to the next quote, escape
                    // or control byte. Those are ASCII, so the run ends on a char
                    // boundary of the document.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = self.text.get(start..self.pos);
                    out.push_str(run.ok_or_else(|| self.error("invalid UTF-8 in string"))?);
                }
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, ImportError> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let high = self.parse_hex4()?;
                if (0xd800..0xdc00).contains(&high) {
                    // Surrogate pair: the writer never emits these today (non-ASCII
                    // passes through raw), but a conforming document may.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.parse_hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else {
                    char::from_u32(high).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            other => return Err(self.error(format!("unknown escape \\{}", other as char))),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, ImportError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(self.error("truncated \\u escape"));
        };
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("non-hex \\u escape"))?;
        self.pos = end;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex digits"))
    }
}

// ---------------------------------------------------------------------------
// Schema mapping: Value → CampaignReport
// ---------------------------------------------------------------------------

pub(crate) fn schema(message: impl Into<String>) -> ImportError {
    ImportError::Schema(message.into())
}

pub(crate) fn field<'v>(
    fields: &'v [(String, Value)],
    name: &str,
) -> Result<&'v Value, ImportError> {
    fields
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
        .ok_or_else(|| schema(format!("missing field {name:?}")))
}

pub(crate) fn as_object<'v>(
    value: &'v Value,
    what: &str,
) -> Result<&'v [(String, Value)], ImportError> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(schema(format!("{what}: expected object, found {}", other.type_name()))),
    }
}

pub(crate) fn as_array<'v>(value: &'v Value, what: &str) -> Result<&'v [Value], ImportError> {
    match value {
        Value::Array(items) => Ok(items),
        other => Err(schema(format!("{what}: expected array, found {}", other.type_name()))),
    }
}

pub(crate) fn number(fields: &[(String, Value)], name: &str) -> Result<u64, ImportError> {
    match field(fields, name)? {
        Value::Number(n) => Ok(*n),
        other => Err(schema(format!("{name}: expected number, found {}", other.type_name()))),
    }
}

pub(crate) fn usize_field(fields: &[(String, Value)], name: &str) -> Result<usize, ImportError> {
    usize::try_from(number(fields, name)?)
        .map_err(|_| schema(format!("{name}: value exceeds usize")))
}

pub(crate) fn string<'v>(
    fields: &'v [(String, Value)],
    name: &str,
) -> Result<&'v str, ImportError> {
    match field(fields, name)? {
        Value::String(s) => Ok(s),
        other => Err(schema(format!("{name}: expected string, found {}", other.type_name()))),
    }
}

pub(crate) fn boolean(fields: &[(String, Value)], name: &str) -> Result<bool, ImportError> {
    match field(fields, name)? {
        Value::Bool(b) => Ok(*b),
        other => Err(schema(format!("{name}: expected boolean, found {}", other.type_name()))),
    }
}

/// An optional string field: `None` when the object has no such key.
fn optional_string(fields: &[(String, Value)], name: &str) -> Result<Option<String>, ImportError> {
    match fields.iter().any(|(key, _)| key == name) {
        true => string(fields, name).map(|text| Some(text.to_owned())),
        false => Ok(None),
    }
}

/// Rejects a key of `fields` outside `keys`, naming it. Call it once every required
/// key has been read: the parser rejects duplicate keys, so the object then holds
/// exactly `keys` when it holds as many, and only a count that differs is searched.
pub(crate) fn no_stray_key(
    fields: &[(String, Value)],
    keys: &[&[&str]],
    what: &str,
) -> Result<(), ImportError> {
    if fields.len() == keys.iter().map(|group| group.len()).sum::<usize>() {
        return Ok(());
    }
    match fields.iter().find(|(key, _)| !keys.iter().any(|group| group.contains(&key.as_str()))) {
        Some((key, _)) => Err(schema(format!("{what}: unexpected key {key:?}"))),
        None => Ok(()),
    }
}

/// The grid-coordinate keys [`parse_spec`] reads.
pub(crate) const SPEC_KEYS: [&str; 8] =
    ["k", "topology", "auth", "t_l", "t_r", "adversary", "faults", "seed"];

/// A string field read through its type's `FromStr` (the axis names, fault specs).
fn named<T: FromStr>(fields: &[(String, Value)], name: &str) -> Result<T, ImportError>
where
    T::Err: fmt::Display,
{
    string(fields, name)?.parse().map_err(|err: T::Err| schema(err.to_string()))
}

/// Parses the grid-coordinate fields shared by report cells, telemetry sidecar lines
/// and heartbeat documents into a [`ScenarioSpec`].
pub(crate) fn parse_spec(fields: &[(String, Value)]) -> Result<ScenarioSpec, ImportError> {
    Ok(ScenarioSpec {
        k: usize_field(fields, "k")?,
        topology: named(fields, "topology")?,
        auth: named(fields, "auth")?,
        t_l: usize_field(fields, "t_l")?,
        t_r: usize_field(fields, "t_r")?,
        adversary: named(fields, "adversary")?,
        faults: named(fields, "faults")?,
        seed: number(fields, "seed")?,
    })
}

fn parse_cell(value: &Value) -> Result<CellRecord, ImportError> {
    let fields = as_object(value, "cell")?;
    let spec = parse_spec(fields)?;
    let (outcome, keys): (_, &[&str]) = match string(fields, "status")? {
        "completed" => (
            CellOutcome::Completed(CellStats {
                plan: named(fields, "plan")?,
                all_honest_decided: boolean(fields, "all_honest_decided")?,
                violations: usize_field(fields, "violations")?,
                slots: number(fields, "slots")?,
                messages: number(fields, "messages")?,
                signatures: number(fields, "signatures")?,
            }),
            &["plan", "all_honest_decided", "violations", "slots", "messages", "signatures"],
        ),
        "unsolvable" => (
            CellOutcome::Unsolvable {
                theorem: string(fields, "theorem")?.to_string(),
                reason: string(fields, "reason")?.to_string(),
            },
            &["theorem", "reason"],
        ),
        "failed" => {
            (CellOutcome::Failed { message: string(fields, "message")?.to_string() }, &["message"])
        }
        other => return Err(schema(format!("unknown cell status {other:?}"))),
    };
    no_stray_key(fields, &[&SPEC_KEYS, &["status"], keys], "cell")?;
    Ok(CellRecord { spec, outcome })
}

/// The keys of a `totals` object: its cell counts, then its summed costs.
const TOTALS_KEYS: [&[&str]; 2] = [
    &["scenarios", "completed", "solved_clean", "unsolvable", "failed", "violations"],
    &["slots", "messages", "signatures"],
];

/// Parses a `totals` object's fields into a [`Totals`].
fn parse_totals(fields: &[(String, Value)]) -> Result<Totals, ImportError> {
    let totals = Totals {
        scenarios: usize_field(fields, "scenarios")?,
        completed: usize_field(fields, "completed")?,
        solved_clean: usize_field(fields, "solved_clean")?,
        unsolvable: usize_field(fields, "unsolvable")?,
        failed: usize_field(fields, "failed")?,
        violations: usize_field(fields, "violations")?,
        slots: number(fields, "slots")?,
        messages: number(fields, "messages")?,
        signatures: number(fields, "signatures")?,
    };
    no_stray_key(fields, &TOTALS_KEYS, "totals")?;
    Ok(totals)
}

/// Verifies the document's `totals` object against the totals recomputed from the
/// imported cells — a tampered or truncated document fails loudly here.
fn verify_totals(fields: &[(String, Value)], recomputed: Totals) -> Result<(), ImportError> {
    let declared = parse_totals(fields)?;
    if declared != recomputed {
        return Err(schema(format!(
            "totals do not match the cells: declared [{declared}], recomputed [{recomputed}]"
        )));
    }
    Ok(())
}

/// Parses a document produced by [`crate::export::to_json`] back into the report.
///
/// Round-trip contract: every document this accepts is re-exported byte for byte by
/// `to_json` of the report it returns, and `from_json(&to_json(&report))` equals
/// `report` for every report with distinct coordinates. The cells must be in strictly
/// increasing coordinate order, as [`StreamingCells`] requires of a stream.
///
/// # Errors
///
/// [`ImportError::Syntax`] for malformed JSON, [`ImportError::Schema`] for well-formed
/// JSON that does not match the export layout (unknown axis names, a missing or
/// unexpected key, a cell at or before its predecessor's coordinates, totals
/// inconsistent with the cells).
pub fn from_json(json: &str) -> Result<CampaignReport, ImportError> {
    let document = Parser::new(json).parse_document()?;
    let root = as_object(&document, "document root")?;
    let mut last = None;
    let cells = as_array(field(root, "cells")?, "cells")?
        .iter()
        .enumerate()
        .map(|(index, value)| {
            let cell = parse_cell(value)?;
            check_order(&mut last, cell.spec)
                .map_err(|err| schema(format!("cells[{index}]: {err}")))?;
            Ok(cell)
        })
        .collect::<Result<Vec<_>, ImportError>>()?;
    let mut report = CampaignReport::new(cells);
    // Reports exported from a declarative scenario file carry the canonical
    // scenario text as an optional root key; scenario-less documents omit it.
    let scenario = optional_string(root, "scenario")?;
    verify_totals(as_object(field(root, "totals")?, "totals")?, report.totals())?;
    let tag: &[&str] = if scenario.is_some() { &["scenario"] } else { &[] };
    no_stray_key(root, &[&["totals", "cells"], tag], "document root")?;
    if let Some(text) = scenario {
        report = report.with_scenario(text);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Streaming import (JSON lines)
// ---------------------------------------------------------------------------

/// What a parsed stream line turned out to be. A footer optionally carries the
/// canonical scenario text of the scenario file that produced the stream.
#[derive(Debug)]
enum StreamLine {
    Cell(CellRecord),
    Footer(Totals, Option<String>),
}

/// Parses one line of a streamed shard export: either a cell object or the
/// `{"totals": {...}}` footer (with an optional `"scenario"` tag, in either key
/// order, for exports produced from a declarative scenario file).
fn parse_stream_line(text: &str) -> Result<StreamLine, ImportError> {
    let value = Parser::new(text).parse_document()?;
    let fields = as_object(&value, "stream line")?;
    // The footer is the line with a `totals` key, wherever that key sits. A cell has
    // none, and the writer starts every cell with `k`, so a cell line in writer order
    // is told apart without a scan of its keys.
    let footer = fields.first().is_some_and(|(key, _)| key != "k")
        && fields.iter().any(|(key, _)| key == "totals");
    if !footer {
        return Ok(StreamLine::Cell(parse_cell(&value)?));
    }
    let totals = parse_totals(as_object(field(fields, "totals")?, "totals")?)?;
    let scenario = optional_string(fields, "scenario")?;
    let tag: &[&str] = if scenario.is_some() { &["scenario"] } else { &[] };
    no_stray_key(fields, &[&["totals"], tag], "footer")?;
    Ok(StreamLine::Footer(totals, scenario))
}

/// A parsed line of a JSON-lines stream: the coordinates it sits at, if it is a cell.
pub(crate) trait Located {
    /// The line's coordinates; `None` for a line that is not a cell (a footer).
    fn spec(&self) -> Option<ScenarioSpec>;
}

impl Located for StreamLine {
    fn spec(&self) -> Option<ScenarioSpec> {
        match self {
            StreamLine::Cell(record) => Some(record.spec),
            StreamLine::Footer(..) => None,
        }
    }
}

/// The line loop of the JSON-lines readers, [`StreamingCells`] and
/// [`TelemetryCells`](crate::telemetry::TelemetryCells): one line at a time through
/// a reused buffer, each parsed and numbered, blank lines refused, and the
/// coordinates of the cell lines checked to strictly increase. Every failure is an
/// [`ImportError::Stream`] at the line's 1-based number. [`footer_meta`] reads its
/// lines through it too.
#[derive(Debug)]
pub(crate) struct OrderedLines<R> {
    reader: R,
    /// Line buffer reused across the whole stream (one allocation, not one per line).
    buf: String,
    line: usize,
    last: Option<ScenarioSpec>,
}

impl<R: BufRead> OrderedLines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self { reader, buf: String::new(), line: 0, last: None }
    }

    /// An [`ImportError::Stream`] at the current line.
    pub(crate) fn error(&self, message: impl Into<String>) -> ImportError {
        ImportError::Stream { line: self.line, message: message.into() }
    }

    /// Reads the next line into the buffer; `Ok(false)` at EOF.
    fn read(&mut self) -> Result<bool, ImportError> {
        self.buf.clear();
        let read =
            self.reader.read_line(&mut self.buf).map_err(|err| ImportError::Io(err.to_string()))?;
        if read == 0 {
            return Ok(false);
        }
        self.line += 1;
        Ok(true)
    }

    /// The next line through `parse`; `Ok(None)` at EOF.
    pub(crate) fn next<T: Located>(
        &mut self,
        parse: fn(&str) -> Result<T, ImportError>,
    ) -> Result<Option<T>, ImportError> {
        if !self.read()? {
            return Ok(None);
        }
        if self.buf.trim().is_empty() {
            return Err(self.error("blank line"));
        }
        let text = self.buf.trim_end_matches(['\n', '\r']);
        let item = parse(text).map_err(|err| self.error(err.to_string()))?;
        if let Some(spec) = item.spec() {
            check_order(&mut self.last, spec).map_err(|err| self.error(err.to_string()))?;
        }
        Ok(Some(item))
    }
}

/// A lazy cell iterator over a streamed shard export — the inverse of
/// [`crate::export::StreamingExporter`], reading one line at a time so a document of
/// any size is imported in constant memory.
///
/// The iterator yields `Ok(cell)` per cell line, in the strictly increasing canonical
/// coordinate order it verifies as it goes, and ends (`None`) only after a well-formed
/// totals footer whose counters match the cells actually streamed. Every contract
/// violation — unparsable line, out-of-order cell, truncated stream (EOF before the
/// footer, including a cut-off cell line), a footer disagreeing with the cells, or
/// content after the footer — is yielded as one `Err` carrying the line number, after
/// which the iterator fuses to `None`.
///
/// This is the per-shard cell source the streaming k-way merge
/// ([`crate::report::CellMerge`]) runs over.
#[derive(Debug)]
pub struct StreamingCells<R: BufRead> {
    lines: OrderedLines<R>,
    folded: Totals,
    scenario: Option<String>,
    state: StreamState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamState {
    /// Still expecting cell lines (or the footer).
    Cells,
    /// Footer verified; the stream ended cleanly.
    Done,
    /// An error was yielded; the iterator is fused.
    Failed,
}

impl<R: BufRead> StreamingCells<R> {
    /// Starts streaming cells from `reader` (nothing is read until the first
    /// [`next`](Iterator::next)).
    pub fn new(reader: R) -> Self {
        Self {
            lines: OrderedLines::new(reader),
            folded: Totals::default(),
            scenario: None,
            state: StreamState::Cells,
        }
    }

    /// The totals folded from the cells yielded so far. After the iterator has ended
    /// without an error, these are the verified totals of the whole stream.
    pub fn totals(&self) -> Totals {
        self.folded
    }

    /// `true` once the totals footer has been read and verified.
    pub fn finished(&self) -> bool {
        self.state == StreamState::Done
    }

    /// The canonical scenario text carried by the footer, for streams exported from a
    /// declarative scenario file. `None` until the footer has been read, and for
    /// scenario-less streams.
    pub fn scenario(&self) -> Option<&str> {
        self.scenario.as_deref()
    }

    /// Reads one line: `Ok(Some(cell))` for a cell, `Ok(None)` once the footer has
    /// been verified as the stream's last line.
    fn step(&mut self) -> Result<Option<CellRecord>, ImportError> {
        match self.lines.next(parse_stream_line)? {
            Some(StreamLine::Cell(record)) => {
                self.folded.record(&record.outcome);
                Ok(Some(record))
            }
            Some(StreamLine::Footer(declared, scenario)) => {
                let folded = self.folded;
                if declared != folded {
                    return Err(self.lines.error(format!(
                        "totals footer does not match the streamed cells: declared \
                         [{declared}], folded [{folded}]"
                    )));
                }
                // The footer must be the last line of the stream.
                while self.lines.read()? {
                    if !self.lines.buf.trim().is_empty() {
                        return Err(self.lines.error("content after the totals footer"));
                    }
                }
                self.scenario = scenario;
                Ok(None)
            }
            None => Err(ImportError::Stream {
                line: 0,
                message: "stream ended without a totals footer (truncated export?)".into(),
            }),
        }
    }
}

impl<R: BufRead> Iterator for StreamingCells<R> {
    type Item = Result<CellRecord, ImportError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != StreamState::Cells {
            return None;
        }
        match self.step() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => {
                self.state = StreamState::Done;
                None
            }
            Err(err) => {
                self.state = StreamState::Failed;
                Some(Err(err))
            }
        }
    }
}

/// The salvageable prefix of a (possibly truncated) streamed shard export — what
/// [`StreamingCells::salvage`] recovers from a crashed run's `report.jsonl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvagedPrefix {
    /// The valid cells before the first break, in canonical coordinate order.
    pub cells: Vec<CellRecord>,
    /// The totals folded from `cells` (*not* a footer claim — recomputed).
    pub totals: Totals,
    /// `true` when the stream ended with a verified footer: nothing was lost and
    /// `cells` is the complete export.
    pub complete: bool,
    /// Why salvage stopped before a verified footer (`None` when `complete`): the
    /// stream-contract violation at the first broken line, e.g. a cut-off cell, a
    /// missing footer, or a footer disagreeing with the cells.
    pub truncation: Option<String>,
}

impl<R: BufRead> StreamingCells<R> {
    /// Salvages the valid cell prefix of a (possibly truncated) streamed export.
    ///
    /// Where the strict iterator yields an error at the first broken line, salvage
    /// *stops cleanly* there instead: every cell before the break is returned, with
    /// its folded [`Totals`], and the break itself is recorded in
    /// [`SalvagedPrefix::truncation`]. An intact stream (footer present and verified)
    /// salvages completely: `complete` is `true` and `cells` is the whole export.
    ///
    /// Note that salvage trusts each *line*, not the stream: a stream whose middle
    /// was damaged (rather than its tail cut off) still salvages every parseable,
    /// in-order cell before the damage — callers resuming a run must verify the
    /// prefix against the canonical work list, which `campaign_ctl resume` does.
    ///
    /// # Errors
    ///
    /// Only [`ImportError::Io`]: a failing *reader* is an environment problem, not a
    /// truncated document, and salvaging a prefix of unknown completeness from it
    /// could silently lose cells.
    pub fn salvage(reader: R) -> Result<SalvagedPrefix, ImportError> {
        let mut stream = StreamingCells::new(reader);
        let mut cells = Vec::new();
        let mut truncation = None;
        for item in &mut stream {
            match item {
                Ok(cell) => cells.push(cell),
                Err(err @ ImportError::Io(_)) => return Err(err),
                Err(err) => {
                    truncation = Some(err.to_string());
                    break;
                }
            }
        }
        let complete = stream.finished();
        Ok(SalvagedPrefix { totals: stream.totals(), complete, cells, truncation })
    }
}

/// Reads just the totals footer of a streamed shard export — and the scenario tag it
/// carries, if any — in one constant-memory forward pass: cell lines are skipped
/// without being parsed (or allocated — two line buffers are reused across the whole
/// file), and only the last non-empty line is interpreted.
///
/// This is how a merge coordinator learns the merged totals *before* streaming any
/// cell: sum the footers of all shards, hand the sum to
/// [`crate::export::MergedJsonWriter::new`], and let the writer's finish-time
/// verification catch any footer that lied. The scenario tag is what lets the
/// coordinator refuse to merge shards produced from different scenario files.
///
/// # Errors
///
/// [`ImportError::Io`] on read failure, [`ImportError::Stream`] when the stream is
/// empty or its last line is not a well-formed `{"totals": {...}}` footer.
pub fn footer_meta<R: BufRead>(reader: R) -> Result<(Totals, Option<String>), ImportError> {
    let mut lines = OrderedLines::new(reader);
    let (mut last, mut last_line) = (String::new(), 0);
    while lines.read()? {
        if !lines.buf.trim().is_empty() {
            std::mem::swap(&mut last, &mut lines.buf);
            last_line = lines.line;
        }
    }
    if last_line == 0 {
        return Err(ImportError::Stream {
            line: 0,
            message: "empty stream: no totals footer".into(),
        });
    }
    match parse_stream_line(last.trim_end_matches(['\n', '\r'])) {
        Ok(StreamLine::Footer(totals, scenario)) => Ok((totals, scenario)),
        Ok(StreamLine::Cell(_)) => Err(ImportError::Stream {
            line: last_line,
            message: "stream ends in a cell line, not a totals footer (truncated export?)".into(),
        }),
        Err(err) => Err(ImportError::Stream { line: last_line, message: err.to_string() }),
    }
}

/// Collects a whole streamed shard export into an in-memory [`CampaignReport`] —
/// the convenience path for tools that want to treat a `.jsonl` export like a
/// `.json` one and do not care about memory. A scenario tag in the stream's footer
/// is carried onto the report, exactly as [`from_json`] carries a document's
/// `"scenario"` key.
///
/// # Errors
///
/// Any error [`StreamingCells`] yields.
pub fn from_jsonl<R: BufRead>(reader: R) -> Result<CampaignReport, ImportError> {
    let mut stream = StreamingCells::new(reader);
    let cells = stream.by_ref().collect::<Result<Vec<_>, _>>()?;
    let report = CampaignReport::new(cells);
    Ok(match stream.scenario() {
        Some(tag) => report.with_scenario(tag.to_string()),
        None => report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::executor::Executor;
    use crate::export::{cell_json, to_json, totals_json, StreamingExporter};
    use bsm_core::harness::AdversarySpec;
    use bsm_core::problem::AuthMode;
    use bsm_core::solvability::ProtocolPlan;
    use bsm_net::{FaultSpec, Topology};

    #[test]
    fn import_inverts_export_on_a_real_campaign() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).build();
        let (report, _) = Executor::new().threads(2).run(&campaign);
        let imported = from_json(&to_json(&report)).unwrap();
        assert_eq!(imported, report);
        assert_eq!(to_json(&imported), to_json(&report));
    }

    #[test]
    fn syntax_errors_carry_a_byte_offset() {
        let err = from_json("{\"totals\": ").unwrap_err();
        assert!(matches!(err, ImportError::Syntax { .. }), "{err}");
        assert!(err.to_string().contains("byte"));
        for bad in ["", "[1,]", "{\"a\" 1}", "{\"a\": 1e3}", "\"unclosed", "nope", "{} trailing"] {
            assert!(from_json(bad).is_err(), "{bad:?} should not import");
        }
        // Deep nesting is an error at the first level too deep, not a stack overflow.
        let err = from_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.to_string().contains("at byte 64: nesting deeper than 64"), "{err}");
    }

    #[test]
    fn schema_errors_name_the_problem() {
        // Well-formed JSON, wrong shape.
        let err = from_json("[1, 2]").unwrap_err();
        assert!(err.to_string().contains("expected object"), "{err}");
        let err = from_json("{\"cells\": []}").unwrap_err();
        assert!(err.to_string().contains("totals"), "{err}");
        let doc = "{\"totals\": {}, \"cells\": [{\"k\": 1, \"topology\": \"hypercube\", \
                   \"auth\": \"authenticated\", \"t_l\": 0, \"t_r\": 0, \
                   \"adversary\": \"crash\", \"seed\": 0, \"status\": \"failed\", \
                   \"message\": \"x\"}]}";
        let err = from_json(doc).unwrap_err();
        assert!(err.to_string().contains("unknown topology"), "{err}");
        // A key the writer never writes, in the root, a cell or the totals.
        let campaign = CampaignBuilder::new().sizes([2]).build();
        let json = to_json(&Executor::new().threads(1).run(&campaign).0);
        for (tampered, what) in [
            (json.replacen("{\n", "{\n  \"bogus\": 7,\n", 1), "document root"),
            (json.replacen("{\"k\": ", "{\"bogus\": 7, \"k\": ", 1), "cell"),
            (json.replacen("\"totals\": {", "\"totals\": {\"bogus\": 7, ", 1), "totals"),
        ] {
            let err = from_json(&tampered).unwrap_err();
            assert_eq!(err, schema(format!("{what}: unexpected key \"bogus\"")), "{tampered}");
        }
    }

    #[test]
    fn tampered_totals_are_rejected() {
        let campaign = CampaignBuilder::new().sizes([2]).build();
        let (report, _) = Executor::new().threads(1).run(&campaign);
        let json = to_json(&report);
        let tampered = json.replacen(
            &format!("\"scenarios\": {}", report.totals().scenarios),
            "\"scenarios\": 9999",
            1,
        );
        let err = from_json(&tampered).unwrap_err();
        assert!(err.to_string().contains("totals do not match"), "{err}");
    }

    #[test]
    fn from_json_rejects_swapped_cells_naming_the_cell() {
        let (report, _) = streamed_report();
        let json = to_json(&report);
        let (first, second) = (cell_json(&report.cells()[0]), cell_json(&report.cells()[1]));
        let swapped = json
            .replacen(&first, "FIRST", 1)
            .replacen(&second, &first, 1)
            .replacen("FIRST", &second, 1);
        let err = from_json(&swapped).unwrap_err();
        let (a, b) = (report.cells()[0].spec, report.cells()[1].spec);
        let named = format!("cells[1]: cell out of canonical coordinate order: {a} after {b}");
        assert_eq!(err, schema(named), "{swapped}");
    }

    #[test]
    fn from_json_rejects_a_repeated_cell_even_with_matching_totals() {
        let (report, _) = streamed_report();
        let mut cells = report.cells().to_vec();
        cells.insert(3, cells[2].clone());
        // The writer folds its totals over the repeated cell too, so only the
        // order check can refuse the document.
        let json = to_json(&CampaignReport::new(cells));
        let err = from_json(&json).unwrap_err();
        let spec = report.cells()[2].spec;
        let named =
            format!("cells[3]: cell out of canonical coordinate order: {spec} after {spec}");
        assert_eq!(err, schema(named), "{json}");
    }

    #[test]
    fn string_escapes_decode_including_surrogate_pairs() {
        let mut parser = Parser::new(r#""a\"b\\c\n\t\u0001\ud83e\udd80é""#);
        let parsed = parser.parse_string().unwrap();
        assert_eq!(parsed, "a\"b\\c\n\t\u{1}🦀é");
        for bad in [r#""\ud800x""#, r#""\ud800 ""#, r#""\uZZZZ""#, r#""\q""#] {
            assert!(Parser::new(bad).parse_string().is_err(), "{bad} should not parse");
        }
    }

    /// A real campaign report and its streamed (JSON lines) export.
    fn streamed_report() -> (CampaignReport, String) {
        let campaign = CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).build();
        let (report, _) = Executor::new().threads(2).run(&campaign);
        let mut buf = Vec::new();
        let mut exporter = StreamingExporter::new(&mut buf);
        for cell in report.cells() {
            exporter.write_cell(cell).unwrap();
        }
        exporter.finish().unwrap();
        (report, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn streaming_cells_invert_the_streaming_exporter() {
        let (report, text) = streamed_report();
        let mut stream = StreamingCells::new(text.as_bytes());
        let cells: Vec<CellRecord> = (&mut stream).collect::<Result<_, _>>().unwrap();
        assert_eq!(cells, report.cells());
        assert!(stream.finished(), "footer must have been verified");
        assert_eq!(stream.totals(), report.totals());
        // The convenience collector agrees.
        assert_eq!(from_jsonl(text.as_bytes()).unwrap(), report);
    }

    #[test]
    fn truncated_stream_mid_cell_fails_with_the_line_number() {
        let (_, text) = streamed_report();
        // Cut the stream in the middle of the third cell line.
        let offset = text.match_indices('\n').nth(1).unwrap().0 + 10;
        let truncated = &text[..offset];
        let err =
            StreamingCells::new(truncated.as_bytes()).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(matches!(err, ImportError::Stream { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn stream_without_a_footer_is_rejected_as_truncated() {
        let (_, text) = streamed_report();
        let footer_start = text.rfind("{\"totals\"").unwrap();
        let err = StreamingCells::new(&text.as_bytes()[..footer_start])
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("without a totals footer"), "{err}");
    }

    #[test]
    fn footer_mismatching_the_streamed_cells_is_rejected() {
        let (_, text) = streamed_report();
        // Drop the second cell line: the footer no longer matches the cells.
        let lines: Vec<&str> = text.lines().collect();
        let tampered: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let err =
            StreamingCells::new(tampered.as_bytes()).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(err.to_string().contains("totals footer does not match"), "{err}");
    }

    #[test]
    fn content_after_the_footer_is_rejected() {
        let (_, text) = streamed_report();
        let first_cell = text.lines().next().unwrap();
        let trailing = format!("{text}{first_cell}\n");
        let err =
            StreamingCells::new(trailing.as_bytes()).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(err.to_string().contains("content after the totals footer"), "{err}");
    }

    #[test]
    fn out_of_order_and_malformed_stream_lines_are_rejected() {
        let (_, text) = streamed_report();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let err =
            StreamingCells::new(swapped.as_bytes()).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(err.to_string().contains("out of canonical coordinate order"), "{err}");

        for bad in ["not json\n", "{\"k\": }\n", "\n", "[1]\n"] {
            let err =
                StreamingCells::new(bad.as_bytes()).collect::<Result<Vec<_>, _>>().unwrap_err();
            assert!(matches!(err, ImportError::Stream { .. }), "{bad:?}: {err}");
        }

        // A key the writer never writes, in a cell line, the footer or its totals.
        let footer_at = text.trim_end().rfind('\n').unwrap() + 1;
        let (cells, footer) = text.split_at(footer_at);
        let footer = footer.trim_end().strip_suffix('}').unwrap();
        for (tampered, what) in [
            (text.replacen("{\"k\": ", "{\"bogus\": 7, \"k\": ", 1), "cell"),
            (format!("{cells}{footer}, \"bogus\": 7}}\n"), "footer"),
            (text.replacen("{\"totals\": {", "{\"totals\": {\"bogus\": 7, ", 1), "totals"),
        ] {
            let err = StreamingCells::new(tampered.as_bytes())
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            let named = format!("{what}: unexpected key \"bogus\"");
            assert!(err.to_string().contains(&named), "{tampered}: {err}");
        }
    }

    #[test]
    fn footer_totals_reads_only_the_footer() {
        let (report, text) = streamed_report();
        assert_eq!(footer_meta(text.as_bytes()).unwrap(), (report.totals(), None));
        // An empty stream and a footerless stream both fail.
        assert!(footer_meta(&b""[..]).unwrap_err().to_string().contains("empty stream"));
        let footer_start = text.rfind("{\"totals\"").unwrap();
        let err = footer_meta(&text.as_bytes()[..footer_start]).unwrap_err();
        assert!(err.to_string().contains("not a totals footer"), "{err}");
    }

    #[test]
    fn scenario_tagged_footers_and_documents_carry_the_tag() {
        let tag = "name = \"demo\"\n";
        // Streamed form: the footer's second key survives a full read and footer_meta.
        let campaign = CampaignBuilder::new().sizes([2]).build();
        let (report, _) = Executor::new().threads(1).run(&campaign);
        let report = report.with_scenario(tag);
        let mut buf = Vec::new();
        let mut exporter = StreamingExporter::new(&mut buf);
        exporter.set_scenario(tag);
        for cell in report.cells() {
            exporter.write_cell(cell).unwrap();
        }
        exporter.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The same footer with its keys the other way round is still the footer.
        let footer_at = text.trim_end().rfind('\n').unwrap() + 1;
        let (cell_lines, footer) = text.split_at(footer_at);
        let footer = footer.trim_end().strip_prefix('{').unwrap().strip_suffix('}').unwrap();
        let (totals_key, scenario_key) = footer.split_once(", \"scenario\": ").unwrap();
        let reordered = format!("{cell_lines}{{\"scenario\": {scenario_key}, {totals_key}}}\n");
        assert_ne!(reordered, text);
        for text in [&text, &reordered] {
            let mut stream = StreamingCells::new(text.as_bytes());
            let cells: Vec<CellRecord> = (&mut stream).collect::<Result<_, _>>().unwrap();
            assert_eq!(cells, report.cells(), "{text}");
            assert!(stream.finished());
            assert_eq!(stream.scenario(), Some(tag));
            let (totals, scenario) = footer_meta(text.as_bytes()).unwrap();
            assert_eq!(totals, report.totals());
            assert_eq!(scenario.as_deref(), Some(tag));
            let salvaged = StreamingCells::salvage(text.as_bytes()).unwrap();
            assert!(salvaged.complete, "{:?}", salvaged.truncation);
            assert_eq!(salvaged.cells, report.cells());
        }
        // Document form: the root "scenario" key round-trips through from_json.
        let imported = from_json(&to_json(&report)).unwrap();
        assert_eq!(imported.scenario(), Some(tag));
        assert_eq!(imported, report);
        assert_eq!(to_json(&imported), to_json(&report));
        // from_jsonl carries the footer tag onto the collected report too.
        let collected = from_jsonl(text.as_bytes()).unwrap();
        assert_eq!(collected.scenario(), Some(tag));
        assert_eq!(collected, report);
    }

    /// Two completed cells whose slots sum past `u64::MAX`, and the totals they
    /// saturate to.
    fn cells_summing_past_u64_max() -> (Vec<CellRecord>, Totals) {
        let cell = |seed| CellRecord {
            spec: ScenarioSpec {
                k: 3,
                topology: Topology::FullyConnected,
                auth: AuthMode::Authenticated,
                t_l: 1,
                t_r: 1,
                adversary: AdversarySpec::Crash,
                faults: FaultSpec::NONE,
                seed,
            },
            outcome: CellOutcome::Completed(CellStats {
                plan: ProtocolPlan::ALL[0],
                all_honest_decided: true,
                violations: 0,
                slots: u64::MAX,
                messages: 1,
                signatures: 1,
            }),
        };
        let totals = Totals {
            scenarios: 2,
            completed: 2,
            solved_clean: 2,
            slots: u64::MAX,
            messages: 2,
            signatures: 2,
            ..Totals::default()
        };
        (vec![cell(0), cell(1)], totals)
    }

    #[test]
    fn a_document_summing_past_u64_max_imports_saturated_and_re_exports() {
        let (cells, totals) = cells_summing_past_u64_max();
        let rows: Vec<String> =
            cells.iter().map(|cell| format!("    {}", cell_json(cell))).collect();
        let json = format!(
            "{{\n  \"totals\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            totals_json(&totals),
            rows.join(",\n")
        );
        let report = from_json(&json).unwrap();
        assert_eq!((report.cells(), report.totals()), (&cells[..], totals));
        assert_eq!(to_json(&report), json);
    }

    #[test]
    fn a_stream_summing_past_u64_max_reads_saturated_and_re_exports() {
        let (cells, totals) = cells_summing_past_u64_max();
        let mut text: String = cells.iter().map(|cell| format!("{}\n", cell_json(cell))).collect();
        text.push_str(&format!("{{\"totals\": {}}}\n", totals_json(&totals)));
        let mut stream = StreamingCells::new(text.as_bytes());
        let read: Vec<CellRecord> = (&mut stream).collect::<Result<_, _>>().unwrap();
        assert_eq!((&read, stream.totals()), (&cells, totals));
        let mut buf = Vec::new();
        let mut exporter = StreamingExporter::new(&mut buf);
        for cell in &read {
            exporter.write_cell(cell).unwrap();
        }
        assert_eq!(exporter.finish().unwrap(), totals);
        assert_eq!(String::from_utf8(buf).unwrap(), text);
    }

    #[test]
    fn empty_shard_stream_is_just_a_zero_footer() {
        let mut buf = Vec::new();
        let exporter = StreamingExporter::new(&mut buf);
        assert_eq!(exporter.totals(), Totals::default());
        exporter.finish().unwrap();
        let mut stream = StreamingCells::new(&buf[..]);
        assert!(stream.next().is_none());
        assert!(stream.finished());
        assert_eq!(stream.totals(), Totals::default());
        assert_eq!(footer_meta(&buf[..]).unwrap().0, Totals::default());
        assert!(from_jsonl(&buf[..]).unwrap().cells().is_empty());
    }

    #[test]
    fn duplicate_object_keys_are_rejected_with_the_position() {
        let err = from_json("{\"totals\": {}, \"totals\": {}}").unwrap_err();
        assert!(matches!(err, ImportError::Schema(_)), "{err}");
        assert!(err.to_string().contains("duplicate object key \"totals\""), "{err}");
        assert!(err.to_string().contains("at byte 15"), "{err}");
        // The motivating case: `"seed": 0, "seed": 5` must not import as seed 0.
        let (_, text) = streamed_report();
        let first = text.lines().next().unwrap();
        let doctored = first.replacen("\"seed\": 0", "\"seed\": 0, \"seed\": 5", 1);
        assert!(doctored.contains("\"seed\": 0, \"seed\": 5"), "{doctored}");
        let err = parse_stream_line(&doctored).unwrap_err();
        assert!(err.to_string().contains("duplicate object key \"seed\""), "{err}");
    }

    #[test]
    fn non_canonical_integers_with_leading_zeros_are_rejected() {
        let err = from_json("{\"totals\": {\"scenarios\": 007}}").unwrap_err();
        assert!(matches!(err, ImportError::Syntax { .. }), "{err}");
        assert!(err.to_string().contains("leading zeros"), "{err}");
        for bad in ["00", "01", "0007"] {
            let doc = format!("{{\"a\": {bad}}}");
            assert!(from_json(&doc).is_err(), "{bad} should not parse");
        }
        // A lone zero is the canonical rendering and still parses.
        let mut parser = Parser::new("0");
        assert_eq!(parser.parse_number().unwrap(), Value::Number(0));
    }

    #[test]
    fn salvage_of_an_intact_stream_is_complete() {
        let (report, text) = streamed_report();
        let salvaged = StreamingCells::salvage(text.as_bytes()).unwrap();
        assert!(salvaged.complete);
        assert_eq!(salvaged.truncation, None);
        assert_eq!(salvaged.cells, report.cells());
        assert_eq!(salvaged.totals, report.totals());
    }

    #[test]
    fn salvage_stops_cleanly_at_a_mid_line_truncation() {
        let (report, text) = streamed_report();
        // Cut in the middle of the third cell line: two whole cells survive.
        let offset = text.match_indices('\n').nth(1).unwrap().0 + 10;
        let salvaged = StreamingCells::salvage(&text.as_bytes()[..offset]).unwrap();
        assert!(!salvaged.complete);
        assert_eq!(salvaged.cells, &report.cells()[..2]);
        let mut expected = Totals::default();
        for cell in &report.cells()[..2] {
            expected.record(&cell.outcome);
        }
        assert_eq!(salvaged.totals, expected);
        assert!(salvaged.truncation.unwrap().contains("line 3"));
    }

    #[test]
    fn salvage_at_a_cell_boundary_keeps_every_whole_cell() {
        let (report, text) = streamed_report();
        // Cut exactly after the fourth cell line (a clean line boundary, no footer).
        let offset = text.match_indices('\n').nth(3).unwrap().0 + 1;
        let salvaged = StreamingCells::salvage(&text.as_bytes()[..offset]).unwrap();
        assert!(!salvaged.complete);
        assert_eq!(salvaged.cells, &report.cells()[..4]);
        assert!(salvaged.truncation.unwrap().contains("without a totals footer"));
    }

    #[test]
    fn salvage_of_a_footerless_stream_keeps_all_cells() {
        let (report, text) = streamed_report();
        let footer_start = text.rfind("{\"totals\"").unwrap();
        let salvaged = StreamingCells::salvage(&text.as_bytes()[..footer_start]).unwrap();
        assert!(!salvaged.complete);
        assert_eq!(salvaged.cells, report.cells());
        assert_eq!(salvaged.totals, report.totals());
        assert!(salvaged.truncation.unwrap().contains("without a totals footer"));
    }

    #[test]
    fn salvage_cut_exactly_at_the_footer_line_recovers_everything_but_completeness() {
        let (report, text) = streamed_report();
        // The whole footer line is present but its newline is cut off — still a
        // parseable, verifiable footer, so salvage is complete.
        let salvaged = StreamingCells::salvage(text.trim_end().as_bytes()).unwrap();
        assert!(salvaged.complete);
        assert_eq!(salvaged.cells, report.cells());
        // Cut *inside* the footer line: all cells survive, completeness is lost.
        let footer_start = text.rfind("{\"totals\"").unwrap();
        let salvaged = StreamingCells::salvage(&text.as_bytes()[..footer_start + 12]).unwrap();
        assert!(!salvaged.complete);
        assert_eq!(salvaged.cells, report.cells());
        assert_eq!(salvaged.totals, report.totals());
    }

    #[test]
    fn salvage_of_an_empty_stream_is_an_empty_incomplete_prefix() {
        let salvaged = StreamingCells::salvage(&b""[..]).unwrap();
        assert!(!salvaged.complete);
        assert!(salvaged.cells.is_empty());
        assert_eq!(salvaged.totals, Totals::default());
    }

    #[test]
    fn salvage_surfaces_reader_io_errors_instead_of_guessing() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let reader = std::io::BufReader::new(FailingReader);
        let err = StreamingCells::salvage(reader).unwrap_err();
        assert!(matches!(err, ImportError::Io(_)), "{err}");
    }

    /// Property-style round-trip: every outcome shape with adversarial strings (JSON
    /// metacharacters, control characters, non-ASCII) survives
    /// `from_json(to_json(...))` with every `CellRecord` field intact.
    #[test]
    fn import_round_trips_every_outcome_shape_and_escaped_strings() {
        // A tiny deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let nasty = [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "line\nbreak\ttab\rreturn",
            "control\u{1}\u{1f}chars",
            "unicode Πbψم🦀",
            "comma, separated, value",
            "",
        ];
        let fault_choices: [FaultSpec; 3] = [
            FaultSpec::NONE,
            "partition=2+3;loss=125".parse().unwrap(),
            "crash=L1@4..9;jitter=2".parse().unwrap(),
        ];
        let mut cells = Vec::new();
        for i in 0..200u64 {
            let spec = ScenarioSpec {
                k: 1 + next(6) as usize,
                topology: Topology::ALL[next(3) as usize],
                auth: AuthMode::ALL[next(2) as usize],
                t_l: next(3) as usize,
                t_r: next(3) as usize,
                adversary: AdversarySpec::ALL[next(3) as usize],
                faults: fault_choices[next(3) as usize],
                seed: i,
            };
            let outcome = match next(3) {
                0 => CellOutcome::Completed(CellStats {
                    plan: ProtocolPlan::ALL[next(5) as usize],
                    all_honest_decided: next(2) == 0,
                    violations: next(10) as usize,
                    slots: next(1000),
                    messages: next(u64::MAX),
                    signatures: next(100_000),
                }),
                1 => CellOutcome::Unsolvable {
                    theorem: nasty[next(7) as usize].to_string(),
                    reason: nasty[next(7) as usize].to_string(),
                },
                _ => CellOutcome::Failed { message: nasty[next(7) as usize].to_string() },
            };
            cells.push(CellRecord { spec, outcome });
        }
        let report = CampaignReport::new(cells);
        let imported = from_json(&to_json(&report)).unwrap();
        assert_eq!(imported, report, "round-trip altered a cell");
        // Second generation: the re-export is also byte-identical.
        assert_eq!(to_json(&imported), to_json(&report));
    }
}
