//! Per-cell telemetry: attributed cost counters, the `metrics.jsonl` sidecar
//! stream, log-bucketed histograms, and live shard heartbeats.
//!
//! The campaign engine's reports are deliberately *deterministic*: every exported
//! artifact is a pure function of the campaign, byte-identical across thread counts,
//! shardings and re-runs. That purity makes them useless for observability — no cost
//! can be attributed to a cell, and a running shard is invisible until it finishes.
//! This module is the side channel that fixes both, without ever touching a report
//! byte:
//!
//! * [`CellTelemetry`] — one cell's attributed cost profile: the crypto-counter delta
//!   measured *on the worker thread that ran the cell* (exact even under a parallel
//!   executor, see [`bsm_crypto::counters::thread_snapshot`]), the netsim message
//!   accounting with its honest/byzantine fan-out split, and the cell's wall time.
//! * [`TelemetryExporter`] / [`TelemetryCells`] — the `metrics.jsonl` sidecar writer
//!   and reader: one coordinate-sorted JSON line per cell, written next to
//!   `report.jsonl` and verified back in strictly increasing canonical order.
//! * [`Histogram`] — fixed log-bucketed (power-of-two boundary) histograms, plus
//!   [`CampaignStats`]: the p50/p90/p99, top-N and per-axis rollup aggregation behind
//!   `campaign_ctl stats`.
//! * [`Heartbeat`] — a `progress.json` per shard out-dir, atomically rewritten every
//!   N cells, which is the dead-shard detection signal a coordinator daemon polls;
//!   [`ProgressSnapshot`] parses it back.
//!
//! # Deterministic vs timing fields
//!
//! Every [`CellTelemetry`] field except the wall time is deterministic for a fixed
//! build: the crypto memo state is per-cell, so the counter deltas — like the message
//! counts — depend only on the cell's coordinates. The JSON line therefore segregates
//! the two kinds: all deterministic fields first, then a single trailing
//! `"timing": {...}` object. Stripping the timing suffix ([`CellTelemetry::
//! deterministic_json`] renders it directly) yields the *deterministic projection*,
//! and two traces of the same campaign — any thread counts, any sharding — can be
//! `diff`ed projection-to-projection.

use crate::export::{check_order, spec_fields_json, StreamError};
use crate::grid::ScenarioSpec;
use crate::import::{
    as_object, field, no_stray_key, number, parse_spec, schema, string, usize_field, ImportError,
    Located, OrderedLines, Parser, SPEC_KEYS,
};
use bsm_crypto::CounterSnapshot;
use bsm_net::{FanoutSummary, RoleFanout};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One cell's attributed cost profile — the unit of the `metrics.jsonl` sidecar.
///
/// Produced by the executor's `*_telemetry` entry points alongside the cell's
/// [`CellRecord`](crate::report::CellRecord); cells that did not complete (unsolvable
/// or failed) still carry their crypto delta and wall time, with the network fields
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTelemetry {
    /// The cell's grid coordinates.
    pub spec: ScenarioSpec,
    /// `"completed"`, `"unsolvable"` or `"failed"` — mirrors the report cell.
    pub status: &'static str,
    /// Crypto work attributed to this cell: the worker thread's counter delta around
    /// the cell (exact under any thread count — each cell runs entirely on one
    /// worker).
    pub crypto: CounterSnapshot,
    /// Messages accepted into the network (honest + byzantine).
    pub messages: u64,
    /// Messages actually delivered to a recipient.
    pub delivered: u64,
    /// Messages dropped by the cell's fault schedule.
    pub dropped: u64,
    /// Messages delayed (jittered) by the cell's fault schedule.
    pub delayed: u64,
    /// Messages discarded by the topology (no such channel).
    pub rejected: u64,
    /// Simulated slots the cell executed.
    pub slots: u64,
    /// Per-role fan-out split of the per-party send counts.
    pub fanout: FanoutSummary,
    /// Wall-clock nanoseconds the cell took on its worker thread. The **only**
    /// non-deterministic field; always rendered last, inside the `timing` object.
    pub wall_nanos: u64,
}

impl CellTelemetry {
    /// Telemetry for a cell with no scenario run (unsolvable or failed): network
    /// fields zero, crypto delta and wall time still attributed.
    pub fn without_run(
        spec: ScenarioSpec,
        status: &'static str,
        crypto: CounterSnapshot,
        wall_nanos: u64,
    ) -> Self {
        Self {
            spec,
            status,
            crypto,
            messages: 0,
            delivered: 0,
            dropped: 0,
            delayed: 0,
            rejected: 0,
            slots: 0,
            fanout: FanoutSummary::default(),
            wall_nanos,
        }
    }

    /// The deterministic projection of this cell's sidecar line: every field except
    /// the timing object, rendered exactly as [`to_json`](Self::to_json) renders them.
    ///
    /// Two traces of the same campaign (any thread counts, any sharding) agree
    /// projection-for-projection; equivalently, stripping the trailing
    /// `, "timing": {...}` from a full line yields this string.
    pub fn deterministic_json(&self) -> String {
        let f = &self.fanout;
        format!(
            "{{{}, \"status\": \"{}\", \"digests\": {}, \"verified\": {}, \
             \"cache_hits\": {}, \"messages\": {}, \"delivered\": {}, \"dropped\": {}, \
             \"delayed\": {}, \"rejected\": {}, \"slots\": {}, \"honest_senders\": {}, \
             \"honest_sent\": {}, \"honest_max\": {}, \"byz_senders\": {}, \"byz_sent\": {}, \
             \"byz_max\": {}}}",
            spec_fields_json(&self.spec),
            self.status,
            self.crypto.digests_computed,
            self.crypto.signatures_verified,
            self.crypto.verify_cache_hits,
            self.messages,
            self.delivered,
            self.dropped,
            self.delayed,
            self.rejected,
            self.slots,
            f.honest.senders,
            f.honest.total,
            f.honest.max,
            f.byzantine.senders,
            f.byzantine.total,
            f.byzantine.max,
        )
    }

    /// Renders the full sidecar line: the deterministic projection plus the trailing
    /// `timing` object (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        let deterministic = self.deterministic_json();
        format!(
            "{}, \"timing\": {{\"wall_nanos\": {}}}}}",
            &deterministic[..deterministic.len() - 1],
            self.wall_nanos
        )
    }
}

/// The keys of a sidecar line: grid coordinates; status, timing and crypto counters;
/// message accounting; fan-out.
const TELEMETRY_KEYS: [&[&str]; 4] = [
    &SPEC_KEYS,
    &["status", "timing", "digests", "verified", "cache_hits"],
    &["messages", "delivered", "dropped", "delayed", "rejected", "slots"],
    &["honest_senders", "honest_sent", "honest_max", "byz_senders", "byz_sent", "byz_max"],
];

/// Parses one `metrics.jsonl` line back into a [`CellTelemetry`].
///
/// # Errors
///
/// [`ImportError::Syntax`] for malformed JSON, [`ImportError::Schema`] when the line
/// does not match the sidecar schema (unknown status, a missing or unexpected key, a
/// `timing` object without `wall_nanos`).
pub fn parse_telemetry_line(text: &str) -> Result<CellTelemetry, ImportError> {
    let value = Parser::new(text).parse_document()?;
    let fields = as_object(&value, "telemetry line")?;
    let spec = parse_spec(fields)?;
    let status = match string(fields, "status")? {
        "completed" => "completed",
        "unsolvable" => "unsolvable",
        "failed" => "failed",
        other => return Err(schema(format!("unknown telemetry status {other:?}"))),
    };
    let timing = as_object(field(fields, "timing")?, "timing")?;
    let telemetry = CellTelemetry {
        spec,
        status,
        crypto: CounterSnapshot {
            digests_computed: number(fields, "digests")?,
            signatures_verified: number(fields, "verified")?,
            verify_cache_hits: number(fields, "cache_hits")?,
        },
        messages: number(fields, "messages")?,
        delivered: number(fields, "delivered")?,
        dropped: number(fields, "dropped")?,
        delayed: number(fields, "delayed")?,
        rejected: number(fields, "rejected")?,
        slots: number(fields, "slots")?,
        fanout: FanoutSummary {
            honest: RoleFanout {
                senders: number(fields, "honest_senders")?,
                total: number(fields, "honest_sent")?,
                max: number(fields, "honest_max")?,
            },
            byzantine: RoleFanout {
                senders: number(fields, "byz_senders")?,
                total: number(fields, "byz_sent")?,
                max: number(fields, "byz_max")?,
            },
        },
        wall_nanos: number(timing, "wall_nanos")?,
    };
    no_stray_key(fields, &TELEMETRY_KEYS, "telemetry line")?;
    no_stray_key(timing, &[&["wall_nanos"]], "timing")?;
    Ok(telemetry)
}

/// The `metrics.jsonl` sidecar writer: one [`CellTelemetry::to_json`] line per cell,
/// in strictly increasing canonical coordinate order (enforced, like every streaming
/// writer in [`crate::export`]).
///
/// The sidecar is strictly a side channel: nothing here feeds back into a report, so
/// every report artifact stays byte-identical whether or not a telemetry exporter ran
/// alongside it. There is no footer — the file is staged through an
/// [`AtomicFile`](crate::export::AtomicFile) and only appears at its final path once
/// complete, so a truncated sidecar is never observable.
#[derive(Debug)]
pub struct TelemetryExporter<W: Write> {
    writer: W,
    last: Option<ScenarioSpec>,
    cells: usize,
}

impl<W: Write> TelemetryExporter<W> {
    /// Starts a sidecar stream over `writer` (nothing is written until the first
    /// cell).
    pub fn new(writer: W) -> Self {
        Self { writer, last: None, cells: 0 }
    }

    /// Writes one telemetry line.
    ///
    /// # Errors
    ///
    /// [`StreamError::OutOfOrder`] when `cell` does not follow the previous cell in
    /// canonical coordinate order; [`StreamError::Io`] on write failure.
    pub fn write_cell(&mut self, cell: &CellTelemetry) -> Result<(), StreamError> {
        check_order(&mut self.last, cell.spec)?;
        writeln!(self.writer, "{}", cell.to_json())?;
        self.cells += 1;
        Ok(())
    }

    /// Flushes the sink and returns the number of cells written.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<usize, StreamError> {
        self.writer.flush()?;
        Ok(self.cells)
    }
}

/// A lazy reader over a `metrics.jsonl` sidecar — the inverse of
/// [`TelemetryExporter`], verifying schema and strictly increasing coordinate order
/// line by line. Ends cleanly at EOF (the sidecar has no footer; it is atomically
/// published, so a partial file is never observable at its final path).
#[derive(Debug)]
pub struct TelemetryCells<R: BufRead> {
    lines: OrderedLines<R>,
    failed: bool,
}

impl<R: BufRead> TelemetryCells<R> {
    /// Starts reading sidecar lines from `reader`.
    pub fn new(reader: R) -> Self {
        Self { lines: OrderedLines::new(reader), failed: false }
    }
}

impl Located for CellTelemetry {
    fn spec(&self) -> Option<ScenarioSpec> {
        Some(self.spec)
    }
}

impl<R: BufRead> Iterator for TelemetryCells<R> {
    type Item = Result<CellTelemetry, ImportError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.lines.next(parse_telemetry_line).transpose();
        self.failed = matches!(item, Some(Err(_)));
        item
    }
}

// ---------------------------------------------------------------------------
// Histograms and campaign statistics
// ---------------------------------------------------------------------------

/// Number of buckets in a [`Histogram`]: bucket 0 holds exactly `{0}` and bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i - 1]`, up to bucket 64 = `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-boundary, log-bucketed histogram over `u64` samples.
///
/// The boundaries are powers of two, so bucketing is *total* (every `u64` lands in
/// exactly one bucket) and *monotone* (larger values land in the same or a later
/// bucket) by construction — properties the telemetry tests pin. Fixed boundaries
/// mean two histograms of different campaigns are always comparable bucket for
/// bucket; quantiles are reported as the upper bound of the bucket containing the
/// target rank, i.e. within 2× of the exact order statistic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The bucket index `value` lands in: 0 for 0, otherwise `64 - leading_zeros`
    /// (so bucket `i` covers `[2^(i-1), 2^i - 1]`).
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive `[low, high]` range of values bucket `index` covers.
    ///
    /// # Panics
    ///
    /// Panics when `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index {index} out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples, rounded down; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Largest sample recorded; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` (in `[0, 1]`), reported as the upper bound of the bucket
    /// containing the target rank (clamped to [`max`](Self::max), so a quantile
    /// never exceeds the largest sample). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }
}

/// Rollup of the cells sharing one axis value (one `k`, one adversary, one topology).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxisRollup {
    /// Cells in this group.
    pub cells: u64,
    /// Total wall nanoseconds across the group.
    pub wall_nanos: u64,
    /// Total messages across the group.
    pub messages: u64,
    /// Total digests computed across the group.
    pub digests: u64,
}

impl AxisRollup {
    fn record(&mut self, cell: &CellTelemetry) {
        self.cells += 1;
        self.wall_nanos = self.wall_nanos.saturating_add(cell.wall_nanos);
        self.messages = self.messages.saturating_add(cell.messages);
        self.digests = self.digests.saturating_add(cell.crypto.digests_computed);
    }

    /// Mean wall nanoseconds per cell, rounded down; zero for an empty group.
    pub fn mean_wall_nanos(&self) -> u64 {
        self.wall_nanos.checked_div(self.cells).unwrap_or(0)
    }
}

/// Aggregated statistics over a telemetry stream — the model behind
/// `campaign_ctl stats`.
///
/// Histograms cover cell wall time, messages and digests; rollups group by market
/// size, adversary and topology; `top` keeps every cell's (wall, coordinates) pair so
/// the most expensive cells can be ranked.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Cells folded in.
    pub cells: u64,
    /// Histogram of per-cell wall nanoseconds (timing — varies run to run).
    pub wall: Histogram,
    /// Histogram of per-cell message counts (deterministic).
    pub messages: Histogram,
    /// Histogram of per-cell digest counts (deterministic).
    pub digests: Histogram,
    /// Sum of the per-cell crypto deltas.
    pub crypto: CounterSnapshot,
    /// Rollup by market size `k`.
    pub by_k: BTreeMap<usize, AxisRollup>,
    /// Rollup by adversary name.
    pub by_adversary: BTreeMap<String, AxisRollup>,
    /// Rollup by topology name.
    pub by_topology: BTreeMap<String, AxisRollup>,
    /// Every cell's `(wall_nanos, spec)`, in stream order; sorted on demand by
    /// [`top_cells`](Self::top_cells).
    costs: Vec<(u64, ScenarioSpec)>,
}

impl CampaignStats {
    /// Folds one cell into the statistics.
    pub fn record(&mut self, cell: &CellTelemetry) {
        self.cells += 1;
        self.wall.record(cell.wall_nanos);
        self.messages.record(cell.messages);
        self.digests.record(cell.crypto.digests_computed);
        self.crypto += cell.crypto;
        self.by_k.entry(cell.spec.k).or_default().record(cell);
        self.by_adversary.entry(cell.spec.adversary.to_string()).or_default().record(cell);
        self.by_topology.entry(cell.spec.topology.to_string()).or_default().record(cell);
        self.costs.push((cell.wall_nanos, cell.spec));
    }

    /// Reads and folds a whole sidecar stream, verifying schema and coordinate order.
    ///
    /// # Errors
    ///
    /// The first error the underlying [`TelemetryCells`] reader yields.
    pub fn from_stream<R: BufRead>(reader: R) -> Result<Self, ImportError> {
        let mut stats = Self::default();
        for cell in TelemetryCells::new(reader) {
            stats.record(&cell?);
        }
        Ok(stats)
    }

    /// The `n` most expensive cells by wall time, descending (ties broken by
    /// coordinate order, so the ranking is stable).
    pub fn top_cells(&self, n: usize) -> Vec<(u64, ScenarioSpec)> {
        let mut sorted = self.costs.clone();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        sorted.truncate(n);
        sorted
    }

    /// Renders the human-readable stats report `campaign_ctl stats` prints.
    pub fn render(&self, top_n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cells: {}", self.cells);
        let _ = writeln!(
            out,
            "crypto: digests={} verified={} cache_hits={}",
            self.crypto.digests_computed,
            self.crypto.signatures_verified,
            self.crypto.verify_cache_hits
        );
        for (name, unit, hist) in [
            ("wall", "us", &self.wall),
            ("messages", "", &self.messages),
            ("digests", "", &self.digests),
        ] {
            // Wall time renders in microseconds for readability; counts render raw.
            let scale = |v: u64| if unit == "us" { v / 1_000 } else { v };
            let _ = writeln!(
                out,
                "{name}: p50={}{unit} p90={}{unit} p99={}{unit} mean={}{unit} max={}{unit}",
                scale(hist.quantile(0.50)),
                scale(hist.quantile(0.90)),
                scale(hist.quantile(0.99)),
                scale(hist.mean()),
                scale(hist.max()),
            );
        }
        let _ = writeln!(out, "top {} cells by wall time:", top_n.min(self.costs.len()));
        for (wall, spec) in self.top_cells(top_n) {
            let _ = writeln!(out, "  {:>9}us  {spec}", wall / 1_000);
        }
        type AxisGroups<'a> = Box<dyn Iterator<Item = (String, &'a AxisRollup)> + 'a>;
        let axes: [(&str, AxisGroups<'_>); 3] = [
            ("k", Box::new(self.by_k.iter().map(|(k, r)| (k.to_string(), r)))),
            ("adversary", Box::new(self.by_adversary.iter().map(|(a, r)| (a.clone(), r)))),
            ("topology", Box::new(self.by_topology.iter().map(|(t, r)| (t.clone(), r)))),
        ];
        for (axis, groups) in axes {
            let _ = writeln!(out, "by {axis}:");
            for (value, rollup) in groups {
                let _ = writeln!(
                    out,
                    "  {value:<16} cells={:<5} wall={}us mean={}us messages={} digests={}",
                    rollup.cells,
                    rollup.wall_nanos / 1_000,
                    rollup.mean_wall_nanos() / 1_000,
                    rollup.messages,
                    rollup.digests,
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Live shard heartbeats
// ---------------------------------------------------------------------------

/// Cells between heartbeat rewrites when the caller has no better idea. Each beat is
/// an fsync'd atomic rewrite, so beating on every cell would serialize fast campaigns
/// on disk flushes; every 32 cells keeps the signal fresh at negligible cost.
pub const HEARTBEAT_EVERY: usize = 32;

/// A live shard heartbeat: `progress.json` in the shard's out-dir, atomically
/// rewritten every `every` cells (plus once at creation and once at
/// [`finish`](Self::finish)).
///
/// The heartbeat is the dead-shard detection signal for a coordinator daemon: the
/// file always parses as complete JSON (each rewrite is a temp-file +
/// atomic-rename, never an in-place write, so a reader can never observe a torn
/// document), and a shard whose heartbeat stops advancing is dead. The document
/// carries `done`/`total`, the rewrite counter `seq`, the worker's `pid` and
/// `attempt`, the rate of the cells this process ran, the wall time and the last
/// finished coordinate; the two non-integer timing values are rendered as decimal
/// *strings* so the document stays inside the integers-only JSON subset the engine's
/// parsers accept.
///
/// `progress.json` is not a report artifact: it exists only while telemetry of a live
/// run is useful and never participates in merges or byte-identity comparisons.
#[derive(Debug)]
pub struct Heartbeat {
    path: PathBuf,
    every: usize,
    total: usize,
    done: usize,
    /// Cells counted in `done` before this process started (a resumed shard's
    /// salvaged prefix): they are not part of the rate.
    salvaged: usize,
    seq: u64,
    attempt: u32,
    last: Option<ScenarioSpec>,
    start: Instant,
}

impl Heartbeat {
    /// Creates the heartbeat and writes the initial (0-done) `progress.json` into
    /// `dir` — a coordinator sees the shard as *alive* before its first cell lands.
    ///
    /// # Errors
    ///
    /// Any I/O error creating `dir` or writing the initial beat.
    pub fn new(dir: &Path, total: usize, every: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut heartbeat = Self {
            path: dir.join("progress.json"),
            every: every.max(1),
            total,
            done: 0,
            salvaged: 0,
            seq: 0,
            attempt: 1,
            last: None,
            start: Instant::now(),
        };
        heartbeat.write()?;
        Ok(heartbeat)
    }

    /// Pre-counts `done` cells as already finished (a resumed shard's salvaged
    /// prefix) and rewrites the beat to reflect them. They count in `done` but not
    /// in the rate, which covers the cells this process runs.
    ///
    /// # Errors
    ///
    /// Any I/O error rewriting the beat.
    pub fn starting_at(mut self, done: usize) -> std::io::Result<Self> {
        self.done = done;
        self.salvaged = done;
        self.write()?;
        Ok(self)
    }

    /// Stamps the supervisor-assigned attempt number (1-based; see
    /// [`crate::supervise::ATTEMPT_ENV`]) and rewrites the beat. The supervisor's
    /// liveness check keys on the `(attempt, seq)` pair, so a relaunched worker's
    /// restarted `seq` is never mistaken for its dead predecessor's.
    ///
    /// # Errors
    ///
    /// Any I/O error rewriting the beat.
    pub fn attempt(mut self, attempt: u32) -> std::io::Result<Self> {
        self.attempt = attempt.max(1);
        self.write()?;
        Ok(self)
    }

    /// The path of the heartbeat document.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records one finished cell; rewrites `progress.json` every `every` cells.
    ///
    /// # Errors
    ///
    /// Any I/O error rewriting the beat.
    pub fn tick(&mut self, last: ScenarioSpec) -> std::io::Result<()> {
        self.done += 1;
        self.last = Some(last);
        if self.done.is_multiple_of(self.every) {
            self.write()?;
        }
        Ok(())
    }

    /// Writes the final beat (whatever `done` has reached) and consumes the
    /// heartbeat.
    ///
    /// # Errors
    ///
    /// Any I/O error rewriting the beat.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.write()
    }

    /// Atomically rewrites `progress.json` with the current state, bumping the
    /// monotone `seq` — the advancement signal a supervisor's stall watchdog
    /// polls (wall-clock alone cannot distinguish slow from wedged).
    fn write(&mut self) -> std::io::Result<()> {
        self.seq += 1;
        let wall = self.start.elapsed().as_secs_f64();
        let ran = self.done - self.salvaged;
        let rate = if wall > 0.0 { ran as f64 / wall } else { 0.0 };
        let last = match &self.last {
            Some(spec) => format!(", \"last\": {{{}}}", spec_fields_json(spec)),
            None => String::new(),
        };
        let doc = format!(
            "{{\"done\": {}, \"total\": {}, \"seq\": {}, \"pid\": {}, \"attempt\": {}, \
             \"rate_per_sec\": \"{:.1}\", \"wall_seconds\": \"{:.3}\"{}}}\n",
            self.done,
            self.total,
            self.seq,
            std::process::id(),
            self.attempt,
            rate,
            wall,
            last,
        );
        crate::export::atomic_write(&self.path, doc)
    }
}

/// A parsed heartbeat document — what a coordinator (or `campaign_ctl stats`) reads
/// back from `progress.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Cells finished so far.
    pub done: usize,
    /// Cells the shard owns in total.
    pub total: usize,
    /// Monotone rewrite counter — the advancement signal a stall watchdog keys
    /// on.
    pub seq: u64,
    /// The writing worker's process id.
    pub pid: u32,
    /// The supervisor-assigned attempt number (1 when unsupervised).
    pub attempt: u32,
    /// Cells per second this process ran, as written (timing — informational; a
    /// resumed shard's salvaged cells are not part of it).
    pub rate_per_sec: f64,
    /// Wall seconds since the heartbeat started (timing — informational).
    pub wall_seconds: f64,
    /// The last finished coordinate (`None` before the first beat-covered cell).
    pub last: Option<ScenarioSpec>,
}

/// The keys of a heartbeat document: counts, liveness, timing and the last cell.
const PROGRESS_KEYS: [&[&str]; 4] =
    [&["done", "total"], &["seq", "pid", "attempt"], &["rate_per_sec", "wall_seconds"], &["last"]];

/// Parses a `progress.json` heartbeat document.
///
/// # Errors
///
/// [`ImportError::Syntax`] for malformed JSON (including a torn write, which the
/// atomic-rename discipline makes impossible to observe from `Heartbeat` itself),
/// [`ImportError::Schema`] for a well-formed document that is not a heartbeat (a
/// missing or unexpected key, a timing value that is not a decimal string).
pub fn parse_progress(text: &str) -> Result<ProgressSnapshot, ImportError> {
    let value = Parser::new(text.trim_end()).parse_document()?;
    let fields = as_object(&value, "progress document")?;
    let timing_float = |name: &str| -> Result<f64, ImportError> {
        string(fields, name)?
            .parse::<f64>()
            .map_err(|_| schema(format!("{name}: expected a decimal string")))
    };
    let last = match fields.iter().find(|(key, _)| key == "last") {
        Some((_, value)) => Some(parse_spec(as_object(value, "last")?)?),
        None => None,
    };
    let narrow = |name: &str| -> Result<u32, ImportError> {
        u32::try_from(number(fields, name)?)
            .map_err(|_| schema(format!("{name}: value exceeds u32")))
    };
    let progress = ProgressSnapshot {
        done: usize_field(fields, "done")?,
        total: usize_field(fields, "total")?,
        seq: number(fields, "seq")?,
        pid: narrow("pid")?,
        attempt: narrow("attempt")?,
        rate_per_sec: timing_float("rate_per_sec")?,
        wall_seconds: timing_float("wall_seconds")?,
        last,
    };
    no_stray_key(fields, &PROGRESS_KEYS, "progress document")?;
    Ok(progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_core::harness::AdversarySpec;
    use bsm_core::problem::AuthMode;
    use bsm_net::Topology;

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            adversary: AdversarySpec::Crash,
            faults: bsm_net::FaultSpec::NONE,
            seed,
        }
    }

    fn telemetry(seed: u64) -> CellTelemetry {
        CellTelemetry {
            spec: spec(seed),
            status: "completed",
            crypto: CounterSnapshot {
                digests_computed: 100 + seed,
                signatures_verified: 50,
                verify_cache_hits: 3,
            },
            messages: 400,
            delivered: 390,
            dropped: 8,
            delayed: 4,
            rejected: 2,
            slots: 11,
            fanout: FanoutSummary {
                honest: RoleFanout { senders: 4, total: 350, max: 99 },
                byzantine: RoleFanout { senders: 2, total: 50, max: 30 },
            },
            wall_nanos: 123_456,
        }
    }

    #[test]
    fn telemetry_line_round_trips() {
        let cell = telemetry(7);
        let parsed = parse_telemetry_line(&cell.to_json()).unwrap();
        assert_eq!(parsed, cell);
        // The without-run shape round-trips too.
        let bare = CellTelemetry::without_run(
            spec(9),
            "failed",
            CounterSnapshot { digests_computed: 5, ..Default::default() },
            77,
        );
        assert_eq!(parse_telemetry_line(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn timing_is_the_trailing_suffix_of_the_full_line() {
        let cell = telemetry(1);
        let full = cell.to_json();
        let deterministic = cell.deterministic_json();
        // Stripping the timing suffix textually yields the deterministic projection.
        let stripped = full
            .strip_suffix(&format!(", \"timing\": {{\"wall_nanos\": {}}}}}", cell.wall_nanos))
            .expect("timing must be the final key");
        assert_eq!(format!("{stripped}}}"), deterministic);
        // Two cells differing only in wall time agree on the projection.
        let other = CellTelemetry { wall_nanos: 999, ..cell };
        assert_eq!(other.deterministic_json(), deterministic);
        assert_ne!(other.to_json(), full);
    }

    #[test]
    fn malformed_telemetry_lines_are_rejected() {
        for bad in [
            "not json",
            "{\"k\": 3}",
            "[1]",
            // Valid spec but an unknown status.
            &telemetry(0).to_json().replace("completed", "exploded"),
            // Missing timing object.
            &telemetry(0).deterministic_json(),
        ] {
            assert!(parse_telemetry_line(bad).is_err(), "{bad:?} should not parse");
        }
        // A key the writer never writes, in the line or its timing object.
        let line = telemetry(0).to_json();
        for (tampered, what) in [
            (line.replacen("{\"k\": ", "{\"bogus\": 7, \"k\": ", 1), "telemetry line"),
            (line.replace("{\"wall_nanos\"", "{\"bogus\": 7, \"wall_nanos\""), "timing"),
        ] {
            let err = parse_telemetry_line(&tampered).unwrap_err();
            assert_eq!(err, schema(format!("{what}: unexpected key \"bogus\"")), "{tampered}");
        }
    }

    #[test]
    fn exporter_enforces_canonical_order_and_reader_inverts_it() {
        let cells = [telemetry(0), telemetry(1), telemetry(5)];
        let mut buf = Vec::new();
        let mut exporter = TelemetryExporter::new(&mut buf);
        for cell in &cells {
            exporter.write_cell(cell).unwrap();
        }
        assert_eq!(exporter.finish().unwrap(), 3);
        let read: Vec<CellTelemetry> =
            TelemetryCells::new(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(read, cells);

        let mut exporter = TelemetryExporter::new(Vec::new());
        exporter.write_cell(&telemetry(5)).unwrap();
        let err = exporter.write_cell(&telemetry(0)).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }), "{err}");
    }

    #[test]
    fn reader_rejects_out_of_order_blank_and_malformed_lines() {
        let (a, b) = (telemetry(0).to_json(), telemetry(1).to_json());
        for (bad, needle) in [
            (format!("{b}\n{a}\n"), "out of canonical coordinate order"),
            (format!("{a}\n\n{b}\n"), "blank line"),
            (format!("{a}\nnot json\n"), "line 2"),
        ] {
            let err =
                TelemetryCells::new(bad.as_bytes()).collect::<Result<Vec<_>, _>>().unwrap_err();
            assert!(err.to_string().contains(needle), "{bad:?}: {err}");
        }
        // An empty stream is an empty (not failed) telemetry set.
        assert!(TelemetryCells::new(&b""[..]).next().is_none());
    }

    #[test]
    fn histogram_bucketing_is_total_monotone_and_bound_consistent() {
        // Totality + bucket/bound agreement at every boundary and extreme.
        let mut probes = vec![0u64, 1, 2, 3, u64::MAX];
        for shift in 1..64u32 {
            let boundary = 1u64 << shift;
            probes.extend([boundary - 1, boundary, boundary + 1]);
        }
        let mut last_index = 0usize;
        probes.sort_unstable();
        for &value in &probes {
            let index = Histogram::bucket_index(value);
            assert!(index < HISTOGRAM_BUCKETS, "{value} fell out of range");
            let (low, high) = Histogram::bucket_bounds(index);
            assert!(low <= value && value <= high, "{value} outside bucket {index}");
            assert!(index >= last_index, "bucketing not monotone at {value}");
            last_index = index;
        }
        // Bounds tile u64 exactly: each bucket starts right after the previous ends.
        for index in 1..HISTOGRAM_BUCKETS {
            let (low, _) = Histogram::bucket_bounds(index);
            let (_, previous_high) = Histogram::bucket_bounds(index - 1);
            assert_eq!(low, previous_high + 1, "gap before bucket {index}");
        }
        assert_eq!(Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_mean_behave() {
        let mut hist = Histogram::new();
        assert_eq!(hist.quantile(0.5), 0);
        assert_eq!(hist.mean(), 0);
        for v in 1..=100u64 {
            hist.record(v);
        }
        assert_eq!(hist.count(), 100);
        assert_eq!(hist.mean(), 50);
        assert_eq!(hist.max(), 100);
        // Quantiles report bucket upper bounds: p50 of 1..=100 lands in [33..64].
        let p50 = hist.quantile(0.50);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        // p99 and p100 land in the top bucket, clamped to the true max.
        assert_eq!(hist.quantile(1.0), 100);
        assert!(hist.quantile(0.99) <= 100);
        // Monotone in q.
        assert!(hist.quantile(0.5) <= hist.quantile(0.9));
        assert!(hist.quantile(0.9) <= hist.quantile(0.99));
    }

    #[test]
    fn campaign_stats_fold_rollups_and_rank_top_cells() {
        let mut stats = CampaignStats::default();
        for seed in 0..4 {
            let mut cell = telemetry(seed);
            cell.wall_nanos = (4 - seed) * 1_000_000; // earlier seeds are slower
            cell.spec.k = 3 + seed as usize % 2;
            stats.record(&cell);
        }
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.crypto.signatures_verified, 200);
        assert_eq!(stats.by_k.len(), 2);
        assert_eq!(stats.by_adversary["crash"].cells, 4);
        assert_eq!(stats.by_topology["fully-connected"].messages, 1600);
        let top = stats.top_cells(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 4_000_000);
        assert_eq!(top[0].1.seed, 0);
        assert!(top[0].0 >= top[1].0);
        let rendered = stats.render(3);
        for needle in ["cells: 4", "p50=", "p99=", "top 3 cells", "by k:", "by adversary:"] {
            assert!(rendered.contains(needle), "missing {needle} in:\n{rendered}");
        }
        // Stream round-trip: export, fold from the stream, same statistics.
        let mut buf = Vec::new();
        let mut exporter = TelemetryExporter::new(&mut buf);
        for seed in 0..4 {
            exporter.write_cell(&telemetry(seed)).unwrap();
        }
        exporter.finish().unwrap();
        let streamed = CampaignStats::from_stream(&buf[..]).unwrap();
        assert_eq!(streamed.cells, 4);
        assert_eq!(streamed.messages.count(), 4);
    }

    #[test]
    fn heartbeat_writes_parse_and_advance() {
        let dir = std::env::temp_dir().join("bsm-engine-telemetry-tests").join("heartbeat_basic");
        let _ = std::fs::remove_dir_all(&dir);
        let mut heartbeat = Heartbeat::new(&dir, 10, 2).unwrap();
        let initial = parse_progress(&std::fs::read_to_string(heartbeat.path()).unwrap()).unwrap();
        assert_eq!((initial.done, initial.total), (0, 10));
        assert_eq!(initial.last, None);
        assert_eq!(initial.seq, 1, "the creation beat is rewrite #1");
        assert_eq!(initial.pid, std::process::id());
        assert_eq!(initial.attempt, 1);
        heartbeat.tick(spec(0)).unwrap();
        heartbeat.tick(spec(1)).unwrap(); // every=2: this tick rewrites
        let mid = parse_progress(&std::fs::read_to_string(heartbeat.path()).unwrap()).unwrap();
        assert_eq!(mid.done, 2);
        assert_eq!(mid.last, Some(spec(1)));
        heartbeat.tick(spec(2)).unwrap();
        let path = heartbeat.path().to_path_buf();
        heartbeat.finish().unwrap();
        let done = parse_progress(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(done.done, 3, "finish must flush the un-beaten tail");
        assert_eq!(done.last, Some(spec(2)));
        assert!(done.wall_seconds >= 0.0);
        assert_eq!(done.seq, 3, "seq is monotone across every rewrite");
    }

    #[test]
    fn supervised_heartbeat_stamps_the_attempt_number() {
        let dir = std::env::temp_dir().join("bsm-engine-telemetry-tests").join("heartbeat_attempt");
        let _ = std::fs::remove_dir_all(&dir);
        let heartbeat =
            Heartbeat::new(&dir, 10, 32).unwrap().starting_at(6).unwrap().attempt(3).unwrap();
        let beat = parse_progress(&std::fs::read_to_string(heartbeat.path()).unwrap()).unwrap();
        assert_eq!((beat.done, beat.total, beat.attempt), (6, 10, 3));
        assert_eq!(beat.seq, 3, "new + starting_at + attempt = three rewrites");
    }

    #[test]
    fn resumed_heartbeat_starts_at_the_salvaged_count() {
        let dir = std::env::temp_dir().join("bsm-engine-telemetry-tests").join("heartbeat_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let mut heartbeat = Heartbeat::new(&dir, 100, 1).unwrap().starting_at(40).unwrap();
        let read = |path: &Path| parse_progress(&std::fs::read_to_string(path).unwrap()).unwrap();
        // The salvaged cells count as done but not in the rate: this process ran none.
        let beat = read(heartbeat.path());
        assert_eq!((beat.done, beat.total, beat.rate_per_sec), (40, 100, 0.0));
        heartbeat.tick(spec(0)).unwrap();
        let beat = read(heartbeat.path());
        assert_eq!(beat.done, 41);
        assert!(beat.rate_per_sec > 0.0, "one cell ran");
    }

    #[test]
    fn progress_documents_reject_wrong_shapes() {
        let dir = std::env::temp_dir().join("bsm-engine-telemetry-tests").join("heartbeat_shapes");
        let _ = std::fs::remove_dir_all(&dir);
        let mut heartbeat = Heartbeat::new(&dir, 10, 1).unwrap();
        heartbeat.tick(spec(0)).unwrap();
        let good = std::fs::read_to_string(heartbeat.path()).unwrap();
        let beat = parse_progress(&good).unwrap();
        let pid = format!("\"pid\": {}, ", beat.pid);
        for bad in [
            String::new(),
            "[1]".into(),
            "{\"done\": 1}".into(),
            // rate as a bare number would be a float — the schema wants a string.
            good.replace(&format!("\"{:.1}\"", beat.rate_per_sec), "1"),
            good.replace(&format!("\"{:.1}\"", beat.rate_per_sec), "\"x\""),
            // Every writer writes seq, pid and attempt.
            good.replace("\"seq\": 2, ", ""),
            good.replace(&pid, ""),
            good.replace("\"attempt\": 1, ", ""),
            // A key no writer writes.
            good.replace("{\"done\"", "{\"crypto\": {}, \"done\""),
        ] {
            assert_ne!(bad, good);
            assert!(parse_progress(&bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// Sums over untrusted sidecar lines saturate instead of overflowing.
    #[test]
    fn stats_over_lines_summing_past_u64_max_saturate() {
        let line = |seed| {
            let mut cell = CellTelemetry { messages: u64::MAX, ..telemetry(seed) };
            cell.crypto.digests_computed = u64::MAX;
            cell.to_json()
        };
        let text = format!("{}\n{}\n", line(0), line(1));
        let stats = CampaignStats::from_stream(text.as_bytes()).unwrap();
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.crypto.digests_computed, u64::MAX);
        for rollup in [&stats.by_k[&3], &stats.by_adversary["crash"]] {
            assert_eq!((rollup.messages, rollup.digests), (u64::MAX, u64::MAX));
        }
        assert!(stats.render(5).contains(&format!("messages={}", u64::MAX)));
    }
}
