//! Supervised shard execution: the watchdog layer that turns crash-*recoverable*
//! campaigns into crash-*tolerant* ones.
//!
//! The pieces were already in the engine — per-shard `progress.json` heartbeats
//! ([`crate::telemetry::Heartbeat`]) are the dead-shard detection signal, and the
//! salvage/resume path ([`crate::import::StreamingCells::salvage`] +
//! [`crate::grid::ShardPlan::remainder`]) is the reassignment mechanism — but
//! nothing watched, retried or reassigned anything. This module glues them
//! together:
//!
//! * [`run_supervisor`] — the coordinator loop: spawns one worker subprocess per
//!   shard (the caller provides the [`std::process::Command`] for each launch),
//!   polls each shard's heartbeat for liveness, and on crash, non-zero exit or
//!   stall kills the worker and relaunches the remainder with bounded attempts and
//!   exponential backoff. A shard that exhausts its attempts is *quarantined* and
//!   the run degrades gracefully instead of hanging or panicking.
//! * [`SuperviseSummary`] — the machine-readable outcome (`supervise.json`): the
//!   full attempt history per shard plus the quarantined coordinate ranges, with
//!   [`SuperviseSummary::to_json`] / [`parse_supervise`] round-tripping it through
//!   the same integers-only JSON subset as every other engine document.
//! * [`ChaosSpec`] / [`CrashMode`] / [`CrashPoint`] — deterministic crash
//!   injection. The supervisor arms a worker by setting [`CRASH_ENV`] in its
//!   environment (driven by a `--chaos` spec naming *which shard dies how, on
//!   which attempt*); the worker checks [`CrashPoint::from_env`] and dies at the
//!   exact requested point — a SIGKILL-style exit at a cell boundary, a torn
//!   half-line, a hang (so the watchdog has something real to kill), before its
//!   first heartbeat, or between footer and final rename. Chaos is keyed on
//!   *cells completed in canonical order*, never wall-clock, so every injected
//!   failure is reproducible.
//!
//! # Liveness model
//!
//! A heartbeat carries a monotone `seq` (bumped on every rewrite) and the worker's
//! `attempt` number. The supervisor polls every [`SuperviseConfig::poll_ms`]
//! milliseconds and counts polls during which the `(attempt, seq)` pair did not
//! advance; a worker whose counter exceeds [`SuperviseConfig::stall_polls`] is
//! declared stalled and killed. Progress is thus measured in *heartbeat
//! advancement*, not wall-clock alone — a slow-but-beating shard is never killed,
//! and tests can tighten the deadline deterministically. The deadline
//! (`poll_ms × stall_polls`) must comfortably exceed the time a healthy worker
//! needs to complete [`crate::telemetry::HEARTBEAT_EVERY`] cells.

use crate::export::sweep_stale_tmp;
use crate::grid::ShardPlan;
use crate::import::{
    as_array, as_object, number, schema, string, usize_field, ImportError, Parser,
};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::str::FromStr;
use std::time::{Duration, Instant, SystemTime};

/// Environment variable arming a worker's deterministic crash injection; the value
/// is a [`CrashMode`] rendered by its `Display` impl (e.g. `5`, `torn5`, `hang3`,
/// `early`, `finish`). Set by the supervisor from the `--chaos` spec; honored by
/// `campaign_ctl run` and `resume`.
pub const CRASH_ENV: &str = "BSM_CRASH_AFTER_CELLS";

/// Environment variable carrying the supervisor-assigned attempt number (1-based)
/// a worker stamps into its heartbeat. Absent (or `1`) for unsupervised runs.
pub const ATTEMPT_ENV: &str = "BSM_ATTEMPT";

/// Exit code of an injected crash — distinct from real failure codes so a chaos
/// death is recognizable in attempt histories (the value mimics `128 + SIGKILL`,
/// which is what a genuinely KILLed worker reports).
pub const CRASH_EXIT: i32 = 137;

/// Default bounded attempts per shard (first run + retries) before quarantine.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;
/// Default exponential-backoff base in milliseconds (delay before attempt 2).
pub const DEFAULT_BACKOFF_MS: u64 = 500;
/// Default heartbeat poll interval in milliseconds.
pub const DEFAULT_POLL_MS: u64 = 200;
/// Default number of no-advance polls before a worker is declared stalled.
pub const DEFAULT_STALL_POLLS: u32 = 150;

/// Upper bound on one backoff delay, whatever the attempt number.
const BACKOFF_CAP_MS: u64 = 30_000;

/// The delay in milliseconds applied before launching `attempt` (1-based):
/// `0` for the first attempt, then `base_ms × 2^(attempt − 2)`, capped at 30 s.
///
/// ```rust
/// use bsm_engine::supervise::backoff_ms;
/// assert_eq!(backoff_ms(100, 1), 0);
/// assert_eq!(backoff_ms(100, 2), 100);
/// assert_eq!(backoff_ms(100, 3), 200);
/// assert_eq!(backoff_ms(100, 4), 400);
/// ```
pub fn backoff_ms(base_ms: u64, attempt: u32) -> u64 {
    if attempt <= 1 {
        return 0;
    }
    let doublings = (attempt - 2).min(20);
    base_ms.saturating_mul(1u64 << doublings).min(BACKOFF_CAP_MS)
}

/// Whether the process `pid` is currently alive: `Some(true/false)` on Linux
/// (via `/proc`), `None` when the question cannot be answered (pid 0 — the
/// "unknown" placeholder old heartbeats parse to — or a non-Linux platform).
pub fn pid_alive(pid: u32) -> Option<bool> {
    if pid == 0 {
        return None;
    }
    if cfg!(target_os = "linux") {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

/// The worker-side attempt number from [`ATTEMPT_ENV`] (default 1 when unset).
///
/// # Errors
///
/// A description when the variable is set but not a positive integer.
pub fn attempt_from_env() -> Result<u32, String> {
    match std::env::var(ATTEMPT_ENV) {
        Err(std::env::VarError::NotPresent) => Ok(1),
        Err(err) => Err(format!("{ATTEMPT_ENV}: {err}")),
        Ok(value) => match value.parse::<u32>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{ATTEMPT_ENV}: expected a positive integer, got {value:?}")),
        },
    }
}

// ---------------------------------------------------------------------------
// Crash injection: modes, specs, worker-side trigger
// ---------------------------------------------------------------------------

/// One deterministic way for a worker to die, keyed on cells completed in
/// canonical order (for a resumed worker, replayed salvaged cells count too, so
/// "after the Nth cell" means the same stream position on every attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Exit (code [`CRASH_EXIT`]) right after the Nth cell line is flushed —
    /// a clean-boundary SIGKILL leaving N whole lines in the partial.
    Boundary(usize),
    /// Append a torn half-line after the Nth flushed cell, then exit — the
    /// mid-write SIGKILL shape [`crate::import::StreamingCells::salvage`] trims.
    Torn(usize),
    /// Stop making progress after the Nth cell without exiting — heartbeats stop
    /// advancing and the supervisor's stall watchdog must kill the worker.
    Hang(usize),
    /// Exit before the run creates its heartbeat or opens any artifact — the
    /// "died before first heartbeat" case (no partial exists, so the relaunch is
    /// a fresh `run`, not a `resume`).
    Early,
    /// Exit after the stream is footered and flushed but before the final
    /// atomic rename — the partial is complete, and resume salvages all of it.
    Finish,
}

impl FromStr for CrashMode {
    type Err = String;

    /// Parses the [`CRASH_ENV`] encoding: `early`, `finish`, `N` (boundary),
    /// `tornN`, `hangN` — counts must be ≥ 1 (use `early` to die before work).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let count = |digits: &str, what: &str| -> Result<usize, String> {
            match digits.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!(
                    "chaos {what}: expected a cell count >= 1, got {digits:?} \
                     (use `early` to die before any cell)"
                )),
            }
        };
        if text == "early" {
            Ok(CrashMode::Early)
        } else if text == "finish" {
            Ok(CrashMode::Finish)
        } else if let Some(digits) = text.strip_prefix("torn") {
            Ok(CrashMode::Torn(count(digits, "torn")?))
        } else if let Some(digits) = text.strip_prefix("hang") {
            Ok(CrashMode::Hang(count(digits, "hang")?))
        } else {
            Ok(CrashMode::Boundary(count(text, "boundary")?))
        }
    }
}

impl fmt::Display for CrashMode {
    /// The inverse of [`FromStr`] — what the supervisor writes into [`CRASH_ENV`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashMode::Boundary(n) => write!(f, "{n}"),
            CrashMode::Torn(n) => write!(f, "torn{n}"),
            CrashMode::Hang(n) => write!(f, "hang{n}"),
            CrashMode::Early => write!(f, "early"),
            CrashMode::Finish => write!(f, "finish"),
        }
    }
}

/// A `--chaos` spec: which shard dies how, on which attempt. Comma-separated
/// `SHARD:ATTEMPT:MODE` entries (1-based shard and attempt, [`CrashMode`] syntax
/// for the mode), e.g. `2:1:5,2:2:torn5,3:1:early`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    entries: Vec<(usize, u32, CrashMode)>,
}

impl ChaosSpec {
    /// A spec with no injected failures (what unsupervised reality looks like).
    pub const NONE: ChaosSpec = ChaosSpec { entries: Vec::new() };

    /// The crash mode armed for `shard` (1-based) on `attempt` (1-based), if any.
    pub fn mode_for(&self, shard: usize, attempt: u32) -> Option<CrashMode> {
        self.entries.iter().find(|(s, a, _)| *s == shard && *a == attempt).map(|(_, _, mode)| *mode)
    }

    /// True when the spec injects no failures at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromStr for ChaosSpec {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut entries = Vec::new();
        for entry in text.split(',').filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = entry.split(':').collect();
            let [shard, attempt, mode] = parts.as_slice() else {
                return Err(format!(
                    "chaos entry {entry:?}: expected SHARD:ATTEMPT:MODE (e.g. 2:1:torn5)"
                ));
            };
            let shard = shard
                .parse::<usize>()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("chaos entry {entry:?}: shard must be >= 1"))?;
            let attempt = attempt
                .parse::<u32>()
                .ok()
                .filter(|&a| a >= 1)
                .ok_or_else(|| format!("chaos entry {entry:?}: attempt must be >= 1"))?;
            let mode =
                mode.parse::<CrashMode>().map_err(|err| format!("chaos entry {entry:?}: {err}"))?;
            if entries.iter().any(|(s, a, _)| *s == shard && *a == attempt) {
                return Err(format!(
                    "chaos entry {entry:?}: shard {shard} attempt {attempt} named twice"
                ));
            }
            entries.push((shard, attempt, mode));
        }
        Ok(ChaosSpec { entries })
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (shard, attempt, mode) in &self.entries {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{shard}:{attempt}:{mode}")?;
            first = false;
        }
        Ok(())
    }
}

/// The worker-side trigger: counts streamed cells and dies at the armed point.
///
/// The worker checks [`CrashPoint::from_env`] once at startup; an unarmed worker
/// pays nothing. The three call sites a streamed run threads it through:
/// `die_early_if_armed` before any artifact exists, `cell_written` after each
/// cell reaches the stream (flush first, so whole lines are on disk — the caller
/// decides when to call [`CrashPoint::fire`]), and `die_before_publish_if_armed`
/// between footer and final rename.
#[derive(Debug)]
pub struct CrashPoint {
    mode: CrashMode,
    seen: usize,
}

impl CrashPoint {
    /// Reads [`CRASH_ENV`]: `Ok(None)` when unset (the common case).
    ///
    /// # Errors
    ///
    /// A description when the variable is set but unparseable — a typo'd chaos
    /// spec must fail the run loudly, not silently un-inject the crash.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(CRASH_ENV) {
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(err) => Err(format!("{CRASH_ENV}: {err}")),
            Ok(value) => {
                let mode =
                    value.parse::<CrashMode>().map_err(|err| format!("{CRASH_ENV}: {err}"))?;
                Ok(Some(CrashPoint { mode, seen: 0 }))
            }
        }
    }

    /// Builds an armed trigger directly (tests).
    pub fn new(mode: CrashMode) -> Self {
        CrashPoint { mode, seen: 0 }
    }

    /// Dies now when armed with [`CrashMode::Early`] — call before creating the
    /// heartbeat or any artifact.
    pub fn die_early_if_armed(&self) {
        if self.mode == CrashMode::Early {
            eprintln!("chaos: injected crash (early) before any artifact");
            std::process::exit(CRASH_EXIT);
        }
    }

    /// Dies now when armed with [`CrashMode::Finish`] — call after the stream is
    /// footered and flushed, before the final atomic rename.
    pub fn die_before_publish_if_armed(&self) {
        if self.mode == CrashMode::Finish {
            eprintln!("chaos: injected crash (finish) before final rename");
            std::process::exit(CRASH_EXIT);
        }
    }

    /// Records one cell written to the stream; `true` when the armed point is
    /// *now* — the caller must flush its stream (whole lines on disk) and then
    /// call [`CrashPoint::fire`].
    pub fn cell_written(&mut self) -> bool {
        self.seen += 1;
        matches!(
            self.mode,
            CrashMode::Boundary(n) | CrashMode::Torn(n) | CrashMode::Hang(n) if n == self.seen
        )
    }

    /// Executes the armed death: appends the torn fragment (torn mode), hangs
    /// forever (hang mode — the watchdog's job is to kill us), or exits.
    pub fn fire(&self, partial: &Path) -> ! {
        match self.mode {
            CrashMode::Torn(_) => {
                // Half of a cell line, no trailing newline: exactly what a
                // SIGKILL between write() calls leaves behind.
                let fragment = "{\"k\": 3, \"topology\": \"fully-conn";
                let _ = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(partial)
                    .and_then(|mut file| file.write_all(fragment.as_bytes()));
                eprintln!("chaos: injected torn write after {} cell(s)", self.seen);
            }
            CrashMode::Hang(_) => {
                eprintln!("chaos: injected hang after {} cell(s)", self.seen);
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            _ => {
                eprintln!("chaos: injected crash after {} cell(s)", self.seen);
            }
        }
        std::process::exit(CRASH_EXIT);
    }
}

// ---------------------------------------------------------------------------
// Supervisor configuration and summary
// ---------------------------------------------------------------------------

/// Tuning for one [`run_supervisor`] invocation.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Shard count (one worker subprocess per shard).
    pub shards: usize,
    /// Total cells in the campaign (for quarantined coordinate ranges).
    pub total_cells: usize,
    /// Bounded attempts per shard (first run + retries) before quarantine.
    pub max_attempts: u32,
    /// Exponential-backoff base in milliseconds (see [`backoff_ms`]).
    pub backoff_base_ms: u64,
    /// Heartbeat poll interval in milliseconds.
    pub poll_ms: u64,
    /// No-advance polls before a worker is declared stalled and killed.
    pub stall_polls: u32,
    /// Deterministic crash injection plan ([`ChaosSpec::NONE`] in production).
    pub chaos: ChaosSpec,
}

/// How one worker attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Exit 0 with a complete footered `report.jsonl` published.
    Completed,
    /// Non-zero exit, killed by a signal, or exit 0 without a published export.
    Crashed,
    /// Heartbeat stopped advancing past the deadline; the supervisor killed it.
    Stalled,
    /// The subprocess could not be spawned at all.
    SpawnFailed,
}

impl AttemptOutcome {
    /// The canonical `supervise.json` rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptOutcome::Completed => "completed",
            AttemptOutcome::Crashed => "crashed",
            AttemptOutcome::Stalled => "stalled",
            AttemptOutcome::SpawnFailed => "spawn-failed",
        }
    }

    fn parse(text: &str) -> Result<Self, ImportError> {
        match text {
            "completed" => Ok(AttemptOutcome::Completed),
            "crashed" => Ok(AttemptOutcome::Crashed),
            "stalled" => Ok(AttemptOutcome::Stalled),
            "spawn-failed" => Ok(AttemptOutcome::SpawnFailed),
            other => Err(schema(format!("unknown attempt outcome {other:?}"))),
        }
    }
}

/// One row of a shard's attempt history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The shard (1-based, as on the `--shard I/K` command line).
    pub shard: usize,
    /// The attempt number (1-based).
    pub attempt: u32,
    /// Whether the attempt resumed salvaged state (`resume`) or started fresh
    /// (`run`).
    pub resumed: bool,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Encoded exit status: the exit code when the worker exited, `128 + signal`
    /// when it was killed (137 for SIGKILL — also [`CRASH_EXIT`]), 0 otherwise.
    pub exit: u64,
    /// Cells done per the shard's last heartbeat when the attempt ended (a lower
    /// bound — the heartbeat rewrites every few cells, not on every cell).
    pub done: usize,
    /// The backoff delay applied before this attempt launched (0 for attempt 1).
    pub backoff_ms: u64,
}

/// A shard that exhausted its attempts: its un-merged coordinate range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// The shard (1-based).
    pub shard: usize,
    /// First cell index of the shard's canonical range.
    pub start: usize,
    /// Cells in the range.
    pub cells: usize,
    /// Attempts spent before quarantine.
    pub attempts: u32,
}

/// The machine-readable outcome of a supervised run — what `supervise.json`
/// holds. [`SuperviseSummary::to_json`] and [`parse_supervise`] round-trip it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseSummary {
    /// Shard count of the run.
    pub shards: usize,
    /// Total cells in the campaign.
    pub total_cells: usize,
    /// The attempt bound the run was configured with.
    pub max_attempts: u32,
    /// Every attempt, in launch order.
    pub attempts: Vec<AttemptRecord>,
    /// Shards that exhausted their attempts (empty on a clean run).
    pub quarantined: Vec<QuarantinedShard>,
}

impl SuperviseSummary {
    /// True when any shard was quarantined — the run produced partial artifacts
    /// and the process should exit with the degraded code.
    pub fn degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// The 1-based shard numbers that published a complete export, in order.
    pub fn completed_shards(&self) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .attempts
            .iter()
            .filter(|record| record.outcome == AttemptOutcome::Completed)
            .map(|record| record.shard)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Renders the canonical `supervise.json` document (integers-only JSON, like
    /// every other engine artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"total_cells\": {},\n", self.total_cells));
        out.push_str(&format!("  \"max_attempts\": {},\n", self.max_attempts));
        out.push_str(&format!(
            "  \"outcome\": \"{}\",\n",
            if self.degraded() { "degraded" } else { "complete" }
        ));
        out.push_str("  \"attempts\": [\n");
        for (index, record) in self.attempts.iter().enumerate() {
            let comma = if index + 1 == self.attempts.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shard\": {}, \"attempt\": {}, \"mode\": \"{}\", \"outcome\": \"{}\", \
                 \"exit\": {}, \"done\": {}, \"backoff_ms\": {}}}{comma}\n",
                record.shard,
                record.attempt,
                if record.resumed { "resume" } else { "run" },
                record.outcome.as_str(),
                record.exit,
                record.done,
                record.backoff_ms,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"quarantined\": [\n");
        for (index, shard) in self.quarantined.iter().enumerate() {
            let comma = if index + 1 == self.quarantined.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shard\": {}, \"start\": {}, \"cells\": {}, \"attempts\": {}}}{comma}\n",
                shard.shard, shard.start, shard.cells, shard.attempts,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Parses a `supervise.json` document back into a [`SuperviseSummary`].
///
/// # Errors
///
/// [`ImportError::Syntax`] for malformed JSON, [`ImportError::Schema`] for a
/// well-formed document that is not a supervise summary (including an `outcome`
/// field inconsistent with the quarantine list).
pub fn parse_supervise(text: &str) -> Result<SuperviseSummary, ImportError> {
    let value = Parser::new(text.trim_end()).parse_document()?;
    let fields = as_object(&value, "supervise document")?;
    let mut attempts = Vec::new();
    for item in as_array(crate::import::field(fields, "attempts")?, "attempts")? {
        let record = as_object(item, "attempt record")?;
        let mode = string(record, "mode")?;
        let resumed = match mode {
            "resume" => true,
            "run" => false,
            other => return Err(schema(format!("unknown attempt mode {other:?}"))),
        };
        attempts.push(AttemptRecord {
            shard: usize_field(record, "shard")?,
            attempt: u32::try_from(number(record, "attempt")?)
                .map_err(|_| schema("attempt: value exceeds u32"))?,
            resumed,
            outcome: AttemptOutcome::parse(string(record, "outcome")?)?,
            exit: number(record, "exit")?,
            done: usize_field(record, "done")?,
            backoff_ms: number(record, "backoff_ms")?,
        });
    }
    let mut quarantined = Vec::new();
    for item in as_array(crate::import::field(fields, "quarantined")?, "quarantined")? {
        let record = as_object(item, "quarantine record")?;
        quarantined.push(QuarantinedShard {
            shard: usize_field(record, "shard")?,
            start: usize_field(record, "start")?,
            cells: usize_field(record, "cells")?,
            attempts: u32::try_from(number(record, "attempts")?)
                .map_err(|_| schema("attempts: value exceeds u32"))?,
        });
    }
    let summary = SuperviseSummary {
        shards: usize_field(fields, "shards")?,
        total_cells: usize_field(fields, "total_cells")?,
        max_attempts: u32::try_from(number(fields, "max_attempts")?)
            .map_err(|_| schema("max_attempts: value exceeds u32"))?,
        attempts,
        quarantined,
    };
    let declared = string(fields, "outcome")?;
    let expected = if summary.degraded() { "degraded" } else { "complete" };
    if declared != expected {
        return Err(schema(format!(
            "outcome {declared:?} contradicts the quarantine list (expected {expected:?})"
        )));
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// The supervisor loop
// ---------------------------------------------------------------------------

/// Per-shard state in the supervisor loop.
enum Slot {
    /// Waiting out the backoff before (re)launching `attempt` at `at`.
    Launch { attempt: u32, at: Instant, backoff: u64 },
    /// A live worker being watched.
    Running {
        child: Child,
        attempt: u32,
        backoff: u64,
        seen: Option<(u64, u64)>,
        stale: u32,
        resumed: bool,
    },
    /// Published a complete export.
    Done,
    /// Exhausted its attempts.
    Quarantined,
}

/// Encodes an [`ExitStatus`] for attempt records: the exit code when the worker
/// exited, `128 + signal` when it was killed, 255 when neither is known.
fn encode_exit(status: ExitStatus) -> u64 {
    if let Some(code) = status.code() {
        return u64::try_from(code.max(0)).unwrap_or(255);
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            return 128 + u64::try_from(signal.max(0)).unwrap_or(127);
        }
    }
    255
}

/// The shard's current `(attempt, seq)` heartbeat pair, when one parses.
fn read_beat(dir: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(dir.join("progress.json")).ok()?;
    let snapshot = crate::telemetry::parse_progress(&text).ok()?;
    Some((u64::from(snapshot.attempt), snapshot.seq))
}

/// The shard's last-heartbeat `done` count (0 when no heartbeat parses).
fn read_done(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("progress.json"))
        .ok()
        .and_then(|text| crate::telemetry::parse_progress(&text).ok())
        .map_or(0, |snapshot| snapshot.done)
}

/// Runs the supervisor loop: one worker subprocess per shard, watched, retried
/// with exponential backoff, and quarantined after
/// [`SuperviseConfig::max_attempts`].
///
/// `dirs[i]` is shard `i+1`'s out-dir (where its heartbeat and artifacts land).
/// `spawn(shard, attempt, resume)` builds the launch command for 1-based `shard`;
/// `resume` is true when salvageable state exists in the shard's dir, in which
/// case the command must finish the interrupted run instead of starting over.
/// The supervisor itself arms [`ATTEMPT_ENV`] and (per the chaos spec)
/// [`CRASH_ENV`] on the returned command, sweeps stale `*.tmp` staging debris
/// before every relaunch, and reaps every child it spawns or kills.
///
/// The function always runs to a terminal state for every shard — a quarantined
/// shard degrades the summary, it never hangs or aborts the others.
///
/// # Errors
///
/// Only unrecoverable supervisor-side I/O (e.g. `try_wait` failing); worker
/// failures are data, not errors.
pub fn run_supervisor<S>(
    config: &SuperviseConfig,
    dirs: &[PathBuf],
    mut spawn: S,
) -> std::io::Result<SuperviseSummary>
where
    S: FnMut(usize, u32, bool) -> Command,
{
    assert_eq!(dirs.len(), config.shards, "one out-dir per shard");
    let max_attempts = config.max_attempts.max(1);
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut quarantined: Vec<QuarantinedShard> = Vec::new();
    let mut slots: Vec<Slot> = (0..config.shards)
        .map(|_| Slot::Launch { attempt: 1, at: Instant::now(), backoff: 0 })
        .collect();
    // On failure: schedule the next attempt, or quarantine after the bound.
    let next_slot = |attempt: u32, shard: usize, quarantined: &mut Vec<QuarantinedShard>| -> Slot {
        if attempt >= max_attempts {
            let range = ShardPlan::new(shard - 1, config.shards)
                .map(|plan| plan.range(config.total_cells))
                .unwrap_or(0..0);
            eprintln!(
                "supervise: shard {shard}/{} QUARANTINED after {attempt} attempt(s) \
                 (cells {}..{})",
                config.shards, range.start, range.end
            );
            quarantined.push(QuarantinedShard {
                shard,
                start: range.start,
                cells: range.len(),
                attempts: attempt,
            });
            Slot::Quarantined
        } else {
            let delay = backoff_ms(config.backoff_base_ms, attempt + 1);
            Slot::Launch {
                attempt: attempt + 1,
                at: Instant::now() + Duration::from_millis(delay),
                backoff: delay,
            }
        }
    };
    loop {
        let mut active = false;
        for (index, slot) in slots.iter_mut().enumerate() {
            let shard = index + 1;
            let dir = &dirs[index];
            match slot {
                Slot::Done | Slot::Quarantined => {}
                Slot::Launch { attempt, at, backoff } => {
                    active = true;
                    if Instant::now() < *at {
                        continue;
                    }
                    let (attempt, backoff) = (*attempt, *backoff);
                    // A SIGKILLed worker leaves AtomicFile staging debris its
                    // successor would otherwise never clean; sweep before spawning
                    // so the new attempt starts from known staging state.
                    let _ = sweep_stale_tmp(dir, SystemTime::now());
                    let resume = dir.join("report.jsonl.partial").exists()
                        || dir.join("report.jsonl").exists();
                    let mut command = spawn(shard, attempt, resume);
                    command.env(ATTEMPT_ENV, attempt.to_string());
                    command.env_remove(CRASH_ENV);
                    if let Some(mode) = config.chaos.mode_for(shard, attempt) {
                        command.env(CRASH_ENV, mode.to_string());
                    }
                    match command.spawn() {
                        Ok(child) => {
                            eprintln!(
                                "supervise: shard {shard}/{} attempt {attempt} launched \
                                 ({}, pid {})",
                                config.shards,
                                if resume { "resume" } else { "run" },
                                child.id()
                            );
                            *slot = Slot::Running {
                                child,
                                attempt,
                                backoff,
                                seen: None,
                                stale: 0,
                                resumed: resume,
                            };
                        }
                        Err(err) => {
                            eprintln!(
                                "supervise: shard {shard}/{} attempt {attempt} failed to \
                                 spawn: {err}",
                                config.shards
                            );
                            attempts.push(AttemptRecord {
                                shard,
                                attempt,
                                resumed: resume,
                                outcome: AttemptOutcome::SpawnFailed,
                                exit: 0,
                                done: read_done(dir),
                                backoff_ms: backoff,
                            });
                            *slot = next_slot(attempt, shard, &mut quarantined);
                        }
                    }
                }
                Slot::Running { child, attempt, backoff, seen, stale, resumed } => {
                    active = true;
                    if let Some(status) = child.try_wait()? {
                        let done = read_done(dir);
                        let published = dir.join("report.jsonl").exists();
                        if status.success() && published {
                            eprintln!(
                                "supervise: shard {shard}/{} attempt {attempt} completed \
                                 ({done} cell(s))",
                                config.shards
                            );
                            attempts.push(AttemptRecord {
                                shard,
                                attempt: *attempt,
                                resumed: *resumed,
                                outcome: AttemptOutcome::Completed,
                                exit: 0,
                                done,
                                backoff_ms: *backoff,
                            });
                            *slot = Slot::Done;
                        } else {
                            let exit = encode_exit(status);
                            eprintln!(
                                "supervise: shard {shard}/{} attempt {attempt} crashed \
                                 (exit {exit}, {done} cell(s) per last heartbeat)",
                                config.shards
                            );
                            attempts.push(AttemptRecord {
                                shard,
                                attempt: *attempt,
                                resumed: *resumed,
                                outcome: AttemptOutcome::Crashed,
                                exit,
                                done,
                                backoff_ms: *backoff,
                            });
                            *slot = next_slot(*attempt, shard, &mut quarantined);
                        }
                        continue;
                    }
                    // Still running: liveness is heartbeat advancement, measured
                    // as the (attempt, seq) pair — seq restarts on relaunch, and
                    // the attempt field disambiguates a fresh worker's low seq
                    // from the dead predecessor's stale file.
                    let beat = read_beat(dir);
                    if beat.is_some() && beat != *seen {
                        *seen = beat;
                        *stale = 0;
                    } else {
                        *stale += 1;
                    }
                    if *stale > config.stall_polls {
                        eprintln!(
                            "supervise: shard {shard}/{} attempt {attempt} STALLED \
                             (no heartbeat advance across {} polls); killing pid {}",
                            config.shards,
                            config.stall_polls,
                            child.id()
                        );
                        let _ = child.kill();
                        let _ = child.wait();
                        attempts.push(AttemptRecord {
                            shard,
                            attempt: *attempt,
                            resumed: *resumed,
                            outcome: AttemptOutcome::Stalled,
                            exit: 137,
                            done: read_done(dir),
                            backoff_ms: *backoff,
                        });
                        *slot = next_slot(*attempt, shard, &mut quarantined);
                    }
                }
            }
        }
        if !active {
            break;
        }
        std::thread::sleep(Duration::from_millis(config.poll_ms.max(1)));
    }
    // Quarantined dirs keep their salvageable .partial (a later manual resume can
    // still finish them) but not their staging debris.
    for shard in &quarantined {
        let _ = sweep_stale_tmp(&dirs[shard.shard - 1], SystemTime::now());
    }
    quarantined.sort_by_key(|q| q.shard);
    Ok(SuperviseSummary {
        shards: config.shards,
        total_cells: config.total_cells,
        max_attempts,
        attempts,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_modes_round_trip_through_the_env_encoding() {
        for (text, mode) in [
            ("5", CrashMode::Boundary(5)),
            ("torn7", CrashMode::Torn(7)),
            ("hang3", CrashMode::Hang(3)),
            ("early", CrashMode::Early),
            ("finish", CrashMode::Finish),
        ] {
            assert_eq!(text.parse::<CrashMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), text);
        }
        for bad in ["", "0", "torn0", "hang", "tornx", "-3", "late"] {
            assert!(bad.parse::<CrashMode>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn chaos_specs_parse_and_answer_lookups() {
        let spec: ChaosSpec = "2:1:5,2:2:torn5,3:1:early".parse().unwrap();
        assert_eq!(spec.mode_for(2, 1), Some(CrashMode::Boundary(5)));
        assert_eq!(spec.mode_for(2, 2), Some(CrashMode::Torn(5)));
        assert_eq!(spec.mode_for(3, 1), Some(CrashMode::Early));
        assert_eq!(spec.mode_for(1, 1), None);
        assert_eq!(spec.mode_for(2, 3), None);
        assert_eq!(spec.to_string(), "2:1:5,2:2:torn5,3:1:early");
        assert_eq!(spec.to_string().parse::<ChaosSpec>().unwrap(), spec);
        assert!(ChaosSpec::NONE.is_empty());
        assert!("".parse::<ChaosSpec>().unwrap().is_empty());
        for bad in ["2:1", "0:1:5", "2:0:5", "2:1:late", "x:1:5", "2:1:5,2:1:7"] {
            assert!(bad.parse::<ChaosSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn backoff_doubles_from_the_base_and_caps() {
        assert_eq!(backoff_ms(500, 1), 0);
        assert_eq!(backoff_ms(500, 2), 500);
        assert_eq!(backoff_ms(500, 3), 1000);
        assert_eq!(backoff_ms(500, 4), 2000);
        assert_eq!(backoff_ms(500, 40), BACKOFF_CAP_MS);
        assert_eq!(backoff_ms(0, 7), 0);
        assert_eq!(backoff_ms(u64::MAX, 3), BACKOFF_CAP_MS);
    }

    #[test]
    fn crash_point_counts_cells_and_fires_at_the_boundary() {
        let mut point = CrashPoint::new(CrashMode::Boundary(3));
        assert!(!point.cell_written());
        assert!(!point.cell_written());
        assert!(point.cell_written());
        assert!(!point.cell_written(), "the trigger fires exactly once");
        let mut early = CrashPoint::new(CrashMode::Early);
        assert!(!early.cell_written(), "early never fires at a cell boundary");
    }

    #[test]
    fn pid_liveness_answers_for_this_process_and_declines_pid_zero() {
        assert_eq!(pid_alive(0), None);
        if cfg!(target_os = "linux") {
            assert_eq!(pid_alive(std::process::id()), Some(true));
        }
    }

    fn summary() -> SuperviseSummary {
        SuperviseSummary {
            shards: 3,
            total_cells: 72,
            max_attempts: 3,
            attempts: vec![
                AttemptRecord {
                    shard: 1,
                    attempt: 1,
                    resumed: false,
                    outcome: AttemptOutcome::Completed,
                    exit: 0,
                    done: 24,
                    backoff_ms: 0,
                },
                AttemptRecord {
                    shard: 2,
                    attempt: 1,
                    resumed: false,
                    outcome: AttemptOutcome::Crashed,
                    exit: 137,
                    done: 5,
                    backoff_ms: 0,
                },
                AttemptRecord {
                    shard: 2,
                    attempt: 2,
                    resumed: true,
                    outcome: AttemptOutcome::Stalled,
                    exit: 137,
                    done: 5,
                    backoff_ms: 100,
                },
                AttemptRecord {
                    shard: 2,
                    attempt: 3,
                    resumed: true,
                    outcome: AttemptOutcome::Crashed,
                    exit: 1,
                    done: 5,
                    backoff_ms: 200,
                },
                AttemptRecord {
                    shard: 3,
                    attempt: 1,
                    resumed: false,
                    outcome: AttemptOutcome::Completed,
                    exit: 0,
                    done: 24,
                    backoff_ms: 0,
                },
            ],
            quarantined: vec![QuarantinedShard { shard: 2, start: 24, cells: 24, attempts: 3 }],
        }
    }

    #[test]
    fn summaries_round_trip_through_json() {
        let summary = summary();
        assert!(summary.degraded());
        assert_eq!(summary.completed_shards(), vec![1, 3]);
        let parsed = parse_supervise(&summary.to_json()).unwrap();
        assert_eq!(parsed, summary);
        let clean = SuperviseSummary { quarantined: Vec::new(), ..summary };
        assert!(!clean.degraded());
        assert_eq!(parse_supervise(&clean.to_json()).unwrap(), clean);
    }

    #[test]
    fn summary_documents_reject_wrong_shapes() {
        assert!(parse_supervise("[]").is_err());
        assert!(parse_supervise("{\"shards\": 1}").is_err());
        // An outcome field contradicting the quarantine list is a lie, not data.
        let lied = summary().to_json().replace("\"degraded\"", "\"complete\"");
        assert!(parse_supervise(&lied).is_err());
        let truncated = &summary().to_json()[..40];
        assert!(parse_supervise(truncated).is_err());
    }

    #[cfg(unix)]
    fn shell_config(shards: usize) -> SuperviseConfig {
        SuperviseConfig {
            shards,
            total_cells: 12,
            max_attempts: 2,
            backoff_base_ms: 0,
            poll_ms: 5,
            stall_polls: 10,
            chaos: ChaosSpec::NONE,
        }
    }

    #[cfg(unix)]
    fn shell(script: String) -> Command {
        let mut command = Command::new("sh");
        command.arg("-c").arg(script);
        command.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
        command
    }

    #[cfg(unix)]
    #[test]
    fn supervisor_completes_workers_that_publish_and_quarantines_ones_that_crash() {
        let base = std::env::temp_dir().join(format!("bsm-supervise-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dirs = vec![base.join("shard-1"), base.join("shard-2")];
        for dir in &dirs {
            std::fs::create_dir_all(dir).unwrap();
        }
        // Shard 1 "publishes" a report.jsonl and exits 0; shard 2 always exits 3.
        let ok = dirs[0].join("report.jsonl");
        let summary = run_supervisor(&shell_config(2), &dirs, |shard, _, _| match shard {
            1 => shell(format!("echo cells > {}", ok.display())),
            _ => shell("exit 3".into()),
        })
        .unwrap();
        assert!(summary.degraded());
        assert_eq!(summary.completed_shards(), vec![1]);
        assert_eq!(summary.quarantined.len(), 1);
        assert_eq!(summary.quarantined[0].shard, 2);
        assert_eq!(summary.quarantined[0].attempts, 2);
        let shard2: Vec<_> = summary.attempts.iter().filter(|record| record.shard == 2).collect();
        assert_eq!(shard2.len(), 2, "bounded attempts: first run + one retry");
        assert!(shard2.iter().all(|record| record.outcome == AttemptOutcome::Crashed));
        assert!(shard2.iter().all(|record| record.exit == 3));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[cfg(unix)]
    #[test]
    fn supervisor_kills_and_records_a_stalled_worker() {
        let base = std::env::temp_dir().join(format!("bsm-supervise-stall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dirs = vec![base.join("shard-1")];
        std::fs::create_dir_all(&dirs[0]).unwrap();
        // The worker never beats and never exits: only the stall watchdog ends it.
        let mut config = shell_config(1);
        config.max_attempts = 1;
        let summary = run_supervisor(&config, &dirs, |_, _, _| shell("sleep 600".into())).unwrap();
        assert!(summary.degraded());
        assert_eq!(summary.attempts.len(), 1);
        assert_eq!(summary.attempts[0].outcome, AttemptOutcome::Stalled);
        assert_eq!(summary.attempts[0].exit, 137, "stall kill is a SIGKILL");
        let _ = std::fs::remove_dir_all(&base);
    }
}
