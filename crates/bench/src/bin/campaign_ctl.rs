//! `campaign_ctl` — run, merge and diff sharded campaigns from the command line.
//!
//! The process-level face of the engine's distributed-campaign layer:
//!
//! ```sh
//! # One process per shard (any machines, any thread counts):
//! campaign_ctl run --smoke --shard 1/3 --out shards/1
//! campaign_ctl run --smoke --shard 2/3 --out shards/2
//! campaign_ctl run --smoke --shard 3/3 --out shards/3
//!
//! # Recombine the shard exports; byte-identical to an unsharded run:
//! campaign_ctl merge --out merged shards/1/report.json shards/2/report.json shards/3/report.json
//!
//! # Cell-level comparison of two runs (e.g. before/after a protocol change);
//! # exits non-zero when any cell differs:
//! campaign_ctl diff merged/report.json before/report.json
//! ```
//!
//! `run` executes the standard campaign grid (`--smoke`: the small CI grid; default:
//! the full ~1080-cell sweep — the same grids as `examples/campaign.rs`) and writes
//! `report.json` + `report.csv` (plus the `progress.json` heartbeat) to `--out`. What
//! each subcommand reads is its row in [`bsm_bench::cli::COMMANDS`]; any other
//! argument is a usage error.
//!
//! # Scenario files (`--scenario`)
//!
//! Instead of the built-in grids, `run --scenario FILE` (also honored by `resume`)
//! loads a declarative scenario file — grid axes plus a schedule of network faults
//! (partitions, crash/recovery, seeded loss and jitter); see `docs/SCENARIOS.md`.
//! The file's canonical rendering is embedded in every report artifact as its
//! *scenario tag*, and `merge`/`diff` refuse to combine artifacts whose tags differ,
//! so mixed-scenario data can never splice silently:
//!
//! ```sh
//! campaign_ctl run --scenario examples/scenarios/partition_heal.toml --stream --metrics
//! ```
//!
//! # Streaming (`--stream`)
//!
//! Every run streams, so no command holds a campaign's cells in memory. A run
//! writes a `report.jsonl` — coordinate-sorted cell lines plus a totals footer,
//! streamed to disk as cells complete — plus a per-shard `report.csv`. `run
//! --stream` keeps that shard stream; without `--stream` a one-shard merge renders
//! it as `report.json` and the stream is removed. `merge` k-way-merges shard exports
//! in constant memory into `report.json` + `report.csv`, **byte-identical** to an
//! unsharded run; it takes `report.jsonl` streams and `report.json` documents
//! (detected by extension, case-insensitively):
//!
//! ```sh
//! campaign_ctl run --smoke --stream --shard 1/3 --out shards/1   # ... 2/3, 3/3
//! campaign_ctl merge --out merged \
//!     shards/1/report.jsonl shards/2/report.jsonl shards/3/report.jsonl
//! ```
//!
//! `diff` takes both formats too, and merge-joins the two exports' cells as it
//! reads them. Every reader refuses a document or stream whose cells are not in
//! strictly increasing coordinate order.
//!
//! # Crash recovery (`resume`)
//!
//! A run that dies mid-campaign leaves its completed cells at
//! `report.jsonl.partial` — the stream is written there and renamed to
//! `report.jsonl` only once footered. `resume` (with the same `--smoke`/`--shard`
//! flags as the interrupted run) salvages the valid cell prefix, re-runs only the
//! missing cells, and splices prefix + fresh cells into a shard stream
//! byte-identical to an uninterrupted `run --stream` (`merge` it for a
//! `report.json`):
//!
//! ```sh
//! campaign_ctl run  --smoke --stream --shard 2/3 --out shards/2   # ... killed!
//! campaign_ctl resume --smoke --shard 2/3 --out shards/2
//! ```
//!
//! All final artifacts (`report.json`, `report.csv`, `BENCH_engine.json`) are
//! published through a temp-file + atomic-rename, so a crash at any instant can
//! never leave a truncated file at a tracked path.
//!
//! # Supervision (`supervise`)
//!
//! `supervise --shards K` turns the crash-*recoverable* pieces above into a
//! crash-*tolerant* whole: the coordinator spawns one worker subprocess per shard
//! (`run --stream --shard i/K`, re-executing this binary), watches each worker's
//! `progress.json` heartbeat for liveness (a heartbeat that stops advancing — not
//! mere slowness — gets the worker killed), and on any death salvages the
//! worker's partial and relaunches the remainder (`resume`) with bounded attempts
//! and exponential backoff. A shard that keeps dying is quarantined and the run
//! degrades gracefully: the completed shards are merged, `supervise.json` records
//! every attempt and the quarantined coordinate ranges, and the process exits
//! with the degraded code 4. With every worker healthy the merged
//! `report.json`/`report.csv` are **byte-identical** to an unsupervised
//! single-process run. `--chaos SHARD:ATTEMPT:MODE,...` injects deterministic
//! crashes (cell-boundary kill, torn half-line, hang, pre-heartbeat death,
//! post-footer/pre-rename death) so the supervision machinery is tested against
//! real process deaths:
//!
//! ```sh
//! campaign_ctl supervise --smoke --shards 3 --out supervised
//! campaign_ctl supervise --smoke --shards 3 --chaos 2:1:torn7 --backoff-ms 0
//! ```
//!
//! # Exit codes
//!
//! The mapping is a documented contract (see [`bsm_bench::exit`]), asserted by
//! `crates/bench/tests/exit_codes.rs`: 0 success, 1 internal error, 2 usage
//! error, 3 findings (`diff` differing cells; `fuzz` violations or a replay
//! mismatch), 4 degraded (`supervise` quarantined at least one shard).
//!
//! # Telemetry (`--metrics`, `stats`)
//!
//! `run --metrics` (with or without `--stream`) writes a `metrics.jsonl` sidecar next
//! to the report artifacts: one coordinate-sorted JSON line per cell carrying the
//! cell's attributed crypto-counter delta, message accounting, per-role fan-out and
//! wall time. The sidecar is strictly a side channel — every report artifact is
//! byte-identical with and without it. Independently of `--metrics`, every run
//! heartbeats `progress.json` in its out-dir (done/total, rate, last coordinate,
//! pid and attempt) every few cells through an atomic rename — the liveness signal
//! `supervise` polls for dead shards. `stats` aggregates a sidecar into quantiles,
//! top-N cells and per-axis rollups; on an out-dir without one it prints just the
//! heartbeat:
//!
//! ```sh
//! campaign_ctl run --smoke --stream --metrics --shard 1/3 --out shards/1
//! campaign_ctl stats shards/1     # p50/p90/p99, top cells, rollups (+ heartbeat)
//! ```
//!
//! # Fuzzing (`fuzz`)
//!
//! `fuzz --budget N --seed S` runs the violation-guided adversary fuzzer: a seeded,
//! byte-deterministic search over serialized adversary scripts, checked against the
//! broadcast and stable-matching property oracles (see `docs/FUZZING.md`). Any
//! violating script is greedily shrunk; `--freeze` writes the minimal script as a
//! canonical regression file under `crates/core/tests/fuzz_regressions/`, and
//! `--replay FILE` re-runs one frozen script and verifies its recorded verdict:
//!
//! ```sh
//! campaign_ctl fuzz --budget 200 --seed 1          # writes fuzz.log to --out
//! campaign_ctl fuzz --replay crates/core/tests/fuzz_regressions/some_attack.toml
//! ```

use bsm_bench::cli::{BenchArgs, Row, COMMANDS};
use bsm_bench::exit::{CtlCode, CtlError};
use bsm_bench::{errln, outln};
use bsm_core::harness::AdversarySpec;
use bsm_core::script::{Script, Verdict};
use bsm_engine::export::{
    atomic_write, AtomicFile, MergedJsonWriter, StreamingCsvWriter, StreamingExporter,
};
use bsm_engine::import::{footer_meta, from_json, StreamingCells};
use bsm_engine::supervise::{
    attempt_from_env, pid_alive, run_supervisor, ChaosSpec, CrashPoint, SuperviseConfig,
    DEFAULT_BACKOFF_MS, DEFAULT_MAX_ATTEMPTS, DEFAULT_POLL_MS, DEFAULT_STALL_POLLS,
};
use bsm_engine::telemetry::{
    parse_progress, CampaignStats, CellTelemetry, Heartbeat, TelemetryExporter, HEARTBEAT_EVERY,
};
use bsm_engine::{
    run_fuzz, Campaign, CampaignBuilder, CampaignDiff, CellMerge, CellRecord, ExecutionStats,
    FuzzConfig, ScenarioFile, ShardPlan, StreamError, Totals,
};
use std::ffi::OsString;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The campaign to run, plus the canonical scenario text when one was loaded from
/// `--scenario FILE` (embedded in every report artifact as its scenario tag).
///
/// Without `--scenario`, the standard grids are mirrored by `examples/campaign.rs` —
/// the CI gate cross-checks that both produce byte-identical exports.
fn build_campaign(args: &BenchArgs) -> Result<(Campaign, Option<String>), CtlError> {
    if let Some(path) = &args.scenario {
        if args.smoke {
            return Err(CtlError::Usage(
                "--scenario and --smoke are mutually exclusive (the scenario \
                 file already names its whole grid)"
                    .into(),
            ));
        }
        let scenario = ScenarioFile::load(path).map_err(|err| err.to_string())?;
        errln!("loaded scenario {:?} from {}", scenario.name, path.display());
        return Ok((scenario.campaign(), Some(scenario.canonical())));
    }
    let campaign = if args.smoke {
        // Small CI grid: 1 × 3 × 2 × 2 × 3 × 2 = 72 cells.
        CampaignBuilder::new()
            .sizes([3])
            .corruptions([(0, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..2)
            .build()
    } else {
        // Full sweep: 3 × 3 × 2 × 4 × 3 × 5 = 1080 cells.
        CampaignBuilder::new()
            .sizes([3, 4, 5])
            .corruptions([(0, 0), (0, 1), (1, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..5)
            .build()
    };
    Ok((campaign, None))
}

/// One export's cells, in coordinate order; a read error names the export.
type ExportCells = Box<dyn Iterator<Item = Result<CellRecord, String>>>;

/// Opens one exported report: its totals, its scenario tag and its cells, in the
/// coordinate order both readers verify. A `report.jsonl` shard stream (detected by
/// extension, case-insensitively) yields its footer in a constant-memory pass and its
/// cells lazily; anything else is imported whole as a `report.json` document.
fn open_export(path: &Path) -> Result<(Totals, Option<String>, ExportCells), String> {
    let shown = path.display();
    if path.extension().is_some_and(|ext| ext.eq_ignore_ascii_case("jsonl")) {
        let open = || File::open(path).map_err(|err| format!("cannot read {shown}: {err}"));
        let (totals, tag) = footer_meta(BufReader::new(open()?))
            .map_err(|err| format!("cannot read footer of {shown}: {err}"))?;
        let cells = StreamingCells::new(BufReader::new(open()?));
        let shown = shown.to_string();
        let cells =
            cells.map(move |cell| cell.map_err(|err| format!("cannot read {shown}: {err}")));
        return Ok((totals, tag, Box::new(cells)));
    }
    let text =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read {shown}: {err}"))?;
    let report = from_json(&text).map_err(|err| {
        format!(
            "cannot import {shown}: {err} (expected a report.json document; streamed \
             report.jsonl exports are detected by their .jsonl extension)"
        )
    })?;
    let tag = report.scenario().map(str::to_owned);
    Ok((report.totals(), tag, Box::new(report.cells().to_vec().into_iter().map(Ok))))
}

/// Removes a stale artifact left by an earlier run, tolerating its absence.
fn remove_stale(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(err) => Err(format!("cannot remove stale {}: {err}", path.display())),
    }
}

/// Flushes and fsyncs a completed streamed JSONL export at its `.partial` path,
/// then publishes it at the final path with an atomic rename.
fn publish_partial(jsonl: BufWriter<File>, partial: &Path, dest: &Path) -> Result<(), String> {
    let file = jsonl
        .into_inner()
        .map_err(|err| format!("cannot flush {}: {}", partial.display(), err.into_error()))?;
    file.sync_all().map_err(|err| format!("cannot sync {}: {err}", partial.display()))?;
    drop(file);
    std::fs::rename(partial, dest)
        .map_err(|err| format!("cannot publish {}: {err}", dest.display()))
}

/// `run`: streams the campaign (or its `--shard`) through [`stream_shard`]. With
/// `--stream` the shard stream is the product: `report.jsonl` + `report.csv`.
/// Without it, a one-shard [`merge_reports`] renders the stream as `report.json` +
/// `report.csv`, and the intermediate `report.jsonl` is removed. Either way the run
/// holds no record vector and heartbeats `progress.json`.
fn run(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let (campaign, scenario) = build_campaign(args)?;
    match args.shard {
        Some(plan) => errln!("running shard {plan} of {campaign}"),
        None => errln!("running {campaign}"),
    }
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl"));
    let shard = campaign.shard(args.shard.unwrap_or(ShardPlan::WHOLE));
    stream_shard(args, &out, scenario.as_deref(), &[], &shard)?;
    let (jsonl, json) = (out.join("report.jsonl"), out.join("report.json"));
    let csv = out.join("report.csv");
    if args.stream {
        outln!("exported {} and {}", jsonl.display(), csv.display());
    } else {
        merge_reports(&[&jsonl], &out)?;
        remove_stale(&jsonl)?;
        outln!("exported {} and {}", json.display(), csv.display());
    }
    if args.metrics {
        outln!("exported {}", out.join("metrics.jsonl").display());
    }
    Ok(CtlCode::Success)
}

/// The one shard streamer, behind `run` (either mode) and `resume`: writes `prefix`
/// (the cells an interrupted run already exported; empty for a fresh run), then
/// every cell of `fresh` as it completes, to `report.jsonl` + `report.csv` under
/// `out` (plus `metrics.jsonl` with `--metrics`), heartbeating `progress.json`.
///
/// Crash safety: the JSONL stream is written at `report.jsonl.partial` and renamed
/// to `report.jsonl` only once footered, so a crash (or failure) at any instant
/// leaves the completed cells salvageable for [`resume`] and never a truncated
/// stream at the final path. The CSV and the sidecar go through an [`AtomicFile`];
/// the `progress.json` heartbeat is deliberately *left behind* on failure.
fn stream_shard(
    args: &BenchArgs,
    out: &Path,
    scenario: Option<&str>,
    prefix: &[CellRecord],
    fresh: &Campaign,
) -> Result<(), CtlError> {
    // Deterministic crash injection (the supervision chaos tests): read the armed
    // point first, so an `early` death happens before any artifact exists. Chaos
    // counts *stream-absolute* cells: replayed salvaged cells count too, so "die
    // after the Nth cell" means the same position on every attempt.
    let mut crash = CrashPoint::from_env().map_err(CtlError::Usage)?;
    if let Some(point) = &crash {
        point.die_early_if_armed();
    }
    let attempt = attempt_from_env()?;
    std::fs::create_dir_all(out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let path = out.join("report.jsonl");
    let partial_path = out.join("report.jsonl.partial");
    let csv_path = out.join("report.csv");
    let metrics_path = out.join("metrics.jsonl");
    // A stale report.jsonl from an earlier run must not sit next to this run's
    // partial: an interrupted run would otherwise look complete to a later merge.
    // Same for a stale sidecar, which this run may not regenerate. (A resumed
    // prefix is already in memory, so truncating its source is safe.)
    remove_stale(&path)?;
    remove_stale(&metrics_path)?;
    let file = File::create(&partial_path)
        .map_err(|err| format!("cannot write {}: {err}", partial_path.display()))?;
    let mut jsonl = BufWriter::new(file);
    let mut csv_out = AtomicFile::create(&csv_path)
        .map_err(|err| format!("cannot write {}: {err}", csv_path.display()))?;
    let staged_metrics = args.metrics.then(|| AtomicFile::create(&metrics_path)).transpose();
    let mut metrics_out =
        staged_metrics.map_err(|err| format!("cannot write {}: {err}", metrics_path.display()))?;
    // Every run heartbeats, --metrics or not: liveness is for operators and the
    // supervisor, not a per-cell data product. A resumed run starts at the salvaged
    // count, so a watcher sees the shard continue where the interrupted run left off.
    let done = prefix.len();
    let mut heartbeat = Heartbeat::new(out, done + fresh.len(), HEARTBEAT_EVERY)
        .and_then(|beat| if done > 0 { beat.starting_at(done) } else { Ok(beat) })
        .and_then(|beat| if attempt > 1 { beat.attempt(attempt) } else { Ok(beat) })
        .map_err(|err| format!("cannot write heartbeat in {}: {err}", out.display()))?;
    let result = (|| -> Result<(Totals, ExecutionStats), String> {
        let mut exporter = StreamingExporter::new(&mut jsonl);
        if let Some(text) = scenario {
            exporter.set_scenario(text);
        }
        let mut csv = StreamingCsvWriter::new(&mut csv_out)
            .map_err(|err| format!("cannot start {}: {err}", csv_path.display()))?;
        let mut metrics = metrics_out.as_mut().map(TelemetryExporter::new);
        // A fresh cell carries its telemetry; a salvaged one has none, and the
        // heartbeat already counts it.
        let mut write = |cell: &CellRecord, telemetry: Option<&CellTelemetry>| {
            exporter.write_cell(cell)?;
            csv.write_cell(cell)?;
            if let Some(telemetry) = telemetry {
                if let Some(sidecar) = metrics.as_mut() {
                    sidecar.write_cell(telemetry)?;
                }
                heartbeat.tick(cell.spec)?;
            }
            if let Some(point) = crash.as_mut() {
                if point.cell_written() {
                    // Flush first: an injected death leaves whole lines (plus, for
                    // torn mode, the fragment fire() appends after them).
                    exporter.flush()?;
                    point.fire(&partial_path);
                }
            }
            Ok::<(), StreamError>(())
        };
        for cell in prefix {
            write(cell, None).map_err(|err| {
                format!("cannot replay the salvaged prefix into {}: {err}", partial_path.display())
            })?;
        }
        let (_, stats) = args
            .executor()
            .run_streaming_telemetry(fresh, |cell, telemetry| write(&cell, Some(&telemetry)))
            .map_err(|err| {
                format!("streamed export to {} failed: {err}", partial_path.display())
            })?;
        let totals = exporter
            .finish()
            .map_err(|err| format!("cannot finish {}: {err}", partial_path.display()))?;
        csv.finish().map_err(|err| format!("cannot finish {}: {err}", csv_path.display()))?;
        if let Some(sidecar) = metrics {
            sidecar
                .finish()
                .map_err(|err| format!("cannot finish {}: {err}", metrics_path.display()))?;
        }
        Ok((totals, stats))
    })();
    // On failure the salvageable prefix stays at report.jsonl.partial; the CSV and
    // sidecar staging files are discarded by the AtomicFile drops.
    let (totals, stats) = result.map_err(|message| {
        format!(
            "{message} (completed cells kept at {}; `campaign_ctl resume` with the same \
             flags finishes the run)",
            partial_path.display()
        )
    })?;
    if let Some(point) = &crash {
        // The `finish` death promises a complete, footered partial on disk: drain
        // the writer's buffer before dying between footer and rename.
        jsonl.flush().map_err(|err| format!("cannot flush {}: {err}", partial_path.display()))?;
        point.die_before_publish_if_armed();
    }
    publish_partial(jsonl, &partial_path, &path)?;
    csv_out.persist().map_err(|err| format!("cannot publish {}: {err}", csv_path.display()))?;
    if let Some(staged) = metrics_out {
        staged
            .persist()
            .map_err(|err| format!("cannot publish {}: {err}", metrics_path.display()))?;
    }
    heartbeat
        .finish()
        .map_err(|err| format!("cannot write heartbeat in {}: {err}", out.display()))?;
    errln!("{stats}");
    outln!("totals: {totals}");
    Ok(())
}

/// `resume --out DIR`: finish a crash-interrupted run.
///
/// Salvages the valid ordered cell prefix of the interrupted export
/// (`report.jsonl.partial` when present, else `report.jsonl`), verifies it against
/// the shard's canonical work list, and hands it to [`stream_shard`] with only the
/// un-run remainder of the shard's range ([`ShardPlan::remainder`]) to run — a
/// complete footered `report.jsonl` + `report.csv`, byte-identical to an
/// uninterrupted `run --stream`. Pass the same `--smoke`/`--shard` flags as the
/// interrupted run.
fn resume(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let out = args.out.clone().ok_or_else(|| {
        CtlError::Usage(
            "resume: --out DIR is required (the directory of the interrupted run)".into(),
        )
    })?;
    let (campaign, scenario) = build_campaign(args)?;
    let plan = args.shard.unwrap_or(ShardPlan::WHOLE);
    let shard = campaign.shard(plan);
    let path = out.join("report.jsonl");
    let partial_path = out.join("report.jsonl.partial");
    let source = if partial_path.exists() { partial_path } else { path.clone() };
    let file = File::open(&source).map_err(|err| {
        format!(
            "cannot read {}: {err} (nothing to resume; run `campaign_ctl run` first)",
            source.display()
        )
    })?;
    let salvaged = StreamingCells::salvage(BufReader::new(file))
        .map_err(|err| format!("cannot salvage {}: {err}", source.display()))?;
    let done = salvaged.cells.len();
    // The prefix must be exactly the head of this shard's canonical work list —
    // anything else means the flags do not match the interrupted run (or the
    // export lost an interior cell), and splicing would ship a wrong artifact.
    if done > shard.len() {
        return Err(format!(
            "salvaged {done} cell(s) but shard {plan} has only {} — wrong --smoke/--shard \
             flags for this export?",
            shard.len()
        )
        .into());
    }
    for (cell, expected) in salvaged.cells.iter().zip(shard.specs()) {
        if cell.spec != *expected {
            return Err(format!(
                "salvaged cell {} does not match the shard's work list (expected {}) — \
                 wrong --smoke/--shard flags for this export?",
                cell.spec, expected
            )
            .into());
        }
    }
    match (&salvaged.truncation, salvaged.complete) {
        (Some(reason), _) => {
            errln!("salvaged {done} cell(s) from {} (stopped at: {reason})", source.display());
        }
        (None, false) => {
            errln!("salvaged {done} cell(s) from {} (no footer)", source.display());
        }
        (None, true) => {
            errln!("salvaged all {done} cell(s) from {} (complete export)", source.display());
        }
    }
    let fresh = campaign.slice(plan.remainder(campaign.len(), done));
    errln!("re-running {} remaining cell(s) of shard {plan} of {campaign}", fresh.len());
    stream_shard(args, &out, scenario.as_deref(), &salvaged.cells, &fresh)?;
    outln!("resumed: {done} salvaged + {} fresh cell(s)", fresh.len());
    outln!("exported {} and {}", path.display(), out.join("report.csv").display());
    Ok(CtlCode::Success)
}

/// `supervise --shards K`: crash-tolerant supervised shard execution.
///
/// Spawns one worker subprocess per shard (`campaign_ctl run --stream --shard
/// i/K`, re-executing this binary), watches each worker's `progress.json`
/// heartbeat, and on crash, stall or non-zero exit salvages the worker's partial
/// and relaunches the remainder (`campaign_ctl resume`) with bounded attempts and
/// exponential backoff ([`run_supervisor`]). Shards that exhaust their attempts
/// are quarantined; the completed shards are merged into `report.json` +
/// `report.csv` (byte-identical to an unsupervised run when nothing is
/// quarantined), `supervise.json` records every attempt and the quarantined
/// ranges, and the process exits degraded (code 4) when anything was quarantined.
fn supervise(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let shards = args.shards.ok_or_else(|| {
        CtlError::Usage(
            "supervise: --shards K is required (worker subprocesses, one per shard)".into(),
        )
    })?;
    let (campaign, _) = build_campaign(args)?;
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl/supervised"));
    let dirs: Vec<PathBuf> = (1..=shards).map(|i| out.join(format!("shard-{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir)
            .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    }
    let exe = std::env::current_exe()
        .map_err(|err| format!("cannot locate the campaign_ctl binary: {err}"))?;
    let config = SuperviseConfig {
        shards,
        total_cells: campaign.len(),
        max_attempts: args.max_attempts.unwrap_or(DEFAULT_MAX_ATTEMPTS),
        backoff_base_ms: args.backoff_ms.unwrap_or(DEFAULT_BACKOFF_MS),
        poll_ms: args.poll_ms.unwrap_or(DEFAULT_POLL_MS),
        stall_polls: DEFAULT_STALL_POLLS,
        chaos: args.chaos.clone().unwrap_or(ChaosSpec::NONE),
    };
    if !config.chaos.is_empty() {
        errln!("supervise: chaos armed: {}", config.chaos);
    }
    errln!(
        "supervising {shards} worker(s) over {campaign} (max {} attempt(s)/shard)",
        config.max_attempts
    );
    let summary = run_supervisor(&config, &dirs, |shard, _, resume| {
        let mut command = Command::new(&exe);
        match resume {
            true => command.arg("resume"),
            false => command.arg("run").arg("--stream"),
        };
        command.arg("--shard").arg(format!("{shard}/{shards}"));
        if args.smoke {
            command.arg("--smoke");
        }
        if let Some(path) = &args.scenario {
            command.arg("--scenario").arg(path);
        }
        if let Some(threads) = args.threads {
            command.arg("--threads").arg(threads.to_string());
        }
        command.arg("--out").arg(&dirs[shard - 1]);
        // Workers talk through artifacts and heartbeats; their stdio would only
        // interleave illegibly with the supervisor's own reporting.
        command.stdout(Stdio::null()).stderr(Stdio::null());
        command
    })
    .map_err(|err| format!("supervisor loop failed: {err}"))?;
    let summary_path = out.join("supervise.json");
    atomic_write(&summary_path, summary.to_json())
        .map_err(|err| format!("cannot write {}: {err}", summary_path.display()))?;
    let completed = summary.completed_shards();
    let exports: Vec<PathBuf> =
        completed.iter().map(|&shard| dirs[shard - 1].join("report.jsonl")).collect();
    let json_path = out.join("report.json");
    let csv_path = out.join("report.csv");
    if exports.is_empty() {
        // Nothing completed: a merged report from some earlier run must not sit
        // next to a supervise.json that says everything was quarantined.
        remove_stale(&json_path)?;
        remove_stale(&csv_path)?;
        errln!("supervise: no shard completed; nothing to merge");
    } else {
        let totals = merge_reports(&exports, &out)?;
        outln!("merged {} of {shards} shard(s): {totals}", exports.len());
        outln!("exported {} and {}", json_path.display(), csv_path.display());
    }
    outln!("exported {}", summary_path.display());
    if summary.degraded() {
        for shard in &summary.quarantined {
            errln!(
                "supervise: shard {}/{shards} quarantined after {} attempt(s) — cells \
                 {}..{} missing from the merged artifacts",
                shard.shard,
                shard.attempts,
                shard.start,
                shard.start + shard.cells
            );
        }
        return Ok(CtlCode::Degraded);
    }
    outln!("supervised run complete: {shards} shard(s) over {} attempt(s)", summary.attempts.len());
    Ok(CtlCode::Success)
}

/// `bench`: run the fixed Dolev-Strong-heavy benchmark campaign and write its
/// `BENCH_engine.json` counter snapshot (see [`bsm_engine::bench`]).
///
/// `--smoke` selects the quick grid; the default full grid is the one behind the
/// tracked repo-root snapshot, which a full run reproduces byte for byte at any
/// `--threads`. `--out DIR` chooses where `BENCH_engine.json` lands (default: the
/// current directory, i.e. the repo root when run from a checkout).
fn bench(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let executor = args.executor();
    errln!(
        "running {} benchmark campaign on {} thread(s)",
        if args.smoke { "quick" } else { "full" },
        executor.thread_count()
    );
    let snapshot = bsm_engine::bench::run(&executor, args.smoke);
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join("BENCH_engine.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| atomic_write(&path, snapshot.to_json()))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    outln!(
        "{} cells; {} signatures verified (+{} cache hits), {} digests computed",
        snapshot.cells,
        snapshot.signatures_verified,
        snapshot.verify_cache_hits,
        snapshot.digests_computed
    );
    outln!("exported {}", path.display());
    Ok(CtlCode::Success)
}

/// `fuzz`: the violation-guided adversary fuzzer (see `docs/FUZZING.md`).
///
/// `fuzz --budget N --seed S` runs the seeded search loop over adversary-script
/// space and writes the byte-deterministic `fuzz.log` under `--out` (default
/// `target/campaign_ctl`). Any violating script is greedily shrunk; `--freeze`
/// writes each minimal script as a canonical regression file under
/// `crates/core/tests/fuzz_regressions/`. `fuzz --replay FILE` instead re-runs one
/// frozen script and checks the recorded verdict; `--replay FILE --freeze` rewrites
/// the file canonically with the observed verdict (how verdicts get stamped).
///
/// Returns [`CtlCode::Findings`] — exit 3 — when the search found violations or a
/// replayed verdict did not reproduce.
fn fuzz(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    if let Some(path) = &args.replay {
        if args.budget.is_some() || args.seed.is_some() {
            return Err(CtlError::Usage(
                "fuzz: --replay re-runs one frozen script; --budget/--seed only \
                 apply to the search loop"
                    .into(),
            ));
        }
        let mismatched = replay_script(path, args.freeze)?;
        return Ok(if mismatched { CtlCode::Findings } else { CtlCode::Success });
    }
    let budget = args.budget.ok_or_else(|| {
        CtlError::Usage(
            "fuzz: --budget N is required (or --replay FILE to re-run a frozen script)".into(),
        )
    })?;
    let seed = args.seed.unwrap_or(0);
    let report = run_fuzz(&FuzzConfig { budget, seed });
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl"));
    let log_path = out.join("fuzz.log");
    std::fs::create_dir_all(&out)
        .and_then(|()| atomic_write(&log_path, report.log.clone()))
        .map_err(|err| format!("cannot write {}: {err}", log_path.display()))?;
    outln!(
        "fuzzed {} case(s): {} violation(s), worst slots {} (case {:04}), \
         worst messages {} (case {:04})",
        report.cases,
        report.violations.len(),
        report.worst_slots,
        report.worst_slots_case,
        report.worst_messages,
        report.worst_messages_case
    );
    outln!("exported {}", log_path.display());
    for violation in &report.violations {
        errln!(
            "case {:04}: VIOLATION {} (shrunk {} -> {} action(s))",
            violation.case,
            violation.signature,
            violation.script.actions.len(),
            violation.shrunk.actions.len()
        );
        if args.freeze {
            let dir = PathBuf::from("crates/core/tests/fuzz_regressions");
            let path = dir.join(format!("{}.toml", violation.shrunk.name));
            std::fs::create_dir_all(&dir)
                .and_then(|()| atomic_write(&path, violation.shrunk.canonical()))
                .map_err(|err| format!("cannot freeze {}: {err}", path.display()))?;
            outln!("froze {}", path.display());
        }
    }
    Ok(if report.violations.is_empty() { CtlCode::Success } else { CtlCode::Findings })
}

/// `fuzz --replay FILE [--freeze]`: re-run one frozen script deterministically.
///
/// Without `--freeze` the observed verdict must match the one recorded in the file
/// (a missing recorded verdict is reported but does not fail). With `--freeze` the
/// file is rewritten canonically with the observed verdict.
fn replay_script(path: &Path, freeze: bool) -> Result<bool, String> {
    let script =
        Script::load(path).map_err(|err| format!("cannot replay {}: {err}", path.display()))?;
    let outcome =
        script.run().map_err(|err| format!("replay of {} failed to run: {err}", path.display()))?;
    let observed = Verdict::of(&outcome);
    outln!(
        "replayed {}: decided={} slots={} violations={:?}",
        path.display(),
        observed.decided,
        observed.slots,
        observed.violations
    );
    if freeze {
        let mut updated = script;
        updated.verdict = Some(observed);
        atomic_write(path, updated.canonical())
            .map_err(|err| format!("cannot freeze {}: {err}", path.display()))?;
        outln!("froze {}", path.display());
        return Ok(false);
    }
    match &script.verdict {
        Some(recorded) if *recorded == observed => {
            outln!("verdict reproduced");
            Ok(false)
        }
        Some(recorded) => {
            errln!(
                "verdict MISMATCH: file records decided={} slots={} violations={:?}",
                recorded.decided,
                recorded.slots,
                recorded.violations
            );
            Ok(true)
        }
        None => {
            outln!("no recorded verdict (stamp one with --replay FILE --freeze)");
            Ok(false)
        }
    }
}

/// `merge`: [`merge_reports`] over the given shard exports.
fn merge(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    if args.files.is_empty() {
        return Err(CtlError::Usage(
            "merge: no shard exports given (pass report.json or report.jsonl paths)".into(),
        ));
    }
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("target/campaign_ctl/merged"));
    let totals = merge_reports(&args.files, &out)?;
    outln!("merged {} shard(s): {totals}", args.files.len());
    outln!(
        "exported {} and {}",
        out.join("report.json").display(),
        out.join("report.csv").display()
    );
    Ok(CtlCode::Success)
}

/// The one merge, behind `merge`, `supervise` and a non-streamed `run`: a k-way
/// merge of shard exports into `report.json` + `report.csv` under `out`, holding one
/// pending cell per shard.
///
/// Pass 1 learns every shard's totals (the JSON document puts totals before the
/// cells, so the merge must know them up front; their sum saturates, since footers
/// are untrusted) and its scenario tag — shards from
/// different scenarios refuse to merge; pass 2 streams the cells of all shards
/// through [`CellMerge`] into `report.json` + `report.csv`. The writers verify the
/// summed totals against the cells actually merged, so a lying footer or truncated
/// shard fails the merge instead of shipping a wrong artifact.
fn merge_reports(files: &[impl AsRef<Path>], out: &Path) -> Result<Totals, String> {
    let mut declared = Totals::default();
    let mut scenario: Option<String> = None;
    let mut shards = Vec::with_capacity(files.len());
    for (index, path) in files.iter().enumerate() {
        let path = path.as_ref();
        let (totals, tag, cells) = open_export(path)?;
        declared += totals;
        if index == 0 {
            scenario = tag;
        } else if tag != scenario {
            let render = |t: &Option<String>| t.clone().unwrap_or_else(|| "no scenario tag".into());
            return Err(format!(
                "cannot merge shards from different scenarios: {} carries {:?} but the \
                 first shard carries {:?}",
                path.display(),
                render(&tag),
                render(&scenario)
            ));
        }
        shards.push(cells);
    }
    std::fs::create_dir_all(out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let json_path = out.join("report.json");
    let csv_path = out.join("report.csv");
    // Atomic publication: a failed (or killed) merge leaves no half-written artifact
    // at the final paths — the AtomicFile drop discards the staging files.
    let mut json_out = AtomicFile::create(&json_path)
        .map_err(|err| format!("cannot write {}: {err}", json_path.display()))?;
    let mut csv_out = AtomicFile::create(&csv_path)
        .map_err(|err| format!("cannot write {}: {err}", csv_path.display()))?;
    let totals = (|| -> Result<Totals, String> {
        let mut json = MergedJsonWriter::with_scenario(&mut json_out, declared, scenario)
            .map_err(|err| format!("cannot start {}: {err}", json_path.display()))?;
        let mut csv = StreamingCsvWriter::new(&mut csv_out)
            .map_err(|err| format!("cannot start {}: {err}", csv_path.display()))?;
        for cell in CellMerge::new(shards) {
            let cell = cell.map_err(|err| format!("streamed merge failed: {err}"))?;
            json.write_cell(&cell)
                .map_err(|err| format!("cannot write {}: {err}", json_path.display()))?;
            csv.write_cell(&cell)
                .map_err(|err| format!("cannot write {}: {err}", csv_path.display()))?;
        }
        let totals =
            json.finish().map_err(|err| format!("cannot finish {}: {err}", json_path.display()))?;
        csv.finish().map_err(|err| format!("cannot finish {}: {err}", csv_path.display()))?;
        Ok(totals)
    })()?;
    json_out.persist().map_err(|err| format!("cannot publish {}: {err}", json_path.display()))?;
    csv_out.persist().map_err(|err| format!("cannot publish {}: {err}", csv_path.display()))?;
    Ok(totals)
}

/// `diff`: merge-joins the cells of two exports as they are read (see
/// [`open_export`]) and prints the cells that differ. Returns [`CtlCode::Findings`]
/// when any cell differs.
fn diff(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let [left, right] = args.files.as_slice() else {
        return Err(CtlError::Usage(format!(
            "diff: expected exactly two report.json or report.jsonl paths, got {}",
            args.files.len()
        )));
    };
    let (_, left_tag, left_cells) = open_export(Path::new(left))?;
    let (_, right_tag, right_cells) = open_export(Path::new(right))?;
    if left_tag != right_tag {
        // Cells of different scenarios are different experiments; a cell-level diff
        // would be meaningless (and, under different grids, mostly "missing cell").
        let render =
            |t: &Option<String>| t.as_ref().map_or("no scenario tag".into(), |t| format!("{t:?}"));
        return Err(format!(
            "cannot diff reports from different scenarios: {} vs {}",
            render(&left_tag),
            render(&right_tag)
        )
        .into());
    }
    let diff = CampaignDiff::join(left_cells, right_cells)?;
    let _ = write!(std::io::stdout(), "{diff}");
    Ok(if diff.is_empty() { CtlCode::Success } else { CtlCode::Findings })
}

/// `stats`: aggregate a telemetry sidecar into quantiles, top cells and per-axis
/// rollups.
///
/// Takes exactly one path — a `metrics.jsonl` file, or a campaign out-dir. For a
/// directory holding a `progress.json` heartbeat (every run leaves one), the
/// heartbeat snapshot is summarized first, so `stats` on a *running* shard's out-dir
/// doubles as a liveness check; a directory with a heartbeat but no sidecar (a run
/// without `--metrics`) stops there. Aggregation streams the sidecar and validates
/// schema and canonical coordinate order as it goes.
fn stats(args: &BenchArgs) -> Result<CtlCode, CtlError> {
    let [target] = args.files.as_slice() else {
        return Err(CtlError::Usage(format!(
            "stats: expected exactly one path (metrics.jsonl, or a campaign --out \
             directory containing one), got {}",
            args.files.len()
        )));
    };
    let target = PathBuf::from(target);
    let (metrics_path, progress_path) = if target.is_dir() {
        (target.join("metrics.jsonl"), Some(target.join("progress.json")))
    } else {
        (target.clone(), None)
    };
    let heartbeat = progress_path.filter(|path| path.exists());
    if let Some(progress_path) = &heartbeat {
        let text = std::fs::read_to_string(progress_path)
            .map_err(|err| format!("cannot read {}: {err}", progress_path.display()))?;
        let progress = parse_progress(&text)
            .map_err(|err| format!("cannot parse {}: {err}", progress_path.display()))?;
        let last = progress.last.map_or_else(|| "none".to_string(), |spec| spec.to_string());
        // The liveness verdict the supervisor automates: a shard that published
        // its report is complete (the heartbeat's count reaches the total before
        // the footer and the rename), a beating pid is running, a dead pid means
        // the run died and `resume` (or `supervise`) can finish it. Off Linux,
        // liveness is unknown.
        let published =
            ["report.jsonl", "report.json"].iter().any(|name| target.join(name).exists())
                && !target.join("report.jsonl.partial").exists();
        let verdict = if published {
            "complete"
        } else {
            match pid_alive(progress.pid) {
                Some(true) => "running",
                Some(false) => "worker dead; `campaign_ctl resume` finishes it",
                None => "liveness unknown",
            }
        };
        outln!(
            "heartbeat: {}/{} cell(s) at {:.1}/s over {:.3}s, last {last} \
             [attempt {}, seq {}, pid {}: {verdict}]",
            progress.done,
            progress.total,
            progress.rate_per_sec,
            progress.wall_seconds,
            progress.attempt,
            progress.seq,
            progress.pid
        );
    }
    if heartbeat.is_some() && !metrics_path.exists() {
        return Ok(CtlCode::Success);
    }
    let file = File::open(&metrics_path).map_err(|err| {
        format!(
            "cannot read {}: {err} (produce a sidecar with `campaign_ctl run --metrics`)",
            metrics_path.display()
        )
    })?;
    let stats = CampaignStats::from_stream(BufReader::new(file))
        .map_err(|err| format!("cannot aggregate {}: {err}", metrics_path.display()))?;
    let _ = write!(std::io::stdout(), "{}", stats.render(5));
    Ok(CtlCode::Success)
}

/// Parses `raw` against the subcommand's row and runs the subcommand.
fn dispatch(subcommand: &str, raw: Vec<OsString>) -> Result<CtlCode, CtlError> {
    let Some(row) = Row::of(&format!("campaign_ctl {subcommand}")) else {
        let usage: Vec<String> = COMMANDS
            .iter()
            .filter(|row| row.command.starts_with("campaign_ctl "))
            .map(|row| format!("{} {}", row.command, row.usage))
            .collect();
        return Err(CtlError::Usage(format!(
            "unknown subcommand {subcommand:?}; usage:\n  {}",
            usage.join("\n  ")
        )));
    };
    // Strict CLI: an argument the subcommand does not read (a mistyped `--shard 4/3`,
    // a fuzz flag on `run`) must not silently fall back to some other run; in a CI or
    // fleet context that wastes the whole campaign and can ship a wrong artifact with
    // exit 0.
    let args = BenchArgs::from_args(row, raw);
    if !args.unknown.is_empty() {
        return Err(CtlError::Usage(format!("invalid argument(s): {}", args.unknown.join(", "))));
    }
    match subcommand {
        "run" => run(&args),
        "resume" => resume(&args),
        "supervise" => supervise(&args),
        "bench" => bench(&args),
        "merge" => merge(&args),
        "diff" => diff(&args),
        "stats" => stats(&args),
        "fuzz" => fuzz(&args),
        other => unreachable!("campaign_ctl {other} has a row but no handler"),
    }
}

fn main() -> ExitCode {
    let mut raw: Vec<OsString> = std::env::args_os().skip(1).collect();
    // A non-UTF-8 subcommand renders lossily and matches no subcommand: exit 2.
    let subcommand =
        if raw.is_empty() { String::new() } else { raw.remove(0).to_string_lossy().into_owned() };
    match dispatch(&subcommand, raw) {
        Ok(code) => code.into(),
        Err(err) => {
            errln!("campaign_ctl: {}", err.message());
            err.code().into()
        }
    }
}
