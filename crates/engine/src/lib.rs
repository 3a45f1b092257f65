//! `bsm-engine` — the parallel scenario-campaign engine.
//!
//! The paper's claims are empirical over a *grid* of settings; this crate turns the
//! deterministic [`bsm_core`] scenario harness into a throughput machine for sweeping
//! that grid:
//!
//! * [`grid`] — [`ScenarioSpec`]: the coordinates of one campaign cell, rebuildable
//!   (and re-runnable) on any worker thread,
//! * [`campaign`] — the [`CampaignBuilder`] DSL: expand sizes × topologies × auth
//!   modes × corruption pairs × adversaries × seeds into an ordered work list,
//! * [`executor`] — scoped worker threads over a shared work queue (all cores, or
//!   [`Executor::threads`]) and one ordered core: a bounded channel plus a
//!   reorder buffer hand results on in canonical order, so aggregation is
//!   **bit-identical across thread counts**; [`Executor::run`] collects the stream
//!   that [`Executor::run_streaming_telemetry`] emits,
//! * [`report`] — [`CampaignReport`]: per-cell outcome stats (plan, violations,
//!   slots, messages, signatures) plus aggregate [`Totals`]; wall-clock throughput
//!   lives in the separate [`ExecutionStats`],
//! * [`export`] — hand-rolled JSON and CSV writers (no serde) whose output is a pure
//!   function of the report, plus the streaming writers ([`StreamingExporter`],
//!   [`MergedJsonWriter`], [`StreamingCsvWriter`]) for campaigns that never
//!   materialize,
//! * [`import`] — the inverse hand-rolled JSON readers: parse an exported document
//!   back into a [`CampaignReport`] (round-trip exact), or iterate a streamed shard
//!   export lazily with [`StreamingCells`],
//! * [`diff`] — [`CampaignDiff`]: cell-level comparison of two reports, rendering
//!   only the differing cells,
//! * [`scenario_file`] — [`ScenarioFile`]: the declarative TOML-subset scenario
//!   format behind `campaign_ctl run --scenario FILE` (see `docs/SCENARIOS.md`);
//!   a file names the grid axes plus a schedule of network faults (partitions,
//!   crash/recovery, loss, jitter), each fault plan a first-class campaign axis,
//!   and its canonical rendering is the scenario tag embedded in report artifacts,
//! * [`fuzz`] — the violation-guided adversary fuzzer: a seeded search loop over
//!   [`bsm_core::script::Script`] space with worst-case tracking, greedy shrinking
//!   of any violating script, and byte-deterministic logs (`campaign_ctl fuzz`,
//!   see `docs/FUZZING.md`),
//! * [`supervise`] — the crash-tolerance layer: the supervisor loop behind
//!   `campaign_ctl supervise` ([`run_supervisor`]: one worker subprocess per
//!   shard, heartbeat-watched, retried with exponential backoff, quarantined
//!   after bounded attempts), the `supervise.json` summary
//!   ([`SuperviseSummary`]), and deterministic crash injection
//!   ([`ChaosSpec`]/[`CrashPoint`]) for testing supervision against real
//!   SIGKILL-style deaths,
//! * [`telemetry`] — the observability side channel: per-cell attributed cost
//!   records ([`CellTelemetry`]) streamed to a `metrics.jsonl` sidecar, log-bucketed
//!   [`Histogram`]s and `campaign_ctl stats` aggregation ([`CampaignStats`]), and
//!   live `progress.json` shard heartbeats ([`Heartbeat`]); report artifacts stay
//!   byte-identical with telemetry on or off.
//!
//! # Sharded campaigns
//!
//! A campaign can be split across processes or machines with a [`ShardPlan`]: every
//! process expands the same campaign (deterministically — no coordination), runs its
//! contiguous slice of the canonical work list, and exports its shard report.
//! [`CampaignReport::merge`] recombines imported shard reports in canonical
//! coordinate order, so the merged export is **byte-identical** to a single-process
//! run:
//!
//! ```rust
//! use bsm_engine::{CampaignBuilder, CampaignReport, Executor, ShardPlan};
//!
//! let campaign = CampaignBuilder::new().sizes([3]).seeds(0..2).build();
//! let executor = Executor::new().threads(2);
//! let (whole, _) = executor.run(&campaign);
//! let shards: Vec<_> = (0..3)
//!     .map(|i| executor.run(&campaign.shard(ShardPlan::new(i, 3).unwrap())).0)
//!     .collect();
//! let merged = CampaignReport::merge(shards).unwrap();
//! assert_eq!(bsm_engine::to_json(&merged), bsm_engine::to_json(&whole));
//! ```
//!
//! # Streaming campaigns
//!
//! Campaigns too large to hold every [`CellRecord`] in memory stream them — and
//! every executor entry point is this stream underneath:
//! [`Executor::run_shard_streaming_telemetry`] folds completed cells into a rolling
//! [`Totals`] and hands each one — in canonical order — to a [`StreamingExporter`],
//! which writes one coordinate-sorted JSON line per cell plus a totals footer. The
//! coordinator reads shard streams back lazily with [`StreamingCells`], merges them
//! with the k-way [`CellMerge`] (a binary heap holding one pending cell per shard),
//! and re-renders the canonical document with [`MergedJsonWriter`] /
//! [`StreamingCsvWriter`] — byte-identical to the in-memory [`CampaignReport::merge`]
//! path, as `crates/engine/tests/streaming_merge.rs` proves:
//!
//! ```rust
//! use bsm_engine::{
//!     footer_meta, CampaignBuilder, CellMerge, Executor, MergedJsonWriter, ShardPlan,
//!     StreamingCells, StreamingExporter, Totals,
//! };
//!
//! let campaign = CampaignBuilder::new().sizes([3]).seeds(0..2).build();
//! let executor = Executor::new().threads(2);
//! // Shard side: stream cells to disk as they complete (Vec<u8> stands in for a file).
//! let mut shards: Vec<Vec<u8>> = Vec::new();
//! for index in 0..2 {
//!     let mut buf = Vec::new();
//!     let mut exporter = StreamingExporter::new(&mut buf);
//!     let plan = ShardPlan::new(index, 2).unwrap();
//!     executor
//!         .run_shard_streaming_telemetry(&campaign, plan, |cell, _| exporter.write_cell(&cell))
//!         .unwrap();
//!     exporter.finish().unwrap();
//!     shards.push(buf);
//! }
//! // Coordinator side: sum the footers, then k-way-merge the cell streams.
//! let mut totals = Totals::default();
//! for shard in &shards {
//!     totals += footer_meta(&shard[..]).unwrap().0;
//! }
//! let mut out = Vec::new();
//! let mut writer = MergedJsonWriter::new(&mut out, totals).unwrap();
//! let streams: Vec<_> = shards.iter().map(|s| StreamingCells::new(&s[..])).collect();
//! for cell in CellMerge::new(streams) {
//!     writer.write_cell(&cell.unwrap()).unwrap();
//! }
//! writer.finish().unwrap();
//! // Byte-identical to the unsharded in-memory export.
//! let (whole, _) = executor.run(&campaign);
//! assert_eq!(String::from_utf8(out).unwrap(), bsm_engine::to_json(&whole));
//! ```
//!
//! # Crash recovery
//!
//! A shard that dies mid-stream leaves a truncated JSONL export behind.
//! [`StreamingCells::salvage`] reads back its valid ordered cell prefix (stopping
//! cleanly at the first broken or missing line instead of erroring), and
//! [`Executor::run_streaming_telemetry`] over [`Campaign::slice`] re-runs exactly the
//! un-run tail of the shard's range — [`ShardPlan::remainder`] computes it — so the
//! salvaged prefix plus the fresh cells splice into an export byte-identical to an
//! uninterrupted run. Final artifacts are published with [`AtomicFile`] /
//! [`atomic_write`] (temp file + atomic rename), so a crash can never leave a
//! truncated file at a tracked path.
//!
//! # Quickstart
//!
//! ```rust
//! use bsm_engine::{CampaignBuilder, Executor};
//!
//! let campaign = CampaignBuilder::new()
//!     .sizes([3, 4])
//!     .corruptions([(0, 0), (1, 1)])
//!     .seeds(0..3)
//!     .build();
//! let (report, stats) = Executor::new().threads(2).run(&campaign);
//! assert_eq!(report.totals().scenarios, campaign.len());
//! assert_eq!(stats.scenarios, campaign.len());
//! // Same campaign, different thread count: bit-identical export.
//! let (again, _) = Executor::new().threads(1).run(&campaign);
//! assert_eq!(bsm_engine::export::to_json(&report), bsm_engine::export::to_json(&again));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bench;
pub mod campaign;
pub mod diff;
pub mod executor;
pub mod export;
pub mod fuzz;
pub mod grid;
pub mod import;
pub mod report;
pub mod scenario_file;
pub mod supervise;
pub mod telemetry;

pub use bench::BenchSnapshot;
pub use campaign::{Campaign, CampaignBuilder};
pub use diff::{CampaignDiff, CellDiff};
pub use executor::Executor;
pub use export::{
    atomic_write, cell_json, csv_row, sweep_stale_tmp, to_csv, to_json, totals_json, AtomicFile,
    MergedJsonWriter, StreamError, StreamingCsvWriter, StreamingExporter,
};
pub use fuzz::{run_fuzz, shrink, violation_signature, FoundViolation, FuzzConfig, FuzzReport};
pub use grid::{ScenarioSpec, ShardPlan, ShardPlanError};
pub use import::{footer_meta, from_json, from_jsonl, ImportError, SalvagedPrefix, StreamingCells};
pub use report::{
    CampaignReport, CellMerge, CellMergeError, CellOutcome, CellRecord, CellStats, ExecutionStats,
    MergeError, Totals,
};
pub use scenario_file::ScenarioFile;
pub use supervise::{
    parse_supervise, run_supervisor, AttemptOutcome, AttemptRecord, ChaosSpec, CrashMode,
    CrashPoint, QuarantinedShard, SuperviseConfig, SuperviseSummary,
};
pub use telemetry::{
    parse_progress, parse_telemetry_line, CampaignStats, CellTelemetry, Heartbeat, Histogram,
    ProgressSnapshot, TelemetryCells, TelemetryExporter,
};

// Campaign-friendliness audit: everything the executor moves across worker threads
// must be Send + Sync. Failing this compiles-time check means a core type regressed
// (e.g. an Rc sneaked into the harness).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<bsm_core::problem::Setting>();
    assert_send_sync::<bsm_core::harness::Scenario>();
    assert_send_sync::<bsm_core::harness::ScenarioOutcome>();
    assert_send_sync::<ScenarioSpec>();
    assert_send_sync::<Campaign>();
    assert_send_sync::<CellRecord>();
    assert_send_sync::<CampaignReport>();
    assert_send_sync::<ShardPlan>();
    assert_send_sync::<CampaignDiff>();
};
