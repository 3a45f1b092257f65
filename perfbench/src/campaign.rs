//! The campaign workloads, `ds_heavy` and `grid_pipeline`.
//!
//! One repetition runs the workload's campaign the way `campaign_ctl` does:
//!
//! 1. **set-up**: expand the campaign, create each shard's `report.jsonl.partial` and
//!    staged `report.csv`, and the streaming writers;
//! 2. **run stage** (`run --stream --shard i/n`): per shard, start the `progress.json`
//!    `Heartbeat` and run `Executor::run_shard_streaming_telemetry`, every cell written
//!    through `StreamingExporter`, `StreamingCsvWriter` and `Heartbeat` as it completes;
//!    then the artifacts are published;
//! 3. **coordinator stage** (`merge --stream`, then `diff`): `footer_meta` per shard,
//!    `CellMerge` over `StreamingCells` into `MergedJsonWriter` + `StreamingCsvWriter`,
//!    `from_json` of the merged `report.json`, `from_jsonl` of every shard stream, and
//!    `CampaignDiff` between the two imports.
//!
//! The first repetition runs on one worker and is the reference: every later
//! repetition, on two workers, must reproduce its counts and artifact digests exactly.

use crate::metrics::Values;
use crate::stats::{median, median_by, quantile, summary, supports};
use crate::trace::{self, Label, LocalSpans, Span, SpanId, Tracer};
use crate::{hex_digest, peak_rss_mb, probes, RunConfig, Tally};
use bsm_core::harness::AdversarySpec;
use bsm_core::problem::{AuthMode, BsmInstance};
use bsm_core::properties::check_bsm;
use bsm_core::solvability::{characterize, Solvability};
use bsm_engine::telemetry::HEARTBEAT_EVERY;
use bsm_engine::{
    footer_meta, from_json, from_jsonl, to_csv, to_json, AtomicFile, Campaign, CampaignBuilder,
    CampaignDiff, CampaignReport, CellMerge, CellOutcome, CellRecord, CellTelemetry, Executor,
    Heartbeat, MergedJsonWriter, ScenarioSpec, ShardPlan, StreamError, StreamingCells,
    StreamingCsvWriter, StreamingExporter, Totals,
};
use bsm_matching::gale_shapley::gale_shapley_left;
use bsm_net::{FaultSpec, Topology};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of the measured repetitions: one per core of the reference host.
pub const WORKERS: usize = 2;

/// A campaign workload.
#[derive(Debug)]
pub struct Shape {
    /// Shard streams per repetition (`--shard i/n`).
    pub shards: usize,
    /// The campaign for a `--seed`.
    pub build: fn(u64) -> Campaign,
}

/// Seeds per `ds_heavy` repetition: 288 cells, enough that the coordinator stage is not
/// dominated by its fixed file and fsync costs.
const DS_SEEDS: u64 = 16;

/// `ds_heavy`: the `bsm_engine::bench::dolev_strong_campaign` grid over the seed range
/// `16s..16s+16`.
pub const DS_HEAVY: Shape =
    Shape { shards: 1, build: |seed| ds_heavy_campaign(seed * DS_SEEDS..(seed + 1) * DS_SEEDS) };

/// `grid_pipeline`: the default `campaign_ctl run` grid crossed with three fault plans,
/// seed `s`, run as two shard streams.
pub const GRID_PIPELINE: Shape = Shape { shards: 2, build: grid_pipeline_campaign };

/// The `bsm_engine::bench::dolev_strong_campaign` grid over `seeds`; seeds `0..4` are
/// exactly the campaign behind `BENCH_engine.json`.
pub fn ds_heavy_campaign(seeds: Range<u64>) -> Campaign {
    CampaignBuilder::new()
        .topologies([Topology::FullyConnected])
        .auth_modes([AuthMode::Authenticated])
        .adversaries(AdversarySpec::ALL)
        .sizes([10, 12, 14])
        .corruptions([(4, 4), (5, 5)])
        .seeds(seeds)
        .build()
}

/// The `grid_pipeline` campaign for `seed`.
pub fn grid_pipeline_campaign(seed: u64) -> Campaign {
    let plans = ["none", "loss=125;jitter=1", "partition=1+2;crash=L0@1..3"]
        .map(|text| text.parse::<FaultSpec>().expect("the fault plans are well-formed"));
    CampaignBuilder::new()
        .sizes([3, 4, 5])
        .corruptions([(0, 0), (0, 1), (1, 0), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .fault_plans(plans)
        .seeds(seed..seed + 1)
        .build()
}

/// Deterministic counts of one repetition; every repetition of a run must match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    cells: u64,
    completed: u64,
    unsolvable: u64,
    failed: u64,
    violations: u64,
    fault_free_violations: u64,
    digests: u64,
    verified: u64,
    cache_hits: u64,
    signatures: u64,
    messages: u64,
    delivered: u64,
    slots: u64,
    max_slots: u64,
    export_bytes: u64,
    import_bytes: u64,
}

impl Counts {
    fn record(&mut self, cell: &CellRecord, telemetry: &CellTelemetry) {
        self.cells += 1;
        self.digests += telemetry.crypto.digests_computed;
        self.verified += telemetry.crypto.signatures_verified;
        self.cache_hits += telemetry.crypto.verify_cache_hits;
        self.delivered += telemetry.delivered;
        match &cell.outcome {
            CellOutcome::Completed(stats) => {
                self.completed += 1;
                self.violations += stats.violations as u64;
                if cell.spec.faults == FaultSpec::NONE {
                    self.fault_free_violations += stats.violations as u64;
                }
                self.signatures += stats.signatures;
                self.messages += stats.messages;
                self.slots += stats.slots;
                self.max_slots = self.max_slots.max(stats.slots);
            }
            CellOutcome::Unsolvable { .. } => self.unsolvable += 1,
            CellOutcome::Failed { .. } => self.failed += 1,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"cells\": {}, \"completed\": {}, \"unsolvable\": {}, \"failed\": {}, \
             \"violations\": {}, \"digests\": {}, \"verified\": {}, \"cache_hits\": {}, \
             \"signatures\": {}, \"messages\": {}, \"delivered\": {}, \"slots\": {}}}",
            self.cells,
            self.completed,
            self.unsolvable,
            self.failed,
            self.violations,
            self.digests,
            self.verified,
            self.cache_hits,
            self.signatures,
            self.messages,
            self.delivered,
            self.slots
        )
    }
}

/// One repetition's measurements.
#[derive(Debug)]
struct Rep {
    setup: Duration,
    run: Duration,
    coordinate: Duration,
    cell_nanos: Vec<u64>,
    counts: Counts,
    shard_digest: String,
    report_digest: String,
}

impl Rep {
    fn cells_per_s(&self) -> f64 {
        self.counts.cells as f64 / self.run.as_secs_f64()
    }

    fn artifact_cells_per_s(&self) -> f64 {
        self.counts.cells as f64 / self.coordinate.as_secs_f64()
    }

    fn busy_s(&self) -> f64 {
        self.cell_nanos.iter().sum::<u64>() as f64 / 1e9
    }
}

/// One shard's output files, created at set-up.
struct ShardFiles {
    dir: PathBuf,
    partial: PathBuf,
    jsonl: BufWriter<File>,
    csv: AtomicFile,
    /// Cells in the shard.
    cells: usize,
}

/// One shard's streaming writers over its [`ShardFiles`].
struct ShardWriters<'a> {
    exporter: StreamingExporter<&'a mut BufWriter<File>>,
    csv: StreamingCsvWriter<&'a mut AtomicFile>,
}

fn io(context: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |err| format!("{}: {err}", context.display())
}

impl ShardFiles {
    fn create(dir: PathBuf, cells: usize) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(io(&dir))?;
        let partial = dir.join("report.jsonl.partial");
        let jsonl = BufWriter::new(File::create(&partial).map_err(io(&partial))?);
        let csv_path = dir.join("report.csv");
        let csv = AtomicFile::create(&csv_path).map_err(io(&csv_path))?;
        Ok(Self { dir, partial, jsonl, csv, cells })
    }

    fn writers(&mut self) -> Result<ShardWriters<'_>, String> {
        let csv = StreamingCsvWriter::new(&mut self.csv).map_err(|err| err.to_string())?;
        Ok(ShardWriters { exporter: StreamingExporter::new(&mut self.jsonl), csv })
    }

    fn stream(&self) -> PathBuf {
        self.dir.join("report.jsonl")
    }

    /// Publishes the artifacts as `run --stream` does: fsync and rename the JSONL
    /// stream, persist the CSV, write the final heartbeat.
    fn publish(self, heartbeat: Heartbeat) -> Result<(), String> {
        let stream = self.stream();
        let ShardFiles { dir, partial, jsonl, csv, .. } = self;
        let file = jsonl.into_inner().map_err(|err| err.into_error().to_string())?;
        file.sync_all().map_err(io(&partial))?;
        drop(file);
        std::fs::rename(&partial, &stream).map_err(io(&stream))?;
        csv.persist().map_err(io(&dir))?;
        heartbeat.finish().map_err(io(&dir))
    }
}

/// What every repetition of one run shares.
#[derive(Clone, Copy)]
struct Context<'a> {
    shape: &'a Shape,
    seed: u64,
    dir: &'a Path,
}

impl Context<'_> {
    /// Set-up: campaign expansion plus every shard's files.
    fn set_up(&self) -> Result<(Campaign, Vec<ShardFiles>), String> {
        let campaign = (self.shape.build)(self.seed);
        let shards = self.shape.shards;
        let files = (0..shards)
            .map(|index| {
                let plan = ShardPlan::new(index, shards).expect("shard index below count");
                let cells = plan.range(campaign.len()).len();
                ShardFiles::create(self.dir.join(format!("shard-{}", index + 1)), cells)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((campaign, files))
    }

    /// One extra set-up sample: set-up and writer creation, then everything is dropped.
    fn time_set_up(&self) -> Result<f64, String> {
        let started = Instant::now();
        let (_, mut files) = self.set_up()?;
        drop(black_box(files.iter_mut().map(ShardFiles::writers).collect::<Result<Vec<_>, _>>()?));
        Ok(started.elapsed().as_secs_f64())
    }
}

/// Reads and digests the files at `paths`, in order.
fn digest_files(paths: &[PathBuf]) -> Result<(String, u64), String> {
    let mut bytes = Vec::new();
    for path in paths {
        bytes.extend(std::fs::read(path).map_err(io(path))?);
    }
    Ok((hex_digest(&bytes), bytes.len() as u64))
}

/// One repetition: set-up, run stage, coordinator stage and output checks.
fn repetition(
    ctx: &Context,
    executor: &Executor,
    tracer: &mut Tracer,
    index: usize,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let Context { shape, dir, .. } = *ctx;
    let root = tracer.open("rep", None, Label::Rep(index));
    let started = Instant::now();
    let setup_span = tracer.open("setup", root, Label::None);
    let (campaign, mut files) = ctx.set_up()?;
    let streams: Vec<PathBuf> = files.iter().map(ShardFiles::stream).collect();
    let shards: Vec<(PathBuf, usize)> = files.iter().map(|f| (f.dir.clone(), f.cells)).collect();
    let writers = files.iter_mut().map(ShardFiles::writers).collect::<Result<Vec<_>, _>>()?;
    tracer.close(setup_span);
    let setup = started.elapsed();

    let mut counts = Counts::default();
    let mut cell_nanos = Vec::with_capacity(campaign.len());
    let run_started = Instant::now();
    let mut heartbeats = Vec::with_capacity(shards.len());
    for (shard, writers) in writers.into_iter().enumerate() {
        let plan = ShardPlan::new(shard, shape.shards).expect("shard index below count");
        let span = tracer.open("engine.executor.run", root, Label::Shard(shard));
        // The heartbeat's first beat is an fsync'd write: it is timed with the run
        // stage's other heartbeat writes rather than in set-up, whose sub-millisecond
        // figure it would otherwise dominate with disk latency.
        let beat = tracer.open("engine.export.write", span, Label::Shard(shard));
        let (dir, cells) = &shards[shard];
        let mut heartbeat = Heartbeat::new(dir, *cells, HEARTBEAT_EVERY).map_err(io(dir))?;
        tracer.close(beat);
        let ShardWriters { mut exporter, mut csv } = writers;
        let mut sink = |cell: CellRecord, telemetry: CellTelemetry| -> Result<(), StreamError> {
            let write = tracer.open("engine.export.write", span, Label::Cell(cell.spec));
            exporter.write_cell(&cell)?;
            csv.write_cell(&cell)?;
            heartbeat.tick(cell.spec)?;
            tracer.close(write);
            counts.record(&cell, &telemetry);
            cell_nanos.push(telemetry.wall_nanos);
            Ok(())
        };
        executor
            .run_shard_streaming_telemetry(&campaign, plan, &mut sink)
            .map_err(|err| format!("shard {} stream: {err}", shard + 1))?;
        let finish = tracer.open("engine.export.write", span, Label::Shard(shard));
        exporter.finish().map_err(|err| err.to_string())?;
        csv.finish().map_err(|err| err.to_string())?;
        tracer.close(finish);
        tracer.close(span);
        heartbeats.push(heartbeat);
    }
    let publish = tracer.open("engine.export.write", root, Label::None);
    for (shard, heartbeat) in files.into_iter().zip(heartbeats) {
        shard.publish(heartbeat)?;
    }
    tracer.close(publish);
    let run = run_started.elapsed();
    tally.attempted += counts.cells;
    tally.failed += counts.failed;

    let coordinate_started = Instant::now();
    let span = tracer.open("coordinator", root, Label::None);
    let merged = coordinate(&streams, &dir.join("merged"), tracer, span)?;
    tracer.close(span);
    let coordinate = coordinate_started.elapsed();
    tracer.close(root);

    // Output checks, outside every timed stage.
    if counts.failed > 0 {
        return Err(format!("{} cell(s) failed", counts.failed));
    }
    if counts.fault_free_violations > 0 {
        return Err(format!(
            "{} property violation(s) on fault-free solvable cells",
            counts.fault_free_violations
        ));
    }
    if !merged.diff.is_empty() {
        return Err(format!("merged report differs from the shard streams:\n{}", merged.diff));
    }
    let report_paths = [dir.join("merged/report.json"), dir.join("merged/report.csv")];
    let json = std::fs::read_to_string(&report_paths[0]).map_err(io(&report_paths[0]))?;
    let csv = std::fs::read_to_string(&report_paths[1]).map_err(io(&report_paths[1]))?;
    if to_json(&merged.report) != json || to_csv(&merged.report) != csv {
        return Err("the imported merged report does not re-export byte-identically".into());
    }
    if merged.report.totals().scenarios as u64 != counts.cells {
        return Err("the merged report lost or duplicated cells".into());
    }
    let shard_paths: Vec<PathBuf> =
        streams.iter().flat_map(|s| [s.clone(), s.with_file_name("report.csv")]).collect();
    let (shard_digest, export_bytes) = digest_files(&shard_paths)?;
    let (report_digest, _) = digest_files(&report_paths)?;
    counts.export_bytes = export_bytes;
    counts.import_bytes = merged.import_bytes;
    Ok(Rep { setup, run, coordinate, cell_nanos, counts, shard_digest, report_digest })
}

/// What the coordinator stage produced.
struct Merged {
    report: CampaignReport,
    diff: CampaignDiff,
    import_bytes: u64,
}

/// The coordinator stage (see the module docs).
fn coordinate(
    streams: &[PathBuf],
    out: &Path,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<Merged, String> {
    let open = |path: &PathBuf| File::open(path).map(BufReader::new).map_err(io(path));
    let mut declared = Totals::default();
    for (shard, path) in streams.iter().enumerate() {
        let span = tracer.open("engine.import.footer", parent, Label::Shard(shard));
        let (totals, scenario) = footer_meta(open(path)?).map_err(|err| err.to_string())?;
        tracer.close(span);
        if scenario.is_some() {
            return Err(format!("{} carries an unexpected scenario tag", path.display()));
        }
        declared += totals;
    }

    std::fs::create_dir_all(out).map_err(io(out))?;
    let json_path = out.join("report.json");
    let csv_path = out.join("report.csv");
    let mut json_out = AtomicFile::create(&json_path).map_err(io(&json_path))?;
    let mut csv_out = AtomicFile::create(&csv_path).map_err(io(&csv_path))?;
    let shards = streams.iter().map(|path| open(path).map(StreamingCells::new));
    let mut merge = CellMerge::new(shards.collect::<Result<Vec<_>, _>>()?);
    let mut json = MergedJsonWriter::new(&mut json_out, declared).map_err(|e| e.to_string())?;
    let mut csv = StreamingCsvWriter::new(&mut csv_out).map_err(|e| e.to_string())?;
    loop {
        let span = tracer.open("engine.report.merge", parent, Label::None);
        let next = merge.next();
        tracer.close(span);
        let Some(cell) = next else { break };
        let cell = cell.map_err(|err| format!("streamed merge: {err}"))?;
        let span = tracer.open("engine.export.merged_write", parent, Label::Cell(cell.spec));
        json.write_cell(&cell).map_err(|err| err.to_string())?;
        csv.write_cell(&cell).map_err(|err| err.to_string())?;
        tracer.close(span);
    }
    let span = tracer.open("engine.export.merged_write", parent, Label::None);
    json.finish().map_err(|err| err.to_string())?;
    csv.finish().map_err(|err| err.to_string())?;
    json_out.persist().map_err(io(&json_path))?;
    csv_out.persist().map_err(io(&csv_path))?;
    tracer.close(span);

    let span = tracer.open("engine.import.from_json", parent, Label::None);
    let text = std::fs::read_to_string(&json_path).map_err(io(&json_path))?;
    let report = from_json(&text).map_err(|err| format!("import of the merged report: {err}"))?;
    tracer.close(span);
    let mut import_bytes = text.len() as u64;
    let mut shards = Vec::with_capacity(streams.len());
    for (shard, path) in streams.iter().enumerate() {
        let span = tracer.open("engine.import.from_jsonl", parent, Label::Shard(shard));
        shards.push(from_jsonl(open(path)?).map_err(|err| format!("{}: {err}", path.display()))?);
        tracer.close(span);
        import_bytes += std::fs::metadata(path).map_err(io(path))?.len();
    }
    let span = tracer.open("engine.diff.between", parent, Label::None);
    let joined = CampaignReport::merge(shards).map_err(|err| err.to_string())?;
    let diff = CampaignDiff::between(&report, &joined);
    tracer.close(span);
    Ok(Merged { report, diff, import_bytes })
}

/// What replaying a cell through the public calls `run_cell` makes produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Replayed {
    completed: u64,
    violations: u64,
    signatures: u64,
    messages: u64,
    delivered: u64,
    slots: u64,
}

impl std::ops::AddAssign for Replayed {
    fn add_assign(&mut self, other: Self) {
        self.completed += other.completed;
        self.violations += other.violations;
        self.signatures += other.signatures;
        self.messages += other.messages;
        self.delivered += other.delivered;
        self.slots += other.slots;
    }
}

/// Replays one cell with a span around each call: `ScenarioSpec::setting` →
/// `characterize` → `build_scenario` → `run_with_plan`, then `check_bsm` and
/// `gale_shapley_left` re-invoked on the cell's own outputs and profile.
fn replay_cell(spec: ScenarioSpec, epoch: Instant) -> (Vec<Span>, Replayed) {
    let mut spans = LocalSpans::new(epoch);
    let cell_id = spans.open("cell", None, Label::Cell(spec));
    let cell = Some(cell_id);
    let mut replayed = Replayed::default();
    if let Ok(setting) = spec.setting() {
        let verdict = spans
            .time("core.solvability.characterize", cell, Label::None, || characterize(&setting));
        if let Solvability::Solvable(plan) = verdict {
            let built =
                spans.time("core.harness.build", cell, Label::None, || spec.build_scenario());
            if let Ok(scenario) = built {
                let run = spans
                    .time("core.harness.run", cell, Label::None, || scenario.run_with_plan(plan));
                if let Ok(run) = run {
                    let instance =
                        BsmInstance::new(scenario.profile().clone(), run.corrupted.clone());
                    let violations =
                        spans.time("core.properties.check_bsm", cell, Label::None, || {
                            check_bsm(&instance, &run.outputs)
                        });
                    spans.time("matching.gale_shapley", cell, Label::None, || {
                        black_box(gale_shapley_left(scenario.profile()))
                    });
                    replayed = Replayed {
                        completed: 1,
                        violations: violations.len() as u64,
                        signatures: run.signatures,
                        messages: run.metrics.total_messages(),
                        delivered: run.metrics.delivered_messages,
                        slots: run.slots,
                    };
                }
            }
        }
    }
    spans.close(cell_id);
    (spans.into_spans(), replayed)
}

/// Set-ups timed before each measured repetition, so that the `setup_s` samples spread
/// over the whole run as the repetitions do.
const SETUPS_PER_REP: usize = 2;

/// Repeats [`repetition`] until `budget` has passed (at least twice), timing extra
/// set-ups into `setups` before each one.
fn repeat(
    ctx: &Context,
    executor: &Executor,
    tracer: &mut Tracer,
    budget: Duration,
    setups: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<Vec<Rep>, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || started.elapsed() < budget {
        for _ in 0..SETUPS_PER_REP {
            setups.push(ctx.time_set_up()?);
        }
        let rep = repetition(ctx, executor, tracer, reps.len(), tally)?;
        setups.push(rep.setup.as_secs_f64());
        reps.push(rep);
    }
    Ok(reps)
}

/// Runs a campaign workload; returns the metric values and the run record.
pub fn run(
    shape: &Shape,
    config: &RunConfig,
    tally: &mut Tally,
) -> Result<(Values, String), String> {
    let ctx = Context { shape, seed: config.seed, dir: &config.dir };
    // The reference repetition: one worker, untimed; it also warms caches.
    let single = Executor::new().threads(1);
    let reference = repetition(&ctx, &single, &mut Tracer::new(false), 0, tally)?;

    let executor = Executor::new().threads(WORKERS);
    let seconds = Duration::from_secs_f64(config.seconds);
    let untraced_budget = if config.trace { seconds / 2 } else { seconds };
    let mut setups = Vec::new();
    let untraced =
        repeat(&ctx, &executor, &mut Tracer::new(false), untraced_budget, &mut setups, tally)?;
    let mut tracer = Tracer::new(true);
    let traced = if config.trace {
        repeat(&ctx, &executor, &mut tracer, seconds / 2, &mut Vec::new(), tally)?
    } else {
        Vec::new()
    };
    for rep in untraced.iter().chain(&traced) {
        if rep.counts != reference.counts {
            return Err(format!(
                "counts differ between repetitions: {} vs reference {}",
                rep.counts.json(),
                reference.counts.json()
            ));
        }
        if (&rep.shard_digest, &rep.report_digest)
            != (&reference.shard_digest, &reference.report_digest)
        {
            return Err("report bytes differ between repetitions or worker counts".into());
        }
    }

    let counts = reference.counts;
    let cell_ms: Vec<f64> =
        untraced.iter().flat_map(|rep| rep.cell_nanos.iter().map(|&n| n as f64 / 1e6)).collect();
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("cells_per_s", median_by(&untraced, Rep::cells_per_s));
    values.insert("cell_ms_p50", quantile(&cell_ms, 0.5));
    values.insert("cell_ms_p90", quantile(&cell_ms, 0.9));
    values.insert("artifact_cells_per_s", median_by(&untraced, Rep::artifact_cells_per_s));
    values.insert("peak_rss_mb", peak_rss_mb()?);

    let mut record = format!(
        "\"workers\": {WORKERS}, \"shards\": {}, \"cells_per_rep\": {}, \"reps\": {}, \
         \"setup_samples\": {}, \"cell_samples\": {}, \"p50_supported\": {}, \
         \"p90_supported\": {}, \"counts\": {}, \"report_digest\": \"{}\"",
        shape.shards,
        counts.cells,
        untraced.len(),
        summary(&setups),
        cell_ms.len(),
        supports(cell_ms.len(), 0.5),
        supports(cell_ms.len(), 0.9),
        counts.json(),
        reference.report_digest
    );
    if config.trace {
        let campaign = (shape.build)(config.seed);
        record += &per_layer(
            &campaign,
            &counts,
            (&untraced, &traced),
            &mut tracer,
            &executor,
            &mut values,
        )?;
        let path = config.dir.join("trace.jsonl");
        tracer.write_jsonl(&path).map_err(io(&path))?;
    }
    Ok((values, record))
}

/// The traced run's per-layer metrics: span totals of the traced repetitions, a
/// replay of every cell, and the probes. Returns the run record's additions.
fn per_layer(
    campaign: &Campaign,
    counts: &Counts,
    (untraced, traced): (&[Rep], &[Rep]),
    tracer: &mut Tracer,
    executor: &Executor,
    values: &mut Values,
) -> Result<String, String> {
    let totals = trace::totals_per_root(tracer.spans(), "rep");
    for (metric, span) in [
        ("engine.export.write_s", "engine.export.write"),
        ("engine.import.footer_s", "engine.import.footer"),
        ("engine.report.merge_s", "engine.report.merge"),
        ("engine.export.merged_write_s", "engine.export.merged_write"),
        ("engine.import.from_json_s", "engine.import.from_json"),
        ("engine.import.from_jsonl_s", "engine.import.from_jsonl"),
        ("engine.diff.between_s", "engine.diff.between"),
    ] {
        values.insert(metric, trace::median_s(&totals, span));
    }
    values.insert("engine.executor.busy_s", median_by(traced, Rep::busy_s));
    let run_walls = totals.get("engine.executor.run").cloned().unwrap_or_default();
    let utilization: Vec<f64> = traced
        .iter()
        .zip(&run_walls)
        .map(|(rep, &wall)| rep.busy_s() / (WORKERS as f64 * wall as f64 / 1e9))
        .collect();
    values.insert("engine.executor.utilization", median(&utilization));
    values.insert("engine.export.bytes", counts.export_bytes as f64);
    values.insert("engine.import.bytes", counts.import_bytes as f64);
    let untraced_cps = median_by(untraced, Rep::cells_per_s);
    values.insert(
        "trace.overhead_share",
        (untraced_cps - median_by(traced, Rep::cells_per_s)) / untraced_cps,
    );
    values.insert(
        "trace.unattributed_share",
        trace::unattributed_share(tracer.spans(), &["coordinator"]),
    );

    // Replay every cell through the calls the executor hides (after the traced
    // repetitions, so the replay does not inflate them).
    let root = tracer.open("replay", None, Label::None);
    let epoch = tracer.epoch();
    let mut replayed = Replayed::default();
    for (spans, cell) in executor.map(campaign.specs().to_vec(), |spec| replay_cell(spec, epoch)) {
        tracer.adopt(spans, root);
        replayed += cell;
    }
    tracer.close(root);
    let expected = Replayed {
        completed: counts.completed,
        violations: counts.violations,
        signatures: counts.signatures,
        messages: counts.messages,
        delivered: counts.delivered,
        slots: counts.slots,
    };
    if replayed != expected {
        return Err(format!(
            "the cell replay diverged from the executor: {replayed:?} vs {expected:?}"
        ));
    }
    let replay = trace::totals_per_root(tracer.spans(), "replay");
    let replay_s =
        |name: &str| replay.get(name).map_or(0.0, |t| t.iter().sum::<u64>() as f64 / 1e9);
    for (metric, span) in [
        ("core.solvability.characterize_s", "core.solvability.characterize"),
        ("core.harness.build_s", "core.harness.build"),
        ("core.harness.run_s", "core.harness.run"),
        ("core.properties.check_bsm_s", "core.properties.check_bsm"),
        ("matching.gale_shapley_s", "matching.gale_shapley"),
    ] {
        values.insert(metric, replay_s(span));
    }
    values.insert(
        "core.harness.run_ns_per_delivered",
        replay_s("core.harness.run") * 1e9 / counts.delivered.max(1) as f64,
    );

    let cells = counts.cells as f64;
    values.insert("crypto.digests_per_cell", counts.digests as f64 / cells);
    values.insert("crypto.verifications_per_cell", counts.verified as f64 / cells);
    values.insert("crypto.signatures_per_cell", counts.signatures as f64 / cells);
    let lookups = counts.verified + counts.cache_hits;
    values.insert("crypto.verify_hit_ratio", counts.cache_hits as f64 / lookups.max(1) as f64);
    values.insert("netsim.messages_per_cell", counts.messages as f64 / cells);
    values.insert("netsim.delivered_per_cell", counts.delivered as f64 / cells);
    values.insert("netsim.slots_per_cell", counts.slots as f64 / cells);
    values.insert("netsim.delivery_ratio", counts.delivered as f64 / counts.messages.max(1) as f64);
    for name in ["engine.fuzz.worst_slots", "engine.fuzz.worst_messages", "engine.fuzz.log_bytes"] {
        values.insert(name, 0.0);
    }

    let k = campaign.specs().iter().map(|s| s.k).max().unwrap_or(1);
    let t = campaign.specs().iter().map(|s| s.t_l + s.t_r).max().unwrap_or(0);
    let mut record =
        format!(", \"traced_reps\": {}, \"replayed_cells\": {}", traced.len(), campaign.len());
    probes::run_all(k, t, counts.max_slots, values, &mut record);
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ds_heavy_at_seeds_0_to_4_reproduces_bench_engine_counters() {
        // Continuity with `BENCH_engine.json`: its campaign and deterministic counters.
        let campaign = ds_heavy_campaign(0..4);
        assert_eq!(campaign.specs(), bsm_engine::bench::dolev_strong_campaign(false).specs());
        let mut counts = Counts::default();
        Executor::new()
            .threads(WORKERS)
            .run_streaming_telemetry(&campaign, |cell, telemetry| {
                counts.record(&cell, &telemetry);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
        let found = (
            counts.signatures,
            counts.verified,
            counts.cache_hits,
            counts.digests,
            counts.messages,
            counts.slots,
        );
        assert_eq!(found, (25_440, 24_144, 0, 50_880, 683_808, 792));
        assert_eq!(counts.violations, 0);
        assert_eq!((DS_HEAVY.build)(1).len(), 288);
    }

    #[test]
    fn grid_pipeline_has_every_fault_plan_and_relay_mode() {
        let campaign = grid_pipeline_campaign(3);
        assert_eq!(campaign.len(), 648);
        assert!(campaign.specs().iter().all(|s| s.seed == 3));
        let plans: std::collections::BTreeSet<_> =
            campaign.specs().iter().map(|s| s.faults).collect();
        assert_eq!(plans.len(), 3);
    }
}
