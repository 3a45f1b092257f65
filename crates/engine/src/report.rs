//! Deterministic aggregation of campaign results.
//!
//! A [`CampaignReport`] holds one [`CellRecord`] per campaign cell, in the campaign's
//! canonical order, plus aggregate [`Totals`] derived from them. Everything in the
//! report is a pure function of the campaign definition — wall-clock timing and thread
//! counts live in [`ExecutionStats`], which is deliberately kept *outside* the report
//! so that exports stay bit-identical across thread counts and machines.

use crate::grid::ScenarioSpec;
use bsm_core::solvability::ProtocolPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::AddAssign;
use std::time::Duration;

/// What happened when one cell was run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The prescribed protocol ran to completion (possibly with property violations —
    /// those are data, not errors).
    Completed(CellStats),
    /// Theorems 2–7 rule the setting unsolvable; nothing was run.
    Unsolvable {
        /// The theorem establishing the impossibility.
        theorem: String,
        /// The violated condition, human-readable.
        reason: String,
    },
    /// The cell could not be built or run (invalid coordinates, simulator error).
    Failed {
        /// The error message.
        message: String,
    },
}

impl CellOutcome {
    /// Short status keyword used in exports (`completed` / `unsolvable` / `failed`).
    pub fn status(&self) -> &'static str {
        match self {
            CellOutcome::Completed(_) => "completed",
            CellOutcome::Unsolvable { .. } => "unsolvable",
            CellOutcome::Failed { .. } => "failed",
        }
    }

    /// The stats, when the cell completed.
    pub fn stats(&self) -> Option<&CellStats> {
        match self {
            CellOutcome::Completed(stats) => Some(stats),
            _ => None,
        }
    }
}

/// Per-cell outcome statistics for a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStats {
    /// The protocol plan that was executed.
    pub plan: ProtocolPlan,
    /// Whether every honest party decided within the slot budget.
    pub all_honest_decided: bool,
    /// Number of bSM property violations (0 = the run satisfies Definition 1).
    pub violations: usize,
    /// Simulated slots ("rounds" at topology granularity).
    pub slots: u64,
    /// Messages accepted into the network (honest + byzantine).
    pub messages: u64,
    /// Signatures produced during the run.
    pub signatures: u64,
}

/// One campaign cell: its grid coordinates plus what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The coordinates the cell was built from.
    pub spec: ScenarioSpec,
    /// The result.
    pub outcome: CellOutcome,
}

/// Aggregate counters over a whole campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Number of cells in the campaign.
    pub scenarios: usize,
    /// Cells whose protocol ran to completion.
    pub completed: usize,
    /// Completed cells with zero violations and all honest parties decided.
    pub solved_clean: usize,
    /// Cells ruled unsolvable by the characterization.
    pub unsolvable: usize,
    /// Cells that failed to build or run.
    pub failed: usize,
    /// Total property violations across completed cells.
    pub violations: usize,
    /// Total simulated slots across completed cells.
    pub slots: u64,
    /// Total messages across completed cells.
    pub messages: u64,
    /// Total signatures across completed cells.
    pub signatures: u64,
}

impl Totals {
    /// Folds one cell outcome into the running totals (incrementing `scenarios`).
    ///
    /// This is the streaming counterpart of [`CampaignReport::new`]'s aggregation: the
    /// streamed export path folds every completed cell into a rolling `Totals` instead
    /// of retaining the full [`CellRecord`] vector, and both paths produce the same
    /// totals for the same cells. The summed costs saturate, since imported cells
    /// carry untrusted numbers.
    pub fn record(&mut self, outcome: &CellOutcome) {
        self.scenarios += 1;
        match outcome {
            CellOutcome::Completed(stats) => {
                self.completed += 1;
                if stats.violations == 0 && stats.all_honest_decided {
                    self.solved_clean += 1;
                }
                self.violations = self.violations.saturating_add(stats.violations);
                self.slots = self.slots.saturating_add(stats.slots);
                self.messages = self.messages.saturating_add(stats.messages);
                self.signatures = self.signatures.saturating_add(stats.signatures);
            }
            CellOutcome::Unsolvable { .. } => self.unsolvable += 1,
            CellOutcome::Failed { .. } => self.failed += 1,
        }
    }
}

/// Field-wise saturating addition, used to pre-compute merged totals from per-shard
/// footers (untrusted input) before any merged cell has been streamed.
impl AddAssign for Totals {
    fn add_assign(&mut self, other: Totals) {
        self.scenarios = self.scenarios.saturating_add(other.scenarios);
        self.completed = self.completed.saturating_add(other.completed);
        self.solved_clean = self.solved_clean.saturating_add(other.solved_clean);
        self.unsolvable = self.unsolvable.saturating_add(other.unsolvable);
        self.failed = self.failed.saturating_add(other.failed);
        self.violations = self.violations.saturating_add(other.violations);
        self.slots = self.slots.saturating_add(other.slots);
        self.messages = self.messages.saturating_add(other.messages);
        self.signatures = self.signatures.saturating_add(other.signatures);
    }
}

impl fmt::Display for Totals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios: {} completed ({} clean), {} unsolvable, {} failed, \
             {} violations, {} slots, {} messages, {} signatures",
            self.scenarios,
            self.completed,
            self.solved_clean,
            self.unsolvable,
            self.failed,
            self.violations,
            self.slots,
            self.messages,
            self.signatures
        )
    }
}

/// The aggregated result of one campaign run, in canonical cell order.
///
/// The report is a pure function of the campaign definition: running the same campaign
/// with any number of worker threads produces an identical (`==`, and byte-identical
/// once exported) report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    cells: Vec<CellRecord>,
    totals: Totals,
    scenario: Option<String>,
}

impl CampaignReport {
    /// Builds a report from per-cell records already in canonical order.
    pub fn new(cells: Vec<CellRecord>) -> Self {
        let mut totals = Totals::default();
        for cell in &cells {
            totals.record(&cell.outcome);
        }
        Self { cells, totals, scenario: None }
    }

    /// Tags the report with the canonical serialization of the scenario file it was
    /// run from. The tag is embedded in exports (as the JSON document's first key and
    /// the JSONL footer) and checked by [`merge`](Self::merge), so artifacts from
    /// different scenarios can never be silently combined.
    #[must_use]
    pub fn with_scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = Some(scenario.into());
        self
    }

    /// The canonical scenario serialization this report is tagged with, if any.
    pub fn scenario(&self) -> Option<&str> {
        self.scenario.as_deref()
    }

    /// Recombines shard reports into one report in canonical coordinate order.
    ///
    /// The shards may be given in any order: cells are re-sorted by their grid
    /// coordinates (the same nesting the canonical expansion uses — size, topology,
    /// auth, corruption pair, adversary, fault plan, seed) and the totals are recomputed from the
    /// union. [`CampaignBuilder::build`] normalizes its axes so expansion order *is*
    /// coordinate order, which makes exporting the merged report reproduce the
    /// unsharded `to_json`/`to_csv` documents byte for byte. (A hand-assembled
    /// [`Campaign::from_specs`] work list in non-coordinate order is still merged
    /// deterministically, but in coordinate order rather than its original order.)
    ///
    /// [`CampaignBuilder::build`]: crate::campaign::CampaignBuilder::build
    /// [`Campaign::from_specs`]: crate::campaign::Campaign::from_specs
    ///
    /// # Examples
    ///
    /// ```rust
    /// use bsm_engine::{CampaignBuilder, CampaignReport, Executor, ShardPlan};
    ///
    /// let campaign = CampaignBuilder::new().sizes([3]).seeds(0..2).build();
    /// let executor = Executor::new().threads(2);
    /// let (whole, _) = executor.run(&campaign);
    /// // Run the campaign as two shards (as two processes would) and recombine.
    /// let halves: Vec<_> = (0..2)
    ///     .map(|i| executor.run(&campaign.shard(ShardPlan::new(i, 2).unwrap())).0)
    ///     .collect();
    /// let merged = CampaignReport::merge(halves).unwrap();
    /// assert_eq!(merged, whole);
    /// ```
    ///
    /// # Errors
    ///
    /// [`MergeError::DuplicateCell`] when two shards carry the same coordinates —
    /// overlapping shard ranges, or the same shard imported twice — and
    /// [`MergeError::ScenarioMismatch`] when the shards carry different scenario tags
    /// (the common tag, if any, is propagated to the merged report).
    pub fn merge(shards: impl IntoIterator<Item = CampaignReport>) -> Result<Self, MergeError> {
        let shards: Vec<CampaignReport> = shards.into_iter().collect();
        let mut scenario: Option<String> = None;
        for (i, shard) in shards.iter().enumerate() {
            if i > 0 && shard.scenario != scenario {
                return Err(MergeError::ScenarioMismatch {
                    first: scenario,
                    other: shard.scenario.clone(),
                });
            }
            scenario.clone_from(&shard.scenario);
        }
        let mut cells: Vec<CellRecord> =
            shards.into_iter().flat_map(|report| report.cells).collect();
        cells.sort_by_key(|cell| cell.spec);
        if let Some(dup) = cells.windows(2).find(|pair| pair[0].spec == pair[1].spec) {
            return Err(MergeError::DuplicateCell(dup[0].spec));
        }
        let mut merged = Self::new(cells);
        merged.scenario = scenario;
        Ok(merged)
    }

    /// The per-cell records, in canonical order.
    pub fn cells(&self) -> &[CellRecord] {
        &self.cells
    }

    /// The aggregate counters.
    pub fn totals(&self) -> Totals {
        self.totals
    }
}

/// Errors recombining shard reports with [`CampaignReport::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Two shards carried a cell with the same grid coordinates.
    DuplicateCell(ScenarioSpec),
    /// Shards carried different scenario tags — artifacts of different scenario files
    /// (or a mix of tagged and untagged artifacts) must not be combined.
    ScenarioMismatch {
        /// The scenario tag of the first shard(s).
        first: Option<String>,
        /// The conflicting tag.
        other: Option<String>,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::DuplicateCell(spec) => {
                write!(f, "duplicate cell across shards: {spec}")
            }
            MergeError::ScenarioMismatch { first, other } => {
                let name = |s: &Option<String>| match s {
                    Some(tag) => format!("{tag:?}"),
                    None => "no scenario tag".to_string(),
                };
                write!(
                    f,
                    "shards come from different scenarios: {} vs {}",
                    name(first),
                    name(other)
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A streaming k-way merge of coordinate-sorted [`CellRecord`] streams.
///
/// This is [`CampaignReport::merge`] without the memory: instead of materializing
/// every shard report, the coordinator holds **one pending cell per shard** in a
/// binary heap and yields the union in canonical coordinate order. Feeding the merged
/// stream through the streaming writers in [`crate::export`] reproduces the unsharded
/// in-memory export byte for byte, which is the contract
/// `crates/engine/tests/streaming_merge.rs` proves.
///
/// Each input stream must yield cells in strictly increasing coordinate order (the
/// order [`crate::import::StreamingCells`] verifies and
/// [`crate::export::StreamingExporter`] enforces on write). The merge is fail-fast:
/// the first shard read error, duplicate coordinate or ordering violation is yielded
/// as an error and the iterator then fuses to `None`.
#[derive(Debug)]
pub struct CellMerge<I, E>
where
    I: Iterator<Item = Result<CellRecord, E>>,
{
    shards: Vec<I>,
    heap: BinaryHeap<Reverse<MergeEntry>>,
    last: Option<ScenarioSpec>,
    started: bool,
    done: bool,
}

/// One shard's pending cell. Ordered by (coordinates, shard index) so the heap pops
/// the globally smallest cell and ties (duplicates across shards) pop adjacently,
/// where the duplicate check catches them.
#[derive(Debug)]
struct MergeEntry {
    record: CellRecord,
    shard: usize,
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.record.spec, self.shard).cmp(&(other.record.spec, other.shard))
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeEntry {}

impl<I, E> CellMerge<I, E>
where
    I: Iterator<Item = Result<CellRecord, E>>,
{
    /// Prepares a merge over `shards` (in any order; the heap restores coordinate
    /// order). Streams are only pulled from once iteration starts.
    pub fn new(shards: Vec<I>) -> Self {
        let heap = BinaryHeap::with_capacity(shards.len());
        Self { shards, heap, last: None, started: false, done: false }
    }

    /// Pulls the next cell of shard `shard` into the heap; surfaces read errors.
    fn refill(&mut self, shard: usize) -> Result<(), CellMergeError<E>> {
        match self.shards[shard].next() {
            None => Ok(()),
            Some(Ok(record)) => {
                self.heap.push(Reverse(MergeEntry { record, shard }));
                Ok(())
            }
            Some(Err(error)) => Err(CellMergeError::Shard { shard, error }),
        }
    }
}

impl<I, E> Iterator for CellMerge<I, E>
where
    I: Iterator<Item = Result<CellRecord, E>>,
{
    type Item = Result<CellRecord, CellMergeError<E>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            for shard in 0..self.shards.len() {
                if let Err(err) = self.refill(shard) {
                    self.done = true;
                    return Some(Err(err));
                }
            }
        }
        let Some(Reverse(entry)) = self.heap.pop() else {
            self.done = true;
            return None;
        };
        if let Err(err) = self.refill(entry.shard) {
            self.done = true;
            return Some(Err(err));
        }
        if let Some(previous) = self.last {
            match entry.record.spec.cmp(&previous) {
                std::cmp::Ordering::Equal => {
                    self.done = true;
                    return Some(Err(CellMergeError::DuplicateCell(entry.record.spec)));
                }
                std::cmp::Ordering::Less => {
                    self.done = true;
                    return Some(Err(CellMergeError::OutOfOrder {
                        shard: entry.shard,
                        spec: entry.record.spec,
                    }));
                }
                std::cmp::Ordering::Greater => {}
            }
        }
        self.last = Some(entry.record.spec);
        Some(Ok(entry.record))
    }
}

/// Errors of a streaming [`CellMerge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellMergeError<E> {
    /// Reading shard `shard`'s cell stream failed.
    Shard {
        /// 0-based index of the failing stream (the order given to [`CellMerge::new`]).
        shard: usize,
        /// The underlying stream error.
        error: E,
    },
    /// Two streams carried a cell with the same grid coordinates — overlapping shard
    /// ranges, or the same shard merged twice.
    DuplicateCell(ScenarioSpec),
    /// A stream yielded cells out of canonical coordinate order.
    OutOfOrder {
        /// 0-based index of the unsorted stream.
        shard: usize,
        /// The coordinates that arrived after a larger coordinate.
        spec: ScenarioSpec,
    },
}

impl<E: fmt::Display> fmt::Display for CellMergeError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellMergeError::Shard { shard, error } => {
                write!(f, "shard stream {shard} failed: {error}")
            }
            CellMergeError::DuplicateCell(spec) => {
                write!(f, "duplicate cell across shard streams: {spec}")
            }
            CellMergeError::OutOfOrder { shard, spec } => {
                write!(f, "shard stream {shard} is out of canonical coordinate order at {spec}")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for CellMergeError<E> {}

/// Wall-clock statistics of one executor run. Kept separate from [`CampaignReport`] so
/// exports stay deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionStats {
    /// Worker threads used.
    pub threads: usize,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl ExecutionStats {
    /// Scenarios per second (0 when nothing ran or time was unmeasurably short).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.scenarios as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for ExecutionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios in {:.2?} on {} thread{} ({:.1} scenarios/sec)",
            self.scenarios,
            self.elapsed,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.throughput()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_core::harness::AdversarySpec;
    use bsm_core::problem::AuthMode;
    use bsm_net::Topology;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 0,
            t_r: 0,
            adversary: AdversarySpec::Crash,
            faults: bsm_net::FaultSpec::NONE,
            seed: 0,
        }
    }

    fn completed(violations: usize) -> CellRecord {
        CellRecord {
            spec: spec(),
            outcome: CellOutcome::Completed(CellStats {
                plan: ProtocolPlan::DolevStrongBsm,
                all_honest_decided: true,
                violations,
                slots: 10,
                messages: 100,
                signatures: 5,
            }),
        }
    }

    #[test]
    fn totals_aggregate_by_outcome() {
        let cells = vec![
            completed(0),
            completed(2),
            CellRecord {
                spec: spec(),
                outcome: CellOutcome::Unsolvable {
                    theorem: "Theorem 2".into(),
                    reason: "x".into(),
                },
            },
            CellRecord { spec: spec(), outcome: CellOutcome::Failed { message: "boom".into() } },
        ];
        let report = CampaignReport::new(cells);
        let totals = report.totals();
        assert_eq!(totals.scenarios, 4);
        assert_eq!(totals.completed, 2);
        assert_eq!(totals.solved_clean, 1);
        assert_eq!(totals.unsolvable, 1);
        assert_eq!(totals.failed, 1);
        assert_eq!(totals.violations, 2);
        assert_eq!(totals.slots, 20);
        assert_eq!(totals.messages, 200);
        assert_eq!(totals.signatures, 10);
        assert!(totals.to_string().contains("4 scenarios"));
        assert_eq!(report.cells().len(), 4);
    }

    #[test]
    fn outcome_status_and_stats() {
        assert_eq!(completed(0).outcome.status(), "completed");
        assert!(completed(0).outcome.stats().is_some());
        let unsolvable =
            CellOutcome::Unsolvable { theorem: "Theorem 3".into(), reason: "y".into() };
        assert_eq!(unsolvable.status(), "unsolvable");
        assert!(unsolvable.stats().is_none());
        assert_eq!(CellOutcome::Failed { message: "m".into() }.status(), "failed");
    }

    #[test]
    fn merge_restores_coordinate_order_and_recomputes_totals() {
        let mut late = completed(1);
        late.spec.seed = 9;
        let early = completed(0);
        // Shards given out of order; the merge re-sorts by coordinates.
        let shards =
            vec![CampaignReport::new(vec![late.clone()]), CampaignReport::new(vec![early.clone()])];
        let merged = CampaignReport::merge(shards).unwrap();
        assert_eq!(merged.cells(), &[early, late]);
        assert_eq!(merged.totals().scenarios, 2);
        assert_eq!(merged.totals().completed, 2);
        assert_eq!(merged.totals().violations, 1);
    }

    #[test]
    fn merge_rejects_overlapping_shards() {
        let shards =
            vec![CampaignReport::new(vec![completed(0)]), CampaignReport::new(vec![completed(0)])];
        let err = CampaignReport::merge(shards).unwrap_err();
        assert_eq!(err, MergeError::DuplicateCell(spec()));
        assert!(err.to_string().contains("duplicate cell"));
    }

    #[test]
    fn merge_rejects_mixed_scenario_tags_and_propagates_a_common_one() {
        let mut late = completed(0);
        late.spec.seed = 9;
        let tagged =
            |cell: CellRecord| CampaignReport::new(vec![cell]).with_scenario("name = \"x\"");
        // Tagged + untagged is a mismatch.
        let err = CampaignReport::merge(vec![
            tagged(completed(0)),
            CampaignReport::new(vec![late.clone()]),
        ])
        .unwrap_err();
        assert!(matches!(err, MergeError::ScenarioMismatch { .. }), "{err}");
        assert!(err.to_string().contains("different scenarios"), "{err}");
        // Same tag everywhere merges and keeps the tag.
        let merged = CampaignReport::merge(vec![tagged(completed(0)), tagged(late)]).unwrap();
        assert_eq!(merged.scenario(), Some("name = \"x\""));
        assert_eq!(merged.totals().scenarios, 2);
    }

    #[test]
    fn merge_of_nothing_is_the_empty_report() {
        let merged = CampaignReport::merge(Vec::new()).unwrap();
        assert!(merged.cells().is_empty());
        assert_eq!(merged.totals(), Totals::default());
    }

    #[test]
    fn totals_record_matches_report_aggregation() {
        let cells = vec![
            completed(0),
            completed(3),
            CellRecord {
                spec: spec(),
                outcome: CellOutcome::Unsolvable {
                    theorem: "Theorem 4".into(),
                    reason: "z".into(),
                },
            },
        ];
        let mut rolling = Totals::default();
        for cell in &cells {
            rolling.record(&cell.outcome);
        }
        assert_eq!(rolling, CampaignReport::new(cells).totals());
    }

    #[test]
    fn totals_addition_is_field_wise() {
        let mut left = Totals::default();
        left.record(&completed(2).outcome);
        let mut right = Totals::default();
        right.record(&CellOutcome::Failed { message: "x".into() });
        right.record(&completed(0).outcome);
        let mut sum = left;
        sum += right;
        assert_eq!(sum.scenarios, 3);
        assert_eq!(sum.completed, 2);
        assert_eq!(sum.solved_clean, 1);
        assert_eq!(sum.failed, 1);
        assert_eq!(sum.violations, 2);
        assert_eq!(sum.slots, 20);
    }

    /// Cells with distinct seeds, used to build sorted shard streams for merge tests.
    fn seeded(seed: u64) -> CellRecord {
        let mut cell = completed(0);
        cell.spec.seed = seed;
        cell
    }

    type OkStream = std::vec::IntoIter<Result<CellRecord, MergeError>>;

    fn stream(seeds: &[u64]) -> OkStream {
        seeds.iter().map(|&s| Ok(seeded(s))).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn cell_merge_interleaves_sorted_streams_in_coordinate_order() {
        let merged: Result<Vec<CellRecord>, _> =
            CellMerge::new(vec![stream(&[1, 4, 6]), stream(&[0, 5]), stream(&[2, 3])]).collect();
        let seeds: Vec<u64> = merged.unwrap().iter().map(|c| c.spec.seed).collect();
        assert_eq!(seeds, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn cell_merge_of_no_streams_or_empty_streams_is_empty() {
        let empty: Vec<OkStream> = Vec::new();
        assert_eq!(CellMerge::new(empty).count(), 0);
        let merged: Result<Vec<CellRecord>, _> =
            CellMerge::new(vec![stream(&[]), stream(&[7]), stream(&[])]).collect();
        assert_eq!(merged.unwrap().len(), 1);
    }

    #[test]
    fn cell_merge_rejects_duplicates_and_unsorted_streams_then_fuses() {
        let mut merge = CellMerge::new(vec![stream(&[0, 1]), stream(&[1])]);
        assert_eq!(merge.next().unwrap().unwrap().spec.seed, 0);
        assert_eq!(merge.next().unwrap().unwrap().spec.seed, 1);
        let err = merge.next().unwrap().unwrap_err();
        assert!(matches!(err, CellMergeError::DuplicateCell(_)), "{err}");
        assert!(err.to_string().contains("duplicate cell"), "{err}");
        assert!(merge.next().is_none(), "merge must fuse after an error");

        let mut merge = CellMerge::new(vec![stream(&[5, 2])]);
        assert_eq!(merge.next().unwrap().unwrap().spec.seed, 5);
        let err = merge.next().unwrap().unwrap_err();
        assert!(matches!(err, CellMergeError::OutOfOrder { shard: 0, .. }), "{err}");
        assert!(err.to_string().contains("out of canonical coordinate order"), "{err}");
        assert!(merge.next().is_none());
    }

    #[test]
    fn cell_merge_surfaces_shard_stream_errors_with_the_shard_index() {
        let failing: Vec<Result<CellRecord, MergeError>> =
            vec![Ok(seeded(0)), Err(MergeError::DuplicateCell(spec()))];
        let mut merge = CellMerge::new(vec![stream(&[1]), failing.into_iter()]);
        // Shard 1's error surfaces on the refill after its first cell is popped.
        let first = merge.next().unwrap();
        let err = match first {
            Err(err) => err,
            Ok(_) => merge.next().unwrap().unwrap_err(),
        };
        assert!(matches!(err, CellMergeError::Shard { shard: 1, .. }), "{err}");
        assert!(err.to_string().contains("shard stream 1 failed"), "{err}");
        assert!(merge.next().is_none());
    }

    #[test]
    fn throughput_is_scenarios_per_second() {
        let stats = ExecutionStats { threads: 2, scenarios: 100, elapsed: Duration::from_secs(4) };
        assert!((stats.throughput() - 25.0).abs() < 1e-9);
        assert!(stats.to_string().contains("2 threads"));
        let zero = ExecutionStats { threads: 1, scenarios: 0, elapsed: Duration::ZERO };
        assert_eq!(zero.throughput(), 0.0);
    }
}
