//! Grid coordinates: one fully specified scenario per cell of a campaign grid.
//!
//! A [`ScenarioSpec`] is the engine's unit of work. It pins every axis a campaign can
//! vary — market size, topology, authentication, per-side corruption counts, byzantine
//! strategy and seed — so that a cell can be rebuilt (and re-run) from its coordinates
//! alone, on any worker thread, and the aggregated results can be merged in the
//! canonical grid order regardless of the order the threads finish in.

use bsm_core::harness::{AdversarySpec, HarnessError, Scenario};
use bsm_core::problem::{AuthMode, Setting, SettingError};
use bsm_net::{FaultSpec, Topology};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// The coordinates of one campaign cell.
///
/// `ScenarioSpec` is `Copy`: moving a cell to a worker thread costs a few machine
/// words, and the expensive state (preference profile, PKI, runtimes) is built inside
/// the worker from the seed.
///
/// The derived `Ord` (field order below: size, topology, auth, corruption pair,
/// adversary, fault plan, seed) **is** the canonical coordinate order — the order
/// [`CampaignBuilder::build`] expands in, every [`CampaignReport`] holds, the
/// streaming writers and the readers enforce, and the k-way [`CellMerge`] yields.
/// Reordering these fields would silently change every export; the determinism tests
/// (`campaign_determinism.rs`, `shard_merge.rs`, `streaming_merge.rs`) exist to catch
/// exactly that.
///
/// [`CampaignBuilder::build`]: crate::campaign::CampaignBuilder::build
/// [`CampaignReport`]: crate::report::CampaignReport
/// [`CellMerge`]: crate::report::CellMerge
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioSpec {
    /// Market size (parties per side).
    pub k: usize,
    /// Communication topology.
    pub topology: Topology,
    /// Cryptographic assumptions.
    pub auth: AuthMode,
    /// Number of corrupted left-side parties (also the budget `tL`).
    pub t_l: usize,
    /// Number of corrupted right-side parties (also the budget `tR`).
    pub t_r: usize,
    /// Byzantine strategy of the corrupted parties.
    pub adversary: AdversarySpec,
    /// Declarative fault plan (scheduled partitions, crash/recovery, loss, jitter).
    pub faults: FaultSpec,
    /// Seed for profile generation, randomized adversaries and fault draws.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The [`Setting`] these coordinates describe.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SettingError`] for out-of-range coordinates
    /// (`k == 0`, or a corruption count exceeding `k`).
    pub fn setting(&self) -> Result<Setting, SettingError> {
        Setting::new(self.k, self.topology, self.auth, self.t_l, self.t_r)
    }

    /// Builds the runnable scenario for this cell.
    ///
    /// The corrupted parties are the `t_l` highest-indexed left parties and the `t_r`
    /// highest-indexed right parties — the same "boundary" convention the experiment
    /// binaries use, so a cell exercises its full corruption budget.
    ///
    /// # Errors
    ///
    /// Propagates [`SettingError`] (wrapped by the harness) and harness build errors.
    pub fn build_scenario(&self) -> Result<Scenario, HarnessError> {
        let setting = self.setting()?;
        let k = self.k as u32;
        let left: Vec<u32> = (0..k).rev().take(self.t_l).collect();
        let right: Vec<u32> = (0..k).rev().take(self.t_r).collect();
        Scenario::builder(setting)
            .seed(self.seed)
            .corrupt_left(left)
            .corrupt_right(right)
            .adversary(self.adversary)
            .faults(self.faults)
            .build()
    }
}

/// One contiguous slice of a campaign's canonical work list: shard `index` of `count`.
///
/// A `ShardPlan` is how one campaign is split across processes or machines. Every
/// shard runs the same deterministic expansion (so all shards agree on the canonical
/// work list without communicating), then keeps only its own coordinate range via
/// [`range`](Self::range). The ranges of the `count` shards partition the work list:
/// contiguous, disjoint, and balanced to within one cell. Because each shard is a
/// contiguous run of the canonical order, merging shard reports back in coordinate
/// order reproduces the single-process report byte for byte.
///
/// The CLI spelling is 1-based (`--shard 2/3` is the second of three shards);
/// internally [`index`](Self::index) is 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardPlan {
    index: usize,
    count: usize,
}

/// Errors constructing or parsing a [`ShardPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlanError {
    /// The shard count was zero.
    ZeroCount,
    /// The (0-based) shard index was not below the shard count.
    IndexOutOfRange {
        /// The offending 0-based index.
        index: usize,
        /// The shard count.
        count: usize,
    },
    /// The textual form was not `I/K` with integers `1 ≤ I ≤ K`.
    Malformed(String),
}

impl fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardPlanError::ZeroCount => write!(f, "shard count must be at least 1"),
            ShardPlanError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shard(s)")
            }
            ShardPlanError::Malformed(s) => {
                write!(f, "malformed shard spec {s:?} (expected I/K with 1 ≤ I ≤ K)")
            }
        }
    }
}

impl std::error::Error for ShardPlanError {}

impl ShardPlan {
    /// The trivial plan: one shard holding the whole campaign.
    pub const WHOLE: ShardPlan = ShardPlan { index: 0, count: 1 };

    /// Creates shard `index` (0-based) of `count`.
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::ZeroCount`] when `count == 0`,
    /// [`ShardPlanError::IndexOutOfRange`] when `index >= count`.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardPlanError> {
        if count == 0 {
            return Err(ShardPlanError::ZeroCount);
        }
        if index >= count {
            return Err(ShardPlanError::IndexOutOfRange { index, count });
        }
        Ok(Self { index, count })
    }

    /// The 0-based shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous index range this shard owns in a work list of `total` cells.
    ///
    /// The split is balanced: the first `total % count` shards get one extra cell.
    /// The ranges of all `count` shards partition `0..total` in order.
    pub fn range(&self, total: usize) -> Range<usize> {
        let base = total / self.count;
        let extra = total % self.count;
        let start = self.index * base + self.index.min(extra);
        let len = base + usize::from(self.index < extra);
        start..start + len
    }

    /// The un-run tail of this shard's [`range`](Self::range) after its first `done`
    /// cells completed — the range a crash-interrupted shard must still execute.
    ///
    /// Because shard exports stream cells in canonical order, a salvaged prefix of
    /// `done` cells is exactly the first `done` cells of the shard's range, so the
    /// remainder is the rest of it. `done` past the end of the range yields the empty
    /// range at its end (an already-complete shard has nothing left to run).
    pub fn remainder(&self, total: usize, done: usize) -> Range<usize> {
        let range = self.range(total);
        range.start.saturating_add(done).min(range.end)..range.end
    }
}

impl FromStr for ShardPlan {
    type Err = ShardPlanError;

    /// Parses the 1-based CLI spelling `I/K` (e.g. `"2/3"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let malformed = || ShardPlanError::Malformed(s.to_string());
        let (index, count) = s.split_once('/').ok_or_else(malformed)?;
        let index: usize = index.trim().parse().map_err(|_| malformed())?;
        let count: usize = count.trim().parse().map_err(|_| malformed())?;
        if index == 0 {
            return Err(malformed());
        }
        ShardPlan::new(index - 1, count)
    }
}

impl fmt::Display for ShardPlan {
    /// Renders the 1-based CLI spelling (`2/3` for index 1 of 3).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={} {} {} tL={} tR={} {} faults={} seed={}",
            self.k,
            self.topology,
            self.auth,
            self.t_l,
            self.t_r,
            self.adversary,
            self.faults,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            adversary: AdversarySpec::Crash,
            faults: FaultSpec::NONE,
            seed: 7,
        }
    }

    #[test]
    fn spec_builds_a_boundary_scenario() {
        let scenario = spec().build_scenario().unwrap();
        assert_eq!(scenario.setting().k(), 3);
        assert_eq!(scenario.corrupted().len(), 2);
        // Highest indices are corrupted.
        assert!(scenario.corrupted().contains(&bsm_net::PartyId::left(2)));
        assert!(scenario.corrupted().contains(&bsm_net::PartyId::right(2)));
    }

    #[test]
    fn spec_runs_clean_on_a_solvable_cell() {
        let outcome = spec().build_scenario().unwrap().run().unwrap();
        assert!(outcome.violations.is_empty());
        assert!(outcome.all_honest_decided);
    }

    #[test]
    fn invalid_coordinates_surface_as_setting_errors() {
        let bad = ScenarioSpec { t_l: 9, ..spec() };
        assert!(bad.setting().is_err());
        assert!(bad.build_scenario().is_err());
    }

    #[test]
    fn display_names_every_axis() {
        let rendered = spec().to_string();
        for needle in [
            "k=3",
            "fully-connected",
            "authenticated",
            "tL=1",
            "tR=1",
            "crash",
            "faults=none",
            "seed=7",
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
    }

    #[test]
    fn shard_ranges_partition_any_total() {
        for count in 1..=7usize {
            for total in [0usize, 1, 5, 72, 576, 1081] {
                let mut next = 0;
                let mut sizes = Vec::new();
                for index in 0..count {
                    let range = ShardPlan::new(index, count).unwrap().range(total);
                    assert_eq!(range.start, next, "gap before shard {index}/{count} at {total}");
                    sizes.push(range.len());
                    next = range.end;
                }
                assert_eq!(next, total, "shards of {count} do not cover {total}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced split of {total} into {count}: {sizes:?}");
            }
        }
    }

    #[test]
    fn remainder_is_the_unrun_tail_of_the_shard_range() {
        for count in 1..=5usize {
            for total in [0usize, 1, 7, 72] {
                for index in 0..count {
                    let plan = ShardPlan::new(index, count).unwrap();
                    let range = plan.range(total);
                    assert_eq!(plan.remainder(total, 0), range, "0 done = the whole range");
                    for done in 0..=range.len() {
                        let rest = plan.remainder(total, done);
                        assert_eq!(rest.start, range.start + done);
                        assert_eq!(rest.end, range.end);
                    }
                    // Past-the-end salvage counts clamp to the empty tail.
                    let over = plan.remainder(total, range.len() + 3);
                    assert_eq!(over, range.end..range.end);
                    assert_eq!(plan.remainder(total, usize::MAX), range.end..range.end);
                }
            }
        }
    }

    #[test]
    fn shard_plan_validates_its_coordinates() {
        assert_eq!(ShardPlan::new(0, 0), Err(ShardPlanError::ZeroCount));
        assert_eq!(
            ShardPlan::new(3, 3),
            Err(ShardPlanError::IndexOutOfRange { index: 3, count: 3 })
        );
        assert_eq!(ShardPlan::WHOLE.range(10), 0..10);
        assert!(ShardPlanError::ZeroCount.to_string().contains("at least 1"));
        assert!(ShardPlan::new(3, 3).unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    fn shard_plan_round_trips_through_the_cli_spelling() {
        let plan: ShardPlan = "2/3".parse().unwrap();
        assert_eq!((plan.index(), plan.count()), (1, 3));
        assert_eq!(plan.to_string(), "2/3");
        assert_eq!(plan.to_string().parse::<ShardPlan>().unwrap(), plan);
        for bad in ["", "3", "0/3", "4/3", "a/b", "1/", "/3", "1/0"] {
            assert!(bad.parse::<ShardPlan>().is_err(), "{bad:?} should not parse");
        }
        assert!("9/4".parse::<ShardPlan>().unwrap_err().to_string().contains("out of range"));
        assert!("x/y".parse::<ShardPlan>().unwrap_err().to_string().contains("malformed"));
    }
}
