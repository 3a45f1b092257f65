//! The campaign DSL: expand a parameter grid into an ordered work list of scenarios.
//!
//! A [`CampaignBuilder`] collects the values of every grid axis and expands their cross
//! product into a [`Campaign`] — a `Vec<ScenarioSpec>` in the **canonical order**
//! (size → topology → auth mode → corruption pair → adversary → fault plan → seed). The canonical
//! order is the contract that makes parallel execution deterministic: the executor
//! merges results back into this order no matter which thread finishes first, so the
//! aggregated report and its exports are bit-identical across thread counts.

use crate::grid::{ScenarioSpec, ShardPlan};
use bsm_core::harness::AdversarySpec;
use bsm_core::problem::{AuthMode, Setting};
use bsm_core::solvability::is_solvable;
use bsm_net::{FaultSpec, Topology};
use std::fmt;
use std::ops::Range;

/// An expanded, ordered work list of scenario cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    specs: Vec<ScenarioSpec>,
}

impl Campaign {
    /// Wraps an explicit work list, keeping the given order as canonical.
    ///
    /// This is the escape hatch for experiments whose cells do not form a cross
    /// product (e.g. the cost tables, which pick one corruption budget per size).
    /// The executor runs the cells in the given order, but a [`CampaignReport`]
    /// holds them in *coordinate* order, whatever the work list's (built campaigns
    /// always agree — [`CampaignBuilder::build`] normalizes its axes).
    ///
    /// [`CampaignReport`]: crate::report::CampaignReport
    pub fn from_specs(specs: Vec<ScenarioSpec>) -> Self {
        Self { specs }
    }

    /// The cells in canonical order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// The sub-campaign holding an explicit contiguous slice of the work list.
    ///
    /// This is the resumption primitive: a crash-interrupted shard salvages its
    /// exported cell prefix, computes the un-run tail of its range with
    /// [`ShardPlan::remainder`], and re-runs only `campaign.slice(remainder)`.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds for the work list (like slice indexing);
    /// ranges produced by [`ShardPlan::range`]/[`ShardPlan::remainder`] for this
    /// campaign's length are always in bounds.
    pub fn slice(&self, range: Range<usize>) -> Campaign {
        Campaign { specs: self.specs[range].to_vec() }
    }

    /// The sub-campaign holding this shard's contiguous slice of the work list.
    ///
    /// Every process of a distributed run expands the same campaign (deterministic, no
    /// coordination needed) and keeps its own slice; because the slices are contiguous
    /// runs of the canonical order, [`CampaignReport::merge`] of the shard reports is
    /// byte-identical to running the whole campaign in one process.
    ///
    /// [`CampaignReport::merge`]: crate::report::CampaignReport::merge
    pub fn shard(&self, plan: ShardPlan) -> Campaign {
        Campaign { specs: self.specs[plan.range(self.specs.len())].to_vec() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` when the campaign has no cells.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl fmt::Display for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign of {} scenarios", self.specs.len())
    }
}

/// Builder DSL for [`Campaign`]: set each grid axis, then [`build`](Self::build).
///
/// Defaults: sizes `[3]`, every topology, every auth mode, the single corruption pair
/// `(0, 0)`, every adversary strategy, the single fault plan [`FaultSpec::NONE`],
/// seeds `0..1`, unsolvable cells included.
///
/// # Examples
///
/// ```rust
/// use bsm_engine::CampaignBuilder;
///
/// let campaign = CampaignBuilder::new()
///     .sizes([3, 4])
///     .corruptions([(0, 0), (1, 1)])
///     .seeds(0..3)
///     .build();
/// // 2 sizes × 3 topologies × 2 auth modes × 2 corruption pairs × 3 adversaries
/// // × 3 seeds = 216 cells, in canonical (coordinate) order.
/// assert_eq!(campaign.len(), 216);
/// let mut sorted = campaign.specs().to_vec();
/// sorted.sort_unstable();
/// assert_eq!(sorted, campaign.specs(), "expansion order is coordinate order");
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    sizes: Vec<usize>,
    topologies: Vec<Topology>,
    auth_modes: Vec<AuthMode>,
    corruptions: Vec<(usize, usize)>,
    adversaries: Vec<AdversarySpec>,
    fault_plans: Vec<FaultSpec>,
    seeds: Range<u64>,
    skip_unsolvable: bool,
}

impl Default for CampaignBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignBuilder {
    /// Starts a builder with the default axes (see the type-level docs).
    pub fn new() -> Self {
        Self {
            sizes: vec![3],
            topologies: Topology::ALL.to_vec(),
            auth_modes: AuthMode::ALL.to_vec(),
            corruptions: vec![(0, 0)],
            adversaries: AdversarySpec::ALL.to_vec(),
            fault_plans: vec![FaultSpec::NONE],
            seeds: 0..1,
            skip_unsolvable: false,
        }
    }

    /// Market sizes to sweep (parties per side).
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Topologies to sweep.
    pub fn topologies(mut self, topologies: impl IntoIterator<Item = Topology>) -> Self {
        self.topologies = topologies.into_iter().collect();
        self
    }

    /// Authentication modes to sweep.
    pub fn auth_modes(mut self, modes: impl IntoIterator<Item = AuthMode>) -> Self {
        self.auth_modes = modes.into_iter().collect();
        self
    }

    /// Corruption pairs `(tL, tR)` to sweep. Pairs exceeding a size `k` are skipped
    /// for that size during expansion (they would not form a valid [`Setting`]).
    pub fn corruptions(mut self, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.corruptions = pairs.into_iter().collect();
        self
    }

    /// Sweeps the full corruption square `(0..=max) × (0..=max)`.
    pub fn corruption_grid(self, max: usize) -> Self {
        let pairs: Vec<(usize, usize)> =
            (0..=max).flat_map(|l| (0..=max).map(move |r| (l, r))).collect();
        self.corruptions(pairs)
    }

    /// Byzantine strategies to sweep.
    pub fn adversaries(mut self, adversaries: impl IntoIterator<Item = AdversarySpec>) -> Self {
        self.adversaries = adversaries.into_iter().collect();
        self
    }

    /// Fault plans to sweep — each plan is a first-class grid axis value, so a
    /// campaign can compare e.g. a clean network against a partition-heal schedule
    /// and a lossy link, cell by cell.
    pub fn fault_plans(mut self, plans: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.fault_plans = plans.into_iter().collect();
        self
    }

    /// Seed range to sweep (one scenario per seed per cell).
    pub fn seeds(mut self, seeds: Range<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Excludes cells whose setting Theorems 2–7 rule unsolvable. By default they are
    /// kept and recorded as unsolvable in the report (useful for frontier maps).
    pub fn skip_unsolvable(mut self, skip: bool) -> Self {
        self.skip_unsolvable = skip;
        self
    }

    /// Expands the cross product into a campaign, in canonical order:
    /// size → topology → auth → corruption pair → adversary → fault plan → seed.
    ///
    /// Each axis is treated as a **set**: values are sorted and deduplicated before
    /// expansion, so the canonical order coincides exactly with the coordinate order
    /// of [`ScenarioSpec`]'s `Ord` — the order every [`CampaignReport`] holds.
    /// This is what makes the shard-merge byte-identity guarantee unconditional for
    /// built campaigns, regardless of the order axes were passed in.
    ///
    /// Corruption pairs that exceed the current size (no valid [`Setting`]) are
    /// dropped; with [`skip_unsolvable`](Self::skip_unsolvable), provably unsolvable
    /// cells are dropped too.
    ///
    /// [`CampaignReport`]: crate::report::CampaignReport
    pub fn build(self) -> Campaign {
        fn axis<T: Ord + Copy>(values: &[T]) -> Vec<T> {
            let mut values = values.to_vec();
            values.sort_unstable();
            values.dedup();
            values
        }
        let (sizes, topologies) = (axis(&self.sizes), axis(&self.topologies));
        let (auth_modes, corruptions) = (axis(&self.auth_modes), axis(&self.corruptions));
        let (adversaries, fault_plans) = (axis(&self.adversaries), axis(&self.fault_plans));
        let mut specs = Vec::new();
        for &k in &sizes {
            for &topology in &topologies {
                for &auth in &auth_modes {
                    for &(t_l, t_r) in &corruptions {
                        let Ok(setting) = Setting::new(k, topology, auth, t_l, t_r) else {
                            continue;
                        };
                        if self.skip_unsolvable && !is_solvable(&setting) {
                            continue;
                        }
                        for &adversary in &adversaries {
                            for &faults in &fault_plans {
                                for seed in self.seeds.clone() {
                                    specs.push(ScenarioSpec {
                                        k,
                                        topology,
                                        auth,
                                        t_l,
                                        t_r,
                                        adversary,
                                        faults,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Campaign { specs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_expands_all_defaults() {
        let campaign = CampaignBuilder::new().build();
        // 1 size × 3 topologies × 2 auth modes × 1 corruption pair × 3 adversaries × 1 seed.
        assert_eq!(campaign.len(), 18);
        assert!(!campaign.is_empty());
        assert!(campaign.to_string().contains("18 scenarios"));
    }

    #[test]
    fn expansion_follows_the_canonical_order() {
        let campaign = CampaignBuilder::new()
            .sizes([2, 3])
            .topologies([Topology::Bipartite])
            .auth_modes([AuthMode::Authenticated])
            .corruptions([(0, 0)])
            .adversaries([AdversarySpec::Crash])
            .seeds(0..2)
            .build();
        let specs = campaign.specs();
        assert_eq!(specs.len(), 4);
        // Seeds vary fastest, sizes slowest.
        assert_eq!((specs[0].k, specs[0].seed), (2, 0));
        assert_eq!((specs[1].k, specs[1].seed), (2, 1));
        assert_eq!((specs[2].k, specs[2].seed), (3, 0));
        assert_eq!((specs[3].k, specs[3].seed), (3, 1));
    }

    #[test]
    fn oversized_corruption_pairs_are_dropped_per_size() {
        let campaign = CampaignBuilder::new()
            .sizes([2, 4])
            .topologies([Topology::FullyConnected])
            .auth_modes([AuthMode::Authenticated])
            .corruptions([(0, 0), (3, 3)])
            .adversaries([AdversarySpec::Crash])
            .build();
        // (3, 3) is invalid at k = 2 but valid at k = 4.
        assert_eq!(campaign.len(), 3);
    }

    #[test]
    fn skip_unsolvable_prunes_the_grid() {
        let all = CampaignBuilder::new()
            .sizes([3])
            .topologies([Topology::FullyConnected])
            .auth_modes([AuthMode::Unauthenticated])
            .corruptions([(1, 1)])
            .adversaries([AdversarySpec::Crash])
            .build();
        assert_eq!(all.len(), 1); // kept, even though Theorem 2 rules it out
        let pruned = CampaignBuilder::new()
            .sizes([3])
            .topologies([Topology::FullyConnected])
            .auth_modes([AuthMode::Unauthenticated])
            .corruptions([(1, 1)])
            .adversaries([AdversarySpec::Crash])
            .skip_unsolvable(true)
            .build();
        assert!(pruned.is_empty());
    }

    #[test]
    fn corruption_grid_covers_the_square() {
        let campaign = CampaignBuilder::new()
            .sizes([4])
            .topologies([Topology::FullyConnected])
            .auth_modes([AuthMode::Authenticated])
            .corruption_grid(1)
            .adversaries([AdversarySpec::Crash])
            .build();
        let pairs: Vec<(usize, usize)> = campaign.specs().iter().map(|s| (s.t_l, s.t_r)).collect();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn axes_are_sets_order_and_duplicates_do_not_matter() {
        let canonical = CampaignBuilder::new()
            .sizes([2, 3])
            .topologies([Topology::Bipartite, Topology::FullyConnected])
            .corruptions([(0, 0), (1, 1)])
            .seeds(0..2)
            .build();
        let scrambled = CampaignBuilder::new()
            .sizes([3, 2, 3])
            .topologies([Topology::FullyConnected, Topology::Bipartite, Topology::FullyConnected])
            .corruptions([(1, 1), (0, 0), (1, 1)])
            .seeds(0..2)
            .build();
        assert_eq!(scrambled, canonical);
        // Expansion order equals coordinate order, the order merge restores.
        let mut sorted = canonical.specs().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, canonical.specs());
    }

    #[test]
    fn fault_plans_are_a_first_class_axis() {
        let lossy: FaultSpec = "loss=100".parse().unwrap();
        let campaign = CampaignBuilder::new()
            .sizes([3])
            .topologies([Topology::FullyConnected])
            .auth_modes([AuthMode::Authenticated])
            .adversaries([AdversarySpec::Crash])
            .fault_plans([lossy, FaultSpec::NONE, lossy])
            .seeds(0..2)
            .build();
        assert_eq!(campaign.len(), 4, "2 fault plans (deduped) × 2 seeds");
        let coords: Vec<(FaultSpec, u64)> =
            campaign.specs().iter().map(|s| (s.faults, s.seed)).collect();
        // NONE sorts first; seeds vary faster than fault plans.
        assert_eq!(
            coords,
            vec![(FaultSpec::NONE, 0), (FaultSpec::NONE, 1), (lossy, 0), (lossy, 1)]
        );
    }

    #[test]
    fn shards_partition_the_canonical_work_list() {
        let campaign = CampaignBuilder::new().sizes([2, 3, 4]).seeds(0..2).build();
        for count in [1usize, 2, 3, 5] {
            let mut rejoined = Vec::new();
            for index in 0..count {
                let plan = ShardPlan::new(index, count).unwrap();
                let shard = campaign.shard(plan);
                rejoined.extend_from_slice(shard.specs());
            }
            assert_eq!(rejoined, campaign.specs(), "{count} shards do not rejoin");
        }
    }

    #[test]
    fn slice_agrees_with_the_shard_ranges() {
        let campaign = CampaignBuilder::new().sizes([2, 3, 4]).seeds(0..2).build();
        for count in [1usize, 2, 3, 5] {
            for index in 0..count {
                let plan = ShardPlan::new(index, count).unwrap();
                let range = plan.range(campaign.len());
                assert_eq!(
                    campaign.slice(range).specs(),
                    campaign.shard(plan).specs(),
                    "slice of {plan}'s range diverged from the shard"
                );
            }
        }
        assert!(campaign.slice(0..0).is_empty());
        assert_eq!(campaign.slice(0..campaign.len()), campaign);
    }

    #[test]
    fn from_specs_keeps_the_given_order() {
        let campaign = CampaignBuilder::new().build();
        let reversed: Vec<ScenarioSpec> = campaign.specs().iter().rev().copied().collect();
        let explicit = Campaign::from_specs(reversed.clone());
        assert_eq!(explicit.specs(), &reversed[..]);
    }
}
