//! The distributed-campaign determinism proof.
//!
//! A campaign split into K shards — each run as its own `Executor` invocation, as K
//! processes would — must merge back into a report whose JSON and CSV exports are
//! **byte-identical** to the single-process run, for K = 1, 2 and 3, with the shard
//! reports round-tripped through the JSON export/import pair exactly as the
//! `campaign_ctl` binary does between real processes. This is the contract the CI
//! shard-merge gate enforces end to end.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_engine::export::{to_csv, to_json};
use bsm_engine::import::from_json;
use bsm_engine::{Campaign, CampaignBuilder, CampaignDiff, CampaignReport, Executor, ShardPlan};
use bsm_net::Topology;

/// A ≥500-cell campaign crossing every axis: 2 sizes × 3 topologies × 2 auth modes ×
/// 4 corruption pairs × 3 adversaries × 4 seeds = 576 cells, mixing solvable and
/// unsolvable regions.
fn large_campaign() -> Campaign {
    CampaignBuilder::new()
        .sizes([2, 3])
        .topologies(Topology::ALL)
        .auth_modes(AuthMode::ALL)
        .corruptions([(0, 0), (0, 1), (1, 0), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .seeds(0..4)
        .build()
}

#[test]
fn merging_k_shard_runs_is_byte_identical_to_the_unsharded_run() {
    let campaign = large_campaign();
    assert!(campaign.len() >= 500, "campaign has only {} cells", campaign.len());

    let (reference, _) = Executor::new().threads(2).run(&campaign);
    let reference_json = to_json(&reference);
    let reference_csv = to_csv(&reference);

    for count in [1usize, 2, 3] {
        let mut shard_reports = Vec::new();
        for index in 0..count {
            let plan = ShardPlan::new(index, count).unwrap();
            // Vary the thread count per shard — distributed processes won't agree on
            // hardware, and the merge must not care.
            let executor = Executor::new().threads(1 + index);
            let (report, _) = executor.run(&campaign.shard(plan));
            // Round-trip through the on-disk format, exactly as `campaign_ctl merge`
            // consumes shard exports from other processes.
            let imported = from_json(&to_json(&report)).unwrap();
            assert_eq!(imported, report, "shard {plan} did not survive export/import");
            shard_reports.push(imported);
        }
        // Merge order must not matter: hand the shards over in reverse.
        shard_reports.reverse();
        let merged = CampaignReport::merge(shard_reports).unwrap();
        assert_eq!(
            to_json(&merged),
            reference_json,
            "merged JSON diverged from the unsharded run at K={count}"
        );
        assert_eq!(
            to_csv(&merged),
            reference_csv,
            "merged CSV diverged from the unsharded run at K={count}"
        );
        assert_eq!(merged, reference);
    }
}

#[test]
fn shards_partition_the_large_campaign() {
    let campaign = large_campaign();
    for count in [2usize, 3, 7] {
        let mut rejoined = Vec::new();
        let mut sizes = Vec::new();
        for index in 0..count {
            let shard = campaign.shard(ShardPlan::new(index, count).unwrap());
            sizes.push(shard.len());
            rejoined.extend_from_slice(shard.specs());
        }
        assert_eq!(rejoined, campaign.specs());
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced shard sizes {sizes:?}");
    }
}

#[test]
fn diff_of_a_report_against_itself_renders_zero_cells() {
    let campaign = large_campaign();
    let (report, _) = Executor::new().threads(2).run(&campaign);
    let diff = CampaignDiff::between(&report, &report);
    assert!(diff.is_empty());
    assert_eq!(diff.cells_compared(), campaign.len());
    assert!(diff.render().starts_with("0 differing cell(s)"));
    // A merged reconstruction diffs clean against the original too.
    let half = |index| {
        let (shard, _) = Executor::new().run(&campaign.shard(ShardPlan::new(index, 2).unwrap()));
        from_json(&to_json(&shard)).unwrap()
    };
    let halves = vec![half(0), half(1)];
    let merged = CampaignReport::merge(halves).unwrap();
    assert!(CampaignDiff::between(&report, &merged).is_empty());
}

#[test]
fn overlapping_shards_are_rejected_at_merge_time() {
    let campaign = large_campaign();
    let half = ShardPlan::new(0, 2).unwrap();
    let (a, _) = Executor::new().run(&campaign.shard(half));
    let (b, _) = Executor::new().run(&campaign.shard(half));
    let err = CampaignReport::merge([a, b]).unwrap_err();
    assert!(err.to_string().contains("duplicate cell"), "{err}");
}
