//! The streamed distributed-campaign determinism proof.
//!
//! The streaming analog of `shard_merge.rs`: a campaign split into K shards, each run
//! in **streaming mode** (cells folded into rolling totals and written to a
//! coordinate-sorted JSON-lines export as they complete, never materializing the
//! record vector), must k-way-merge back into `report.json` / `report.csv` documents
//! **byte-identical** to the unsharded in-memory export, for K = 1, 2 and 3 — with the
//! shard streams read back through the lazy importer exactly as `campaign_ctl merge
//! --stream` consumes files from real processes. This is the contract the CI
//! streamed-merge gate enforces end to end.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_engine::export::{
    to_csv, to_json, MergedJsonWriter, StreamingCsvWriter, StreamingExporter,
};
use bsm_engine::import::{footer_meta, from_jsonl, StreamingCells};
use bsm_engine::{Campaign, CampaignBuilder, CellMerge, Executor, ShardPlan, Totals};
use bsm_net::Topology;

/// The same ≥500-cell campaign as `shard_merge.rs`: 2 sizes × 3 topologies × 2 auth
/// modes × 4 corruption pairs × 3 adversaries × 4 seeds = 576 cells, mixing solvable
/// and unsolvable regions.
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

/// Runs shard `index` of `count` in streaming mode and returns its JSON-lines export.
fn streamed_shard(campaign: &Campaign, index: usize, count: usize, threads: usize) -> Vec<u8> {
    let plan = ShardPlan::new(index, count).unwrap();
    let mut buf = Vec::new();
    let mut exporter = StreamingExporter::new(&mut buf);
    let (totals, _) = Executor::new()
        .threads(threads)
        .run_shard_streaming_telemetry(campaign, plan, |cell, _| exporter.write_cell(&cell))
        .unwrap_or_else(|err| panic!("streamed shard {plan} failed: {err}"));
    let finished = exporter.finish().unwrap();
    assert_eq!(totals, finished, "executor and exporter disagree on shard {plan} totals");
    buf
}

/// Streams a k-way merge of shard exports into (`report.json`, `report.csv`) bytes,
/// exactly as `campaign_ctl merge --stream` does: footer pass first, then one lazy
/// pass over the cells.
fn streamed_merge(shards: &[Vec<u8>]) -> (String, String) {
    let mut declared = Totals::default();
    for shard in shards {
        declared += footer_meta(&shard[..]).unwrap().0;
    }
    let streams: Vec<_> = shards.iter().map(|s| StreamingCells::new(&s[..])).collect();
    let mut json_out = Vec::new();
    let mut csv_out = Vec::new();
    let mut json = MergedJsonWriter::new(&mut json_out, declared).unwrap();
    let mut csv = StreamingCsvWriter::new(&mut csv_out).unwrap();
    for cell in CellMerge::new(streams) {
        let cell = cell.unwrap_or_else(|err| panic!("streamed merge failed: {err}"));
        json.write_cell(&cell).unwrap();
        csv.write_cell(&cell).unwrap();
    }
    assert_eq!(json.finish().unwrap(), declared);
    csv.finish().unwrap();
    (String::from_utf8(json_out).unwrap(), String::from_utf8(csv_out).unwrap())
}

#[test]
fn streamed_k_shard_runs_merge_byte_identical_to_the_unsharded_in_memory_export() {
    let campaign = large_campaign();
    assert!(campaign.len() >= 500, "campaign has only {} cells", campaign.len());

    let (reference, _) = Executor::new().threads(2).run(&campaign);
    let reference_json = to_json(&reference);
    let reference_csv = to_csv(&reference);

    for count in [1usize, 2, 3] {
        // Vary the thread count per shard — distributed processes won't agree on
        // hardware, and neither the streamed export nor the merge may care.
        let shards: Vec<Vec<u8>> =
            (0..count).map(|index| streamed_shard(&campaign, index, count, 1 + index)).collect();
        let (merged_json, merged_csv) = streamed_merge(&shards);
        assert_eq!(
            merged_json, reference_json,
            "streamed merged JSON diverged from the unsharded in-memory run at K={count}"
        );
        assert_eq!(
            merged_csv, reference_csv,
            "streamed merged CSV diverged from the unsharded in-memory run at K={count}"
        );
    }
}

#[test]
fn streamed_shard_exports_round_trip_through_the_lazy_importer() {
    let campaign = large_campaign();
    let plan = ShardPlan::new(1, 3).unwrap();
    let (in_memory, _) = Executor::new().threads(2).run(&campaign.shard(plan));
    let streamed = streamed_shard(&campaign, 1, 3, 2);
    // The lazy importer reconstructs the in-memory shard report exactly.
    assert_eq!(from_jsonl(&streamed[..]).unwrap(), in_memory);
    // And the streamed cells equal the in-memory cells one by one, with the footer
    // verified against what was actually streamed.
    let mut stream = StreamingCells::new(&streamed[..]);
    let cells: Vec<_> = (&mut stream).collect::<Result<_, _>>().unwrap();
    assert_eq!(cells, in_memory.cells());
    assert!(stream.finished());
    assert_eq!(stream.totals(), in_memory.totals());
}

#[test]
fn empty_shards_stream_and_merge_cleanly() {
    // 2 cells over 5 shards: shards 3–5 own empty slices and export footer-only
    // streams, which must merge cleanly with the non-empty ones.
    let campaign = CampaignBuilder::new()
        .sizes([3])
        .topologies([Topology::FullyConnected])
        .auth_modes([AuthMode::Authenticated])
        .adversaries([AdversarySpec::Crash])
        .seeds(0..2)
        .build();
    assert_eq!(campaign.len(), 2);
    let (reference, _) = Executor::new().threads(1).run(&campaign);
    let shards: Vec<Vec<u8>> = (0..5).map(|index| streamed_shard(&campaign, index, 5, 1)).collect();
    for shard in &shards[2..] {
        assert_eq!(footer_meta(&shard[..]).unwrap(), (Totals::default(), None));
    }
    let (merged_json, merged_csv) = streamed_merge(&shards);
    assert_eq!(merged_json, to_json(&reference));
    assert_eq!(merged_csv, to_csv(&reference));
}

#[test]
fn overlapping_shard_streams_are_rejected_by_the_k_way_merge() {
    let campaign = large_campaign();
    let shard = streamed_shard(&campaign, 0, 2, 1);
    let streams = vec![StreamingCells::new(&shard[..]), StreamingCells::new(&shard[..])];
    let err = CellMerge::new(streams).collect::<Result<Vec<_>, _>>().unwrap_err();
    assert!(err.to_string().contains("duplicate cell"), "{err}");
}

#[test]
fn a_truncated_shard_stream_fails_the_merge_loudly() {
    let campaign = large_campaign();
    let healthy = streamed_shard(&campaign, 0, 2, 1);
    let mut truncated = streamed_shard(&campaign, 1, 2, 1);
    // Cut the second shard off mid-stream (footer and tail cells gone).
    truncated.truncate(truncated.len() / 2);
    let streams = vec![StreamingCells::new(&healthy[..]), StreamingCells::new(&truncated[..])];
    let err = CellMerge::new(streams).collect::<Result<Vec<_>, _>>().unwrap_err();
    assert!(err.to_string().contains("shard stream 1 failed"), "{err}");
}
