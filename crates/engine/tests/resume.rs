//! The crash-recovery determinism proof.
//!
//! A streamed shard export interrupted at an arbitrary byte must be *resumable*: the
//! salvage read mode recovers the valid ordered cell prefix, [`ShardPlan::remainder`]
//! names the un-run tail of the shard's canonical range, the executor re-runs exactly
//! that range, and splicing prefix + fresh cells through the streaming exporter yields
//! an export **byte-identical** to the uninterrupted run — at every possible
//! truncation point, including "nothing salvaged" and "everything salvaged". This is
//! the library-level contract behind `campaign_ctl resume` and the CI resume gate.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_engine::export::{StreamingCsvWriter, StreamingExporter};
use bsm_engine::import::StreamingCells;
use bsm_engine::{Campaign, CampaignBuilder, CellRecord, Executor, ShardPlan, Totals};
use bsm_net::Topology;

/// A small-but-mixed campaign: 2 sizes × 2 topologies × 2 auth modes × 2 adversaries
/// × 2 seeds = 32 cells, spanning solvable and unsolvable regions.
fn campaign() -> Campaign {
    CampaignBuilder::new()
        .sizes([2, 3])
        .topologies([Topology::FullyConnected, Topology::Bipartite])
        .auth_modes(AuthMode::ALL)
        .adversaries([AdversarySpec::Crash, AdversarySpec::Lying])
        .seeds(0..2)
        .build()
}

/// Runs shard `plan` of `campaign` uninterrupted in streaming mode, returning the
/// JSONL export bytes and the CSV bytes.
fn uninterrupted(campaign: &Campaign, plan: ShardPlan, threads: usize) -> (Vec<u8>, Vec<u8>) {
    let mut jsonl = Vec::new();
    let mut csv_buf = Vec::new();
    let mut exporter = StreamingExporter::new(&mut jsonl);
    let mut csv = StreamingCsvWriter::new(&mut csv_buf).unwrap();
    Executor::new()
        .threads(threads)
        .run_shard_streaming_telemetry(campaign, plan, |cell, _| {
            exporter.write_cell(&cell)?;
            csv.write_cell(&cell)
        })
        .unwrap_or_else(|err| panic!("uninterrupted shard {plan} failed: {err}"));
    exporter.finish().unwrap();
    csv.finish().unwrap();
    (jsonl, csv_buf)
}

/// The full `campaign_ctl resume` pipeline over in-memory bytes: salvage the
/// (possibly truncated) `export`, verify the prefix against the shard's work list,
/// re-run the remainder, and splice into complete JSONL + CSV exports.
fn resume(
    campaign: &Campaign,
    plan: ShardPlan,
    export: &[u8],
    threads: usize,
) -> (Vec<u8>, Vec<u8>) {
    let salvaged = StreamingCells::salvage(export).unwrap();
    let shard = campaign.shard(plan);
    // The salvaged prefix must be exactly the head of the shard's canonical work
    // list — the same check `campaign_ctl resume` performs before splicing.
    assert!(salvaged.cells.len() <= shard.len());
    for (cell, expected) in salvaged.cells.iter().zip(shard.specs()) {
        assert_eq!(cell.spec, *expected, "salvaged prefix diverged from the work list");
    }
    let remainder = plan.remainder(campaign.len(), salvaged.cells.len());
    let mut jsonl = Vec::new();
    let mut csv_buf = Vec::new();
    let mut exporter = StreamingExporter::new(&mut jsonl);
    let mut csv = StreamingCsvWriter::new(&mut csv_buf).unwrap();
    for cell in &salvaged.cells {
        exporter.write_cell(cell).unwrap();
        csv.write_cell(cell).unwrap();
    }
    Executor::new()
        .threads(threads)
        .run_streaming_telemetry(&campaign.slice(remainder), |cell: CellRecord, _| {
            exporter.write_cell(&cell)?;
            csv.write_cell(&cell)
        })
        .unwrap_or_else(|err| panic!("resumed range of shard {plan} failed: {err}"));
    exporter.finish().unwrap();
    csv.finish().unwrap();
    // The spliced export must satisfy the *strict* reader: ordered cells and a
    // footer that verifies against them (the salvage mode is for inputs only).
    let mut strict = StreamingCells::new(&jsonl[..]);
    let mut refolded = Totals::default();
    for cell in &mut strict {
        refolded.record(&cell.unwrap().outcome);
    }
    assert!(strict.finished(), "spliced export must carry a verified footer");
    assert_eq!(strict.totals(), refolded);
    (jsonl, csv_buf)
}

#[test]
fn resume_is_byte_identical_at_every_line_truncation_point() {
    let campaign = campaign();
    let plan = ShardPlan::new(1, 3).unwrap();
    let (reference, reference_csv) = uninterrupted(&campaign, plan, 2);
    let newlines: Vec<usize> =
        reference.iter().enumerate().filter_map(|(i, b)| (*b == b'\n').then_some(i)).collect();
    // Every clean line boundary, from "nothing written yet" to "everything but the
    // footer" to "complete export re-resumed".
    let mut cuts = vec![0usize];
    cuts.extend(newlines.iter().map(|i| i + 1));
    for cut in cuts {
        let (jsonl, csv) = resume(&campaign, plan, &reference[..cut], 1);
        assert_eq!(jsonl, reference, "resume from byte {cut} diverged (line boundary)");
        assert_eq!(csv, reference_csv, "resumed CSV from byte {cut} diverged");
    }
}

#[test]
fn resume_is_byte_identical_at_mid_line_truncation_points() {
    let campaign = campaign();
    let plan = ShardPlan::new(0, 2).unwrap();
    let (reference, reference_csv) = uninterrupted(&campaign, plan, 2);
    // A handful of ragged cuts: mid-first-cell, mid-stream, inside the footer.
    let cuts = [reference.len() / 7, reference.len() / 3, reference.len() / 2, reference.len() - 3];
    for cut in cuts {
        let (jsonl, csv) = resume(&campaign, plan, &reference[..cut], 2);
        assert_eq!(jsonl, reference, "resume from mid-line byte {cut} diverged");
        assert_eq!(csv, reference_csv, "resumed CSV from mid-line byte {cut} diverged");
    }
}

#[test]
fn resuming_a_whole_campaign_export_matches_the_unsharded_run() {
    let campaign = campaign();
    let (reference, reference_csv) = uninterrupted(&campaign, ShardPlan::WHOLE, 2);
    let cut = reference.len() * 2 / 3;
    let (jsonl, csv) = resume(&campaign, ShardPlan::WHOLE, &reference[..cut], 1);
    assert_eq!(jsonl, reference);
    assert_eq!(csv, reference_csv);
}
