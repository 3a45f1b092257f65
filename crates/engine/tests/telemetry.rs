//! Telemetry side-channel regression tests.
//!
//! The sidecar's core contract extends the campaign-determinism guarantee: running
//! with telemetry must leave every report artifact **byte-identical** to running
//! without it, and the sidecar's own deterministic projection must be byte-identical
//! across thread counts — only the trailing `timing` object may vary.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_engine::export::{to_csv, to_json};
use bsm_engine::{
    Campaign, CampaignBuilder, CampaignReport, CampaignStats, CellTelemetry, ExecutionStats,
    Executor, StreamError,
};
use bsm_net::{FaultSpec, Topology};

/// Streams `campaign` and keeps everything: the report, one telemetry record per
/// cell (index-aligned with the report's cells) and the execution stats.
fn run_telemetry(
    threads: usize,
    campaign: &Campaign,
) -> (CampaignReport, Vec<CellTelemetry>, ExecutionStats) {
    let (mut cells, mut telemetry) = (Vec::new(), Vec::new());
    let (_, stats) = Executor::new()
        .threads(threads)
        .run_streaming_telemetry(campaign, |cell, sidecar| -> Result<(), StreamError> {
            cells.push(cell);
            telemetry.push(sidecar);
            Ok(())
        })
        .expect("collecting sinks never fail");
    (CampaignReport::new(cells), telemetry, stats)
}

/// The same fixed mixed campaign as `campaign_determinism.rs`: solvable and
/// unsolvable cells, every topology, both auth modes, all adversaries.
fn fixed_campaign() -> bsm_engine::Campaign {
    CampaignBuilder::new()
        .sizes([2, 3])
        .topologies(Topology::ALL)
        .auth_modes(AuthMode::ALL)
        .corruptions([(0, 0), (0, 1), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .seeds(0..2)
        .build()
}

#[test]
fn telemetry_never_changes_a_report_byte() {
    let campaign = fixed_campaign();
    let (reference, _) = Executor::new().threads(1).run(&campaign);
    let reference_json = to_json(&reference);
    let reference_csv = to_csv(&reference);
    for threads in [1usize, 4] {
        let (report, telemetry, stats) = run_telemetry(threads, &campaign);
        assert_eq!(report, reference, "telemetry changed the report at {threads} threads");
        assert_eq!(to_json(&report), reference_json);
        assert_eq!(to_csv(&report), reference_csv);
        assert_eq!(telemetry.len(), campaign.len());
        assert_eq!(stats.scenarios, campaign.len());
        // One telemetry line per report cell, same coordinates, same status.
        for (cell, record) in telemetry.iter().zip(report.cells()) {
            assert_eq!(cell.spec, record.spec);
        }
    }
}

#[test]
fn deterministic_projection_is_byte_identical_across_thread_counts() {
    let campaign = fixed_campaign();
    let projections = |threads: usize| -> Vec<String> {
        let (_, telemetry, _) = run_telemetry(threads, &campaign);
        telemetry.iter().map(CellTelemetry::deterministic_json).collect()
    };
    let reference = projections(1);
    assert_eq!(projections(4), reference, "deterministic projection diverged at 4 threads");
    // The projection really is the full line minus the timing suffix.
    let (_, telemetry, _) = run_telemetry(2, &campaign);
    for (cell, expected) in telemetry.iter().zip(&reference) {
        let line = cell.to_json();
        let stripped = line
            .split(", \"timing\": ")
            .next()
            .map(|head| format!("{head}}}"))
            .expect("every line has a timing suffix");
        assert_eq!(&stripped, expected);
    }
}

#[test]
fn streamed_telemetry_matches_the_in_memory_run() {
    let campaign = fixed_campaign();
    let executor = Executor::new().threads(4);
    let (report, _) = executor.run(&campaign);
    let (_, in_memory, _) = run_telemetry(1, &campaign);
    let mut streamed_records = Vec::new();
    let mut streamed_telemetry = Vec::new();
    let (totals, _) = executor
        .run_streaming_telemetry(&campaign, |record, telemetry| -> Result<(), StreamError> {
            streamed_records.push(record);
            streamed_telemetry.push(telemetry);
            Ok(())
        })
        .expect("streamed telemetry run succeeds");
    assert_eq!(totals, report.totals());
    assert_eq!(streamed_records, report.cells().to_vec());
    assert_eq!(streamed_telemetry.len(), in_memory.len());
    for (streamed, reference) in streamed_telemetry.iter().zip(&in_memory) {
        assert_eq!(streamed.deterministic_json(), reference.deterministic_json());
    }
}

#[test]
fn campaign_stats_aggregate_a_real_campaign() {
    let campaign = fixed_campaign();
    let (_, telemetry, _) = run_telemetry(4, &campaign);
    let mut stats = CampaignStats::default();
    for cell in &telemetry {
        stats.record(cell);
    }
    assert_eq!(stats.cells, campaign.len() as u64);
    assert_eq!(stats.wall.count(), stats.cells);
    assert_eq!(stats.messages.count(), stats.cells);
    // The per-cell deltas sum back to a campaign that demonstrably did crypto work.
    assert!(stats.crypto.digests_computed > 0);
    assert!(stats.crypto.signatures_verified > 0, "authenticated cells verify chains");
    // Every axis of the grid shows up in its rollup.
    assert_eq!(stats.by_k.len(), 2, "sizes 2 and 3");
    assert_eq!(stats.by_adversary.len(), AdversarySpec::ALL.len());
    assert_eq!(stats.by_topology.len(), Topology::ALL.len());
    let rendered = stats.render(3);
    for needle in ["cells:", "wall: p50=", "top 3 cells by wall time:", "by adversary:"] {
        assert!(rendered.contains(needle), "missing {needle:?} in:\n{rendered}");
    }
    // The rollups partition the campaign: each axis's cell counts sum to the total.
    let k_cells: u64 = stats.by_k.values().map(|r| r.cells).sum();
    assert_eq!(k_cells, stats.cells);
}

/// Only signatures need hashing: Dolev–Strong instance digests, signed relay and
/// signature tags. Majority relay (Lemma 6) compares payloads by value, so a cell
/// without a PKI computes no digest at all, relayed or not. The counts are exact per
/// cell under any thread count, so this guard has no timing noise.
#[test]
fn unauthenticated_cells_hash_nothing() {
    // The `run --smoke` grid under the three fault plans of the `grid_pipeline`
    // benchmark workload.
    let plans = ["none", "loss=125;jitter=1", "partition=1+2;crash=L0@1..3"]
        .map(|text| text.parse::<FaultSpec>().expect("the fault plans are well-formed"));
    let campaign = CampaignBuilder::new()
        .sizes([3])
        .corruptions([(0, 0), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .fault_plans(plans)
        .seeds(0..2)
        .build();
    let (_, telemetry, _) = run_telemetry(Executor::new().thread_count(), &campaign);
    let (unauthenticated, authenticated): (Vec<&CellTelemetry>, Vec<_>) =
        telemetry.iter().partition(|cell| cell.spec.auth == AuthMode::Unauthenticated);
    for cell in &unauthenticated {
        assert_eq!(cell.crypto.digests_computed, 0, "{:?} computed digests", cell.spec);
    }
    // Not vacuous: unauthenticated cells ran on every topology, the relaying ones
    // included, and the authenticated cells did hash.
    for topology in Topology::ALL {
        assert!(
            unauthenticated
                .iter()
                .any(|cell| cell.spec.topology == topology && cell.status == "completed"),
            "no completed unauthenticated {topology:?} cell"
        );
    }
    for cell in authenticated.iter().filter(|cell| cell.status == "completed") {
        assert!(cell.crypto.digests_computed > 0, "{:?} computed no digest", cell.spec);
    }
}
