//! Golden report digests: the SHA-256 of the JSON and CSV exports of three fixed
//! campaigns, and of one fixed fuzz search's log, pinned to absolute values.
//!
//! The other determinism gates compare a build with itself (across thread counts,
//! shard counts or resume points), so a change that reorders message delivery the
//! same way everywhere would pass them. These digests catch that: any change to
//! what a cell delivers, in what order, or what it decides moves at least one of
//! them. A change that is meant to alter behaviour updates the pinned values and
//! says why; a change that is meant to be behaviour-neutral (hot-path work) must
//! leave them alone.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_crypto::sha256::sha256;
use bsm_engine::export::{to_csv, to_json};
use bsm_engine::{run_fuzz, Campaign, CampaignBuilder, Executor, FuzzConfig};
use bsm_net::{FaultSpec, Topology};
use std::fmt::Write as _;

fn hex(bytes: [u8; 32]) -> String {
    bytes.iter().fold(String::with_capacity(64), |mut out, byte| {
        let _ = write!(out, "{byte:02x}");
        out
    })
}

/// Runs `campaign` and checks the digests of its `report.json` and `report.csv`.
fn assert_golden(name: &str, campaign: &Campaign, json_sha256: &str, csv_sha256: &str) {
    let (report, _) = Executor::new().run(campaign);
    let json = hex(sha256(to_json(&report).as_bytes()));
    let csv = hex(sha256(to_csv(&report).as_bytes()));
    assert_eq!(
        (json.as_str(), csv.as_str()),
        (json_sha256, csv_sha256),
        "{name}: report digests moved (json, csv)"
    );
}

/// The `campaign_ctl run --smoke` grid: every topology × auth mode × adversary.
#[test]
fn smoke_grid_reports_are_pinned() {
    let campaign = CampaignBuilder::new()
        .sizes([3])
        .corruptions([(0, 0), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .seeds(0..2)
        .build();
    assert_eq!(campaign.len(), 72);
    assert_golden(
        "smoke grid",
        &campaign,
        "2f228fcd445154a05111e6d6462303d3817de9184c12fbb4289ed5a6616a8afd",
        "45c2f62e7981c4a997ad37860e4fbabf84411d974b1d5377b3455f31986f8c5a",
    );
}

/// A Dolev–Strong slice at `k = 10`: lying puppets (the network lends them the
/// corrupted inboxes) and garbage floods (byzantine sends enqueued after the honest
/// ones of the same slot, so the in-flight queue is not in sender order).
#[test]
fn dolev_strong_slice_reports_are_pinned() {
    let campaign = CampaignBuilder::new()
        .topologies([Topology::FullyConnected])
        .auth_modes([AuthMode::Authenticated])
        .sizes([10])
        .corruptions([(4, 4)])
        .adversaries([AdversarySpec::Lying, AdversarySpec::Garbage])
        .seeds(0..2)
        .build();
    assert_eq!(campaign.len(), 4);
    assert_golden(
        "dolev-strong slice",
        &campaign,
        "2041123894c69f9aad097fc151e200385cfbbc0d41a0435f1bc8a32f8b6a2f3b",
        "a299d08d7d6f71438400a818822b59f2be129b797516ce1cd96d7772fc949304",
    );
}

/// The default sizes under the three fault plans of the `grid_pipeline` benchmark
/// workload: jitter delays messages past their slot, loss drops them, and the
/// partition and crash windows cut parties off and reconnect them.
#[test]
fn fault_plan_reports_are_pinned() {
    let plans = ["none", "loss=125;jitter=1", "partition=1+2;crash=L0@1..3"]
        .map(|text| text.parse::<FaultSpec>().expect("the fault plans are well-formed"));
    let campaign = CampaignBuilder::new()
        .sizes([3, 4, 5])
        .corruptions([(0, 0), (0, 1), (1, 0), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .fault_plans(plans)
        .seeds(0..1)
        .build();
    assert_eq!(campaign.len(), 648);
    assert_golden(
        "fault plans",
        &campaign,
        "67e59f89f25753220414b3d31097bad576b99c7c84a319539f93061e33d78199",
        "0dcce540926891ac0d9e09c07cd3f5c1486f7d6784fca1653d7f0b561f4cbd2f",
    );
}

/// CI's fuzz smoke search (`campaign_ctl fuzz --budget 200 --seed 1`). Its scripted
/// adversaries drop, delay, replay and equivocate traffic, relayed traffic included,
/// which none of the campaigns above do; CI only compares the log with a second run
/// of the same build.
#[test]
fn fuzz_smoke_log_is_pinned() {
    let report = run_fuzz(&FuzzConfig { budget: 200, seed: 1 });
    assert_eq!(
        hex(sha256(report.log.as_bytes())),
        "96316d89e0852e4a218a95453a805935e5582e04e2aadaf7a80c226e65e07823",
        "fuzz smoke: log digest moved"
    );
}
