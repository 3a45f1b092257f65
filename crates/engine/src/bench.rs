//! The fixed benchmark campaign behind `BENCH_engine.json`.
//!
//! `campaign_ctl bench` runs a **fixed, Dolev-Strong-heavy** campaign — authenticated
//! fully-connected settings only, so every solvable cell executes the signature-chain
//! hot path — and writes a [`BenchSnapshot`] as JSON. The snapshot holds deterministic
//! counters only, so it is byte-identical across runs, machines and thread counts: the
//! repo root tracks the full-mode `BENCH_engine.json`, and CI regenerates it and
//! `cmp`s the two. Wall-clock time is measured in one place, the repository benchmark
//! (`perfbench/`), which takes repeated samples and reports their spread.
//!
//! Two kinds of counters live side by side:
//!
//! * **work counters** (`digests_computed`, `signatures_verified`, summed from each
//!   cell's attributed [`bsm_crypto::counters`] delta, and `verify_cache_hits`, which
//!   is 0 by construction) — a hot-path optimization shows up as a hard counter drop,
//! * **campaign outputs** (`signatures_issued`, `messages`, `slots`, `violations`) —
//!   an optimization must move the work counters while leaving these, and every
//!   exported report, untouched.

use crate::campaign::{Campaign, CampaignBuilder};
use crate::executor::Executor;
use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_crypto::CounterSnapshot;
use bsm_net::Topology;
use std::convert::Infallible;

/// The fixed Dolev-Strong-heavy benchmark campaign.
///
/// Authenticated + fully connected pins the plan to Dolev-Strong broadcast (Theorem 5)
/// for every cell, and the corruption pairs raise `t` so the signature chains grow:
/// per cell, each of the `2k` parties runs `2k` broadcast instances of `t + 2` rounds,
/// which is exactly the chain-verification workload the hot-path optimizations target.
///
/// `quick` selects a small grid (12 cells) whose snapshot a unit test pins; the full
/// grid (72 cells, sizes up to `k = 14` and `t` up to 10) is the one the tracked
/// repo-root `BENCH_engine.json` is produced from.
pub fn dolev_strong_campaign(quick: bool) -> Campaign {
    let builder = CampaignBuilder::new()
        .topologies([Topology::FullyConnected])
        .auth_modes([AuthMode::Authenticated])
        .adversaries(AdversarySpec::ALL);
    if quick {
        builder.sizes([3, 4]).corruptions([(1, 1)]).seeds(0..2).build()
    } else {
        builder.sizes([10, 12, 14]).corruptions([(4, 4), (5, 5)]).seeds(0..4).build()
    }
}

/// The deterministic counters of one run of the fixed benchmark campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSnapshot {
    /// `"quick"` (the small grid) or `"full"` (the tracked baseline grid).
    pub mode: String,
    /// Cells in the campaign.
    pub cells: usize,
    /// Cells whose protocol ran to completion.
    pub completed: usize,
    /// Signatures produced during the campaign (deterministic report total).
    pub signatures_issued: u64,
    /// Signature verifications performed (summed per-cell counter delta). This is the
    /// tripwire for re-verification: Dolev–Strong skips every further chain for a
    /// value it has already extracted before touching a signature, so a protocol that
    /// starts re-validating chains it used to skip moves this count.
    pub signatures_verified: u64,
    /// Verifications answered from a memo: always 0, since nothing memoizes
    /// verifications ([`CounterSnapshot::verify_cache_hits`]). The key stays in the
    /// snapshot so that `BENCH_engine.json` keeps its bytes.
    pub verify_cache_hits: u64,
    /// Digests computed (summed per-cell counter delta).
    pub digests_computed: u64,
    /// Messages delivered across completed cells (deterministic report total).
    pub messages: u64,
    /// Simulated slots across completed cells (deterministic report total).
    pub slots: u64,
    /// Property violations across completed cells (must stay 0).
    pub violations: usize,
}

impl BenchSnapshot {
    /// Renders the snapshot as a small stable-key-order JSON document, one key per
    /// line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"cells\": {},\n  \"completed\": {},\n  \
             \"signatures_issued\": {},\n  \"signatures_verified\": {},\n  \
             \"verify_cache_hits\": {},\n  \"digests_computed\": {},\n  \
             \"messages\": {},\n  \"slots\": {},\n  \"violations\": {}\n}}\n",
            self.mode,
            self.cells,
            self.completed,
            self.signatures_issued,
            self.signatures_verified,
            self.verify_cache_hits,
            self.digests_computed,
            self.messages,
            self.slots,
            self.violations
        )
    }
}

/// Runs the fixed benchmark campaign on `executor` and snapshots its counters.
///
/// The crypto counters sum each cell's attributed delta
/// ([`CellTelemetry::crypto`](crate::telemetry::CellTelemetry::crypto)), so crypto
/// work on other threads of the process never leaks in, and the snapshot is the same
/// at every thread count.
pub fn run(executor: &Executor, quick: bool) -> BenchSnapshot {
    let campaign = dolev_strong_campaign(quick);
    let mut crypto = CounterSnapshot::default();
    let Ok((totals, _)) = executor.run_streaming_telemetry(&campaign, |_, telemetry| {
        crypto += telemetry.crypto;
        Ok::<(), Infallible>(())
    });
    BenchSnapshot {
        mode: if quick { "quick".into() } else { "full".into() },
        cells: campaign.len(),
        completed: totals.completed,
        signatures_issued: totals.signatures,
        signatures_verified: crypto.signatures_verified,
        verify_cache_hits: crypto.verify_cache_hits,
        digests_computed: crypto.digests_computed,
        messages: totals.messages,
        slots: totals.slots,
        violations: totals.violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_is_dolev_strong_only_and_fixed() {
        let campaign = dolev_strong_campaign(true);
        assert_eq!(campaign.len(), 12);
        for spec in campaign.specs() {
            assert_eq!(spec.topology, Topology::FullyConnected);
            assert_eq!(spec.auth, AuthMode::Authenticated);
        }
        assert_eq!(dolev_strong_campaign(false).len(), 72);
    }

    #[test]
    fn snapshot_json_carries_every_required_key() {
        let json = run(&Executor::new().threads(1), true).to_json();
        assert_eq!(
            json,
            "{\n  \"mode\": \"quick\",\n  \"cells\": 12,\n  \"completed\": 12,\n  \
             \"signatures_issued\": 408,\n  \"signatures_verified\": 340,\n  \
             \"verify_cache_hits\": 0,\n  \"digests_computed\": 816,\n  \
             \"messages\": 2904,\n  \"slots\": 48,\n  \"violations\": 0\n}\n"
        );
        assert_eq!(run(&Executor::new().threads(2), true).to_json(), json);
    }
}
