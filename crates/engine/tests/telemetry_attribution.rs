//! Attribution exactness: the per-cell crypto deltas must sum to the process-global
//! counter delta of the whole campaign.
//!
//! This is the property that makes the sidecar *attribution* rather than sampling:
//! every digest and signature verification the campaign performs is credited to
//! exactly one cell, even under a multi-threaded executor (each cell runs entirely
//! on one worker thread, so its thread-local delta is exact).
//!
//! The test lives alone in its own binary on purpose: the global counters are
//! process-wide, so any concurrently running test that touches crypto would make the
//! global delta unattributable. `cargo test` runs separate test binaries' processes
//! independently, keeping this window clean.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_engine::{CampaignBuilder, Executor, StreamError};
use bsm_net::Topology;

#[test]
fn per_cell_deltas_sum_to_the_global_counter_delta() {
    let campaign = CampaignBuilder::new()
        .sizes([2, 3])
        .topologies(Topology::ALL)
        .auth_modes(AuthMode::ALL)
        .corruptions([(0, 0), (1, 1)])
        .adversaries(AdversarySpec::ALL)
        .seeds(0..2)
        .build();
    let executor = Executor::new().threads(4);
    let before = bsm_crypto::counters::snapshot();
    let mut telemetry = Vec::new();
    executor
        .run_streaming_telemetry(&campaign, |_, cell| -> Result<(), StreamError> {
            telemetry.push(cell);
            Ok(())
        })
        .unwrap();
    let global = bsm_crypto::counters::snapshot() - before;
    let mut attributed = bsm_crypto::CounterSnapshot::default();
    for cell in &telemetry {
        attributed.digests_computed += cell.crypto.digests_computed;
        attributed.signatures_verified += cell.crypto.signatures_verified;
        attributed.verify_cache_hits += cell.crypto.verify_cache_hits;
    }
    assert!(global.digests_computed > 0, "the campaign must do crypto work");
    assert!(global.signatures_verified > 0);
    assert_eq!(
        attributed, global,
        "per-cell telemetry deltas must account for every counted operation"
    );
}
