//! Shared helpers for the experiment binaries and Criterion benchmarks.
//!
//! Every table and figure of the paper is regenerated by one of the binaries in
//! `src/bin/` (README's "Benchmarks and experiments" section indexes them: E1 and
//! E6–E11); the Criterion benches in `benches/` measure the wall-clock cost of the
//! same code paths.

use bsm_core::harness::{AdversarySpec, Scenario, ScenarioOutcome};
use bsm_core::problem::{AuthMode, Setting};
use bsm_net::Topology;

pub mod cli;
pub mod exit;

pub use cli::BenchArgs;
pub use exit::{CtlCode, CtlError};

/// A convenience wrapper: build and run a boundary scenario for `setting`, corrupting
/// the full budget (highest indices first) with the given strategy.
///
/// # Panics
///
/// Panics if the setting is unsolvable or the run fails — the experiment binaries only
/// call this on solvable settings.
pub fn run_boundary_scenario(
    setting: Setting,
    adversary: AdversarySpec,
    seed: u64,
) -> ScenarioOutcome {
    let k = setting.k() as u32;
    let left: Vec<u32> = (0..k).rev().take(setting.t_l()).collect();
    let right: Vec<u32> = (0..k).rev().take(setting.t_r()).collect();
    Scenario::builder(setting)
        .seed(seed)
        .corrupt_left(left)
        .corrupt_right(right)
        .adversary(adversary)
        .build()
        .expect("boundary scenario is within budget")
        .run()
        .expect("solvable boundary scenario runs")
}

/// Builds a fault-free scenario (no corruption at all) for the given parameters.
///
/// # Panics
///
/// Panics if the setting is invalid.
pub fn fault_free_scenario(k: usize, topology: Topology, auth: AuthMode, seed: u64) -> Scenario {
    let setting = Setting::new(k, topology, auth, 0, 0).expect("fault-free setting is valid");
    Scenario::builder(setting).seed(seed).build().expect("fault-free scenario builds")
}

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a markdown-style header separator with `n` columns.
pub fn separator(n: usize) -> String {
    format!("|{}", "---|".repeat(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_scenario_runs_clean() {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1).unwrap();
        let outcome = run_boundary_scenario(setting, AdversarySpec::Crash, 1);
        assert!(outcome.violations.is_empty());
    }

    #[test]
    fn fault_free_scenario_builds() {
        let scenario = fault_free_scenario(2, Topology::Bipartite, AuthMode::Unauthenticated, 3);
        assert_eq!(scenario.setting().k(), 2);
    }

    #[test]
    fn table_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(separator(2), "|---|---|");
    }
}
