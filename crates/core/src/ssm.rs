//! Simplified stable matching (sSM, §3) as a runnable problem.
//!
//! In sSM every party's input is a single *favorite* on the other side instead of a full
//! preference list, and stability is replaced by simplified stability (mutual favorites
//! must be matched). Lemma 2 shows that any bSM protocol solves sSM after ranking the
//! favorite first — this module packages that reduction so the experiments can exercise
//! sSM scenarios directly (all of the paper's impossibility arguments are stated for
//! sSM).

use crate::harness::{AdversarySpec, HarnessError, Scenario, ScenarioOutcome};
use crate::problem::{Setting, SsmInstance};
use crate::properties::{check_ssm, PropertyViolation};
use bsm_matching::{PreferenceProfile, Side};
use bsm_net::{PartyId, SimError};
use std::collections::BTreeSet;

/// The outcome of an sSM run: the underlying bSM outcome plus the violations measured
/// against the *simplified* property set.
#[derive(Debug, Clone)]
pub struct SsmOutcome {
    /// The underlying bSM run.
    pub bsm: ScenarioOutcome,
    /// Violations of termination, symmetry, non-competition and simplified stability.
    pub violations: Vec<PropertyViolation>,
}

/// A simplified stable matching scenario: favorites as inputs, solved through the
/// Lemma 2 reduction.
#[derive(Debug, Clone)]
pub struct SsmScenario {
    setting: Setting,
    instance: SsmInstance,
    adversary: AdversarySpec,
    seed: u64,
}

impl SsmScenario {
    /// Creates an sSM scenario.
    ///
    /// `left_favorites[i]` / `right_favorites[j]` are the favorite opposite-side indices
    /// of left party `i` / right party `j`; `corrupted` lists the byzantine parties.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::ProfileMismatch`], with the length that differs from
    /// `k`, if the favorite vectors do not have exactly `k` entries each, and
    /// [`SimError::UnknownParty`] (wrapped in [`HarnessError::Sim`]) if a favorite
    /// names a party outside the market.
    pub fn new(
        setting: Setting,
        left_favorites: Vec<usize>,
        right_favorites: Vec<usize>,
        corrupted: BTreeSet<PartyId>,
        adversary: AdversarySpec,
        seed: u64,
    ) -> Result<Self, HarnessError> {
        let k = setting.k();
        // A left party's favorite is on the right side, and vice versa.
        for (favorites, side) in [(&left_favorites, Side::Right), (&right_favorites, Side::Left)] {
            if favorites.len() != k {
                return Err(HarnessError::ProfileMismatch { expected: k, found: favorites.len() });
            }
            if let Some(&favorite) = favorites.iter().find(|&&favorite| favorite >= k) {
                let index = u32::try_from(favorite).unwrap_or(u32::MAX);
                let party = PartyId { side, index };
                return Err(HarnessError::Sim(SimError::UnknownParty { party }));
            }
        }
        let instance = SsmInstance { left_favorites, right_favorites, corrupted };
        Ok(Self { setting, instance, adversary, seed })
    }

    /// The sSM inputs.
    pub fn instance(&self) -> &SsmInstance {
        &self.instance
    }

    /// The full-preference profile produced by the Lemma 2 reduction.
    pub fn reduced_profile(&self) -> PreferenceProfile {
        self.instance.to_bsm().profile
    }

    /// Runs the scenario: favorites are expanded into favorite-first preference lists
    /// (Lemma 2), the appropriate bSM protocol runs, and the outputs are checked against
    /// the simplified property set.
    ///
    /// # Errors
    ///
    /// Propagates the underlying harness errors (in particular
    /// [`HarnessError::Unsolvable`] for settings outside Theorems 2–7).
    pub fn run(&self) -> Result<SsmOutcome, HarnessError> {
        let bsm_instance = self.instance.to_bsm();
        let mut builder = Scenario::builder(self.setting)
            .profile(bsm_instance.profile.clone())
            .adversary(self.adversary)
            .seed(self.seed);
        let left: Vec<u32> =
            self.instance.corrupted.iter().filter(|p| p.is_left()).map(|p| p.index).collect();
        let right: Vec<u32> =
            self.instance.corrupted.iter().filter(|p| p.is_right()).map(|p| p.index).collect();
        builder = builder.corrupt_left(left).corrupt_right(right);
        let outcome = builder.build()?.run()?;
        let mut instance = self.instance.clone();
        // Property checks are made against the parties that actually ended up corrupted.
        instance.corrupted = outcome.corrupted.clone();
        let violations = check_ssm(&instance, &outcome.outputs);
        Ok(SsmOutcome { bsm: outcome, violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::AuthMode;
    use bsm_net::Topology;

    #[test]
    fn mutual_favorites_are_matched_in_feasible_settings() {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1).unwrap();
        // L0 and R2 are mutual favorites; L1/R1 corrupted.
        let scenario = SsmScenario::new(
            setting,
            vec![2, 0, 1],
            vec![1, 2, 0],
            [PartyId::left(1), PartyId::right(1)].into_iter().collect(),
            AdversarySpec::Lying,
            5,
        )
        .unwrap();
        assert_eq!(scenario.instance().left_favorites, vec![2, 0, 1]);
        assert_eq!(scenario.reduced_profile().left(0).favorite(), 2);
        let outcome = scenario.run().unwrap();
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.bsm.violations.is_empty());
        assert_eq!(outcome.bsm.outputs[&PartyId::left(0)], Some(PartyId::right(2)));
        assert_eq!(outcome.bsm.outputs[&PartyId::right(2)], Some(PartyId::left(0)));
    }

    #[test]
    fn favorite_vectors_must_have_length_k() {
        let result = at_k3(vec![0, 1], vec![0, 1, 2]);
        assert!(matches!(result, Err(HarnessError::ProfileMismatch { .. })));
    }

    #[test]
    fn unsolvable_settings_propagate_the_impossibility() {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Unauthenticated, 1, 1).unwrap();
        let scenario = SsmScenario::new(
            setting,
            vec![0, 1, 2],
            vec![0, 1, 2],
            BTreeSet::new(),
            AdversarySpec::Crash,
            0,
        )
        .unwrap();
        assert!(matches!(scenario.run(), Err(HarnessError::Unsolvable(_))));
    }

    /// An sSM scenario at k = 3 with no corruptions, from raw favorite vectors.
    fn at_k3(left: Vec<usize>, right: Vec<usize>) -> Result<SsmScenario, HarnessError> {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 0, 0).unwrap();
        SsmScenario::new(setting, left, right, BTreeSet::new(), AdversarySpec::Crash, 0)
    }

    #[test]
    fn out_of_range_favorites_are_rejected_before_running() {
        let err = at_k3(vec![3, 0, 0], vec![0, 1, 2]).expect_err("L0's favorite R3 is no party");
        assert_eq!(err.to_string(), "simulator error: party R3 is not in the network");
        let err = at_k3(vec![0, 1, 2], vec![0, 7, 0]).expect_err("R1's favorite L7 is no party");
        assert_eq!(err.to_string(), "simulator error: party L7 is not in the network");
    }

    #[test]
    fn a_length_mismatch_reports_the_length_that_differs_from_k() {
        let err = at_k3(vec![0, 1, 2, 0], vec![0, 1, 2]).expect_err("4 left favorites at k = 3");
        assert!(matches!(err, HarnessError::ProfileMismatch { expected: 3, found: 4 }), "{err}");
        let err = at_k3(vec![0, 1, 2], vec![0, 1]).expect_err("2 right favorites at k = 3");
        assert!(matches!(err, HarnessError::ProfileMismatch { expected: 3, found: 2 }), "{err}");
    }
}
