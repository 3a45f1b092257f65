//! The scenario harness: build a setting, pick inputs and an adversary, run the
//! appropriate protocol on the synchronous simulator, and verify every bSM property.

use crate::problem::{AuthMode, BsmInstance, MatchDecision, Setting, SettingError};
use crate::properties::{check_bsm, Outputs, PropertyViolation};
use crate::protocols::{BipartiteAuthBsm, BroadcastBsm, BroadcastFlavor};
use crate::relay::{RelayEngine, RelayMode};
use crate::runtime::PartyRuntime;
use crate::script::{ScriptAction, ScriptedAdversary};
use crate::solvability::{characterize, Impossibility, ProtocolPlan, Solvability};
use crate::wire::{dense_key_index, PrefVec, WireMsg};
use bsm_broadcast::{Committee, DolevStrong, KeyDirectory};
use bsm_crypto::{KeyId, Pki, SigningKey};
use bsm_matching::generators::uniform_profile;
use bsm_matching::{PreferenceProfile, Side};
use bsm_net::{
    Adversary, CorruptionBudget, FaultSchedule, FaultSpec, Metrics, NetBuffers, PartyId, PartySet,
    Process, SilentProcess, SimError, SyncNetwork, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

thread_local! {
    /// The emptied message buffers of the last network this thread ran. Every run takes
    /// them and puts them back, so a thread that runs cell after cell (a campaign
    /// worker, the fuzzer, the attacks) keeps the queue capacity of its largest cell
    /// instead of allocating a Dolev–Strong round-1 burst afresh for each cell.
    static NET_BUFFERS: Cell<NetBuffers<WireMsg>> = Cell::new(NetBuffers::default());
}

/// The byzantine behaviour installed for the corrupted parties: each one runs as the
/// one-action script [`AdversarySpec::action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdversarySpec {
    /// Corrupted parties crash from the start (send nothing at all).
    Crash,
    /// Corrupted parties run the honest protocol but lie about their preferences
    /// (seeded random lists different from their nominal inputs).
    Lying,
    /// Corrupted parties flood honest parties with well-formed garbage messages.
    Garbage,
}

impl AdversarySpec {
    /// Every strategy of the library, in the canonical campaign-grid order.
    pub const ALL: [AdversarySpec; 3] =
        [AdversarySpec::Crash, AdversarySpec::Lying, AdversarySpec::Garbage];

    /// A short lowercase name for experiment tables and exports.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::Crash => "crash",
            AdversarySpec::Lying => "lying",
            AdversarySpec::Garbage => "garbage",
        }
    }

    /// The script action that plays this behaviour in a scenario seeded with `seed`.
    pub fn action(&self, seed: u64) -> ScriptAction {
        match self {
            AdversarySpec::Crash => ScriptAction::Silence { from_slot: 0 },
            AdversarySpec::Lying => ScriptAction::Lie { seed },
            AdversarySpec::Garbage => ScriptAction::Garbage { seed, per_slot: 2 },
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AdversarySpec {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form, e.g. `lying`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        AdversarySpec::ALL
            .into_iter()
            .find(|adversary| adversary.name() == name)
            .ok_or_else(|| format!("unknown adversary {name:?}"))
    }
}

/// Errors produced while building or running a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// The setting itself is invalid.
    Setting(SettingError),
    /// The setting is unsolvable; running requires forcing a plan explicitly.
    Unsolvable(Impossibility),
    /// The profile size does not match the setting.
    ProfileMismatch {
        /// `k` of the setting.
        expected: usize,
        /// `k` of the profile.
        found: usize,
    },
    /// More corruptions were requested than the budget allows, or another simulator
    /// configuration error occurred.
    Sim(SimError),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Setting(e) => write!(f, "invalid setting: {e}"),
            HarnessError::Unsolvable(imp) => write!(f, "{imp}"),
            HarnessError::ProfileMismatch { expected, found } => {
                write!(f, "profile has k = {found} but the setting has k = {expected}")
            }
            HarnessError::Sim(e) => write!(f, "simulator error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<SimError> for HarnessError {
    fn from(value: SimError) -> Self {
        HarnessError::Sim(value)
    }
}

impl From<SettingError> for HarnessError {
    fn from(value: SettingError) -> Self {
        HarnessError::Setting(value)
    }
}

/// The result of running one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The protocol plan that was executed.
    pub plan: ProtocolPlan,
    /// Decisions of the parties that stayed honest.
    pub outputs: Outputs,
    /// Parties corrupted during the run.
    pub corrupted: BTreeSet<PartyId>,
    /// Violations of the bSM properties (empty = the run satisfies Definition 1).
    pub violations: Vec<PropertyViolation>,
    /// Whether every honest party decided within the slot budget.
    pub all_honest_decided: bool,
    /// Number of simulated slots.
    pub slots: u64,
    /// Message accounting.
    pub metrics: Metrics,
    /// Number of signatures produced during this run (honest parties and adversary
    /// alike; 0 for unauthenticated plans).
    pub signatures: u64,
}

/// A fully specified experiment: setting + inputs + corrupted set + adversary.
#[derive(Debug, Clone)]
pub struct Scenario {
    setting: Setting,
    profile: PreferenceProfile,
    corrupted: BTreeSet<PartyId>,
    adversary: AdversarySpec,
    faults: FaultSpec,
    seed: u64,
    env: ScenarioEnv,
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    setting: Setting,
    profile: Option<PreferenceProfile>,
    corrupted: BTreeSet<PartyId>,
    adversary: AdversarySpec,
    faults: FaultSpec,
    seed: u64,
}

impl Scenario {
    /// Starts building a scenario for `setting`.
    pub fn builder(setting: Setting) -> ScenarioBuilder {
        ScenarioBuilder {
            setting,
            profile: None,
            corrupted: BTreeSet::new(),
            adversary: AdversarySpec::Crash,
            faults: FaultSpec::NONE,
            seed: 0,
        }
    }

    /// The setting this scenario runs in.
    pub fn setting(&self) -> &Setting {
        &self.setting
    }

    /// The honest preference profile.
    pub fn profile(&self) -> &PreferenceProfile {
        &self.profile
    }

    /// The corrupted parties.
    pub fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    /// The public-key directory used by this scenario's runs.
    ///
    /// Adversaries legitimately hold the signing keys of the corrupted parties; the
    /// tailored attacks obtain them through this directory together with
    /// [`Scenario::key_id_of`].
    pub fn pki(&self) -> &Pki {
        self.env.directory.pki()
    }

    /// The key id assigned to `party` in this scenario's PKI (dense numbering).
    pub fn key_id_of(&self, party: PartyId) -> Option<KeyId> {
        self.env.directory.key_of(party)
    }

    /// The shared run environment (PKI, key directory, runtime construction) — used by
    /// [`ScriptedAdversary`] to build its honest-code puppets on the cell's directory.
    pub(crate) fn env(&self) -> &ScenarioEnv {
        &self.env
    }

    /// Runs the scenario with the plan prescribed by the solvability characterization.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Unsolvable`] when Theorems 2–7 rule the setting out, and
    /// propagates simulator configuration errors.
    pub fn run(&self) -> Result<ScenarioOutcome, HarnessError> {
        match characterize(&self.setting) {
            Solvability::Solvable(plan) => self.run_with_plan(plan),
            Solvability::Unsolvable(imp) => Err(HarnessError::Unsolvable(imp)),
        }
    }

    /// Runs the scenario with an explicitly chosen plan — including plans outside their
    /// theorem's conditions, which is how the impossibility experiments demonstrate
    /// property violations.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (e.g. corruption budget exceeded).
    pub fn run_with_plan(&self, plan: ProtocolPlan) -> Result<ScenarioOutcome, HarnessError> {
        let adversary = ScriptedAdversary::new(self, plan, &[self.adversary.action(self.seed)]);
        self.execute(plan, Box::new(adversary))
    }

    /// Runs the scenario with a custom adversary (used by the tailored impossibility
    /// attacks of [`crate::attacks`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (e.g. corruption budget exceeded).
    pub fn run_with_adversary(
        &self,
        plan: ProtocolPlan,
        adversary: Box<dyn Adversary<WireMsg>>,
    ) -> Result<ScenarioOutcome, HarnessError> {
        self.execute(plan, adversary)
    }

    fn execute(
        &self,
        plan: ProtocolPlan,
        adversary: Box<dyn Adversary<WireMsg>>,
    ) -> Result<ScenarioOutcome, HarnessError> {
        let env = &self.env;
        // The run executes on this thread alone, so the thread's signature-count
        // delta is exactly its cost. Taken before the runtimes are registered
        // because protocol constructors may already sign.
        let signatures_before = bsm_crypto::counters::thread_signatures_issued();
        let slots_per_round = env.relay_mode().slots_per_round();
        let total_rounds = env.total_rounds(plan);
        // Under a fault schedule the budget is extended by the worst case the plan can
        // cost (partitioned slots, crash outage, jitter per round) — a pure function of
        // the spec, so the budget stays identical across threads/shards.
        let max_slots =
            slots_per_round * (total_rounds + 4) + 8 + self.faults.slot_slack(total_rounds + 4);

        let mut net: SyncNetwork<WireMsg, MatchDecision> = SyncNetwork::with_buffers(
            self.setting.k(),
            self.setting.topology(),
            CorruptionBudget::new(self.setting.t_l(), self.setting.t_r()),
            NET_BUFFERS.take(),
        );
        for party in env.parties.iter() {
            if self.corrupted.contains(&party) {
                net.register(Box::new(SilentProcess::new(party)))?;
            } else {
                net.register(env.build_runtime(party, plan, &self.profile))?;
            }
        }
        for &party in &self.corrupted {
            net.corrupt(party)?;
        }
        net.set_adversary(adversary);
        if self.faults != FaultSpec::NONE {
            net.set_faults(FaultSchedule::new(self.faults, self.seed));
        }

        let (outcome, buffers) = net.run_keeping_buffers(max_slots)?;
        NET_BUFFERS.set(buffers);
        let signatures = bsm_crypto::counters::thread_signatures_issued() - signatures_before;
        let instance = BsmInstance::new(self.profile.clone(), outcome.corrupted.clone());
        let violations = check_bsm(&instance, &outcome.outputs);
        Ok(ScenarioOutcome {
            plan,
            outputs: outcome.outputs,
            corrupted: outcome.corrupted,
            violations,
            all_honest_decided: outcome.all_honest_decided,
            slots: outcome.slots,
            metrics: outcome.metrics,
            signatures,
        })
    }
}

impl ScenarioBuilder {
    /// Uses an explicit preference profile instead of a seeded random one.
    pub fn profile(mut self, profile: PreferenceProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Marks left-side parties as corrupted.
    pub fn corrupt_left(mut self, indices: impl IntoIterator<Item = u32>) -> Self {
        self.corrupted.extend(indices.into_iter().map(PartyId::left));
        self
    }

    /// Marks right-side parties as corrupted.
    pub fn corrupt_right(mut self, indices: impl IntoIterator<Item = u32>) -> Self {
        self.corrupted.extend(indices.into_iter().map(PartyId::right));
        self
    }

    /// Selects the byzantine behaviour (default: crash).
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = spec;
        self
    }

    /// Installs a declarative fault plan (default: [`FaultSpec::NONE`]).
    ///
    /// The plan's stochastic axes draw from a stream derived from this scenario's
    /// seed, distinct from the profile/adversary streams, and a non-`NONE` plan
    /// extends the slot budget by the plan's worst-case cost. Non-decision
    /// under faults is legitimate data: the run reports `all_honest_decided = false`
    /// instead of erroring.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Seeds profile generation and randomized adversaries (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::ProfileMismatch`] if an explicit profile has the wrong
    /// size and [`HarnessError::Sim`] if the corrupted set exceeds the budget.
    pub fn build(self) -> Result<Scenario, HarnessError> {
        let k = self.setting.k();
        let profile = match self.profile {
            Some(profile) => {
                if profile.k() != k {
                    return Err(HarnessError::ProfileMismatch { expected: k, found: profile.k() });
                }
                profile
            }
            None => uniform_profile(k, &mut StdRng::seed_from_u64(self.seed)),
        };
        let left_corrupted = self.corrupted.iter().filter(|p| p.is_left()).count();
        let right_corrupted = self.corrupted.iter().filter(|p| p.is_right()).count();
        if left_corrupted > self.setting.t_l() {
            return Err(HarnessError::Sim(SimError::CorruptionBudgetExceeded {
                party: *self.corrupted.iter().find(|p| p.is_left()).expect("non-empty"),
            }));
        }
        if right_corrupted > self.setting.t_r() {
            return Err(HarnessError::Sim(SimError::CorruptionBudgetExceeded {
                party: *self.corrupted.iter().find(|p| p.is_right()).expect("non-empty"),
            }));
        }
        for party in &self.corrupted {
            if party.idx() >= k {
                return Err(HarnessError::Sim(SimError::UnknownParty { party: *party }));
            }
        }
        let env = ScenarioEnv::new(&self.setting);
        Ok(Scenario {
            setting: self.setting,
            profile,
            corrupted: self.corrupted,
            adversary: self.adversary,
            faults: self.faults,
            seed: self.seed,
            env,
        })
    }
}

/// Shared per-run environment: the key directory and runtime construction helpers.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioEnv {
    pub(crate) setting: Setting,
    pub(crate) parties: PartySet,
    /// The one key directory of the cell: all `2k` parties, the PKI and each party's
    /// key (dense numbering). Every Dolev–Strong instance and signed relay engine of
    /// every party and puppet holds a reference to it.
    pub(crate) directory: Arc<KeyDirectory>,
}

impl ScenarioEnv {
    pub(crate) fn new(setting: &Setting) -> Self {
        let k = setting.k();
        let parties = PartySet::new(k);
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            parties.iter().map(|p| (p, KeyId(dense_key_index(p, k)))).collect();
        let directory = Arc::new(KeyDirectory::new(parties.iter().collect(), pki, key_of));
        Self { setting: *setting, parties, directory }
    }

    pub(crate) fn committee(&self, side: Side) -> Committee {
        let members = self.parties.side(side).collect();
        Committee::new(members, self.setting.t_of(side))
    }

    /// `party`'s signing key.
    pub(crate) fn signing_key(&self, party: PartyId) -> SigningKey {
        let key = self.directory.key_of(party).expect("every party has a key");
        self.directory.pki().signing_key(key.0).expect("every key is in the PKI")
    }

    /// The corruption bound of the Dolev–Strong flavor: `tL + tR`, capped at `n − 1`.
    fn ds_t(&self) -> usize {
        (self.setting.t_l() + self.setting.t_r()).min(self.setting.n().saturating_sub(1))
    }

    pub(crate) fn total_rounds(&self, plan: ProtocolPlan) -> u64 {
        let k = self.setting.k();
        match plan {
            ProtocolPlan::DolevStrongBsm => DolevStrong::<PrefVec>::total_rounds(self.ds_t()),
            ProtocolPlan::CommitteeBroadcastBsm { committee_side } => BroadcastBsm::total_rounds(
                k,
                &BroadcastFlavor::Committee { committee: self.committee(committee_side) },
            ),
            ProtocolPlan::BipartiteAuthLocal { committee_side } => {
                BipartiteAuthBsm::total_rounds(&self.committee(committee_side))
            }
        }
    }

    pub(crate) fn ds_flavor(&self, me: PartyId) -> BroadcastFlavor {
        BroadcastFlavor::DolevStrong {
            directory: Arc::clone(&self.directory),
            signing_key: self.signing_key(me),
            t: self.ds_t(),
        }
    }

    pub(crate) fn relay_mode(&self) -> RelayMode {
        if self.setting.topology() == Topology::FullyConnected {
            RelayMode::Direct
        } else {
            match self.setting.auth() {
                AuthMode::Unauthenticated => RelayMode::Majority,
                AuthMode::Authenticated => {
                    RelayMode::Signed { directory: Arc::clone(&self.directory), max_age: 2 }
                }
            }
        }
    }

    pub(crate) fn preference_of(
        profile: &PreferenceProfile,
        party: PartyId,
    ) -> bsm_matching::PreferenceList {
        match party.side {
            Side::Left => profile.left(party.idx()).clone(),
            Side::Right => profile.right(party.idx()).clone(),
        }
    }

    /// Builds honest party `me`'s stack for `plan`: its relay engine, and on top of
    /// it the plan's protocol on `me`'s list in `profile`.
    pub(crate) fn build_runtime(
        &self,
        me: PartyId,
        plan: ProtocolPlan,
        profile: &PreferenceProfile,
    ) -> Box<dyn Process<WireMsg, MatchDecision> + Send> {
        let mode = self.relay_mode();
        let signing_key = matches!(mode, RelayMode::Signed { .. }).then(|| self.signing_key(me));
        let relay = RelayEngine::new(me, self.parties, self.setting.topology(), mode, signing_key);
        let k = self.setting.k();
        let my_pref = Self::preference_of(profile, me);
        let flavor = match plan {
            ProtocolPlan::DolevStrongBsm => self.ds_flavor(me),
            ProtocolPlan::CommitteeBroadcastBsm { committee_side } => {
                BroadcastFlavor::Committee { committee: self.committee(committee_side) }
            }
            ProtocolPlan::BipartiteAuthLocal { committee_side } => {
                let t = self.setting.t_of(committee_side);
                let protocol = BipartiteAuthBsm::new(me, k, committee_side, t, my_pref);
                return Box::new(PartyRuntime::new(me, relay, protocol));
            }
        };
        Box::new(PartyRuntime::new(me, relay, BroadcastBsm::new(me, k, my_pref, flavor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_matching::gale_shapley::gale_shapley_left;

    fn setting(k: usize, topology: Topology, auth: AuthMode, t_l: usize, t_r: usize) -> Setting {
        Setting::new(k, topology, auth, t_l, t_r).unwrap()
    }

    fn expected_outputs(profile: &PreferenceProfile) -> Outputs {
        let matching = gale_shapley_left(profile);
        let mut outputs = Outputs::new();
        for (i, j) in matching.pairs() {
            outputs.insert(PartyId::left(i as u32), Some(PartyId::right(j as u32)));
            outputs.insert(PartyId::right(j as u32), Some(PartyId::left(i as u32)));
        }
        outputs
    }

    #[test]
    fn fault_free_authenticated_full_mesh_reproduces_gale_shapley() {
        let setting = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        let scenario = Scenario::builder(setting).seed(42).build().unwrap();
        let outcome = scenario.run().unwrap();
        assert!(outcome.all_honest_decided);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.outputs, expected_outputs(scenario.profile()));
        assert_eq!(outcome.plan, ProtocolPlan::DolevStrongBsm);
    }

    #[test]
    fn fault_free_unauthenticated_bipartite_reproduces_gale_shapley() {
        let setting = setting(3, Topology::Bipartite, AuthMode::Unauthenticated, 0, 1);
        let scenario = Scenario::builder(setting).seed(7).build().unwrap();
        let outcome = scenario.run().unwrap();
        assert!(outcome.all_honest_decided);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.outputs, expected_outputs(scenario.profile()));
    }

    #[test]
    fn unsolvable_setting_is_rejected_with_the_right_theorem() {
        let setting = setting(3, Topology::FullyConnected, AuthMode::Unauthenticated, 1, 1);
        let scenario = Scenario::builder(setting).build().unwrap();
        match scenario.run() {
            Err(HarnessError::Unsolvable(imp)) => assert_eq!(imp.theorem, "Theorem 2"),
            other => panic!("expected an unsolvability error, got {other:?}"),
        }
    }

    #[test]
    fn builder_validation() {
        let ok = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        // Too many corruptions on the left.
        assert!(matches!(
            Scenario::builder(ok).corrupt_left([0, 1]).build(),
            Err(HarnessError::Sim(SimError::CorruptionBudgetExceeded { .. }))
        ));
        // Out-of-range party index.
        assert!(matches!(
            Scenario::builder(ok).corrupt_right([9]).build(),
            Err(HarnessError::Sim(SimError::UnknownParty { .. }))
        ));
        // Wrong profile size.
        assert!(matches!(
            Scenario::builder(ok).profile(PreferenceProfile::identity(2).unwrap()).build(),
            Err(HarnessError::ProfileMismatch { .. })
        ));
        // Errors render.
        let err = Scenario::builder(ok).corrupt_left([0, 1]).build().unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn crash_faults_in_authenticated_one_sided_network() {
        let setting = setting(3, Topology::OneSided, AuthMode::Authenticated, 1, 1);
        let scenario = Scenario::builder(setting)
            .seed(3)
            .corrupt_left([0])
            .corrupt_right([2])
            .adversary(AdversarySpec::Crash)
            .build()
            .unwrap();
        let outcome = scenario.run().unwrap();
        assert!(outcome.all_honest_decided);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.corrupted.len(), 2);
    }

    #[test]
    fn adversary_spec_display_and_all() {
        assert_eq!(AdversarySpec::ALL.len(), 3);
        assert_eq!(AdversarySpec::Crash.to_string(), "crash");
        assert_eq!(AdversarySpec::Lying.to_string(), "lying");
        assert_eq!(AdversarySpec::Garbage.to_string(), "garbage");
    }

    #[test]
    fn signature_accounting_per_run() {
        let authenticated = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        let scenario = Scenario::builder(authenticated).seed(9).build().unwrap();
        let first = scenario.run().unwrap();
        assert!(first.signatures > 0, "Dolev-Strong runs must sign");
        // A repeat run on the same scenario (same shared PKI) reports the same
        // per-run signature count, not a cumulative total, and so do runs of it on
        // several threads at once.
        let second = scenario.run().unwrap();
        assert_eq!(first.signatures, second.signatures);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let run = || {
                start.wait();
                (0..3).map(|_| scenario.run().unwrap().signatures).collect::<Vec<_>>()
            };
            let runs: Vec<_> = (0..4).map(|_| scope.spawn(run)).collect();
            for run in runs {
                assert_eq!(run.join().unwrap(), [first.signatures; 3]);
            }
        });

        let unauth = setting(3, Topology::Bipartite, AuthMode::Unauthenticated, 0, 1);
        let outcome = Scenario::builder(unauth).seed(9).build().unwrap().run().unwrap();
        assert_eq!(outcome.signatures, 0, "unauthenticated plans never sign");
    }

    #[test]
    fn fault_schedules_run_deterministically() {
        let setting = setting(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1);
        let faults: FaultSpec = "partition=0+2;loss=100;jitter=1".parse().unwrap();
        let run =
            || Scenario::builder(setting).seed(5).faults(faults).build().unwrap().run().unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.all_honest_decided, b.all_honest_decided);
        assert!(
            a.metrics.dropped_by_faults > 0,
            "partition + loss must drop something: {:?}",
            a.metrics
        );
    }

    /// Every Dolev–Strong instance and signed relay engine of every party and puppet
    /// holds the cell's one directory: a per-instance copy would leave the count at 1.
    #[test]
    fn every_instance_and_signed_relay_shares_the_cell_directory() {
        let (k, seed) = (3, 4);
        for (topology, signed_relays) in
            [(Topology::FullyConnected, 0), (Topology::OneSided, 2 * k)]
        {
            let setting = setting(k, topology, AuthMode::Authenticated, 1, 1);
            let scenario = Scenario::builder(setting)
                .seed(seed)
                .corrupt_left([0])
                .adversary(AdversarySpec::Lying)
                .build()
                .unwrap();
            let env = scenario.env();
            let plan = ProtocolPlan::DolevStrongBsm;
            let honest: Vec<_> = env
                .parties
                .iter()
                .filter(|party| !scenario.corrupted().contains(party))
                .map(|party| env.build_runtime(party, plan, scenario.profile()))
                .collect();
            let lying = [AdversarySpec::Lying.action(seed)];
            let puppets = ScriptedAdversary::new(&scenario, plan, &lying);
            // The env's handle, one per instance (2k runtimes × 2k broadcasts) and one
            // per signed relay engine.
            assert_eq!(Arc::strong_count(&env.directory), 1 + 4 * k * k + signed_relays);
            drop((honest, puppets));
            assert_eq!(Arc::strong_count(&env.directory), 1);
        }
    }

    /// The capacity of this thread's kept message buffers.
    fn kept_capacity() -> usize {
        let buffers = NET_BUFFERS.take();
        let capacity = buffers.capacity();
        NET_BUFFERS.set(buffers);
        capacity
    }

    /// A cell runs on the buffers the thread's previous cell left, and grows none of
    /// them when it is the same cell again; a smaller cell in between loses none.
    #[test]
    fn a_thread_reuses_its_message_buffers_across_cells() {
        let cell = |k| {
            let setting = setting(k, Topology::FullyConnected, AuthMode::Authenticated, 2, 2);
            Scenario::builder(setting)
                .seed(6)
                .corrupt_left([0, 1])
                .corrupt_right([1])
                .adversary(AdversarySpec::Lying)
                .build()
                .unwrap()
        };
        let scenario = cell(10);
        let first = scenario.run().unwrap();
        let capacity = kept_capacity();
        assert!(capacity > 0, "the run left no buffers behind");
        let second = scenario.run().unwrap();
        assert_eq!(kept_capacity(), capacity, "the same cell grew or lost a buffer");
        assert_eq!(first.outputs, second.outputs);
        assert_eq!(first.metrics, second.metrics);
        assert_eq!((first.slots, first.signatures), (second.slots, second.signatures));
        assert_eq!(first.violations, second.violations);
        cell(3).run().unwrap();
        assert_eq!(kept_capacity(), capacity, "a smaller cell changed the buffers");
    }

    #[test]
    fn accessors() {
        let setting = setting(2, Topology::FullyConnected, AuthMode::Authenticated, 0, 0);
        let scenario = Scenario::builder(setting).seed(1).build().unwrap();
        assert_eq!(scenario.setting().k(), 2);
        assert_eq!(scenario.profile().k(), 2);
        assert!(scenario.corrupted().is_empty());
    }
}
