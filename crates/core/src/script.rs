//! Data-valued adversary scripts: generate, mutate, serialize and replay attacks.
//!
//! A [`Script`] is a complete, self-contained description of one adversarial run —
//! the setting, the statically corrupted parties, the seed, and an ordered list of
//! [`ScriptAction`]s — so byzantine strategies become *values* that a fuzzer can
//! generate, mutate, shrink and freeze as regression files. [`ScriptedAdversary`]
//! interprets a script against the live simulation through the standard
//! [`bsm_net::Adversary`] hooks, and [`Script::run`] wires everything through
//! [`Scenario::run_with_adversary`].
//!
//! The serialized form is the workspace's TOML subset ([`crate::text`]) with a
//! *canonical* rendering: [`Script::parse`] followed by [`Script::canonical`] is the
//! identity on canonical files, which is what lets frozen regressions be compared
//! byte-for-byte.

use crate::harness::{HarnessError, Scenario, ScenarioOutcome};
use crate::problem::{AuthMode, Setting, MAX_K};
use crate::solvability::{characterize, ProtocolPlan, Solvability};
use crate::strategies::{BsmPuppetAdversary, GarbageAdversary};
use crate::text::{self, Document, Table, TextError, Value, Writer};
use crate::wire::{party_from_dense, PrefVec, ProtoBody, WireMsg};
use bsm_broadcast::{DolevStrong, DolevStrongMsg};
use bsm_crypto::{DigestWriter, SigChain, Signature, SigningKey};
use bsm_matching::generators::uniform_profile;
use bsm_matching::Side;
use bsm_net::{Adversary, AdversaryContext, Envelope, Outgoing, PartyId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// One step of a scripted attack.
///
/// The first behaviour-mode action in a script ([`Silence`](Self::Silence),
/// [`Lie`](Self::Lie) or [`Garbage`](Self::Garbage)) decides how the corrupted
/// parties behave *by default*; all other actions are point interventions keyed on a
/// slot. Every field is a plain integer (plus a side tag), so actions can be mutated
/// and shrunk numerically via [`numbers`](Self::numbers) /
/// [`with_numbers`](Self::with_numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptAction {
    /// Corrupted parties run the honest protocol until `from_slot`, then go silent
    /// forever. `from_slot = 0` is the classic crash-from-start fault.
    Silence {
        /// First slot in which the corrupted parties stay silent.
        from_slot: u64,
    },
    /// Corrupted parties run the honest protocol on a fake preference profile drawn
    /// from `seed` (the classical "lying about preferences" manipulation).
    Lie {
        /// Seed of the fake profile (matching [`crate::harness::AdversarySpec::Lying`]
        /// when equal to the scenario seed).
        seed: u64,
    },
    /// Corrupted parties flood honest parties with well-formed garbage messages.
    Garbage {
        /// Seed of the junk stream.
        seed: u64,
        /// Junk messages per corrupted party per reachable target per slot.
        per_slot: u64,
    },
    /// Adaptively corrupt one more party at `slot` (ignored if the budget is full or
    /// the party does not exist). Newly corrupted parties crash.
    Corrupt {
        /// Slot at which the corruption takes effect.
        slot: u64,
        /// Side of the corrupted party.
        side: Side,
        /// Index of the corrupted party within its side.
        index: u32,
    },
    /// Drop the `nth` message received by the corrupted coalition at `slot`.
    DropRecv {
        /// Slot the interception happens in.
        slot: u64,
        /// Flat index into the coalition's inboxes (party order, then arrival order).
        nth: u64,
    },
    /// Withhold the `nth` received message and feed it back to its corrupted
    /// recipient `by` slots later.
    DelayRecv {
        /// Slot the interception happens in.
        slot: u64,
        /// Flat index into the coalition's inboxes.
        nth: u64,
        /// Number of slots to hold the message (at least 1).
        by: u64,
    },
    /// Re-send a copy of the `nth` received message to every honest party reachable
    /// from its corrupted recipient (a replay attack).
    Replay {
        /// Slot the replay happens in.
        slot: u64,
        /// Flat index into the coalition's inboxes.
        nth: u64,
    },
    /// Drop the `nth` message the coalition was about to send at `slot`.
    DropSend {
        /// Slot the suppression happens in.
        slot: u64,
        /// Index into the coalition's outgoing messages this slot.
        nth: u64,
    },
    /// Tamper with the value of the `nth` outgoing Dolev–Strong payload at `slot`
    /// (and re-root its signature chain when the coalition holds the designated
    /// sender's key) — the classic equivocation attempt.
    Equivocate {
        /// Slot the tampering happens in.
        slot: u64,
        /// Index into the coalition's outgoing messages this slot.
        nth: u64,
    },
    /// Remove the newest signature from the `nth` outgoing Dolev–Strong chain.
    TruncateChain {
        /// Slot the tampering happens in.
        slot: u64,
        /// Index into the coalition's outgoing messages this slot.
        nth: u64,
    },
    /// Reverse the signature order of the `nth` outgoing Dolev–Strong chain.
    ReorderChain {
        /// Slot the tampering happens in.
        slot: u64,
        /// Index into the coalition's outgoing messages this slot.
        nth: u64,
    },
    /// Replace the newest signature of the `nth` outgoing Dolev–Strong chain with a
    /// coalition signature over an unrelated digest (a swapped signature tag).
    SwapSigTag {
        /// Slot the tampering happens in.
        slot: u64,
        /// Index into the coalition's outgoing messages this slot.
        nth: u64,
    },
}

impl ScriptAction {
    /// The serialized action kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ScriptAction::Silence { .. } => "silence",
            ScriptAction::Lie { .. } => "lie",
            ScriptAction::Garbage { .. } => "garbage",
            ScriptAction::Corrupt { .. } => "corrupt",
            ScriptAction::DropRecv { .. } => "drop-recv",
            ScriptAction::DelayRecv { .. } => "delay-recv",
            ScriptAction::Replay { .. } => "replay",
            ScriptAction::DropSend { .. } => "drop-send",
            ScriptAction::Equivocate { .. } => "equivocate",
            ScriptAction::TruncateChain { .. } => "truncate-chain",
            ScriptAction::ReorderChain { .. } => "reorder-chain",
            ScriptAction::SwapSigTag { .. } => "swap-sig-tag",
        }
    }

    /// The numeric fields of the action in canonical order (the side of a
    /// [`Corrupt`](Self::Corrupt) is not numeric and is preserved separately).
    ///
    /// Together with [`with_numbers`](Self::with_numbers) this gives mutators and the
    /// shrinker a uniform view of every action.
    pub fn numbers(&self) -> Vec<u64> {
        match *self {
            ScriptAction::Silence { from_slot } => vec![from_slot],
            ScriptAction::Lie { seed } => vec![seed],
            ScriptAction::Garbage { seed, per_slot } => vec![seed, per_slot],
            ScriptAction::Corrupt { slot, index, .. } => vec![slot, u64::from(index)],
            ScriptAction::DelayRecv { slot, nth, by } => vec![slot, nth, by],
            ScriptAction::DropRecv { slot, nth }
            | ScriptAction::Replay { slot, nth }
            | ScriptAction::DropSend { slot, nth }
            | ScriptAction::Equivocate { slot, nth }
            | ScriptAction::TruncateChain { slot, nth }
            | ScriptAction::ReorderChain { slot, nth }
            | ScriptAction::SwapSigTag { slot, nth } => vec![slot, nth],
        }
    }

    /// The same action with its numeric fields replaced positionally from `numbers`
    /// (missing positions keep their current value, so the call is total).
    pub fn with_numbers(&self, numbers: &[u64]) -> ScriptAction {
        let get = |i: usize, old: u64| numbers.get(i).copied().unwrap_or(old);
        match *self {
            ScriptAction::Silence { from_slot } => {
                ScriptAction::Silence { from_slot: get(0, from_slot) }
            }
            ScriptAction::Lie { seed } => ScriptAction::Lie { seed: get(0, seed) },
            ScriptAction::Garbage { seed, per_slot } => {
                ScriptAction::Garbage { seed: get(0, seed), per_slot: get(1, per_slot) }
            }
            ScriptAction::Corrupt { slot, side, index } => ScriptAction::Corrupt {
                slot: get(0, slot),
                side,
                index: get(1, u64::from(index)).min(u64::from(u32::MAX)) as u32,
            },
            ScriptAction::DelayRecv { slot, nth, by } => {
                ScriptAction::DelayRecv { slot: get(0, slot), nth: get(1, nth), by: get(2, by) }
            }
            ScriptAction::DropRecv { slot, nth } => {
                ScriptAction::DropRecv { slot: get(0, slot), nth: get(1, nth) }
            }
            ScriptAction::Replay { slot, nth } => {
                ScriptAction::Replay { slot: get(0, slot), nth: get(1, nth) }
            }
            ScriptAction::DropSend { slot, nth } => {
                ScriptAction::DropSend { slot: get(0, slot), nth: get(1, nth) }
            }
            ScriptAction::Equivocate { slot, nth } => {
                ScriptAction::Equivocate { slot: get(0, slot), nth: get(1, nth) }
            }
            ScriptAction::TruncateChain { slot, nth } => {
                ScriptAction::TruncateChain { slot: get(0, slot), nth: get(1, nth) }
            }
            ScriptAction::ReorderChain { slot, nth } => {
                ScriptAction::ReorderChain { slot: get(0, slot), nth: get(1, nth) }
            }
            ScriptAction::SwapSigTag { slot, nth } => {
                ScriptAction::SwapSigTag { slot: get(0, slot), nth: get(1, nth) }
            }
        }
    }
}

/// The recorded result of running a script: what a frozen regression asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether every honest party decided within the slot budget.
    pub decided: bool,
    /// Number of simulated slots.
    pub slots: u64,
    /// Rendered property violations, in detection order (empty = tolerated).
    pub violations: Vec<String>,
}

impl Verdict {
    /// The verdict of an outcome.
    pub fn of(outcome: &ScenarioOutcome) -> Self {
        Verdict {
            decided: outcome.all_honest_decided,
            slots: outcome.slots,
            violations: outcome.violations.iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// A complete, serializable adversary script.
///
/// Everything needed to reproduce a run is inside the value: setting, static
/// corruptions, seed (for the honest profile), the action list, and optionally the
/// verdict recorded when the script was frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// A short identifier (fuzzer case tag or regression file stem).
    pub name: String,
    /// Market size per side.
    pub k: usize,
    /// Communication topology.
    pub topology: Topology,
    /// Cryptographic assumption.
    pub auth: AuthMode,
    /// Left corruption budget.
    pub t_l: usize,
    /// Right corruption budget.
    pub t_r: usize,
    /// Explicit protocol plan; `None` = the plan the solvability characterization
    /// prescribes for the setting.
    pub plan: Option<ProtocolPlan>,
    /// Statically corrupted left indices.
    pub corrupt_left: Vec<u32>,
    /// Statically corrupted right indices.
    pub corrupt_right: Vec<u32>,
    /// Scenario seed (honest preference profile).
    pub seed: u64,
    /// The attack, in order.
    pub actions: Vec<ScriptAction>,
    /// The recorded verdict, if the script has been frozen.
    pub verdict: Option<Verdict>,
}

/// The largest `per_slot` a script's `garbage` action may declare, so a malformed file
/// cannot make the flooder loop without bound. The fuzzer draws `per_slot ≤ 3` and its
/// number mutation caps doubling at 1,024.
pub const MAX_GARBAGE_PER_SLOT: u64 = 4096;

/// The script format's name in errors and its table headers.
const FORMAT: &str = "script";
const HEADERS: [&str; 3] = ["[script]", "[[action]]", "[verdict]"];

/// The `plan` key's names: one two-way table.
const PLAN_NAMES: [(ProtocolPlan, &str); 5] = [
    (ProtocolPlan::DolevStrongBsm, "dolev-strong"),
    (ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left }, "committee-left"),
    (ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Right }, "committee-right"),
    (ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left }, "bipartite-left"),
    (ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Right }, "bipartite-right"),
];

/// The `side` key's names (a [`ScriptAction::Corrupt`] field).
const SIDE_NAMES: [(Side, &str); 2] = [(Side::Left, "left"), (Side::Right, "right")];

/// One action of every kind, all numbers zero: what a parsed `kind` is looked up in.
const ACTION_KINDS: [ScriptAction; 12] = [
    ScriptAction::Silence { from_slot: 0 },
    ScriptAction::Lie { seed: 0 },
    ScriptAction::Garbage { seed: 0, per_slot: 0 },
    ScriptAction::Corrupt { slot: 0, side: Side::Left, index: 0 },
    ScriptAction::DropRecv { slot: 0, nth: 0 },
    ScriptAction::DelayRecv { slot: 0, nth: 0, by: 0 },
    ScriptAction::Replay { slot: 0, nth: 0 },
    ScriptAction::DropSend { slot: 0, nth: 0 },
    ScriptAction::Equivocate { slot: 0, nth: 0 },
    ScriptAction::TruncateChain { slot: 0, nth: 0 },
    ScriptAction::ReorderChain { slot: 0, nth: 0 },
    ScriptAction::SwapSigTag { slot: 0, nth: 0 },
];

/// The serialized key of each of [`ScriptAction::numbers`], in the same order.
fn number_keys(action: &ScriptAction) -> &'static [&'static str] {
    match action {
        ScriptAction::Silence { .. } => &["from_slot"],
        ScriptAction::Lie { .. } => &["seed"],
        ScriptAction::Garbage { .. } => &["seed", "per_slot"],
        ScriptAction::Corrupt { .. } => &["slot", "index"],
        ScriptAction::DelayRecv { .. } => &["slot", "nth", "by"],
        _ => &["slot", "nth"],
    }
}

/// The name of `value` in a two-way name table.
fn name_of<T: PartialEq>(names: &[(T, &'static str)], value: T) -> &'static str {
    let entry = names.iter().find(|(v, _)| *v == value);
    entry.expect("the name tables cover every value").1
}

/// The value named `name` in a two-way name table.
fn named<T: Copy>(names: &[(T, &str)], what: &str, value: Value) -> Result<T, String> {
    let name = value.string()?;
    names
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(v, _)| *v)
        .ok_or_else(|| format!("unknown {what} {name:?}"))
}

impl Script {
    /// The canonical serialized form: `parse(canonical()) == self`, and canonical
    /// files survive a parse/render round trip byte-identically.
    pub fn canonical(&self) -> String {
        let mut w = Writer::default();
        w.header("[script]");
        w.pair("name", self.name.as_str());
        w.pair("k", self.k as u64);
        w.pair("topology", self.topology.name());
        w.pair("auth", self.auth.name());
        w.pair("t_l", self.t_l as u64);
        w.pair("t_r", self.t_r as u64);
        if let Some(plan) = self.plan {
            w.pair("plan", name_of(&PLAN_NAMES, plan));
        }
        w.pair("corrupt_left", self.corrupt_left.iter().map(|&i| u64::from(i)).collect::<Value>());
        w.pair(
            "corrupt_right",
            self.corrupt_right.iter().map(|&i| u64::from(i)).collect::<Value>(),
        );
        w.pair("seed", self.seed);
        for action in &self.actions {
            w.header("[[action]]");
            w.pair("kind", action.kind());
            for (&key, number) in number_keys(action).iter().zip(action.numbers()) {
                if let (ScriptAction::Corrupt { side, .. }, "index") = (action, key) {
                    w.pair("side", name_of(&SIDE_NAMES, *side));
                }
                w.pair(key, number);
            }
        }
        if let Some(verdict) = &self.verdict {
            w.header("[verdict]");
            w.pair("decided", verdict.decided);
            w.pair("slots", verdict.slots);
            w.pair("violations", verdict.violations.iter().map(String::as_str).collect::<Value>());
        }
        w.finish()
    }

    /// Parses the serialized form (see [`canonical`](Self::canonical)).
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`TextError`] on malformed syntax, unknown
    /// sections/keys/kinds, duplicate keys or missing required fields.
    pub fn parse(text: &str) -> Result<Script, TextError> {
        let mut doc = Document::parse(text, FORMAT, &HEADERS)?;
        doc.root.finish()?;
        let mut t = doc.table("[script]").ok_or_else(|| doc.error("missing [script] table"))?;
        let script = Script {
            name: t.require("name", Value::string)?,
            k: t.require("k", |v| v.at_most(MAX_K as u64))?,
            topology: t.require("topology", Value::parse)?,
            auth: t.require("auth", Value::parse)?,
            t_l: t.require("t_l", Value::narrow)?,
            t_r: t.require("t_r", Value::narrow)?,
            plan: t.get("plan", |v| named(&PLAN_NAMES, "plan", v))?,
            corrupt_left: t.get("corrupt_left", |v| v.list(Value::narrow))?.unwrap_or_default(),
            corrupt_right: t.get("corrupt_right", |v| v.list(Value::narrow))?.unwrap_or_default(),
            seed: t.require("seed", Value::int)?,
            actions: doc
                .tables("[[action]]")
                .into_iter()
                .map(action_from)
                .collect::<Result<_, _>>()?,
            verdict: doc.table("[verdict]").map(verdict_from).transpose()?,
        };
        t.finish()?;
        Ok(script)
    }

    /// Loads and parses a script file.
    ///
    /// # Errors
    ///
    /// Returns a [`TextError`] on I/O failure (line 0) or parse failure.
    pub fn load(path: &Path) -> Result<Script, TextError> {
        Script::parse(&text::read(path, FORMAT)?)
    }

    /// The setting this script runs in.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Setting`] for invalid parameters.
    pub fn setting(&self) -> Result<Setting, HarnessError> {
        Ok(Setting::new(self.k, self.topology, self.auth, self.t_l, self.t_r)?)
    }

    /// Builds the scenario (setting, profile, static corruptions) described by this
    /// script.
    ///
    /// # Errors
    ///
    /// Propagates setting and builder validation errors.
    pub fn scenario(&self) -> Result<Scenario, HarnessError> {
        Scenario::builder(self.setting()?)
            .seed(self.seed)
            .corrupt_left(self.corrupt_left.iter().copied())
            .corrupt_right(self.corrupt_right.iter().copied())
            .build()
    }

    /// The protocol plan to execute: the explicit override, or the plan the
    /// solvability characterization prescribes.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Unsolvable`] when no plan is forced and the setting is
    /// unsolvable.
    pub fn resolved_plan(&self) -> Result<ProtocolPlan, HarnessError> {
        if let Some(plan) = self.plan {
            return Ok(plan);
        }
        match characterize(&self.setting()?) {
            Solvability::Solvable(plan) => Ok(plan),
            Solvability::Unsolvable(imp) => Err(HarnessError::Unsolvable(imp)),
        }
    }

    /// Runs the script: builds the scenario, interprets the actions through a
    /// [`ScriptedAdversary`], and checks every bSM property on the outcome.
    ///
    /// # Errors
    ///
    /// Propagates setting, solvability and simulator errors.
    pub fn run(&self) -> Result<ScenarioOutcome, HarnessError> {
        let scenario = self.scenario()?;
        let plan = self.resolved_plan()?;
        let adversary = ScriptedAdversary::new(&scenario, plan, &self.actions);
        scenario.run_with_adversary(plan, Box::new(adversary))
    }
}

fn action_from(mut t: Table) -> Result<ScriptAction, TextError> {
    let kind = t.require("kind", Value::string)?;
    let Some(template) = ACTION_KINDS.iter().find(|action| action.kind() == kind) else {
        return Err(t.key_error("kind", format!("kind: unknown action kind {kind:?}")));
    };
    let mut numbers = Vec::new();
    for &key in number_keys(template) {
        numbers.push(match key {
            "index" => u64::from(t.require::<u32>(key, Value::narrow)?),
            "per_slot" => t.require(key, |v| v.at_most(MAX_GARBAGE_PER_SLOT))?,
            _ => t.require(key, Value::int)?,
        });
    }
    let mut action = template.with_numbers(&numbers);
    if let ScriptAction::Corrupt { side, .. } = &mut action {
        *side = t.require("side", |v| named(&SIDE_NAMES, "side", v))?;
    }
    t.finish()?;
    Ok(action)
}

fn verdict_from(mut t: Table) -> Result<Verdict, TextError> {
    let verdict = Verdict {
        decided: t.require("decided", Value::bool)?,
        slots: t.require("slots", Value::int)?,
        violations: t.get("violations", |v| v.list(Value::string))?.unwrap_or_default(),
    };
    t.finish()?;
    Ok(verdict)
}

/// The interpreter: executes a [`Script`]'s action list against the live simulation.
///
/// It is the one builder of a cell's adversary: [`Scenario::run_with_plan`] runs each
/// built-in [`crate::harness::AdversarySpec`] as the one-action script
/// [`AdversarySpec::action`](crate::harness::AdversarySpec::action). The behaviour-mode
/// actions install honest-code puppets on the true or a lying profile, or the garbage
/// flooder; the point interventions tamper with the coalition's inbound and outbound
/// traffic per slot.
pub struct ScriptedAdversary {
    k: usize,
    actions: Vec<ScriptAction>,
    puppets: BsmPuppetAdversary,
    garbage: Option<GarbageAdversary>,
    silence_from: Option<u64>,
    keys: BTreeMap<PartyId, SigningKey>,
    /// Messages withheld by `DelayRecv`, as `(due_slot, recipient, envelope)`.
    delayed: Vec<(u64, PartyId, Envelope<WireMsg>)>,
}

impl ScriptedAdversary {
    /// Builds the interpreter for `scenario`/`plan`.
    ///
    /// Puppets are constructed *eagerly* here (not lazily in the first slot) so
    /// that protocol constructors sign before the scenario snapshots the signature
    /// counter, keeping empty-script runs byte-identical to honest runs.
    pub fn new(scenario: &Scenario, plan: ProtocolPlan, actions: &[ScriptAction]) -> Self {
        enum Mode {
            Honest,
            Silence(u64),
            Lie(u64),
            Garbage(u64, u64),
        }
        let mode = actions
            .iter()
            .find_map(|action| match *action {
                ScriptAction::Silence { from_slot } => Some(Mode::Silence(from_slot)),
                ScriptAction::Lie { seed } => Some(Mode::Lie(seed)),
                ScriptAction::Garbage { seed, per_slot } => Some(Mode::Garbage(seed, per_slot)),
                _ => None,
            })
            .unwrap_or(Mode::Honest);

        let env = scenario.env();
        let k = scenario.setting().k();
        let mut puppets = BsmPuppetAdversary::new();
        let mut garbage = None;
        let mut silence_from = None;
        match mode {
            Mode::Honest => {
                for &party in scenario.corrupted() {
                    puppets.add_puppet(party, env.build_runtime(party, plan, scenario.profile()));
                }
            }
            // Silence from slot 0 is the crash fault: no puppets at all, so not even
            // constructor-time signatures are issued.
            Mode::Silence(0) => {}
            Mode::Silence(from) => {
                silence_from = Some(from);
                for &party in scenario.corrupted() {
                    puppets.add_puppet(party, env.build_runtime(party, plan, scenario.profile()));
                }
            }
            Mode::Lie(seed) => {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x11e5));
                let lying_profile = uniform_profile(k, &mut rng);
                for &party in scenario.corrupted() {
                    puppets.add_puppet(party, env.build_runtime(party, plan, &lying_profile));
                }
            }
            Mode::Garbage(seed, per_slot) => {
                garbage = Some(GarbageAdversary::new(seed, per_slot as usize));
            }
        }

        let keys =
            scenario.corrupted().iter().map(|&party| (party, env.signing_key(party))).collect();

        Self {
            k,
            actions: actions.to_vec(),
            puppets,
            garbage,
            silence_from,
            keys,
            delayed: Vec::new(),
        }
    }
}

/// Removes the `nth` envelope (flat index over party order, then arrival order)
/// from the coalition's inboxes.
fn remove_nth(
    boxes: &mut BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    nth: u64,
) -> Option<(PartyId, Envelope<WireMsg>)> {
    let mut remaining = usize::try_from(nth).ok()?;
    for (&party, inbox) in boxes.iter_mut() {
        if remaining < inbox.len() {
            return Some((party, inbox.remove(remaining)));
        }
        remaining -= inbox.len();
    }
    None
}

/// Looks up the `nth` envelope without removing it.
fn peek_nth(
    boxes: &BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    nth: u64,
) -> Option<(PartyId, &Envelope<WireMsg>)> {
    let mut remaining = usize::try_from(nth).ok()?;
    for (&party, inbox) in boxes.iter() {
        if remaining < inbox.len() {
            return Some((party, &inbox[remaining]));
        }
        remaining -= inbox.len();
    }
    None
}

/// The Dolev–Strong payload of a wire message (looking through relay wrappers),
/// together with its instance tag.
///
/// A relayed tuple is shared with the other relayers' copies of the same send, so it
/// is copied on write: tampering with one message leaves the others as they were.
fn ds_body(msg: &mut WireMsg) -> Option<(u32, &mut DolevStrongMsg<PrefVec>)> {
    let inner = match msg {
        WireMsg::Direct(inner) => inner,
        WireMsg::RelayRequest(relayed) | WireMsg::RelayDeliver { relayed, .. } => {
            if !matches!(relayed.inner.body, ProtoBody::Ds(_)) {
                return None;
            }
            &mut Arc::make_mut(relayed).inner
        }
    };
    match &mut inner.body {
        ProtoBody::Ds(ds) => Some((inner.instance, ds)),
        _ => None,
    }
}

/// Rebuilds a chain through an arbitrary `Vec<Signature>` edit.
fn mutate_chain(chain: &mut SigChain, f: impl FnOnce(&mut Vec<Signature>)) {
    let mut sigs: Vec<Signature> = chain.iter().copied().collect();
    f(&mut sigs);
    *chain = SigChain::from(sigs);
}

impl Adversary<WireMsg> for ScriptedAdversary {
    fn plan_corruptions(&mut self, ctx: &AdversaryContext<'_>) -> Vec<PartyId> {
        let slot = ctx.now.slot();
        self.actions
            .iter()
            .filter_map(|action| match *action {
                ScriptAction::Corrupt { slot: s, side, index } if s == slot => {
                    let party = PartyId { side, index };
                    // Adaptively corrupted parties have no puppet or key: they simply
                    // crash from the corruption slot onwards.
                    ctx.can_corrupt(party).then_some(party)
                }
                _ => None,
            })
            .collect()
    }

    fn act(
        &mut self,
        ctx: &AdversaryContext<'_>,
        inboxes: &mut BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    ) -> Vec<(PartyId, Outgoing<WireMsg>)> {
        let slot = ctx.now.slot();

        // Release messages whose DelayRecv hold expires this slot.
        let mut due = Vec::new();
        let mut kept = Vec::new();
        for entry in std::mem::take(&mut self.delayed) {
            if entry.0 <= slot {
                due.push(entry);
            } else {
                kept.push(entry);
            }
        }
        self.delayed = kept;

        if self.silence_from.is_some_and(|from| slot >= from) {
            return Vec::new();
        }

        // The coalition's view of this slot: the lent inboxes, plus any released
        // delayed messages.
        for (_, party, envelope) in due {
            inboxes.entry(party).or_default().push(envelope);
        }

        // Inbound pass: drop / delay / replay received messages before the puppets
        // see them. The passes need `&mut self`, so the action list is lent out of
        // `self` for them and put back at the end.
        let actions = std::mem::take(&mut self.actions);
        let mut replays: Vec<(PartyId, Outgoing<WireMsg>)> = Vec::new();
        for action in &actions {
            match *action {
                ScriptAction::DropRecv { slot: s, nth } if s == slot => {
                    remove_nth(inboxes, nth);
                }
                ScriptAction::DelayRecv { slot: s, nth, by } if s == slot => {
                    if let Some((party, envelope)) = remove_nth(inboxes, nth) {
                        // A hold past the last slot withholds the message for good.
                        self.delayed.push((slot.saturating_add(by.max(1)), party, envelope));
                    }
                }
                ScriptAction::Replay { slot: s, nth } if s == slot => {
                    if let Some((party, envelope)) = peek_nth(inboxes, nth) {
                        let payload = envelope.payload.clone();
                        for target in ctx.honest() {
                            if target != party && ctx.topology.connects(party, target) {
                                replays.push((party, Outgoing::new(target, payload.clone())));
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        let mut out = self.puppets.act(ctx, inboxes);
        if let Some(garbage) = &mut self.garbage {
            out.extend(garbage.act(ctx, inboxes));
        }
        out.extend(replays);

        // Outbound pass: suppress or tamper with what the coalition sends.
        for action in &actions {
            match *action {
                ScriptAction::DropSend { slot: s, nth } if s == slot => {
                    let idx = nth as usize;
                    if idx < out.len() {
                        out.remove(idx);
                    }
                }
                ScriptAction::Equivocate { slot: s, nth } if s == slot => {
                    if let Some((sender, outgoing)) = out.get_mut(nth as usize) {
                        let _ = sender;
                        if let Some((instance, ds)) = ds_body(&mut outgoing.payload) {
                            let mut value = ds.value.to_vec();
                            if value.len() > 1 {
                                value.rotate_left(1);
                            } else if let Some(first) = value.first_mut() {
                                *first = first.wrapping_add(1);
                            }
                            ds.value = value.into();
                            // If the coalition controls the designated sender of this
                            // instance, re-root the chain so the forged value carries a
                            // *valid* origin signature — true equivocation. Otherwise
                            // the stale chain no longer matches the value and honest
                            // verifiers must reject it.
                            if (instance as usize) < 2 * self.k {
                                let subject = party_from_dense(instance, self.k);
                                if let Some(key) = self.keys.get(&subject) {
                                    let digest = DolevStrong::digest_for(
                                        u64::from(instance),
                                        key.id(),
                                        &ds.value,
                                    );
                                    ds.chain = SigChain::single(key.sign(digest));
                                }
                            }
                        }
                    }
                }
                ScriptAction::TruncateChain { slot: s, nth } if s == slot => {
                    if let Some((_, outgoing)) = out.get_mut(nth as usize) {
                        if let Some((_, ds)) = ds_body(&mut outgoing.payload) {
                            mutate_chain(&mut ds.chain, |sigs| {
                                sigs.pop();
                            });
                        }
                    }
                }
                ScriptAction::ReorderChain { slot: s, nth } if s == slot => {
                    if let Some((_, outgoing)) = out.get_mut(nth as usize) {
                        if let Some((_, ds)) = ds_body(&mut outgoing.payload) {
                            mutate_chain(&mut ds.chain, |sigs| sigs.reverse());
                        }
                    }
                }
                ScriptAction::SwapSigTag { slot: s, nth } if s == slot => {
                    if let Some((sender, outgoing)) = out.get_mut(nth as usize) {
                        let key = self.keys.get(sender).or_else(|| self.keys.values().next());
                        if let Some(key) = key {
                            if let Some((_, ds)) = ds_body(&mut outgoing.payload) {
                                let mut writer = DigestWriter::new();
                                writer.label("fuzz-swapped-tag").u64(slot).u64(nth);
                                let forged = key.sign(writer.finish());
                                mutate_chain(&mut ds.chain, |sigs| {
                                    if let Some(last) = sigs.last_mut() {
                                        *last = forged;
                                    } else {
                                        sigs.push(forged);
                                    }
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        self.actions = actions;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::AdversarySpec;

    fn all_action_kinds() -> Vec<ScriptAction> {
        vec![
            ScriptAction::Silence { from_slot: 3 },
            ScriptAction::Lie { seed: 17 },
            ScriptAction::Garbage { seed: 5, per_slot: 2 },
            ScriptAction::Corrupt { slot: 1, side: Side::Right, index: 2 },
            ScriptAction::DropRecv { slot: 2, nth: 1 },
            ScriptAction::DelayRecv { slot: 2, nth: 0, by: 2 },
            ScriptAction::Replay { slot: 4, nth: 3 },
            ScriptAction::DropSend { slot: 0, nth: 0 },
            ScriptAction::Equivocate { slot: 1, nth: 2 },
            ScriptAction::TruncateChain { slot: 3, nth: 1 },
            ScriptAction::ReorderChain { slot: 3, nth: 0 },
            ScriptAction::SwapSigTag { slot: 5, nth: 4 },
        ]
    }

    fn sample_script() -> Script {
        Script {
            name: "sample \"quoted\" \\ name".into(),
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            plan: Some(ProtocolPlan::DolevStrongBsm),
            corrupt_left: vec![2],
            corrupt_right: vec![],
            seed: 42,
            actions: all_action_kinds(),
            verdict: Some(Verdict {
                decided: true,
                slots: 14,
                violations: vec!["party L0 never decided".into()],
            }),
        }
    }

    fn empty_script(seed: u64) -> Script {
        Script {
            name: "empty".into(),
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            plan: None,
            corrupt_left: vec![2],
            corrupt_right: vec![2],
            seed,
            actions: vec![],
            verdict: None,
        }
    }

    fn assert_same_outcome(a: &ScenarioOutcome, b: &ScenarioOutcome) {
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.corrupted, b.corrupted);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.all_honest_decided, b.all_honest_decided);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.signatures, b.signatures);
    }

    #[test]
    fn canonical_parse_roundtrip_covers_every_action_kind() {
        let script = sample_script();
        let text = script.canonical();
        let parsed = Script::parse(&text).unwrap();
        assert_eq!(parsed, script);
        // Canonical text is a fixpoint of parse∘canonical.
        assert_eq!(parsed.canonical(), text);
    }

    #[test]
    fn roundtrip_without_optionals() {
        let mut script = sample_script();
        script.plan = None;
        script.verdict = None;
        script.actions.clear();
        script.corrupt_left.clear();
        let parsed = Script::parse(&script.canonical()).unwrap();
        assert_eq!(parsed, script);
    }

    #[test]
    fn parse_tolerates_comments_and_blank_lines() {
        let script = empty_script(1);
        let mut text = String::from("# frozen by the fuzzer\n\n");
        text.push_str(&script.canonical());
        assert_eq!(Script::parse(&text).unwrap(), script);
    }

    #[test]
    fn parse_errors_are_line_numbered() {
        let cases: Vec<(&str, &str)> = vec![
            ("", "missing [script]"),
            ("x = 1\n", "outside any section"),
            ("[script]\n[script]\n", "duplicate [script]"),
            ("[bogus]\n", "unknown table"),
            ("[script]\nname = \"a\"\nname = \"b\"\n", "duplicate key"),
            ("[script]\nnot a pair\n", "expected key = value"),
            ("[script]\nname = \"a\"\nk = \"three\"\n", "k: expected integer"),
            (
                "[script]\nname = \"a\"\nk = 4294967296\n",
                "line 3: k: 4294967296 exceeds the maximum 64",
            ),
            ("[script]\nname = \"unterminated\n", "unterminated string"),
            ("[script]\nseed = [1, \"x\"]\n", "mixed array"),
            ("[script]\nseed = nope\n", "invalid value"),
        ];
        for (text, needle) in cases {
            let err = Script::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "expected {needle:?} in {err} for {text:?}");
        }
        // Unknown action kind and unknown script key are rejected too.
        let mut bad_kind = empty_script(0).canonical();
        bad_kind.push_str("\n[[action]]\nkind = \"explode\"\n");
        assert!(Script::parse(&bad_kind).unwrap_err().to_string().contains("unknown action kind"));
        let mut flood = empty_script(0).canonical();
        flood.push_str(
            "\n[[action]]\nkind = \"garbage\"\nseed = 1\nper_slot = 18446744073709551615\n",
        );
        let err = Script::parse(&flood).unwrap_err().to_string();
        assert!(err.contains("per_slot: 18446744073709551615 exceeds the maximum 4096"), "{err}");
        let mut bad_key = empty_script(0).canonical();
        bad_key.push_str("bogus = 1\n");
        assert!(Script::parse(&bad_key).unwrap_err().to_string().contains("unknown key"));
        // Errors without a line render with the `script:` prefix.
        assert!(Script::parse("").unwrap_err().to_string().starts_with("script:"));
    }

    #[test]
    fn numbers_and_with_numbers_are_inverse_views() {
        for action in all_action_kinds() {
            let numbers = action.numbers();
            assert!(!numbers.is_empty(), "{action:?}");
            // Identity replacement.
            assert_eq!(action.with_numbers(&numbers), action);
            // Zeroing every number still yields the same kind.
            let zeros = vec![0u64; numbers.len()];
            let zeroed = action.with_numbers(&zeros);
            assert_eq!(zeroed.kind(), action.kind());
            assert_eq!(zeroed.numbers(), zeros);
            // Too-short replacement keeps the missing positions.
            assert_eq!(action.with_numbers(&[]), action);
        }
    }

    #[test]
    fn lie_script_matches_builtin_lying_adversary() {
        for seed in [0u64, 3] {
            let setting =
                Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1).unwrap();
            let builtin = Scenario::builder(setting)
                .seed(seed)
                .corrupt_left([2])
                .corrupt_right([2])
                .adversary(AdversarySpec::Lying)
                .build()
                .unwrap()
                .run()
                .unwrap();
            let mut script = empty_script(seed);
            script.actions = vec![ScriptAction::Lie { seed }];
            let scripted = script.run().unwrap();
            assert_same_outcome(&builtin, &scripted);
        }
    }

    #[test]
    fn silence_from_zero_matches_builtin_crash_adversary() {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1).unwrap();
        let builtin = Scenario::builder(setting)
            .seed(5)
            .corrupt_left([2])
            .adversary(AdversarySpec::Crash)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut script = empty_script(5);
        script.corrupt_right.clear();
        script.actions = vec![ScriptAction::Silence { from_slot: 0 }];
        let scripted = script.run().unwrap();
        assert_same_outcome(&builtin, &scripted);
    }

    #[test]
    fn garbage_script_matches_builtin_garbage_adversary() {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1).unwrap();
        let builtin = Scenario::builder(setting)
            .seed(7)
            .corrupt_left([2])
            .corrupt_right([2])
            .adversary(AdversarySpec::Garbage)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut script = empty_script(7);
        script.actions = vec![ScriptAction::Garbage { seed: 7, per_slot: 2 }];
        let scripted = script.run().unwrap();
        assert_same_outcome(&builtin, &scripted);
    }

    #[test]
    fn empty_script_matches_honest_run() {
        let setting =
            Setting::new(3, Topology::FullyConnected, AuthMode::Authenticated, 1, 1).unwrap();
        let honest = Scenario::builder(setting).seed(11).build().unwrap().run().unwrap();
        let mut script = empty_script(11);
        script.corrupt_left.clear();
        script.corrupt_right.clear();
        let scripted = script.run().unwrap();
        assert_same_outcome(&honest, &scripted);
    }

    /// A `delay-recv` whose hold runs past the last slot (here past `u64::MAX`) never
    /// releases the message: the run is the run that drops it.
    #[test]
    fn a_delay_past_the_last_slot_withholds_the_message_like_a_drop() {
        let run = |action| {
            let mut script = empty_script(4);
            script.actions = vec![action];
            script.run().unwrap()
        };
        let delayed = run(ScriptAction::DelayRecv { slot: 1, nth: 0, by: u64::MAX });
        let dropped = run(ScriptAction::DropRecv { slot: 1, nth: 0 });
        assert_same_outcome(&delayed, &dropped);
    }

    #[test]
    fn corrupt_action_adaptively_corrupts_within_budget() {
        let mut script = empty_script(2);
        script.corrupt_right.clear();
        script.corrupt_left.clear();
        script.actions = vec![
            // Within budget: takes effect.
            ScriptAction::Corrupt { slot: 1, side: Side::Left, index: 0 },
            // Out of universe: silently skipped.
            ScriptAction::Corrupt { slot: 1, side: Side::Right, index: 9 },
        ];
        let outcome = script.run().unwrap();
        assert!(outcome.corrupted.contains(&PartyId::left(0)), "{:?}", outcome.corrupted);
        assert_eq!(outcome.corrupted.len(), 1);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn tampering_actions_are_tolerated_within_thresholds() {
        // A kitchen-sink script: the corrupted coalition equivocates, tampers with
        // chains, drops/delays/replays — and the protocol must still satisfy bSM.
        let mut script = empty_script(9);
        script.actions = vec![
            ScriptAction::Equivocate { slot: 1, nth: 0 },
            ScriptAction::TruncateChain { slot: 2, nth: 1 },
            ScriptAction::ReorderChain { slot: 2, nth: 0 },
            ScriptAction::SwapSigTag { slot: 3, nth: 2 },
            ScriptAction::DropRecv { slot: 1, nth: 0 },
            ScriptAction::DelayRecv { slot: 2, nth: 1, by: 2 },
            ScriptAction::Replay { slot: 3, nth: 0 },
            ScriptAction::DropSend { slot: 4, nth: 1 },
        ];
        let outcome = script.run().unwrap();
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.all_honest_decided);
        // Determinism: the same script reproduces the same outcome.
        let again = script.run().unwrap();
        assert_same_outcome(&outcome, &again);
    }

    #[test]
    fn verdict_of_and_plan_names() {
        let script = empty_script(1);
        let outcome = script.run().unwrap();
        let verdict = Verdict::of(&outcome);
        assert_eq!(verdict.decided, outcome.all_honest_decided);
        assert_eq!(verdict.slots, outcome.slots);
        assert!(verdict.violations.is_empty());
        // The two-way name tables are complete and invert each other.
        for plan in ProtocolPlan::ALL {
            assert_eq!(named(&PLAN_NAMES, "plan", name_of(&PLAN_NAMES, plan).into()), Ok(plan));
        }
        assert!(named(&PLAN_NAMES, "plan", "nonsense".into()).is_err());
        for side in Side::both() {
            assert_eq!(named(&SIDE_NAMES, "side", name_of(&SIDE_NAMES, side).into()), Ok(side));
        }
        assert!(named(&SIDE_NAMES, "side", "up".into()).is_err());
        for action in ACTION_KINDS {
            assert_eq!(number_keys(&action).len(), action.numbers().len(), "{action:?}");
        }
    }

    #[test]
    fn load_reports_io_errors_on_line_zero() {
        let err = Script::load(Path::new("/nonexistent/fuzz/script.toml")).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn tampering_with_one_relayed_copy_leaves_the_others_as_sent() {
        use crate::wire::{ProtoMsg, Relayed};
        let ds = DolevStrongMsg { value: [0, 1].into(), chain: SigChain::new() };
        let sent = ProtoMsg { instance: 0, body: ProtoBody::Ds(ds) };
        let shared = Arc::new(Relayed {
            target: PartyId::left(1),
            id: 0,
            sent_at: 0,
            inner: sent.clone(),
            signature: None,
        });
        let mut tampered =
            WireMsg::RelayDeliver { origin: PartyId::left(0), relayed: Arc::clone(&shared) };
        let (_, ds) = ds_body(&mut tampered).expect("a relayed Dolev–Strong payload");
        ds.value = [1, 0].into();
        let WireMsg::RelayDeliver { relayed, .. } = tampered else { unreachable!() };
        assert_ne!(relayed.inner, sent, "the tampered copy kept the sent payload");
        assert_eq!(shared.inner, sent, "tampering reached the other relayers' copies");
    }
}
