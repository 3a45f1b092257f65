//! Reusable byzantine strategies for the experiment harness.
//!
//! The impossibility-specific adversaries live in [`crate::attacks`]; this module
//! provides the generic behaviours the script interpreter
//! ([`crate::script::ScriptedAdversary`]) installs to stress the constructive protocols
//! *within* their thresholds: lying about preferences by running the honest code on
//! altered inputs ([`PuppetAdversary`]), and protocol-level noise by
//! [`GarbageAdversary`]. Crashing needs neither: it is the script action
//! [`crate::script::ScriptAction::Silence`].

use crate::problem::MatchDecision;
use crate::wire::{ProtoBody, ProtoMsg, WireMsg};
use bsm_net::{Adversary, AdversaryContext, Envelope, Outgoing, PartyId, Process};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// An adversary that runs an arbitrary [`Process`] ("puppet") for every corrupted party.
///
/// The puppets receive exactly the messages addressed to their party and their outgoing
/// messages are emitted over that party's real channels, so a puppet running the honest
/// protocol code on a *different input* models the classical "lying about preferences"
/// manipulation (Roth 1982) inside the byzantine framework, and puppets running modified
/// code model arbitrary deviations.
pub struct PuppetAdversary<M, O> {
    puppets: BTreeMap<PartyId, Box<dyn Process<M, O> + Send>>,
    /// One puppet's sends, reused across puppets and slots.
    sends: Vec<Outgoing<M>>,
}

impl<M, O> PuppetAdversary<M, O> {
    /// Creates an adversary with no puppets (equivalent to crashing all corrupted
    /// parties).
    pub fn new() -> Self {
        Self { puppets: BTreeMap::new(), sends: Vec::new() }
    }

    /// Adds a puppet for `party`.
    ///
    /// # Panics
    ///
    /// Panics if the puppet's id does not match `party`.
    pub fn add_puppet(&mut self, party: PartyId, puppet: Box<dyn Process<M, O> + Send>) {
        assert_eq!(puppet.id(), party, "puppet id must match the corrupted party it impersonates");
        self.puppets.insert(party, puppet);
    }

    /// Number of hosted puppets.
    pub fn len(&self) -> usize {
        self.puppets.len()
    }

    /// Returns `true` if no puppets are hosted.
    pub fn is_empty(&self) -> bool {
        self.puppets.is_empty()
    }
}

impl<M, O> Default for PuppetAdversary<M, O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, O> Adversary<M> for PuppetAdversary<M, O> {
    fn act(
        &mut self,
        ctx: &AdversaryContext<'_>,
        inboxes: &mut BTreeMap<PartyId, Vec<Envelope<M>>>,
    ) -> Vec<(PartyId, Outgoing<M>)> {
        let mut out = Vec::new();
        let mut none = Vec::new();
        for (&party, puppet) in self.puppets.iter_mut() {
            if !ctx.corrupted.contains(&party) {
                continue;
            }
            // The puppet steps on the lent inbox itself: its messages are moved, not
            // cloned.
            let inbox = inboxes.get_mut(&party).unwrap_or(&mut none);
            puppet.step_into(ctx.now, inbox, &mut self.sends);
            out.extend(self.sends.drain(..).map(|outgoing| (party, outgoing)));
        }
        out
    }
}

/// An adversary whose corrupted parties flood every reachable honest party with
/// syntactically valid but semantically meaningless protocol messages.
///
/// Honest protocols must ignore such traffic: wrong instances, out-of-range indices and
/// non-permutation preference payloads all fall back to the documented defaults.
pub struct GarbageAdversary {
    rng: StdRng,
    per_slot: usize,
}

impl GarbageAdversary {
    /// Creates a garbage adversary emitting `per_slot` junk messages per corrupted party
    /// per slot.
    pub fn new(seed: u64, per_slot: usize) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), per_slot }
    }

    fn junk(&mut self, k: usize) -> ProtoMsg {
        let instance = self.rng.random_range(0..(2 * k as u32 + 3));
        let body = match self.rng.random_range(0..4u8) {
            0 => ProtoBody::Suggest(Some(self.rng.random_range(0..(3 * k as u64 + 1)))),
            1 => ProtoBody::Suggest(None),
            2 => ProtoBody::PrefAnnounce(vec![0; k].into()),
            _ => ProtoBody::PrefAnnounce((0..(k as u64 + 2)).rev().collect()),
        };
        ProtoMsg { instance, body }
    }
}

impl Adversary<WireMsg> for GarbageAdversary {
    fn act(
        &mut self,
        ctx: &AdversaryContext<'_>,
        _inboxes: &mut BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    ) -> Vec<(PartyId, Outgoing<WireMsg>)> {
        let k = ctx.parties.k();
        let mut out = Vec::new();
        let corrupted: Vec<PartyId> = ctx.corrupted.iter().copied().collect();
        for byzantine in corrupted {
            for target in ctx.honest() {
                if !ctx.topology.connects(byzantine, target) {
                    continue;
                }
                for _ in 0..self.per_slot {
                    let msg = self.junk(k);
                    out.push((byzantine, Outgoing::new(target, WireMsg::Direct(msg))));
                }
            }
        }
        out
    }
}

/// Convenience alias for puppet adversaries over the bSM wire format.
pub type BsmPuppetAdversary = PuppetAdversary<WireMsg, MatchDecision>;

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_net::{CorruptionBudget, PartySet, SilentProcess, Time, Topology};

    #[test]
    fn puppet_adversary_steps_only_corrupted_puppets() {
        struct Echo {
            id: PartyId,
            target: PartyId,
        }
        impl Process<u32, u32> for Echo {
            fn id(&self) -> PartyId {
                self.id
            }
            fn step(&mut self, _now: Time, inbox: &mut Vec<Envelope<u32>>) -> Vec<Outgoing<u32>> {
                let count = inbox.len() as u32;
                vec![Outgoing::new(self.target, count)]
            }
            fn output(&self) -> Option<u32> {
                None
            }
        }

        let mut adversary: PuppetAdversary<u32, u32> = PuppetAdversary::new();
        assert!(adversary.is_empty());
        adversary.add_puppet(
            PartyId::left(0),
            Box::new(Echo { id: PartyId::left(0), target: PartyId::right(0) }),
        );
        adversary.add_puppet(
            PartyId::left(1),
            Box::new(Echo { id: PartyId::left(1), target: PartyId::right(0) }),
        );
        assert_eq!(adversary.len(), 2);

        let corrupted: std::collections::BTreeSet<PartyId> =
            [PartyId::left(0)].into_iter().collect();
        let ctx = AdversaryContext {
            now: Time(3),
            parties: PartySet::new(2),
            topology: Topology::FullyConnected,
            corrupted: &corrupted,
            budget: CorruptionBudget::new(1, 0),
        };
        let sends = adversary.act(&ctx, &mut BTreeMap::new());
        // Only the actually-corrupted puppet acts.
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, PartyId::left(0));
    }

    #[test]
    #[should_panic(expected = "puppet id must match")]
    fn mismatched_puppet_id_panics() {
        let mut adversary: PuppetAdversary<u32, u32> = PuppetAdversary::new();
        adversary.add_puppet(PartyId::left(0), Box::new(SilentProcess::new(PartyId::left(1))));
    }

    #[test]
    fn garbage_adversary_respects_topology() {
        let mut adversary = GarbageAdversary::new(1, 2);
        let corrupted: std::collections::BTreeSet<PartyId> =
            [PartyId::left(0)].into_iter().collect();
        let ctx = AdversaryContext {
            now: Time(0),
            parties: PartySet::new(2),
            topology: Topology::Bipartite,
            corrupted: &corrupted,
            budget: CorruptionBudget::new(1, 0),
        };
        let sends = adversary.act(&ctx, &mut BTreeMap::new());
        // Bipartite: the corrupted left party can only reach the two right parties.
        assert_eq!(sends.len(), 2 * 2);
        assert!(sends.iter().all(|(_, o)| o.to.is_right()));
        // Determinism under the same seed.
        let mut again = GarbageAdversary::new(1, 2);
        let sends_again = again.act(&ctx, &mut BTreeMap::new());
        assert_eq!(sends.len(), sends_again.len());
    }
}
