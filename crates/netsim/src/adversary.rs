use crate::{Envelope, Outgoing, PartyId, PartySet, Time, Topology};
use bsm_matching::Side;
use std::collections::{BTreeMap, BTreeSet};

/// The per-side corruption budget `(tL, tR)` of the adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionBudget {
    /// Maximum number of corrupted parties on side `L`.
    pub t_l: usize,
    /// Maximum number of corrupted parties on side `R`.
    pub t_r: usize,
}

impl CorruptionBudget {
    /// A budget of zero corruptions on either side (the fault-free setting).
    pub const NONE: CorruptionBudget = CorruptionBudget { t_l: 0, t_r: 0 };

    /// Creates a budget.
    pub fn new(t_l: usize, t_r: usize) -> Self {
        Self { t_l, t_r }
    }

    /// The budget for one side.
    pub fn for_side(&self, side: Side) -> usize {
        match side {
            Side::Left => self.t_l,
            Side::Right => self.t_r,
        }
    }

    /// Returns `true` if corrupting `candidate` on top of `corrupted` stays within the
    /// budget.
    pub fn allows(&self, corrupted: &BTreeSet<PartyId>, candidate: PartyId) -> bool {
        if corrupted.contains(&candidate) {
            return true;
        }
        let used = corrupted.iter().filter(|p| p.side == candidate.side).count();
        used < self.for_side(candidate.side)
    }
}

/// A read-only view of public network information offered to the adversary.
///
/// The adversary sees the topology, the corruption state, and the messages addressed to
/// corrupted parties — but never the internal state of honest processes, matching the
/// standard byzantine model with private channels.
///
/// The corrupted set is *borrowed* from the simulator: the context is rebuilt (for
/// free) every time the adversary is consulted, instead of cloning the set twice per
/// slot as the former owning design did.
#[derive(Debug, Clone)]
pub struct AdversaryContext<'a> {
    /// Current slot.
    pub now: Time,
    /// The party universe.
    pub parties: PartySet,
    /// The communication topology (also enforced on byzantine messages).
    pub topology: Topology,
    /// Parties currently controlled by the adversary.
    pub corrupted: &'a BTreeSet<PartyId>,
    /// The corruption budget.
    pub budget: CorruptionBudget,
}

impl AdversaryContext<'_> {
    /// Convenience: all parties the adversary does not control.
    pub fn honest(&self) -> Vec<PartyId> {
        self.parties.iter().filter(|p| !self.corrupted.contains(p)).collect()
    }

    /// Returns `true` if a corruption request for `candidate` would be honored this
    /// slot: the party exists in the universe and the per-side budget has room.
    ///
    /// Scripted/adaptive adversaries use this to filter their corruption plans up
    /// front instead of relying on the simulator silently ignoring over-budget
    /// requests (already-corrupted parties are allowed, as
    /// [`CorruptionBudget::allows`] is idempotent).
    pub fn can_corrupt(&self, candidate: PartyId) -> bool {
        candidate.idx() < self.parties.k() && self.budget.allows(self.corrupted, candidate)
    }
}

/// An adaptive byzantine adversary.
///
/// Each slot the simulator first asks for additional corruptions (adaptive adversaries
/// may corrupt mid-protocol; requests beyond the budget are ignored), then lends out
/// the inboxes of all corrupted parties and collects the messages the corrupted parties
/// send this slot. Messages from non-corrupted senders or over non-existent channels are
/// discarded by the simulator.
pub trait Adversary<M> {
    /// Parties to corrupt at the beginning of this slot (may be empty).
    fn plan_corruptions(&mut self, _ctx: &AdversaryContext<'_>) -> Vec<PartyId> {
        Vec::new()
    }

    /// Messages sent by corrupted parties this slot, as `(sender, outgoing)` pairs.
    ///
    /// `inboxes` maps every corrupted party to the messages delivered to it this slot
    /// (possibly none), in the order an honest process would receive them. The map is
    /// lent for the call: the adversary may read, reorder or drain it — puppets take
    /// their messages with `drain(..)` instead of cloning them — and the simulator
    /// discards whatever is left afterwards.
    fn act(
        &mut self,
        _ctx: &AdversaryContext<'_>,
        _inboxes: &mut BTreeMap<PartyId, Vec<Envelope<M>>>,
    ) -> Vec<(PartyId, Outgoing<M>)> {
        Vec::new()
    }
}

/// The adversary that does nothing: corrupted parties simply crash (send no messages).
///
/// Statically corrupting parties and attaching `PassiveAdversary` models crash faults
/// from time 0, the failure mode discussed for content delivery networks in the paper's
/// introduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveAdversary;

impl<M> Adversary<M> for PassiveAdversary {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accounting_is_per_side() {
        let budget = CorruptionBudget::new(1, 2);
        assert_eq!(budget.for_side(Side::Left), 1);
        assert_eq!(budget.for_side(Side::Right), 2);
        let mut corrupted = BTreeSet::new();
        assert!(budget.allows(&corrupted, PartyId::left(0)));
        corrupted.insert(PartyId::left(0));
        // Already-corrupted parties are always allowed (idempotent).
        assert!(budget.allows(&corrupted, PartyId::left(0)));
        // The left budget is exhausted but the right budget is not.
        assert!(!budget.allows(&corrupted, PartyId::left(1)));
        assert!(budget.allows(&corrupted, PartyId::right(0)));
        corrupted.insert(PartyId::right(0));
        corrupted.insert(PartyId::right(1));
        assert!(!budget.allows(&corrupted, PartyId::right(2)));
        assert_eq!(CorruptionBudget::NONE.for_side(Side::Left), 0);
    }

    #[test]
    fn context_honest_listing() {
        let corrupted: BTreeSet<PartyId> = [PartyId::left(0)].into_iter().collect();
        let ctx = AdversaryContext {
            now: Time::ZERO,
            parties: PartySet::new(2),
            topology: Topology::FullyConnected,
            corrupted: &corrupted,
            budget: CorruptionBudget::new(1, 0),
        };
        let honest = ctx.honest();
        assert_eq!(honest.len(), 3);
        assert!(!honest.contains(&PartyId::left(0)));
    }

    #[test]
    fn can_corrupt_checks_universe_and_budget() {
        let corrupted: BTreeSet<PartyId> = [PartyId::left(0)].into_iter().collect();
        let ctx = AdversaryContext {
            now: Time::ZERO,
            parties: PartySet::new(2),
            topology: Topology::FullyConnected,
            corrupted: &corrupted,
            budget: CorruptionBudget::new(1, 1),
        };
        // Left budget exhausted; right budget open; idempotent on already-corrupted.
        assert!(!ctx.can_corrupt(PartyId::left(1)));
        assert!(ctx.can_corrupt(PartyId::left(0)));
        assert!(ctx.can_corrupt(PartyId::right(1)));
        // Out-of-universe indices are never corruptible, whatever the budget says.
        assert!(!ctx.can_corrupt(PartyId::right(7)));
    }

    #[test]
    fn passive_adversary_never_acts() {
        let corrupted = BTreeSet::new();
        let ctx = AdversaryContext {
            now: Time::ZERO,
            parties: PartySet::new(1),
            topology: Topology::Bipartite,
            corrupted: &corrupted,
            budget: CorruptionBudget::NONE,
        };
        let mut adversary = PassiveAdversary;
        assert!(Adversary::<u32>::plan_corruptions(&mut adversary, &ctx).is_empty());
        assert!(Adversary::<u32>::act(&mut adversary, &ctx, &mut BTreeMap::new()).is_empty());
    }
}
