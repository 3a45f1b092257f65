//! `ΠbSM` — the bipartite authenticated protocol of Lemma 9.
//!
//! Used when one side (the *committee side*, w.l.o.g. `L`) satisfies `t < k/3` while the
//! other side may be completely byzantine. The committee gathers every preference list —
//! its own members' through `ΠBB`, the other side's through direct announcements fed
//! into `ΠBA` — over channels that are only guaranteed up to omissions (Lemma 10), runs
//! `AG-S` locally, informs the other side of their suggested matches, and decides its own
//! matches. Parties on the other side adopt the most common suggestion they receive;
//! since more than `k − t > t` committee members are honest and agree, the plurality is
//! the correct match whenever the other side has any honest party at all.

use crate::problem::MatchDecision;
use crate::wire::{default_pref_vec, pref_to_vec, vec_to_pref, PrefVec, ProtoBody, ProtoMsg};
use bsm_broadcast::{Committee, OmissionTolerantBa, OmissionTolerantBb};
use bsm_matching::gale_shapley::gale_shapley_left;
use bsm_matching::{PreferenceList, PreferenceProfile, Side};
use bsm_net::{PartyId, RoundProtocol};
use std::collections::BTreeMap;

/// The `ΠbSM` protocol state for one party (committee member or other side).
pub struct BipartiteAuthBsm {
    me: PartyId,
    k: usize,
    committee_side: Side,
    committee: Committee,
    my_pref: PreferenceList,
    /// `ΠBB` instances, keyed by the committee-side index of the broadcasting member.
    bb: BTreeMap<u32, OmissionTolerantBb<PrefVec>>,
    /// `ΠBA` instances, keyed by the other-side index whose announced list is agreed on.
    ba: BTreeMap<u32, OmissionTolerantBa<PrefVec>>,
    /// Announcements received from other-side parties (first one per sender counts).
    announced: BTreeMap<u32, PrefVec>,
    /// Suggestions received from committee members (other-side parties only).
    suggestions: BTreeMap<PartyId, Option<u64>>,
    decision: Option<MatchDecision>,
}

impl std::fmt::Debug for BipartiteAuthBsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BipartiteAuthBsm")
            .field("me", &self.me)
            .field("committee_side", &self.committee_side)
            .field("decided", &self.decision.is_some())
            .finish_non_exhaustive()
    }
}

impl BipartiteAuthBsm {
    /// Creates the protocol for party `me`.
    ///
    /// `committee_side` is the side satisfying `t < k/3`; `t_committee` is its corruption
    /// bound. Lemma 9's guarantees only hold when `3 · t_committee < k`; the constructor
    /// still accepts larger bounds so the impossibility experiments can run the protocol
    /// beyond its threshold and observe the resulting property violations.
    ///
    /// # Panics
    ///
    /// Panics if `my_pref.len() != k` or if `t_committee >= k`.
    pub fn new(
        me: PartyId,
        k: usize,
        committee_side: Side,
        t_committee: usize,
        my_pref: PreferenceList,
    ) -> Self {
        assert_eq!(my_pref.len(), k, "preference list must rank all k opposite-side parties");
        let members: Vec<PartyId> =
            (0..k as u32).map(|i| PartyId { side: committee_side, index: i }).collect();
        let committee = Committee::new(members, t_committee);
        Self {
            me,
            k,
            committee_side,
            committee,
            my_pref,
            bb: BTreeMap::new(),
            ba: BTreeMap::new(),
            announced: BTreeMap::new(),
            suggestions: BTreeMap::new(),
            decision: None,
        }
    }

    fn is_committee_member(&self) -> bool {
        self.me.side == self.committee_side
    }

    fn other_side(&self) -> Side {
        self.committee_side.opposite()
    }

    /// The round at which committee members have every sub-protocol output available.
    pub fn committee_decision_round(committee: &Committee) -> u64 {
        let t_bb = OmissionTolerantBb::<PrefVec>::total_rounds(committee);
        let t_ba = OmissionTolerantBa::<PrefVec>::total_rounds(committee);
        t_bb.max(t_ba + 1)
    }

    /// The round at which other-side parties tally suggestions and decide.
    pub fn other_decision_round(committee: &Committee) -> u64 {
        Self::committee_decision_round(committee) + 1
    }

    /// Total number of logical rounds needed by every party.
    pub fn total_rounds(committee: &Committee) -> u64 {
        Self::other_decision_round(committee) + 1
    }

    fn committee_round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m ProtoMsg)> + Clone,
        out: &mut impl FnMut(PartyId, ProtoMsg),
    ) {
        // Record announcements from the other side (any round; first per sender).
        for (from, msg) in inbox.clone() {
            if from.side == self.other_side() {
                if let ProtoBody::PrefAnnounce(list) = &msg.body {
                    self.announced.entry(from.index).or_insert_with(|| list.clone());
                }
            }
        }

        if round == 0 {
            // Start one ΠBB per committee member.
            for &member in self.committee.members() {
                let input = if member == self.me { Some(pref_to_vec(&self.my_pref)) } else { None };
                let bb = OmissionTolerantBb::new(
                    self.committee.clone(),
                    self.me,
                    member,
                    input,
                    default_pref_vec(self.k),
                );
                self.bb.insert(member.index, bb);
            }
        }
        if round == 1 {
            // ΠBA on every other-side party's announced list (default when silent).
            for index in 0..self.k as u32 {
                let input =
                    self.announced.get(&index).cloned().unwrap_or_else(|| default_pref_vec(self.k));
                let ba = OmissionTolerantBa::new(self.committee.clone(), self.me, input);
                self.ba.insert(index, ba);
            }
        }

        // Step ΠBB instances at `round`, ΠBA instances at `round - 1`.
        for (&instance, bb) in self.bb.iter_mut() {
            let typed = inbox.clone().filter_map(move |(from, msg)| match &msg.body {
                ProtoBody::Bb(m) if msg.instance == instance => Some((from, m)),
                _ => None,
            });
            bb.round(round, typed, &mut |to, m| {
                out(to, ProtoMsg { instance, body: ProtoBody::Bb(m) });
            });
        }
        if round >= 1 {
            for (&instance, ba) in self.ba.iter_mut() {
                let typed = inbox.clone().filter_map(move |(from, msg)| match &msg.body {
                    ProtoBody::Ba(m) if msg.instance == instance => Some((from, m)),
                    _ => None,
                });
                ba.round(round - 1, typed, &mut |to, m| {
                    out(to, ProtoMsg { instance, body: ProtoBody::Ba(m) });
                });
            }
        }

        if round == Self::committee_decision_round(&self.committee) && self.decision.is_none() {
            self.decide_and_suggest(out);
        }
    }

    /// Collects the sub-protocol outputs, runs `AG-S`, decides, and sends the
    /// suggestions for the other side (steps 5–10 of the committee-side code).
    fn decide_and_suggest(&mut self, out: &mut impl FnMut(PartyId, ProtoMsg)) {
        let mut committee_lists: Vec<PreferenceList> = Vec::with_capacity(self.k);
        let mut other_lists: Vec<PreferenceList> = Vec::with_capacity(self.k);
        for index in 0..self.k as u32 {
            let bb_output = self.bb.get(&index).and_then(|bb| bb.output()).flatten();
            let ba_output = self.ba.get(&index).and_then(|ba| ba.output()).flatten();
            let (Some(bb_value), Some(ba_value)) = (bb_output, ba_output) else {
                // Some agreement returned ⊥ (only possible when the entire other side is
                // byzantine and caused omissions): decide to match nobody.
                self.decision = Some(None);
                return;
            };
            committee_lists.push(
                vec_to_pref(self.k, &bb_value).unwrap_or_else(|| PreferenceList::identity(self.k)),
            );
            other_lists.push(
                vec_to_pref(self.k, &ba_value).unwrap_or_else(|| PreferenceList::identity(self.k)),
            );
        }
        let (left, right) = match self.committee_side {
            Side::Left => (committee_lists, other_lists),
            Side::Right => (other_lists, committee_lists),
        };
        let profile = PreferenceProfile::new(left, right).expect("reconstructed lists are valid");
        let matching = gale_shapley_left(&profile);

        let my_partner = match self.me.side {
            Side::Left => matching.right_of(self.me.idx()).map(|j| PartyId::right(j as u32)),
            Side::Right => matching.left_of(self.me.idx()).map(|i| PartyId::left(i as u32)),
        };
        self.decision = Some(my_partner);

        // Tell every other-side party whom to match with according to M.
        for index in 0..self.k as u32 {
            let other_party = PartyId { side: self.other_side(), index };
            let suggested = match self.other_side() {
                Side::Right => matching.left_of(index as usize),
                Side::Left => matching.right_of(index as usize),
            };
            out(
                other_party,
                ProtoMsg { instance: 0, body: ProtoBody::Suggest(suggested.map(|i| i as u64)) },
            );
        }
    }

    fn other_round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m ProtoMsg)>,
        out: &mut impl FnMut(PartyId, ProtoMsg),
    ) {
        // Record suggestions from committee members whenever they arrive.
        for (from, msg) in inbox {
            if from.side == self.committee_side {
                if let ProtoBody::Suggest(partner) = &msg.body {
                    self.suggestions.entry(from).or_insert(*partner);
                }
            }
        }
        if round == 0 {
            let list = pref_to_vec(&self.my_pref);
            for &member in self.committee.members() {
                out(member, ProtoMsg { instance: 0, body: ProtoBody::PrefAnnounce(list.clone()) });
            }
        }
        if round >= Self::other_decision_round(&self.committee) && self.decision.is_none() {
            // Most common suggestion, ties broken deterministically.
            let mut counts: BTreeMap<Option<u64>, usize> = BTreeMap::new();
            for value in self.suggestions.values() {
                *counts.entry(*value).or_insert(0) += 1;
            }
            let winner = counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(value, _)| value)
                .unwrap_or(None);
            let decision = winner.and_then(|idx| {
                u32::try_from(idx)
                    .ok()
                    .filter(|&i| (i as usize) < self.k)
                    .map(|i| PartyId { side: self.committee_side, index: i })
            });
            self.decision = Some(decision);
        }
    }
}

impl RoundProtocol for BipartiteAuthBsm {
    type Msg = ProtoMsg;
    type Output = MatchDecision;

    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m ProtoMsg)> + Clone,
        out: &mut impl FnMut(PartyId, ProtoMsg),
    ) {
        if self.is_committee_member() {
            self.committee_round(round, inbox, out);
        } else {
            self.other_round(round, inbox, out);
        }
    }

    fn output(&self) -> Option<MatchDecision> {
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_matching::generators::uniform_profile;
    use bsm_net::PartySet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Lock-step fault-free run with all channels behaving ideally (the network-level
    /// behaviour, including relays and byzantine parties, is exercised by the harness
    /// integration tests).
    fn run_lockstep(
        k: usize,
        t_committee: usize,
        committee_side: Side,
        profile: &PreferenceProfile,
    ) -> BTreeMap<PartyId, MatchDecision> {
        let parties: Vec<PartyId> = PartySet::new(k).iter().collect();
        let mut protocols: BTreeMap<PartyId, BipartiteAuthBsm> = parties
            .iter()
            .map(|&p| {
                let list = match p.side {
                    Side::Left => profile.left(p.idx()).clone(),
                    Side::Right => profile.right(p.idx()).clone(),
                };
                (p, BipartiteAuthBsm::new(p, k, committee_side, t_committee, list))
            })
            .collect();
        let committee = protocols.values().next().unwrap().committee.clone();
        let total = BipartiteAuthBsm::total_rounds(&committee) + 2;
        let mut pending: BTreeMap<PartyId, Vec<(PartyId, ProtoMsg)>> = BTreeMap::new();
        for round in 0..total {
            let inboxes = std::mem::take(&mut pending);
            for &p in &parties {
                let inbox = inboxes.get(&p).into_iter().flatten().map(|(from, msg)| (*from, msg));
                protocols.get_mut(&p).unwrap().round(round, inbox, &mut |to, msg| {
                    pending.entry(to).or_default().push((p, msg));
                });
            }
        }
        protocols.iter().map(|(&p, proto)| (p, proto.output().unwrap_or(None))).collect()
    }

    #[test]
    fn fault_free_run_matches_gale_shapley() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 2, 4] {
            let t = (k.max(1) - 1) / 3;
            let profile = uniform_profile(k, &mut rng);
            let decisions = run_lockstep(k, t, Side::Left, &profile);
            let expected = gale_shapley_left(&profile);
            for (party, decision) in decisions {
                let expected_partner = match party.side {
                    Side::Left => expected.right_of(party.idx()).map(|j| PartyId::right(j as u32)),
                    Side::Right => expected.left_of(party.idx()).map(|i| PartyId::left(i as u32)),
                };
                assert_eq!(decision, expected_partner, "party {party} k={k}");
            }
        }
    }

    #[test]
    fn right_side_committee_is_supported() {
        let mut rng = StdRng::seed_from_u64(9);
        let k = 4usize;
        let profile = uniform_profile(k, &mut rng);
        let decisions = run_lockstep(k, 1, Side::Right, &profile);
        let expected = gale_shapley_left(&profile);
        for (party, decision) in decisions {
            let expected_partner = match party.side {
                Side::Left => expected.right_of(party.idx()).map(|j| PartyId::right(j as u32)),
                Side::Right => expected.left_of(party.idx()).map(|i| PartyId::left(i as u32)),
            };
            assert_eq!(decision, expected_partner, "party {party}");
        }
    }

    #[test]
    fn round_boundaries_are_consistent() {
        let committee = Committee::new((0..4).map(PartyId::left).collect(), 1);
        let dec = BipartiteAuthBsm::committee_decision_round(&committee);
        assert!(dec >= OmissionTolerantBb::<PrefVec>::total_rounds(&committee));
        assert_eq!(BipartiteAuthBsm::other_decision_round(&committee), dec + 1);
        assert_eq!(BipartiteAuthBsm::total_rounds(&committee), dec + 2);
    }

    #[test]
    fn relaxed_committee_bound_is_accepted_for_attack_experiments() {
        // Lemma 9 requires t < k/3, but the lower-bound experiments deliberately run the
        // protocol beyond that threshold; the constructor therefore only rejects
        // outright nonsensical bounds (t >= k, checked by `Committee::new`).
        let protocol =
            BipartiteAuthBsm::new(PartyId::left(0), 3, Side::Left, 1, PreferenceList::identity(3));
        assert!(protocol.output().is_none());
    }

    #[test]
    #[should_panic(expected = "must rank all")]
    fn wrong_list_length_panics() {
        let _ =
            BipartiteAuthBsm::new(PartyId::left(0), 4, Side::Left, 1, PreferenceList::identity(3));
    }
}
