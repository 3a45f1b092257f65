use crate::committee::Committee;
use crate::value::Value;
use bsm_net::{PartyId, RoundProtocol};
use std::collections::BTreeMap;

/// The kind of a phase-king message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KingMsgKind<V> {
    /// Round 1 of a phase: "my current value is `v`".
    Value(V),
    /// Round 2 of a phase: "I have seen a quorum for `v`, I propose it".
    Propose(V),
    /// Round 3 of a phase: the phase king's tie-breaking value.
    King(V),
}

/// A phase-king protocol message, tagged with the phase it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KingMsg<V> {
    /// The phase this message belongs to (0-indexed).
    pub phase: u64,
    /// The message kind and value.
    pub kind: KingMsgKind<V>,
}

impl<V: bsm_crypto::Digestible> bsm_crypto::Digestible for KingMsg<V> {
    fn feed(&self, writer: &mut bsm_crypto::DigestWriter) {
        writer.label("king-msg").u64(self.phase);
        match &self.kind {
            KingMsgKind::Value(v) => {
                writer.u64(0);
                v.feed(writer);
            }
            KingMsgKind::Propose(v) => {
                writer.u64(1);
                v.feed(writer);
            }
            KingMsgKind::King(v) => {
                writer.u64(2);
                v.feed(writer);
            }
        }
    }
}

/// The Berman–Garay–Perry phase-king byzantine agreement protocol `ΠKing`
/// (Appendix A.6, Theorem 11), for a committee of `k` parties of which `t < k/3` may be
/// byzantine.
///
/// The protocol runs `t + 1` phases of three rounds each and always terminates after
/// `3(t + 1)` rounds with some value — even when the network suffers omissions, in which
/// case agreement may fail but termination still holds (Remark 1). Under a fault-free
/// synchronous network with at most `t < k/3` corruptions it achieves byzantine
/// agreement (validity + agreement).
///
/// The committee member at canonical position `p` acts as the king of phase `p`.
#[derive(Debug)]
pub struct PhaseKing<V> {
    committee: Committee,
    me: PartyId,
    v: V,
    /// Proposal this party issued in the current phase (counted as its own vote).
    my_propose: Option<V>,
    /// Highest per-value proposal count seen in the previous phase's proposal round.
    last_max_propose: usize,
    output: Option<V>,
}

impl<V: Value> PhaseKing<V> {
    /// Creates a phase-king instance for committee member `me` with input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a committee member.
    pub fn new(committee: Committee, me: PartyId, input: V) -> Self {
        assert!(committee.contains(me), "phase king can only be run by committee members");
        Self { committee, me, v: input, my_propose: None, last_max_propose: 0, output: None }
    }

    /// Number of round invocations until the output is available: `3(t+1) + 1`.
    ///
    /// The final invocation performs the last king-value adoption and fixes the output;
    /// it sends no messages.
    pub fn total_rounds(committee: &Committee) -> u64 {
        3 * (committee.t() as u64 + 1) + 1
    }

    /// Collects at most one message of the expected kind per distinct committee sender.
    fn tally<'m>(
        &self,
        inbox: impl Iterator<Item = (PartyId, &'m KingMsg<V>)>,
        phase: u64,
        expect_value: bool,
    ) -> BTreeMap<PartyId, &'m V> {
        let mut per_sender: BTreeMap<PartyId, &V> = BTreeMap::new();
        for (from, msg) in inbox {
            if msg.phase != phase || !self.committee.contains(from) {
                continue;
            }
            let value = match (&msg.kind, expect_value) {
                (KingMsgKind::Value(v), true) => v,
                (KingMsgKind::Propose(v), false) => v,
                _ => continue,
            };
            per_sender.entry(from).or_insert(value);
        }
        per_sender
    }

    fn counts<'a>(votes: impl Iterator<Item = &'a V>) -> BTreeMap<&'a V, usize>
    where
        V: 'a,
    {
        let mut counts = BTreeMap::new();
        for v in votes {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
    }

    /// Adopts the king's value if the previous phase's proposal round was inconclusive.
    fn maybe_adopt_king<'m>(
        &mut self,
        finished_phase: u64,
        inbox: impl Iterator<Item = (PartyId, &'m KingMsg<V>)>,
    ) {
        if self.last_max_propose >= self.committee.quorum() {
            return;
        }
        let king = self.committee.king_of_phase(finished_phase);
        if king == self.me {
            // The king's own value is already `self.v`.
            return;
        }
        for (from, msg) in inbox {
            if from == king && msg.phase == finished_phase {
                if let KingMsgKind::King(value) = &msg.kind {
                    self.v = value.clone();
                    return;
                }
            }
        }
    }
}

impl<V: Value> RoundProtocol for PhaseKing<V> {
    type Msg = KingMsg<V>;
    type Output = V;

    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m KingMsg<V>)> + Clone,
        out: &mut impl FnMut(PartyId, KingMsg<V>),
    ) {
        let phases = self.committee.t() as u64 + 1;
        let total = 3 * phases;
        if round > total || self.output.is_some() {
            return;
        }
        if round == total {
            // Final adoption of the last phase's king value, then decide.
            self.maybe_adopt_king(phases - 1, inbox);
            self.output = Some(self.v.clone());
            return;
        }

        let phase = round / 3;
        match round % 3 {
            0 => {
                if phase > 0 {
                    self.maybe_adopt_king(phase - 1, inbox);
                }
                self.my_propose = None;
                self.last_max_propose = 0;
                for peer in self.committee.others(self.me) {
                    out(peer, KingMsg { phase, kind: KingMsgKind::Value(self.v.clone()) });
                }
            }
            1 => {
                let mut votes = self.tally(inbox, phase, true);
                votes.insert(self.me, &self.v);
                let counts = Self::counts(votes.values().copied());
                let quorum = self.committee.quorum();
                if let Some((&value, _)) = counts.iter().find(|(_, &count)| count >= quorum) {
                    let value = value.clone();
                    self.my_propose = Some(value.clone());
                    for peer in self.committee.others(self.me) {
                        out(peer, KingMsg { phase, kind: KingMsgKind::Propose(value.clone()) });
                    }
                }
            }
            2 => {
                let mut proposals = self.tally(inbox, phase, false);
                if let Some(mine) = &self.my_propose {
                    proposals.insert(self.me, mine);
                }
                let counts = Self::counts(proposals.values().copied());
                self.last_max_propose = counts.values().copied().max().unwrap_or(0);
                // At most one value can exceed `t` distinct proposers (see module tests);
                // adopt it if it exists.
                if let Some((&value, _)) =
                    counts.iter().find(|(_, &count)| count > self.committee.t())
                {
                    self.v = value.clone();
                }
                if self.committee.king_of_phase(phase) == self.me {
                    for peer in self.committee.others(self.me) {
                        out(peer, KingMsg { phase, kind: KingMsgKind::King(self.v.clone()) });
                    }
                }
            }
            _ => unreachable!("sub-round is a residue mod 3"),
        }
    }

    fn output(&self) -> Option<V> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_round;

    fn committee(k: u32, t: usize) -> Committee {
        Committee::new((0..k).map(PartyId::left).collect(), t)
    }

    /// Runs phase king for all members without any faults and returns the outputs.
    fn run_fault_free(k: u32, t: usize, inputs: Vec<u32>) -> Vec<u32> {
        let committee = committee(k, t);
        let mut instances: Vec<PhaseKing<u32>> = committee
            .members()
            .iter()
            .zip(inputs)
            .map(|(&m, input)| PhaseKing::new(committee.clone(), m, input))
            .collect();
        let total = PhaseKing::<u32>::total_rounds(&committee);
        let mut pending: Vec<Vec<(PartyId, KingMsg<u32>)>> = vec![Vec::new(); k as usize];
        for round in 0..total {
            let inboxes = std::mem::replace(&mut pending, vec![Vec::new(); k as usize]);
            for (idx, instance) in instances.iter_mut().enumerate() {
                let out = run_round(instance, round, &inboxes[idx]);
                for msg in out {
                    let to_idx = committee
                        .members()
                        .iter()
                        .position(|&m| m == msg.to)
                        .expect("messages stay inside the committee");
                    pending[to_idx].push((committee.members()[idx], msg.payload));
                }
            }
        }
        instances.iter().map(|i| i.output().expect("terminates after total_rounds")).collect()
    }

    #[test]
    fn validity_with_identical_inputs() {
        let outputs = run_fault_free(4, 1, vec![7, 7, 7, 7]);
        assert_eq!(outputs, vec![7, 7, 7, 7]);
    }

    #[test]
    fn agreement_with_mixed_inputs() {
        let outputs = run_fault_free(4, 1, vec![1, 2, 2, 1]);
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "outputs: {outputs:?}");
    }

    #[test]
    fn single_party_committee() {
        let outputs = run_fault_free(1, 0, vec![42]);
        assert_eq!(outputs, vec![42]);
    }

    #[test]
    fn no_corruption_committee_of_three() {
        let outputs = run_fault_free(3, 0, vec![5, 9, 9]);
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn total_rounds_formula() {
        assert_eq!(PhaseKing::<u32>::total_rounds(&committee(4, 1)), 7);
        assert_eq!(PhaseKing::<u32>::total_rounds(&committee(7, 2)), 10);
        assert_eq!(PhaseKing::<u32>::total_rounds(&committee(1, 0)), 4);
    }

    #[test]
    fn rounds_beyond_total_are_ignored() {
        let c = committee(1, 0);
        let mut instance = PhaseKing::new(c.clone(), PartyId::left(0), 3u32);
        for round in 0..PhaseKing::<u32>::total_rounds(&c) {
            run_round(&mut instance, round, &[]);
        }
        assert_eq!(instance.output(), Some(3));
        assert!(run_round(&mut instance, 100, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "committee members")]
    fn non_member_cannot_run() {
        let _ = PhaseKing::new(committee(3, 0), PartyId::right(0), 1u32);
    }

    #[test]
    fn messages_from_non_members_and_wrong_phases_are_ignored() {
        let c = committee(4, 1);
        let mut instance = PhaseKing::new(c.clone(), PartyId::left(0), 1u32);
        // Round 0: sends its value.
        let out = run_round(&mut instance, 0, &[]);
        assert_eq!(out.len(), 3);
        // Round 1: a non-member and a wrong-phase message try to sway the quorum
        // towards 9; they are ignored, so no proposal for 9 can form.
        let bogus = vec![
            (PartyId::right(0), KingMsg { phase: 0, kind: KingMsgKind::Value(9) }),
            (PartyId::left(1), KingMsg { phase: 5, kind: KingMsgKind::Value(9) }),
            (PartyId::left(2), KingMsg { phase: 0, kind: KingMsgKind::Value(9) }),
        ];
        let out = run_round(&mut instance, 1, &bogus);
        // Quorum is 3: only one valid vote for 9 (from L2) plus own vote for 1 → no proposal.
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_votes_from_one_sender_count_once() {
        let c = committee(4, 1);
        let mut instance = PhaseKing::new(c.clone(), PartyId::left(0), 1u32);
        run_round(&mut instance, 0, &[]);
        // L1 spams three votes for 9; still only one vote, quorum (3) not reached for 9.
        let spam = vec![
            (PartyId::left(1), KingMsg { phase: 0, kind: KingMsgKind::Value(9) }),
            (PartyId::left(1), KingMsg { phase: 0, kind: KingMsgKind::Value(9) }),
            (PartyId::left(1), KingMsg { phase: 0, kind: KingMsgKind::Value(9) }),
        ];
        assert!(run_round(&mut instance, 1, &spam).is_empty());
    }
}
