use crate::committee::Committee;
use crate::phase_king::{KingMsg, PhaseKing};
use crate::value::Value;
use bsm_net::{PartyId, RoundProtocol};
use std::collections::BTreeMap;

/// Messages of the omission-tolerant byzantine agreement protocol `ΠBA`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaMsg<V> {
    /// Inner phase-king traffic.
    King(KingMsg<V>),
    /// The confirmation round: "phase king gave me this value".
    Final(V),
}

impl<V: bsm_crypto::Digestible> bsm_crypto::Digestible for BaMsg<V> {
    fn feed(&self, writer: &mut bsm_crypto::DigestWriter) {
        writer.label("ba-msg");
        match self {
            BaMsg::King(inner) => {
                writer.u64(0);
                inner.feed(writer);
            }
            BaMsg::Final(v) => {
                writer.u64(1);
                v.feed(writer);
            }
        }
    }
}

/// The byzantine agreement protocol `ΠBA` of Theorem 8: phase king followed by one
/// confirmation round.
///
/// * In a fault-free synchronous committee with `t < k/3` corruptions it achieves full
///   byzantine agreement (termination, validity, agreement) and outputs `Some(v)`.
/// * If the network suffers omissions, it still terminates within the same number of
///   rounds and achieves *weak agreement*: any two honest parties that output
///   `Some(v)` / `Some(v')` have `v == v'`; parties without enough confirmations output
///   `None` (the paper's `⊥`).
#[derive(Debug)]
pub struct OmissionTolerantBa<V> {
    committee: Committee,
    me: PartyId,
    king: PhaseKing<V>,
    y: Option<V>,
    finals: BTreeMap<PartyId, V>,
    output: Option<Option<V>>,
}

impl<V: Value> OmissionTolerantBa<V> {
    /// Creates a `ΠBA` instance for committee member `me` with input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a committee member.
    pub fn new(committee: Committee, me: PartyId, input: V) -> Self {
        let king = PhaseKing::new(committee.clone(), me, input);
        Self { committee, me, king, y: None, finals: BTreeMap::new(), output: None }
    }

    /// Number of round invocations until the output is available:
    /// `PhaseKing::total_rounds + 1`.
    pub fn total_rounds(committee: &Committee) -> u64 {
        PhaseKing::<V>::total_rounds(committee) + 1
    }
}

impl<V: Value> RoundProtocol for OmissionTolerantBa<V> {
    type Msg = BaMsg<V>;
    type Output = Option<V>;

    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m BaMsg<V>)> + Clone,
        out: &mut impl FnMut(PartyId, BaMsg<V>),
    ) {
        if self.output.is_some() {
            return;
        }
        // Record confirmations whenever they arrive (they are only sent in the second to
        // last round, but a byzantine party may send them early; extras are harmless
        // because each sender is counted once).
        for (from, msg) in inbox.clone() {
            if let BaMsg::Final(v) = msg {
                if self.committee.contains(from) {
                    self.finals.entry(from).or_insert_with(|| v.clone());
                }
            }
        }

        let king_rounds = PhaseKing::<V>::total_rounds(&self.committee);
        if round < king_rounds {
            let king_inbox = inbox.filter_map(|(from, msg)| match msg {
                BaMsg::King(km) => Some((from, km)),
                BaMsg::Final(_) => None,
            });
            self.king.round(round, king_inbox, &mut |to, km| out(to, BaMsg::King(km)));
            if round == king_rounds - 1 {
                let y = self.king.output().expect("phase king decided at its final round");
                self.y = Some(y.clone());
                for peer in self.committee.others(self.me) {
                    out(peer, BaMsg::Final(y.clone()));
                }
            }
            return;
        }

        if round == king_rounds {
            let mut confirmations = self.finals.clone();
            if let Some(y) = &self.y {
                confirmations.insert(self.me, y.clone());
            }
            let mut counts: BTreeMap<&V, usize> = BTreeMap::new();
            for v in confirmations.values() {
                *counts.entry(v).or_insert(0) += 1;
            }
            let quorum = self.committee.quorum();
            let decided =
                counts.into_iter().find(|(_, count)| *count >= quorum).map(|(v, _)| v.clone());
            self.output = Some(decided);
        }
    }

    fn output(&self) -> Option<Option<V>> {
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

    /// Drives a set of `ΠBA` instances in lock step; `drop` decides which messages are
    /// omitted (sender, receiver) -> bool.
    fn run(
        committee: &Committee,
        inputs: Vec<u32>,
        mut drop: impl FnMut(PartyId, PartyId) -> bool,
    ) -> Vec<Option<u32>> {
        let members = committee.members().to_vec();
        let mut instances: Vec<OmissionTolerantBa<u32>> = members
            .iter()
            .zip(inputs)
            .map(|(&m, input)| OmissionTolerantBa::new(committee.clone(), m, input))
            .collect();
        let total = OmissionTolerantBa::<u32>::total_rounds(committee);
        let mut pending: Vec<Vec<(PartyId, BaMsg<u32>)>> = vec![Vec::new(); members.len()];
        for round in 0..total {
            let inboxes = std::mem::replace(&mut pending, vec![Vec::new(); members.len()]);
            for (idx, instance) in instances.iter_mut().enumerate() {
                for msg in run_round(instance, round, &inboxes[idx]) {
                    if drop(members[idx], msg.to) {
                        continue;
                    }
                    let to_idx = members.iter().position(|&m| m == msg.to).unwrap();
                    pending[to_idx].push((members[idx], msg.payload));
                }
            }
        }
        instances.iter().map(|i| i.output().expect("ΠBA terminates after total_rounds")).collect()
    }

    #[test]
    fn agreement_and_validity_without_omissions() {
        let c = committee(4, 1);
        let outputs = run(&c, vec![3, 3, 3, 3], |_, _| false);
        assert!(outputs.iter().all(|o| *o == Some(3)));

        let outputs = run(&c, vec![1, 2, 1, 2], |_, _| false);
        let first = outputs[0];
        assert!(first.is_some());
        assert!(outputs.iter().all(|o| *o == first));
    }

    #[test]
    fn weak_agreement_under_omissions() {
        let c = committee(4, 1);
        // Drop every message towards L3 (it is isolated): it must output ⊥ or agree.
        let outputs = run(&c, vec![5, 5, 5, 5], |_, to| to == PartyId::left(3));
        let decided: Vec<u32> = outputs.iter().flatten().copied().collect();
        // All non-⊥ outputs agree.
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        // The isolated party outputs ⊥.
        assert_eq!(outputs[3], None);
        // Non-isolated parties still reach the value 5 (validity among themselves).
        assert!(decided.iter().all(|&v| v == 5));
        assert!(!decided.is_empty());
    }

    #[test]
    fn heavy_omissions_never_produce_conflicting_outputs() {
        let c = committee(4, 1);
        // Drop a deterministic pseudo-random half of all messages.
        let mut counter = 0u64;
        let outputs = run(&c, vec![1, 2, 3, 4], move |_, _| {
            counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (counter >> 33).is_multiple_of(2)
        });
        let decided: Vec<u32> = outputs.iter().flatten().copied().collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "outputs: {outputs:?}");
    }

    #[test]
    fn total_rounds_formula() {
        assert_eq!(
            OmissionTolerantBa::<u32>::total_rounds(&committee(4, 1)),
            PhaseKing::<u32>::total_rounds(&committee(4, 1)) + 1
        );
    }

    #[test]
    fn accessors_and_idempotent_rounds() {
        let c = committee(1, 0);
        let mut ba = OmissionTolerantBa::new(c.clone(), PartyId::left(0), 9u32);
        for round in 0..OmissionTolerantBa::<u32>::total_rounds(&c) {
            run_round(&mut ba, round, &[]);
        }
        assert_eq!(ba.output(), Some(Some(9)));
        assert!(run_round(&mut ba, 99, &[]).is_empty());
    }
}
