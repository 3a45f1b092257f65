use crate::committee::Committee;
use crate::pi_ba::{BaMsg, OmissionTolerantBa};
use crate::value::Value;
use bsm_net::{PartyId, RoundProtocol};

/// Messages of the omission-tolerant byzantine broadcast protocol `ΠBB`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbMsg<V> {
    /// Sender → committee: the value being broadcast.
    Send(V),
    /// Inner `ΠBA` traffic on the received values.
    Ba(BaMsg<V>),
}

impl<V: bsm_crypto::Digestible> bsm_crypto::Digestible for BbMsg<V> {
    fn feed(&self, writer: &mut bsm_crypto::DigestWriter) {
        writer.label("bb-msg");
        match self {
            BbMsg::Send(v) => {
                writer.u64(0);
                v.feed(writer);
            }
            BbMsg::Ba(inner) => {
                writer.u64(1);
                inner.feed(writer);
            }
        }
    }
}

/// The byzantine broadcast protocol `ΠBB` of Theorem 9: the sender distributes its value
/// in the first round, then the committee runs [`OmissionTolerantBa`] on whatever was
/// received (a default value standing in for a silent sender).
///
/// Without omissions and with `t < k/3` corruptions this achieves byzantine broadcast;
/// with omissions it still terminates and achieves weak agreement (outputs are `Some`
/// and equal, or `None`).
#[derive(Debug)]
pub struct OmissionTolerantBb<V> {
    committee: Committee,
    me: PartyId,
    sender: PartyId,
    default: V,
    input: Option<V>,
    received: Option<V>,
    ba: Option<OmissionTolerantBa<V>>,
    output: Option<Option<V>>,
}

impl<V: Value> OmissionTolerantBb<V> {
    /// Creates a `ΠBB` instance for committee member `me`.
    ///
    /// `input` is the value to broadcast and is only used when `me == sender`; other
    /// parties pass `None`. `default` is the preference-list placeholder adopted when
    /// the sender never delivers a value (Lemma 1 / `ΠBB` line 1).
    ///
    /// # Panics
    ///
    /// Panics if `me` or `sender` is not a committee member, or if `me == sender` but
    /// `input` is `None`.
    pub fn new(
        committee: Committee,
        me: PartyId,
        sender: PartyId,
        input: Option<V>,
        default: V,
    ) -> Self {
        assert!(committee.contains(me), "ΠBB is run by committee members");
        assert!(committee.contains(sender), "the ΠBB sender must be a committee member");
        if me == sender {
            assert!(input.is_some(), "the sender must hold an input value");
        }
        Self { committee, me, sender, default, input, received: None, ba: None, output: None }
    }

    /// Number of round invocations until the output is available.
    pub fn total_rounds(committee: &Committee) -> u64 {
        1 + OmissionTolerantBa::<V>::total_rounds(committee)
    }
}

impl<V: Value> RoundProtocol for OmissionTolerantBb<V> {
    type Msg = BbMsg<V>;
    type Output = Option<V>;

    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m BbMsg<V>)> + Clone,
        out: &mut impl FnMut(PartyId, BbMsg<V>),
    ) {
        if self.output.is_some() {
            return;
        }
        // Record the sender's value whenever it arrives (only the designated sender's
        // first value counts).
        for (from, msg) in inbox.clone() {
            if let BbMsg::Send(v) = msg {
                if from == self.sender && self.received.is_none() {
                    self.received = Some(v.clone());
                }
            }
        }

        if round == 0 {
            if self.me == self.sender {
                let value = self.input.clone().expect("sender holds an input");
                self.received = Some(value.clone());
                for peer in self.committee.others(self.me) {
                    out(peer, BbMsg::Send(value.clone()));
                }
            }
            return;
        }

        let ba_round = round - 1;
        if ba_round == 0 {
            let input = self.received.clone().unwrap_or_else(|| self.default.clone());
            self.ba = Some(OmissionTolerantBa::new(self.committee.clone(), self.me, input));
        }
        if let Some(ba) = self.ba.as_mut() {
            let ba_inbox = inbox.filter_map(|(from, msg)| match msg {
                BbMsg::Ba(inner) => Some((from, inner)),
                BbMsg::Send(_) => None,
            });
            ba.round(ba_round, ba_inbox, &mut |to, inner| out(to, BbMsg::Ba(inner)));
            if let Some(decision) = ba.output() {
                self.output = Some(decision);
            }
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

    fn run(
        committee: &Committee,
        sender: PartyId,
        value: u32,
        mut drop: impl FnMut(PartyId, PartyId) -> bool,
    ) -> Vec<Option<u32>> {
        let members = committee.members().to_vec();
        let mut instances: Vec<OmissionTolerantBb<u32>> = members
            .iter()
            .map(|&m| {
                OmissionTolerantBb::new(
                    committee.clone(),
                    m,
                    sender,
                    if m == sender { Some(value) } else { None },
                    u32::MAX,
                )
            })
            .collect();
        let total = OmissionTolerantBb::<u32>::total_rounds(committee);
        let mut pending: Vec<Vec<(PartyId, BbMsg<u32>)>> = vec![Vec::new(); members.len()];
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
        instances.iter().map(|i| i.output().expect("ΠBB terminates")).collect()
    }

    #[test]
    fn honest_sender_value_is_adopted_by_all() {
        let c = committee(4, 1);
        let outputs = run(&c, PartyId::left(2), 77, |_, _| false);
        assert!(outputs.iter().all(|o| *o == Some(77)), "{outputs:?}");
    }

    #[test]
    fn silent_sender_results_in_agreed_default() {
        let c = committee(4, 1);
        // Drop everything the sender says: everyone runs BA on the default.
        let sender = PartyId::left(0);
        let outputs = run(&c, sender, 77, move |from, _| from == sender);
        // The sender itself knows its value, but agreement forces a single outcome; with
        // three honest defaults vs one value the committee agrees on the default.
        let non_sender: Vec<Option<u32>> = outputs[1..].to_vec();
        assert!(non_sender.iter().all(|o| *o == Some(u32::MAX)), "{outputs:?}");
        assert_eq!(outputs[0], Some(u32::MAX));
    }

    #[test]
    fn weak_agreement_when_one_member_is_cut_off() {
        let c = committee(4, 1);
        let isolated = PartyId::left(3);
        let outputs = run(&c, PartyId::left(0), 5, move |_, to| to == isolated);
        let decided: Vec<u32> = outputs.iter().flatten().copied().collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(outputs[3], None);
        assert!(decided.iter().all(|&v| v == 5));
    }

    #[test]
    fn single_member_committee_outputs_its_own_value() {
        let c = committee(1, 0);
        let outputs = run(&c, PartyId::left(0), 9, |_, _| false);
        assert_eq!(outputs, vec![Some(9)]);
    }

    #[test]
    fn total_rounds_formula() {
        let c = committee(4, 1);
        assert_eq!(
            OmissionTolerantBb::<u32>::total_rounds(&c),
            OmissionTolerantBa::<u32>::total_rounds(&c) + 1
        );
    }

    #[test]
    #[should_panic(expected = "sender must be a committee member")]
    fn sender_outside_committee_panics() {
        let c = committee(2, 0);
        let _ = OmissionTolerantBb::new(c, PartyId::left(0), PartyId::right(0), None, 0u32);
    }

    #[test]
    #[should_panic(expected = "must hold an input")]
    fn sender_without_input_panics() {
        let c = committee(2, 0);
        let _ = OmissionTolerantBb::new(c, PartyId::left(0), PartyId::left(0), None, 0u32);
    }
}
