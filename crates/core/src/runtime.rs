//! The per-party runtime: a bSM protocol stacked on top of the channel-simulation relay.

use crate::problem::MatchDecision;
use crate::relay::{RelayEngine, RelayMode};
use crate::wire::{ProtoMsg, WireMsg};
use bsm_net::{Envelope, Outgoing, PartyId, Process, RoundProtocol, Time};

/// One honest party's full protocol stack: the bSM protocol `P` over a [`RelayEngine`].
///
/// A logical round spans [`RelayMode::slots_per_round`] slots of the engine's mode, and
/// the runtime runs it one of two ways:
///
/// * **Direct channels** ([`RelayMode::Direct`], fully-connected cells): a round is one
///   slot and nothing is relayed, so, like [`bsm_net::RoundDriver`], the runtime lends
///   the slot's inbox straight to the protocol. The lent inbox yields each
///   [`WireMsg::Direct`] payload, in inbox order, attributed to its envelope sender;
///   relay requests and relayed deliveries, which a direct engine ignores, never
///   reach it.
/// * **Relayed channels** (Lemmas 6, 8 and 10): a round spans two slots. Every incoming
///   wire message goes through [`RelayEngine::handle`], which accepts payloads into the
///   round buffer and performs relay duty for the disconnected side, and at each round
///   boundary the buffer is lent to the protocol.
///
/// Either way each of the protocol's sends goes straight through [`RelayEngine::send`]
/// onto the network's send buffer, the inbox is empty after the step, and the party's
/// output is the protocol's decision.
pub struct PartyRuntime<P> {
    id: PartyId,
    relay: RelayEngine,
    protocol: P,
    /// Payloads accepted since the last round boundary (relayed channels only).
    buffer: Vec<(PartyId, ProtoMsg)>,
}

impl<P> std::fmt::Debug for PartyRuntime<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartyRuntime")
            .field("id", &self.id)
            .field("relay", &self.relay)
            .field("buffered", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl<P> PartyRuntime<P> {
    /// Builds the runtime for party `id`, its round length taken from `relay`'s mode.
    pub fn new(id: PartyId, relay: RelayEngine, protocol: P) -> Self {
        Self { id, relay, protocol, buffer: Vec::new() }
    }
}

impl<P> Process<WireMsg, MatchDecision> for PartyRuntime<P>
where
    P: RoundProtocol<Msg = ProtoMsg, Output = MatchDecision>,
{
    fn id(&self) -> PartyId {
        self.id
    }

    fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<WireMsg>>) -> Vec<Outgoing<WireMsg>> {
        let mut out = Vec::new();
        self.step_into(now, inbox, &mut out);
        out
    }

    fn step_into(
        &mut self,
        now: Time,
        inbox: &mut Vec<Envelope<WireMsg>>,
        out: &mut Vec<Outgoing<WireMsg>>,
    ) {
        let (relay, protocol) = (&mut self.relay, &mut self.protocol);
        if let RelayMode::Direct = relay.mode() {
            let lent = inbox.iter().filter_map(|envelope| match &envelope.payload {
                WireMsg::Direct(msg) => Some((envelope.from, msg)),
                WireMsg::RelayRequest(_) | WireMsg::RelayDeliver { .. } => None,
            });
            protocol.round(now.slot(), lent, &mut |to, msg| relay.send(to, msg, now, out));
            inbox.clear();
            return;
        }
        for envelope in inbox.drain(..) {
            relay.handle(envelope.from, envelope.payload, now, &mut self.buffer, out);
        }
        let slots_per_round = relay.mode().slots_per_round();
        if now.slot().is_multiple_of(slots_per_round) {
            let accepted = self.buffer.iter().map(|(from, msg)| (*from, msg));
            let round = now.slot() / slots_per_round;
            protocol.round(round, accepted, &mut |to, msg| relay.send(to, msg, now, out));
            // Cleared, not taken: the buffer keeps its capacity for the next round.
            self.buffer.clear();
        }
    }

    fn output(&self) -> Option<MatchDecision> {
        self.protocol.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ProtoBody, Relayed};
    use bsm_net::{PartySet, Topology};
    use std::sync::Arc;

    /// A toy protocol: announce our index to one peer in round 0, record every message
    /// it is lent, and decide once it has heard from anyone (or at round 3).
    struct ToyProtocol {
        me: PartyId,
        peer: PartyId,
        received: Vec<(PartyId, ProtoMsg)>,
        decision: Option<MatchDecision>,
    }

    impl RoundProtocol for ToyProtocol {
        type Msg = ProtoMsg;
        type Output = MatchDecision;

        fn round<'m>(
            &mut self,
            round: u64,
            mut inbox: impl Iterator<Item = (PartyId, &'m ProtoMsg)> + Clone,
            out: &mut impl FnMut(PartyId, ProtoMsg),
        ) {
            self.received.extend(inbox.clone().map(|(from, msg)| (from, msg.clone())));
            if let Some((from, _)) = inbox.next() {
                self.decision = Some(Some(from));
            } else if round >= 3 {
                self.decision = Some(None);
            }
            if round == 0 {
                let index = u64::from(self.me.index);
                out(self.peer, ProtoMsg { instance: 0, body: ProtoBody::Suggest(Some(index)) });
            }
        }

        fn output(&self) -> Option<MatchDecision> {
            self.decision
        }
    }

    fn runtime(
        me: PartyId,
        peer: PartyId,
        topology: Topology,
        mode: RelayMode,
    ) -> PartyRuntime<ToyProtocol> {
        let relay = RelayEngine::new(me, PartySet::new(2), topology, mode, None);
        PartyRuntime::new(me, relay, ToyProtocol { me, peer, received: Vec::new(), decision: None })
    }

    /// The harness's fully-connected configuration: direct channels, one-slot rounds.
    #[test]
    fn direct_messages_reach_the_protocol() {
        let me = PartyId::left(0);
        let peer = PartyId::right(0);
        let mut rt = runtime(me, peer, Topology::FullyConnected, RelayMode::Direct);
        let out = rt.step(Time(0), &mut vec![]);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, WireMsg::Direct(_)));
        // Slot 1 is round 1. Of a relay request, a relayed delivery and a direct
        // message, only the direct payload reaches the protocol, attributed to its
        // envelope sender, and nothing is relayed.
        let envelope = |from, payload| Envelope {
            from,
            to: me,
            sent_at: Time(0),
            deliver_at: Time(1),
            payload,
        };
        let suggest = |tag| ProtoMsg { instance: 0, body: ProtoBody::Suggest(tag) };
        let relayed = |target| {
            Arc::new(Relayed {
                target,
                id: 0,
                sent_at: 0,
                inner: suggest(Some(9)),
                signature: None,
            })
        };
        let mut inbox = vec![
            envelope(PartyId::left(1), WireMsg::RelayRequest(relayed(PartyId::right(1)))),
            envelope(
                PartyId::right(1),
                WireMsg::RelayDeliver { origin: PartyId::left(1), relayed: relayed(me) },
            ),
            envelope(peer, WireMsg::Direct(suggest(None))),
        ];
        let out = rt.step(Time(1), &mut inbox);
        assert!(out.is_empty(), "a direct party relayed: {out:?}");
        assert!(inbox.is_empty(), "the runtime leaves the inbox empty");
        assert_eq!(rt.protocol.received, vec![(peer, suggest(None))]);
        assert_eq!(rt.output(), Some(Some(peer)));
        assert!(format!("{rt:?}").contains("PartyRuntime"));
    }

    #[test]
    fn relayed_sends_are_fanned_out_and_rounds_are_paced() {
        // Two left parties in a bipartite topology must relay through the right side.
        let me = PartyId::left(0);
        let peer = PartyId::left(1);
        let mut rt = runtime(me, peer, Topology::Bipartite, RelayMode::Majority);
        let out = rt.step(Time(0), &mut vec![]);
        // k = 2 relayers on the right side.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| matches!(o.payload, WireMsg::RelayRequest { .. })));
        // Mid-round slots do not advance the protocol.
        let out = rt.step(Time(1), &mut vec![]);
        assert!(out.is_empty());
        assert_eq!(rt.output(), None);
        // Round 3 (slot 6) with no messages: the protocol gives up and decides None.
        for slot in 2..=6 {
            rt.step(Time(slot), &mut vec![]);
        }
        assert_eq!(rt.output(), Some(None));
    }
}
