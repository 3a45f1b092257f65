//! The per-party runtime: a bSM protocol stacked on top of the channel-simulation relay.

use crate::problem::MatchDecision;
use crate::relay::RelayEngine;
use crate::wire::{ProtoMsg, WireMsg};
use bsm_net::{Envelope, Outgoing, PartyId, Process, RoundProtocol, Time};

/// One honest party's full protocol stack: the bSM protocol `P` over a [`RelayEngine`].
///
/// The runtime performs three jobs every slot:
///
/// 1. feed incoming wire messages through the [`RelayEngine`] (accepting payloads,
///    performing relay duty for the disconnected side),
/// 2. at every logical round boundary (`slots_per_round` slots), lend the buffered
///    payloads to the bSM protocol, whose every send goes straight through
///    [`RelayEngine::send`] onto the network's send buffer,
/// 3. expose the protocol's decision as the party's output.
pub struct PartyRuntime<P> {
    id: PartyId,
    relay: RelayEngine,
    protocol: P,
    slots_per_round: u64,
    buffer: Vec<(PartyId, ProtoMsg)>,
}

impl<P> std::fmt::Debug for PartyRuntime<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartyRuntime")
            .field("id", &self.id)
            .field("slots_per_round", &self.slots_per_round)
            .field("buffered", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl<P> PartyRuntime<P> {
    /// Builds the runtime for party `id`.
    ///
    /// `slots_per_round` is 1 when every required channel is direct and 2 when any
    /// channel is simulated by a relay (each relay hop adds one slot).
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_round == 0`.
    pub fn new(id: PartyId, relay: RelayEngine, protocol: P, slots_per_round: u64) -> Self {
        assert!(slots_per_round > 0, "a round must span at least one slot");
        Self { id, relay, protocol, slots_per_round, buffer: Vec::new() }
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
        for envelope in inbox.drain(..) {
            self.relay.handle(envelope.from, envelope.payload, now, &mut self.buffer, out);
        }
        if now.slot().is_multiple_of(self.slots_per_round) {
            let round = now.slot() / self.slots_per_round;
            let accepted = self.buffer.iter().map(|(from, msg)| (*from, msg));
            self.protocol.round(round, accepted, &mut |to, msg| self.relay.send(to, msg, now, out));
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
    use crate::relay::RelayMode;
    use crate::wire::ProtoBody;
    use bsm_net::{PartySet, Topology};

    /// A toy protocol: announce our index to one peer in round 0, decide once we have
    /// heard from anyone (or at round 3).
    struct ToyProtocol {
        me: PartyId,
        peer: PartyId,
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
        spr: u64,
    ) -> PartyRuntime<ToyProtocol> {
        let relay = RelayEngine::new(me, PartySet::new(2), topology, RelayMode::Majority, None);
        PartyRuntime::new(me, relay, ToyProtocol { me, peer, decision: None }, spr)
    }

    #[test]
    fn direct_messages_reach_the_protocol() {
        let me = PartyId::left(0);
        let peer = PartyId::right(0);
        let mut rt = runtime(me, peer, Topology::FullyConnected, 1);
        let out = rt.step(Time(0), &mut vec![]);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, WireMsg::Direct(_)));
        // Deliver a direct message; the protocol decides at the next round boundary.
        let env = Envelope {
            from: peer,
            to: me,
            sent_at: Time(0),
            deliver_at: Time(1),
            payload: WireMsg::Direct(ProtoMsg { instance: 0, body: ProtoBody::Suggest(None) }),
        };
        rt.step(Time(1), &mut vec![env]);
        assert_eq!(rt.output(), Some(Some(peer)));
        assert!(format!("{rt:?}").contains("PartyRuntime"));
    }

    #[test]
    fn relayed_sends_are_fanned_out_and_rounds_are_paced() {
        // Two left parties in a bipartite topology must relay through the right side.
        let me = PartyId::left(0);
        let peer = PartyId::left(1);
        let mut rt = runtime(me, peer, Topology::Bipartite, 2);
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

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_per_round_panics() {
        let me = PartyId::left(0);
        let _ = runtime(me, PartyId::left(1), Topology::Bipartite, 0);
    }
}
