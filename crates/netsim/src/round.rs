use crate::{Envelope, Outgoing, PartyId, Process, Time};

/// A protocol expressed in lock-step logical rounds rather than raw slots.
///
/// Most of the paper's building blocks (`ΠKing`, `ΠBA`, `ΠBB`, Dolev–Strong) are round
/// protocols: in round `r` a party sends messages that are guaranteed to be delivered
/// before round `r + 1` starts. [`RoundDriver`] adapts a `RoundProtocol` to the
/// slot-level [`Process`] interface, with a configurable number of slots per round to
/// account for relayed channels (2 slots per hop, Lemmas 6/8/10).
///
/// The round contract is what lets protocols compose without copying messages:
///
/// * the inbox is **borrowed**, and may be walked more than once (hence `Clone`);
/// * every send is one call of `out`, made when the protocol sends, so `out` sees the
///   sends in the protocol's order and must keep that order;
/// * a composite hands each sub-protocol a filtered view of its own inbox
///   (`inbox.clone().filter_map(…)`) and a closure that wraps each of the
///   sub-protocol's sends in the composite's message type before passing it on to
///   its own `out`.
pub trait RoundProtocol {
    /// Wire message type. It owns its data (`'static`), so the inbox can lend it for
    /// any lifetime.
    type Msg: 'static;
    /// Output (decision) type.
    type Output;

    /// Executes logical round `round` (starting from 0), given all messages received
    /// since the previous round, in delivery order, and sends this round's messages
    /// through `out`.
    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m Self::Msg)> + Clone,
        out: &mut impl FnMut(PartyId, Self::Msg),
    );

    /// The decision, once reached.
    fn output(&self) -> Option<Self::Output>;
}

/// Adapts a [`RoundProtocol`] to the slot-driven [`Process`] interface.
///
/// With `slots_per_round = s`, logical round `r` starts at slot `r · s`; messages
/// received during any slot of round `r` are buffered and lent to the protocol at the
/// start of round `r + 1`, and each message the protocol sends is pushed onto the
/// simulator's send buffer as it is sent.
#[derive(Debug)]
pub struct RoundDriver<P: RoundProtocol> {
    id: PartyId,
    protocol: P,
    slots_per_round: u64,
    buffer: Vec<(PartyId, P::Msg)>,
}

impl<P: RoundProtocol> RoundDriver<P> {
    /// Wraps `protocol` for party `id` with one slot per round (direct channels).
    pub fn new(id: PartyId, protocol: P) -> Self {
        Self::with_slots_per_round(id, protocol, 1)
    }

    /// Wraps `protocol` with a custom round length in slots (e.g. 2 for relayed
    /// channels).
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_round == 0`.
    pub fn with_slots_per_round(id: PartyId, protocol: P, slots_per_round: u64) -> Self {
        assert!(slots_per_round > 0, "a round must span at least one slot");
        Self { id, protocol, slots_per_round, buffer: Vec::new() }
    }
}

impl<P: RoundProtocol> Process<P::Msg, P::Output> for RoundDriver<P> {
    fn id(&self) -> PartyId {
        self.id
    }

    fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<P::Msg>>) -> Vec<Outgoing<P::Msg>> {
        let mut out = Vec::new();
        self.step_into(now, inbox, &mut out);
        out
    }

    fn step_into(
        &mut self,
        now: Time,
        inbox: &mut Vec<Envelope<P::Msg>>,
        out: &mut Vec<Outgoing<P::Msg>>,
    ) {
        self.buffer.extend(inbox.drain(..).map(|env| (env.from, env.payload)));
        if now.slot().is_multiple_of(self.slots_per_round) {
            let round = now.slot() / self.slots_per_round;
            let inbox = self.buffer.iter().map(|(from, msg)| (*from, msg));
            self.protocol.round(round, inbox, &mut |to, msg| out.push(Outgoing::new(to, msg)));
            // Cleared, not taken: the buffer keeps its capacity for the next round.
            self.buffer.clear();
        }
    }

    fn output(&self) -> Option<P::Output> {
        self.protocol.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy round protocol: in round 0 send our index to everyone we know about, then
    /// output the sum of everything received in round 1.
    struct SumProtocol {
        me: PartyId,
        peers: Vec<PartyId>,
        output: Option<u64>,
    }

    impl RoundProtocol for SumProtocol {
        type Msg = u64;
        type Output = u64;

        fn round<'m>(
            &mut self,
            round: u64,
            inbox: impl Iterator<Item = (PartyId, &'m u64)> + Clone,
            out: &mut impl FnMut(PartyId, u64),
        ) {
            match round {
                0 => self.peers.iter().for_each(|&to| out(to, u64::from(self.me.index))),
                1 => self.output = Some(inbox.map(|(_, v)| v).sum()),
                _ => {}
            }
        }

        fn output(&self) -> Option<u64> {
            self.output
        }
    }

    #[test]
    fn driver_buffers_between_round_boundaries() {
        let me = PartyId::left(0);
        let peer = PartyId::right(0);
        let mut driver = RoundDriver::with_slots_per_round(
            me,
            SumProtocol { me, peers: vec![peer], output: None },
            2,
        );

        // Slot 0: round 0 → send.
        let out = driver.step(Time(0), &mut vec![]);
        assert_eq!(out.len(), 1);
        // Slot 1: mid-round, messages received are buffered, nothing sent.
        let env =
            Envelope { from: peer, to: me, sent_at: Time(0), deliver_at: Time(1), payload: 5 };
        assert!(driver.step(Time(1), &mut vec![env]).is_empty());
        assert_eq!(Process::<u64, u64>::output(&driver), None);
        // Slot 2: round 1 → consume the buffered message and decide.
        let env2 =
            Envelope { from: peer, to: me, sent_at: Time(1), deliver_at: Time(2), payload: 7 };
        assert!(driver.step(Time(2), &mut vec![env2]).is_empty());
        assert_eq!(Process::<u64, u64>::output(&driver), Some(12));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_per_round_panics() {
        let me = PartyId::left(0);
        let _ = RoundDriver::with_slots_per_round(
            me,
            SumProtocol { me, peers: vec![], output: None },
            0,
        );
    }
}
