use crate::{Envelope, Outgoing, PartyId, Process, Time};

/// A protocol expressed in lock-step logical rounds rather than raw slots.
///
/// Most of the paper's building blocks (`ΠKing`, `ΠBA`, `ΠBB`, Dolev–Strong) are round
/// protocols: in round `r` a party sends messages that are guaranteed to be delivered
/// before round `r + 1` starts. [`RoundDriver`] runs a `RoundProtocol` on the
/// slot-level [`Process`] interface, one slot per round; core's `PartyRuntime` runs
/// the longer rounds of relayed channels (Lemmas 6/8/10).
///
/// The round contract is what lets protocols compose without copying messages:
///
/// * the inbox is **borrowed**, and may be walked more than once (hence `Clone`);
/// * every send is one call of `out`, made when the protocol sends, so `out` sees the
///   sends in the protocol's order and must keep that order;
/// * a composite hands each sub-protocol a borrowed view of its own messages (a
///   filtered view of the inbox, `inbox.clone().filter_map(…)`, or a slice of
///   references it routed them into in one pass) and a closure that wraps each of the
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

/// Adapts a [`RoundProtocol`] to the slot-driven [`Process`] interface, one slot per
/// round (direct channels).
///
/// Logical round `r` runs at slot `r`, on the inbox of that slot (the messages sent
/// in round `r − 1`), which the driver lends to the protocol; each message the
/// protocol sends is pushed onto the simulator's send buffer as it is sent.
#[derive(Debug)]
pub struct RoundDriver<P> {
    id: PartyId,
    protocol: P,
}

impl<P: RoundProtocol> RoundDriver<P> {
    /// Wraps `protocol` for party `id`.
    pub fn new(id: PartyId, protocol: P) -> Self {
        Self { id, protocol }
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
        let lent = inbox.iter().map(|env| (env.from, &env.payload));
        self.protocol.round(now.slot(), lent, &mut |to, msg| out.push(Outgoing::new(to, msg)));
        inbox.clear();
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
    fn driver_lends_each_slots_inbox_to_that_round() {
        let me = PartyId::left(0);
        let peer = PartyId::right(0);
        let mut driver = RoundDriver::new(me, SumProtocol { me, peers: vec![peer], output: None });

        // Slot 0 is round 0: send.
        let out = driver.step(Time(0), &mut vec![]);
        assert_eq!(out.len(), 1);
        assert_eq!(Process::<u64, u64>::output(&driver), None);
        // Slot 1 is round 1: the messages delivered at slot 1 are its inbox.
        let env = |payload| Envelope {
            from: peer,
            to: me,
            sent_at: Time(0),
            deliver_at: Time(1),
            payload,
        };
        let mut inbox = vec![env(5), env(7)];
        assert!(driver.step(Time(1), &mut inbox).is_empty());
        assert!(inbox.is_empty(), "the driver leaves the inbox empty");
        assert_eq!(Process::<u64, u64>::output(&driver), Some(12));
    }
}
