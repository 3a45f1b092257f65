use crate::{Envelope, Outgoing, PartyId, Process, Time};

/// A protocol expressed in lock-step logical rounds rather than raw slots.
///
/// Most of the paper's building blocks (`ΠKing`, `ΠBA`, `ΠBB`, Dolev–Strong) are round
/// protocols: in round `r` a party sends messages that are guaranteed to be delivered
/// before round `r + 1` starts. [`RoundDriver`] adapts a `RoundProtocol` to the
/// slot-level [`Process`] interface, with a configurable number of slots per round to
/// account for relayed channels (2 slots per hop, Lemmas 6/8/10).
pub trait RoundProtocol {
    /// Wire message type.
    type Msg;
    /// Output (decision) type.
    type Output;

    /// Executes logical round `round` (starting from 0), given all messages received
    /// since the previous round, and returns the messages to send this round.
    fn round(&mut self, round: u64, inbox: &[(PartyId, Self::Msg)]) -> Vec<Outgoing<Self::Msg>>;

    /// The decision, once reached.
    fn output(&self) -> Option<Self::Output>;
}

/// Adapts a [`RoundProtocol`] to the slot-driven [`Process`] interface.
///
/// With `slots_per_round = s`, logical round `r` starts at slot `r · s`; messages
/// received during any slot of round `r` are handed to the protocol at the start of
/// round `r + 1`.
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

    /// The wrapped protocol (e.g. to inspect statistics after the run).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The configured round length in slots.
    pub fn slots_per_round(&self) -> u64 {
        self.slots_per_round
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
            out.extend(self.protocol.round(round, &self.buffer));
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

        fn round(&mut self, round: u64, inbox: &[(PartyId, u64)]) -> Vec<Outgoing<u64>> {
            match round {
                0 => self
                    .peers
                    .iter()
                    .map(|&to| Outgoing::new(to, u64::from(self.me.index)))
                    .collect(),
                1 => {
                    self.output = Some(inbox.iter().map(|(_, v)| v).sum());
                    Vec::new()
                }
                _ => Vec::new(),
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
        assert_eq!(driver.slots_per_round(), 2);

        // Slot 0: round 0 → send.
        let out = driver.step(Time(0), &mut vec![]);
        assert_eq!(out.len(), 1);
        // Slot 1: mid-round, messages received are buffered, nothing sent.
        let env =
            Envelope { from: peer, to: me, sent_at: Time(0), deliver_at: Time(1), payload: 5 };
        assert!(driver.step(Time(1), &mut vec![env]).is_empty());
        assert!(driver.protocol().output.is_none());
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
