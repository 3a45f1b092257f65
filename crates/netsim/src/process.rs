use crate::{Envelope, Outgoing, PartyId, Time};

/// A per-party protocol state machine, driven once per slot by the simulator.
///
/// `M` is the wire message type and `O` the output (decision) type. A process receives
/// in `step` exactly the messages whose delivery slot has arrived, in a deterministic
/// order (by sender, then send slot, then the order the sender emitted them), and
/// returns the messages it wants to send this slot. Every
/// sent message is delivered at the next slot (within `Δ`), unless the network's
/// [`FaultSchedule`](crate::FaultSchedule) drops or delays it or the topology blocks it.
///
/// Once [`Process::output`] returns `Some`, the decision is final: the simulator records
/// the first value observed and keeps stepping the process (protocols such as `ΠbSM`
/// keep relaying messages for others after deciding).
pub trait Process<M, O> {
    /// This process's party identifier.
    fn id(&self) -> PartyId;

    /// Executes one slot: consumes delivered messages, returns messages to send.
    ///
    /// The inbox is handed over as `&mut Vec` so the simulator can **reuse the buffer
    /// across slots** instead of allocating one per party per slot: implementations
    /// take the messages with `inbox.drain(..)` (or just read them — the caller clears
    /// whatever is left after the call).
    fn step(&mut self, now: Time, inbox: &mut Vec<Envelope<M>>) -> Vec<Outgoing<M>>;

    /// Executes one slot like [`Process::step`], but appends the messages to send to
    /// `out` instead of returning a fresh `Vec`.
    ///
    /// [`SyncNetwork`](crate::SyncNetwork) steps every process through this method
    /// with one send buffer that it keeps across processes and slots, so a process
    /// that overrides it sends without allocating. Implementations only append: what
    /// `out` already holds is not theirs to read or remove. The default forwards to
    /// `step`, so implementing `step` alone stays correct; a process that overrides
    /// this method usually implements `step` on top of it.
    fn step_into(&mut self, now: Time, inbox: &mut Vec<Envelope<M>>, out: &mut Vec<Outgoing<M>>) {
        out.extend(self.step(now, inbox));
    }

    /// The decision of this party, once reached.
    fn output(&self) -> Option<O>;
}

/// A process that never sends anything and never decides.
///
/// Used as the stand-in for crashed parties and as a filler process for parties whose
/// behaviour is entirely controlled by the adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SilentProcess {
    id: PartyId,
}

impl SilentProcess {
    /// Creates a silent process for `id`.
    pub fn new(id: PartyId) -> Self {
        Self { id }
    }
}

impl<M, O> Process<M, O> for SilentProcess {
    fn id(&self) -> PartyId {
        self.id
    }

    fn step(&mut self, _now: Time, _inbox: &mut Vec<Envelope<M>>) -> Vec<Outgoing<M>> {
        Vec::new()
    }

    fn output(&self) -> Option<O> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_process_does_nothing() {
        let mut p = SilentProcess::new(PartyId::left(1));
        assert_eq!(Process::<u32, u32>::id(&p), PartyId::left(1));
        let out: Vec<Outgoing<u32>> =
            Process::<u32, u32>::step(&mut p, Time::ZERO, &mut Vec::new());
        assert!(out.is_empty());
        assert_eq!(Process::<u32, u32>::output(&p), None);
    }
}
