use crate::{PartyId, Time};

/// A message handed to the network by a process: destination plus payload.
///
/// The sender is implicit (the stepping process); channels are authenticated, so the
/// simulator stamps the true sender into the resulting [`Envelope`] and byzantine
/// parties cannot spoof it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// The destination party.
    pub to: PartyId,
    /// The protocol payload.
    pub payload: M,
}

impl<M> Outgoing<M> {
    /// Creates an outgoing message.
    pub fn new(to: PartyId, payload: M) -> Self {
        Self { to, payload }
    }
}

/// A message in flight or delivered: sender, receiver, timing and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The authenticated sender.
    pub from: PartyId,
    /// The receiver.
    pub to: PartyId,
    /// Slot at which the message was handed to the network.
    pub sent_at: Time,
    /// Slot at which the message is delivered (always `sent_at + 1` for direct channels:
    /// delivery within `Δ`).
    pub deliver_at: Time,
    /// The protocol payload.
    pub payload: M,
}
