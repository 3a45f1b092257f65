//! The wire format of the composite bSM protocols.
//!
//! Every protocol plan runs many sub-protocol instances in parallel (one broadcast per
//! party, one agreement per opposite-side party, …). [`ProtoMsg`] multiplexes them with
//! an instance tag, and [`WireMsg`] adds the channel-simulation layer: either a direct
//! payload or the relay-request / relay-delivery pair used to simulate missing channels
//! (Lemmas 6, 8 and 10), both of which carry one shared [`Relayed`] tuple.
//!
//! Every message moves by value along the simulated network, so the wire types keep
//! their inline size small and their clones cheap: preference lists ([`PrefVec`]) and
//! signature chains ([`bsm_crypto::SigChain`]) are shared behind an `Arc`, and so is
//! each relayed send's whole tuple, origin signature included.

use bsm_broadcast::{BaMsg, BbMsg, CommitteeMsg, DolevStrongMsg};
use bsm_crypto::{DigestWriter, Digestible, Signature};
use bsm_matching::PreferenceList;
use bsm_net::PartyId;
use std::sync::Arc;

/// A preference list in wire form: the ranked opposite-side indices, most preferred
/// first.
///
/// The list is shared, so fanning one out to `n − 1` recipients costs reference-count
/// bumps, not copies. It digests exactly like the `Vec<u64>` it replaced.
pub type PrefVec = Arc<[u64]>;

/// Converts a validated preference list into its wire form.
pub fn pref_to_vec(list: &PreferenceList) -> PrefVec {
    list.iter().map(|p| p as u64).collect()
}

/// Parses a wire-form preference list for a market of size `k`.
///
/// Returns `None` if the payload is not a permutation of `0..k` — the caller then
/// substitutes the default list, exactly as Lemma 1 prescribes for byzantine parties
/// that distribute garbage.
pub fn vec_to_pref(k: usize, value: &[u64]) -> Option<PreferenceList> {
    if value.len() != k {
        return None;
    }
    let order: Vec<usize> = value
        .iter()
        .map(|&v| usize::try_from(v).ok().filter(|&idx| idx < k))
        .collect::<Option<Vec<_>>>()?;
    PreferenceList::new(order).ok()
}

/// The default preference list (identity order) assigned to parties whose broadcast
/// never produced a valid list.
pub fn default_pref(k: usize) -> PreferenceList {
    PreferenceList::identity(k)
}

/// The default preference list in wire form.
pub fn default_pref_vec(k: usize) -> PrefVec {
    pref_to_vec(&default_pref(k))
}

/// A sub-protocol payload, tagged with the instance it belongs to.
///
/// Instance numbering convention: for per-party broadcast instances, the instance is the
/// dense index of the *subject* party (the broadcaster for `Ds`/`Cb`/`Bb`, the announced
/// party for `Ba`); `PrefAnnounce` and `Suggest` use instance 0 (the sender identifies
/// the subject).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoMsg {
    /// The sub-protocol instance this payload belongs to.
    pub instance: u32,
    /// The payload.
    pub body: ProtoBody,
}

/// The payload of one sub-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoBody {
    /// Dolev–Strong broadcast traffic (authenticated Lemma 1 plan).
    Ds(DolevStrongMsg<PrefVec>),
    /// Committee broadcast traffic (unauthenticated Lemma 1 plan).
    Cb(CommitteeMsg<PrefVec>),
    /// `ΠbSM`: a preference list announced directly to the committee side.
    PrefAnnounce(PrefVec),
    /// `ΠbSM`: `ΠBB` traffic among the committee side.
    Bb(BbMsg<PrefVec>),
    /// `ΠbSM`: `ΠBA` traffic among the committee side.
    Ba(BaMsg<PrefVec>),
    /// `ΠbSM`: a matching suggestion sent to an opposite-side party (`None` = match
    /// nobody; `Some(i)` = match committee-side party `i`).
    Suggest(Option<u64>),
}

impl Digestible for ProtoBody {
    fn feed(&self, writer: &mut DigestWriter) {
        match self {
            ProtoBody::Ds(m) => {
                writer.label("ds");
                m.feed(writer);
            }
            ProtoBody::Cb(m) => {
                writer.label("cb");
                m.feed(writer);
            }
            ProtoBody::PrefAnnounce(v) => {
                writer.label("announce");
                v.feed(writer);
            }
            ProtoBody::Bb(m) => {
                writer.label("bb");
                m.feed(writer);
            }
            ProtoBody::Ba(m) => {
                writer.label("ba");
                m.feed(writer);
            }
            ProtoBody::Suggest(s) => {
                writer.label("suggest");
                s.feed(writer);
            }
        }
    }
}

impl Digestible for ProtoMsg {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.label("proto-msg").u64(u64::from(self.instance));
        self.body.feed(writer);
    }
}

/// One relayed send: the `(P → P′, τ, id, m)` tuple of the paper's relays, without
/// its origin `P`. A request's origin is its envelope sender, and the relayer names it
/// in the delivery it forwards.
///
/// The origin builds one per relayed send, and every relayer's request and delivery
/// shares it behind an `Arc`, so relaying through `k` parties copies no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relayed {
    /// Final destination of the relayed payload.
    pub target: PartyId,
    /// Per-origin message identifier.
    pub id: u64,
    /// Slot at which the origin handed the message to the relays (the `τ` of the
    /// paper's tuples).
    pub sent_at: u64,
    /// The relayed payload.
    pub inner: ProtoMsg,
    /// Origin signature over the relay digest (authenticated settings only).
    pub signature: Option<Signature>,
}

/// A message on the simulated network: either a direct sub-protocol payload between
/// connected parties, or one hop of the channel-simulation relay.
///
/// Both relay variants hold their tuple behind one pointer: it fans out to every
/// relayer, and inline (144 bytes with its signature) it would make every message,
/// direct ones included, three times larger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A direct payload (the sender is the envelope sender).
    Direct(ProtoMsg),
    /// "Please forward this to its target on my behalf" — sent by the origin to each
    /// party of the relaying side. The origin is the envelope sender.
    RelayRequest(Arc<Relayed>),
    /// A relayed payload delivered to its target. The envelope sender is the relayer.
    RelayDeliver {
        /// The original sender, as the relayer saw it.
        origin: PartyId,
        /// The relayed tuple (its target must be the receiving party).
        relayed: Arc<Relayed>,
    },
}

/// Maps a party to its dense PKI key index for a market of size `k` (left parties first,
/// then right parties).
pub fn dense_key_index(party: PartyId, k: usize) -> u32 {
    party.dense(k) as u32
}

/// The side-local index of a dense index.
pub fn party_from_dense(dense: u32, k: usize) -> PartyId {
    PartyId::from_dense(dense as usize, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_crypto::Digest;

    #[test]
    fn pref_roundtrip() {
        let list = PreferenceList::new(vec![2, 0, 1]).unwrap();
        let wire = pref_to_vec(&list);
        assert_eq!(*wire, [2, 0, 1]);
        assert_eq!(vec_to_pref(3, &wire), Some(list));
    }

    #[test]
    fn invalid_wire_lists_are_rejected() {
        assert_eq!(vec_to_pref(3, &[0, 0, 1]), None);
        assert_eq!(vec_to_pref(3, &[0, 1]), None);
        assert_eq!(vec_to_pref(3, &[0, 1, 5]), None);
        assert_eq!(vec_to_pref(2, &default_pref_vec(2)), Some(default_pref(2)));
    }

    /// Every message is moved by value from the sender's buffer into the network, into
    /// an inbox and on through the relay, so these sizes are paid on every hop of
    /// every message. The budget holds because payloads are shared (`PrefVec`,
    /// `SigChain`) and the relay tuple sits behind a pointer; a new inline field in one
    /// variant would silently grow all messages, direct ones included.
    #[test]
    fn wire_messages_stay_within_their_size_budget() {
        use std::mem::size_of;
        assert!(size_of::<WireMsg>() <= 48, "WireMsg is {} bytes", size_of::<WireMsg>());
        let envelope = size_of::<bsm_net::Envelope<WireMsg>>();
        assert!(envelope <= 80, "Envelope<WireMsg> is {envelope} bytes");
        let outgoing = size_of::<bsm_net::Outgoing<WireMsg>>();
        assert!(outgoing <= 56, "Outgoing<WireMsg> is {outgoing} bytes");
    }

    #[test]
    fn digests_distinguish_bodies_and_instances() {
        let a = ProtoMsg { instance: 0, body: ProtoBody::PrefAnnounce([0, 1].into()) };
        let b = ProtoMsg { instance: 1, body: ProtoBody::PrefAnnounce([0, 1].into()) };
        let c = ProtoMsg { instance: 0, body: ProtoBody::Suggest(Some(1)) };
        let d = ProtoMsg { instance: 0, body: ProtoBody::Suggest(None) };
        let digests = [Digest::of(&a), Digest::of(&b), Digest::of(&c), Digest::of(&d)];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn dense_index_helpers() {
        assert_eq!(dense_key_index(PartyId::left(2), 4), 2);
        assert_eq!(dense_key_index(PartyId::right(1), 4), 5);
        assert_eq!(party_from_dense(5, 4), PartyId::right(1));
    }
}
