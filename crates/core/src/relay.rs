//! Channel simulation by relaying: Lemma 6 (majority relay), Lemma 8 (signed relay) and
//! Lemma 10 (timed signed relay with omissions).
//!
//! When the topology lacks a channel between two same-side parties, the sender instead
//! hands the message to every party on the opposite side, who forward it to the target.
//! The target accepts the message once it can attribute it to the origin:
//!
//! * **Majority mode** (unauthenticated, Lemma 6): accept once strictly more than `k/2`
//!   distinct relayers delivered the identical message, i.e. equal `(sent_at, payload)`
//!   for the same `(origin, id)` — sound as long as the relaying side has an honest
//!   majority. Copies are compared by value, so this mode computes no digest.
//! * **Signed mode** (authenticated, Lemmas 8 and 10): accept a payload carrying a valid
//!   origin signature over `(origin → target, τ, id, m)`, provided at most `max_age`
//!   slots have passed since `τ`. One honest relayer suffices; if every relayer is
//!   byzantine the message may be omitted but can never be altered — exactly the
//!   omission model of §5.2.

use crate::wire::{ProtoMsg, Relayed, WireMsg};
use bsm_broadcast::KeyDirectory;
use bsm_crypto::{Digest, DigestWriter, Digestible, SigningKey};
use bsm_net::{Outgoing, PartyId, PartySet, Time, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How relayed payloads are authenticated by their final recipient.
#[derive(Debug, Clone)]
pub enum RelayMode {
    /// No relaying: every required channel exists (fully-connected topology). Relay
    /// requests and relayed deliveries are ignored: such a party performs no relay
    /// duty and accepts only direct payloads.
    Direct,
    /// Lemma 6: accept payloads confirmed by a strict majority of the relaying side,
    /// each relayer delivering an equal `(sent_at, payload)`.
    Majority,
    /// Lemmas 8 / 10: accept payloads with a valid origin signature, no older than
    /// `max_age` slots.
    Signed {
        /// The PKI and every party's key. A scenario passes its one per-cell directory,
        /// the one its Dolev–Strong instances share.
        directory: Arc<KeyDirectory>,
        /// Maximum accepted age (in slots) of a relayed message; the paper uses `2·Δ`.
        max_age: u64,
    },
}

impl RelayMode {
    /// Slots one logical round spans: 1 when every channel is direct, and 2 when a
    /// relay hop (the request, then the delivery) may sit between a send and its receipt.
    pub fn slots_per_round(&self) -> u64 {
        match self {
            RelayMode::Direct => 1,
            RelayMode::Majority | RelayMode::Signed { .. } => 2,
        }
    }
}

/// The digest `origin` signs over when relaying `relayed` — the `(P → P′, τ, id, m)`
/// tuple of the paper's protocols. The signature itself is not part of it.
pub fn relay_digest(origin: PartyId, relayed: &Relayed, k: usize) -> Digest {
    let mut writer = DigestWriter::new();
    writer
        .label("bsm-relay")
        .u64(origin.dense(k) as u64)
        .u64(relayed.target.dense(k) as u64)
        .u64(relayed.id)
        .u64(relayed.sent_at);
    relayed.inner.feed(&mut writer);
    writer.finish()
}

/// Majority-relay vote state for one (origin, id): each candidate `(sent_at, payload)`,
/// as the tuple that first carried it, with the distinct relayers backing it.
type Tally = Vec<(Arc<Relayed>, BTreeSet<PartyId>)>;

/// Per-party relay engine: wraps outgoing sends, performs relay duty, and authenticates
/// incoming relayed payloads.
///
/// Both directions append to buffers the caller owns and reuses. A relayed send
/// allocates one [`Relayed`] tuple that every relayer's request shares, and relay duty
/// forwards that same allocation.
pub struct RelayEngine {
    me: PartyId,
    parties: PartySet,
    topology: Topology,
    mode: RelayMode,
    signing_key: Option<SigningKey>,
    next_id: u64,
    /// Majority mode: (origin, id) → each distinct `(sent_at, payload)` seen, in the
    /// tuple that first carried it, with the distinct relayers that delivered it.
    tallies: BTreeMap<(PartyId, u64), Tally>,
    /// Messages already delivered to the protocol, by (origin, id). In signed mode a
    /// copy is looked up here before its signature is verified, so each `(origin, id)`
    /// costs at most one successful verification, however many relayers deliver it.
    delivered: BTreeSet<(PartyId, u64)>,
}

impl std::fmt::Debug for RelayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelayEngine")
            .field("me", &self.me)
            .field("topology", &self.topology)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl RelayEngine {
    /// Creates a relay engine for party `me`.
    ///
    /// `signing_key` is required in [`RelayMode::Signed`] (it signs this party's own
    /// relay requests); it is ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if signed mode is selected without a signing key.
    pub fn new(
        me: PartyId,
        parties: PartySet,
        topology: Topology,
        mode: RelayMode,
        signing_key: Option<SigningKey>,
    ) -> Self {
        if matches!(mode, RelayMode::Signed { .. }) {
            assert!(signing_key.is_some(), "signed relay mode requires this party's signing key");
        }
        Self {
            me,
            parties,
            topology,
            mode,
            signing_key,
            next_id: 0,
            tallies: BTreeMap::new(),
            delivered: BTreeSet::new(),
        }
    }

    /// How this engine authenticates relayed payloads.
    pub fn mode(&self) -> &RelayMode {
        &self.mode
    }

    /// Wraps an outgoing protocol message into wire messages, appended to `out`: a
    /// single direct send when the channel exists, or otherwise one relay request per
    /// relayer (every party on the opposite side), all sharing one [`Relayed`] tuple.
    pub fn send(
        &mut self,
        to: PartyId,
        msg: ProtoMsg,
        now: Time,
        out: &mut Vec<Outgoing<WireMsg>>,
    ) {
        if self.topology.connects(self.me, to) {
            out.push(Outgoing::new(to, WireMsg::Direct(msg)));
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut relayed =
            Relayed { target: to, id, sent_at: now.slot(), inner: msg, signature: None };
        if let RelayMode::Signed { .. } = self.mode {
            let key = self.signing_key.as_ref().expect("signed mode holds a key");
            relayed.signature = Some(key.sign(relay_digest(self.me, &relayed, self.parties.k())));
        }
        let relayed = Arc::new(relayed);
        let request = |relayer| Outgoing::new(relayer, WireMsg::RelayRequest(Arc::clone(&relayed)));
        out.extend(self.parties.side(self.me.side.opposite()).map(request));
    }

    /// Handles one incoming wire message.
    ///
    /// Appends the protocol payloads accepted for delivery (attributed to their origin)
    /// to `accepted`, and the wire messages this party must send as part of its relay
    /// duty to `duties`.
    pub fn handle(
        &mut self,
        from: PartyId,
        msg: WireMsg,
        now: Time,
        accepted: &mut Vec<(PartyId, ProtoMsg)>,
        duties: &mut Vec<Outgoing<WireMsg>>,
    ) {
        match msg {
            WireMsg::Direct(inner) => accepted.push((from, inner)),
            WireMsg::RelayRequest(relayed) => {
                // Relay duty (step 1 of the paper's ΠbSM code for side R): forward the
                // tuple, as the origin's own allocation, to its target, naming the
                // envelope sender as its origin so that no origin vouches for itself.
                // Only a relaying mode performs duty, and only towards a target this
                // party has a channel to; a request to relay to ourselves comes from a
                // confused or malicious origin and is ignored.
                let target = relayed.target;
                if !matches!(self.mode, RelayMode::Direct)
                    && target != self.me
                    && self.topology.connects(self.me, target)
                {
                    let deliver = WireMsg::RelayDeliver { origin: from, relayed };
                    duties.push(Outgoing::new(target, deliver));
                }
            }
            WireMsg::RelayDeliver { origin, relayed } => {
                let Relayed { target, id, sent_at, ref inner, ref signature } = *relayed;
                if target != self.me || self.delivered.contains(&(origin, id)) {
                    return;
                }
                match &self.mode {
                    RelayMode::Direct => {}
                    RelayMode::Majority => {
                        let threshold = self.parties.k() / 2 + 1;
                        let tally = self.tallies.entry((origin, id)).or_default();
                        let found = tally.iter().position(|(first, _)| {
                            first.sent_at == sent_at && first.inner == *inner
                        });
                        let index = found.unwrap_or_else(|| {
                            tally.push((Arc::clone(&relayed), BTreeSet::new()));
                            tally.len() - 1
                        });
                        let (first, relayers) = &mut tally[index];
                        relayers.insert(from);
                        if relayers.len() >= threshold {
                            let payload = first.inner.clone();
                            self.delivered.insert((origin, id));
                            self.tallies.remove(&(origin, id));
                            accepted.push((origin, payload));
                        }
                    }
                    RelayMode::Signed { directory, max_age } => {
                        let Some(signature) = signature else {
                            return;
                        };
                        let Some(origin_key) = directory.key_of(origin) else {
                            return;
                        };
                        if signature.signer() != origin_key
                            || now.slot().saturating_sub(sent_at) > *max_age
                        {
                            return;
                        }
                        // Verifying compares the claimed tag with the one stored at
                        // signing, so only the relay digest is hashed.
                        let digest = relay_digest(origin, &relayed, self.parties.k());
                        if directory.pki().verify(signature, digest) {
                            self.delivered.insert((origin, id));
                            accepted.push((origin, inner.clone()));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{PrefVec, ProtoBody};
    use bsm_crypto::{KeyId, Pki, Signature};

    fn msg(tag: u64) -> ProtoMsg {
        ProtoMsg { instance: 0, body: ProtoBody::Suggest(Some(tag)) }
    }

    fn parties() -> PartySet {
        PartySet::new(3)
    }

    fn relayed(
        target: PartyId,
        id: u64,
        sent_at: u64,
        inner: ProtoMsg,
        signature: Option<Signature>,
    ) -> Arc<Relayed> {
        Arc::new(Relayed { target, id, sent_at, inner, signature })
    }

    /// The shared tuple of a relay request.
    fn request_of(outgoing: &Outgoing<WireMsg>) -> &Arc<Relayed> {
        let WireMsg::RelayRequest(relayed) = &outgoing.payload else {
            panic!("expected a relay request, got {:?}", outgoing.payload);
        };
        relayed
    }

    fn send(
        engine: &mut RelayEngine,
        to: PartyId,
        msg: ProtoMsg,
        now: Time,
    ) -> Vec<Outgoing<WireMsg>> {
        let mut out = Vec::new();
        engine.send(to, msg, now, &mut out);
        out
    }

    type Handled = (Vec<(PartyId, ProtoMsg)>, Vec<Outgoing<WireMsg>>);

    fn handle(engine: &mut RelayEngine, from: PartyId, msg: WireMsg, now: Time) -> Handled {
        let (mut accepted, mut duties) = (Vec::new(), Vec::new());
        engine.handle(from, msg, now, &mut accepted, &mut duties);
        (accepted, duties)
    }

    #[test]
    fn direct_channel_sends_directly() {
        let mut engine = RelayEngine::new(
            PartyId::left(0),
            parties(),
            Topology::FullyConnected,
            RelayMode::Direct,
            None,
        );
        let out = send(&mut engine, PartyId::left(1), msg(1), Time(0));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, WireMsg::Direct(_)));
        assert_eq!(out[0].to, PartyId::left(1));
        assert!(format!("{engine:?}").contains("RelayEngine"));
    }

    #[test]
    fn missing_channel_fans_out_to_opposite_side() {
        let mut engine = RelayEngine::new(
            PartyId::left(0),
            parties(),
            Topology::Bipartite,
            RelayMode::Majority,
            None,
        );
        let out = send(&mut engine, PartyId::left(2), msg(1), Time(0));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.to.is_right()));
        assert_eq!(**request_of(&out[0]), *relayed(PartyId::left(2), 0, 0, msg(1), None));
        // Cross-side sends stay direct even in the bipartite topology.
        let direct = send(&mut engine, PartyId::right(1), msg(2), Time(0));
        assert_eq!(direct.len(), 1);
    }

    #[test]
    fn one_relayed_send_is_one_allocation() {
        let origin = PartyId::left(0);
        let mut engine =
            RelayEngine::new(origin, parties(), Topology::Bipartite, RelayMode::Majority, None);
        let requests = send(&mut engine, PartyId::left(2), msg(1), Time(0));
        // Every relayer's request shares the origin's one tuple.
        let shared = request_of(&requests[0]);
        assert!(requests.iter().all(|r| Arc::ptr_eq(request_of(r), shared)));
        assert_eq!(Arc::strong_count(shared), requests.len());
        // Relay duty forwards that same allocation, not a copy.
        let mut relayer = RelayEngine::new(
            PartyId::right(1),
            parties(),
            Topology::Bipartite,
            RelayMode::Majority,
            None,
        );
        let (_, duties) = handle(&mut relayer, origin, requests[1].payload.clone(), Time(1));
        let [duty] = duties.as_slice() else {
            panic!("expected one relay duty, got {duties:?}");
        };
        let WireMsg::RelayDeliver { relayed, .. } = &duty.payload else {
            panic!("expected a relayed delivery");
        };
        assert!(Arc::ptr_eq(relayed, shared), "relay duty copied the tuple");
    }

    #[test]
    fn relay_duty_forwards_to_target() {
        let mut relayer = RelayEngine::new(
            PartyId::right(1),
            parties(),
            Topology::Bipartite,
            RelayMode::Majority,
            None,
        );
        let request = WireMsg::RelayRequest(relayed(PartyId::left(2), 0, 0, msg(5), None));
        let (accepted, duties) = handle(&mut relayer, PartyId::left(0), request, Time(1));
        assert!(accepted.is_empty());
        assert_eq!(duties.len(), 1);
        assert_eq!(duties[0].to, PartyId::left(2));
        assert!(matches!(
            &duties[0].payload,
            WireMsg::RelayDeliver { origin, .. } if *origin == PartyId::left(0)
        ));
        // Requests targeting the relayer itself or unreachable parties are dropped.
        let bogus = WireMsg::RelayRequest(relayed(PartyId::right(1), 1, 0, msg(5), None));
        let (a, d) = handle(&mut relayer, PartyId::left(0), bogus, Time(1));
        assert!(a.is_empty() && d.is_empty());
    }

    #[test]
    fn majority_mode_needs_strict_majority_of_identical_payloads() {
        let me = PartyId::left(2);
        let mut engine =
            RelayEngine::new(me, parties(), Topology::Bipartite, RelayMode::Majority, None);
        let origin = PartyId::left(0);
        let deliver = |id: u64, sent_at: u64, inner: ProtoMsg| WireMsg::RelayDeliver {
            origin,
            relayed: relayed(me, id, sent_at, inner, None),
        };
        // Two copies of the honest payload, equal but separately allocated, so the
        // delivered one can be told apart by identity.
        let honest = |list: &PrefVec| ProtoMsg {
            instance: 0,
            body: ProtoBody::PrefAnnounce(Arc::clone(list)),
        };
        let (first, second): (PrefVec, PrefVec) = ([2, 0, 1].into(), [2, 0, 1].into());
        let (r0, r1, r2) = (PartyId::right(0), PartyId::right(1), PartyId::right(2));
        let before = bsm_crypto::counters::thread_snapshot();
        let mut accepted =
            |from: PartyId, msg: WireMsg, now: u64| handle(&mut engine, from, msg, Time(now)).0;

        // One relayer backing a forged payload and the honest one: a vote toward each,
        // and no acceptance yet (threshold is 2 of 3).
        assert!(accepted(r0, deliver(7, 0, msg(9)), 2).is_empty());
        assert!(accepted(r0, deliver(7, 0, honest(&first)), 2).is_empty());
        // A duplicate from the same relayer does not help.
        assert!(accepted(r0, deliver(7, 0, honest(&second)), 2).is_empty());
        // The honest payload with another `sent_at` is a separate candidate, so it does
        // not help the first one either.
        assert!(accepted(r1, deliver(7, 1, honest(&second)), 2).is_empty());
        // A second distinct relayer with the same `(sent_at, payload)` crosses the
        // threshold, and the copy observed first is the one delivered.
        let delivered = accepted(r2, deliver(7, 0, honest(&second)), 2);
        assert_eq!(delivered, vec![(origin, honest(&first))]);
        let ProtoBody::PrefAnnounce(list) = &delivered[0].1.body else {
            panic!("expected the honest announcement");
        };
        assert!(Arc::ptr_eq(list, &first), "delivered a later copy");
        // Replays after delivery are ignored.
        assert!(accepted(r1, deliver(7, 0, honest(&first)), 3).is_empty());
        // Backing the honest payload of message 8 leaves the relayer's vote for the
        // forged one standing: one more relayer carries the forgery over the threshold.
        assert!(accepted(r0, deliver(8, 0, honest(&first)), 3).is_empty());
        assert!(accepted(r0, deliver(8, 0, msg(9)), 3).is_empty());
        assert_eq!(accepted(r1, deliver(8, 0, msg(9)), 3), vec![(origin, msg(9))]);

        // Copies are compared by value: the whole exchange computed no digest.
        let hashed = bsm_crypto::counters::thread_snapshot() - before;
        assert_eq!(hashed.digests_computed, 0);
    }

    #[test]
    fn signed_mode_accepts_single_honest_relayer_and_rejects_tampering() {
        let k = 3usize;
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            PartySet::new(k).iter().map(|p| (p, KeyId(p.dense(k) as u32))).collect();
        let origin = PartyId::left(0);
        let target = PartyId::left(2);
        let origin_key = pki.signing_key(key_of[&origin].0).unwrap();
        let target_key = pki.signing_key(key_of[&target].0).unwrap();

        let directory = Arc::new(KeyDirectory::new(PartySet::new(k).iter().collect(), pki, key_of));
        let mode = RelayMode::Signed { directory, max_age: 2 };
        let mut sender_engine = RelayEngine::new(
            origin,
            PartySet::new(k),
            Topology::Bipartite,
            mode.clone(),
            Some(origin_key),
        );
        let mut receiver_engine =
            RelayEngine::new(target, PartySet::new(k), Topology::Bipartite, mode, Some(target_key));

        let requests = send(&mut sender_engine, target, msg(3), Time(0));
        assert_eq!(requests.len(), 3);
        let signed = Arc::clone(request_of(&requests[0]));
        assert!(signed.signature.is_some());
        // A single honest relayer forwards it; the receiver accepts.
        let deliver = WireMsg::RelayDeliver { origin, relayed: Arc::clone(&signed) };
        let (accepted, _) =
            handle(&mut receiver_engine, PartyId::right(0), deliver.clone(), Time(2));
        assert_eq!(accepted, vec![(origin, msg(3))]);
        // Duplicates are suppressed before verification: they verify nothing.
        let before = bsm_crypto::counters::thread_snapshot();
        let (again, _) = handle(&mut receiver_engine, PartyId::right(1), deliver, Time(2));
        assert!(again.is_empty());
        let verified = (bsm_crypto::counters::thread_snapshot() - before).signatures_verified;
        assert_eq!(verified, 0, "the duplicate delivery was verified");

        // Tampered content is rejected (signature no longer verifies).
        let tampered = Relayed { id: signed.id + 1, inner: msg(99), ..(*signed).clone() };
        let tampered = WireMsg::RelayDeliver { origin, relayed: Arc::new(tampered) };
        let (rejected, _) = handle(&mut receiver_engine, PartyId::right(0), tampered, Time(2));
        assert!(rejected.is_empty());

        // Stale deliveries (older than max_age slots) are rejected.
        let more = send(&mut sender_engine, target, msg(4), Time(1));
        let late = WireMsg::RelayDeliver { origin, relayed: Arc::clone(request_of(&more[0])) };
        let (rejected, _) = handle(&mut receiver_engine, PartyId::right(0), late, Time(10));
        assert!(rejected.is_empty());

        // Unsigned deliveries are rejected in signed mode.
        let unsigned =
            WireMsg::RelayDeliver { origin, relayed: relayed(target, 50, 9, msg(5), None) };
        let (rejected, _) = handle(&mut receiver_engine, PartyId::right(0), unsigned, Time(10));
        assert!(rejected.is_empty());
    }

    #[test]
    fn direct_mode_ignores_relayed_traffic() {
        let me = PartyId::left(1);
        let mut engine =
            RelayEngine::new(me, parties(), Topology::FullyConnected, RelayMode::Direct, None);
        let deliver = WireMsg::RelayDeliver {
            origin: PartyId::left(0),
            relayed: relayed(me, 0, 0, msg(1), None),
        };
        let (accepted, duties) = handle(&mut engine, PartyId::right(0), deliver, Time(1));
        assert!(accepted.is_empty());
        assert!(duties.is_empty());
        // A fully-connected party performs no relay duty either, although it can reach
        // the target.
        let request = WireMsg::RelayRequest(relayed(PartyId::left(2), 0, 0, msg(1), None));
        let (accepted, duties) = handle(&mut engine, PartyId::left(0), request, Time(1));
        assert!(accepted.is_empty());
        assert!(duties.is_empty(), "relayed in Direct mode: {duties:?}");
    }

    #[test]
    #[should_panic(expected = "requires this party's signing key")]
    fn signed_mode_without_key_panics() {
        let directory = Arc::new(KeyDirectory::new(Vec::new(), Pki::new(2), BTreeMap::new()));
        let _ = RelayEngine::new(
            PartyId::left(0),
            parties(),
            Topology::Bipartite,
            RelayMode::Signed { directory, max_age: 2 },
            None,
        );
    }
}
