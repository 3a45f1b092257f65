use crate::value::Value;
use bsm_crypto::{Digest, DigestWriter, Digestible, KeyId, Pki, SigChain, Signature, SigningKey};
use bsm_net::{PartyId, RoundProtocol};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Upper bound on memoized instance digests per protocol instance.
///
/// Honest executions see at most two distinct values (one extracted value plus the
/// byzantine sender's second value); the cap only matters against an adversary
/// flooding the instance with distinct values, where memoization has no value anyway
/// (each appears once) but unbounded growth would.
const DIGEST_MEMO_CAP: usize = 32;

/// A Dolev–Strong message: a candidate value together with its signature chain.
///
/// A chain of length `r` must start with the designated sender's signature and contain
/// `r` distinct valid signatures over the instance digest of `value`. The chain is a
/// shared [`SigChain`], so relaying one message to `n − 1` recipients costs `n − 1`
/// reference-count bumps, not `n − 1` deep copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DolevStrongMsg<V> {
    /// The broadcast value being relayed.
    pub value: V,
    /// The accumulated signature chain (shared, copy-on-extend).
    pub chain: SigChain,
}

impl<V: Digestible> Digestible for DolevStrongMsg<V> {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.label("ds-msg");
        self.value.feed(writer);
        self.chain.feed(writer);
    }
}

/// Configuration of a single [`DolevStrong`] instance, for [`DolevStrong::new`].
///
/// It bundles the instance's [`DolevStrongRole`] with the parts of a [`KeyDirectory`].
/// Executions that run many instances over one participant set build the directory
/// once and use [`DolevStrong::with_directory`] instead.
#[derive(Debug, Clone)]
pub struct DolevStrongConfig {
    /// The party running this instance.
    pub me: PartyId,
    /// The designated sender.
    pub sender: PartyId,
    /// All parties participating in the instance (must include `me` and `sender`).
    pub participants: Vec<PartyId>,
    /// Upper bound on corrupted participants; any `t < participants.len()` is supported.
    pub t: usize,
    /// Instance tag, for domain separation between parallel broadcasts.
    pub instance: u64,
    /// The public-key directory.
    pub pki: Pki,
    /// Mapping from participants to their key ids in the directory.
    pub key_of: BTreeMap<PartyId, KeyId>,
}

/// What one party's instance of a Dolev–Strong broadcast owns of its configuration:
/// everything that differs between the instances sharing a [`KeyDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DolevStrongRole {
    /// The party running this instance.
    pub me: PartyId,
    /// The designated sender.
    pub sender: PartyId,
    /// Upper bound on corrupted participants; any `t < participants.len()` is supported.
    pub t: usize,
    /// Instance tag, for domain separation between parallel broadcasts.
    pub instance: u64,
}

/// The public side of a set of Dolev–Strong instances: who participates, the PKI, and
/// which key each party holds.
///
/// It is immutable, so one `Arc<KeyDirectory>` serves every instance that runs over the
/// same participants, and building an instance copies no list or map. The composite
/// protocol of Lemma 1 runs one broadcast per party at every party, up to `4k²`
/// instances per execution, all over one directory; the signed relay reads it too.
#[derive(Debug)]
pub struct KeyDirectory {
    participants: Vec<PartyId>,
    pki: Pki,
    key_of: BTreeMap<PartyId, KeyId>,
    /// Inverse of `key_of`, restricted to participants: the party a chain link's signer
    /// must be. A key outside the map and a key of a non-participant both miss it.
    party_of: BTreeMap<KeyId, PartyId>,
}

impl KeyDirectory {
    /// Builds the directory of `participants`, holding the keys `key_of` assigns in `pki`.
    pub fn new(participants: Vec<PartyId>, pki: Pki, key_of: BTreeMap<PartyId, KeyId>) -> Self {
        let mut party_of: BTreeMap<KeyId, PartyId> =
            key_of.iter().map(|(&party, &key)| (key, party)).collect();
        party_of.retain(|_, party| participants.contains(party));
        Self { participants, pki, key_of, party_of }
    }

    /// The participants, in the order messages are sent to them.
    pub(crate) fn participants(&self) -> &[PartyId] {
        &self.participants
    }

    /// The public-key infrastructure.
    pub fn pki(&self) -> &Pki {
        &self.pki
    }

    /// The key id `party` holds, if it has one.
    pub fn key_of(&self, party: PartyId) -> Option<KeyId> {
        self.key_of.get(&party).copied()
    }

    /// The participant holding `key`, if any.
    pub(crate) fn participant_of(&self, key: KeyId) -> Option<PartyId> {
        self.party_of.get(&key).copied()
    }
}

/// The Dolev–Strong authenticated byzantine broadcast protocol, resilient against any
/// number `t < n` of corruptions given a PKI (used for Theorem 5: with a fully-connected
/// authenticated network, bSM is always solvable).
///
/// The protocol runs `t + 1` relay rounds after the sender's initial round; at the end,
/// a party outputs the unique value it extracted, or the default value if the (then
/// necessarily byzantine) sender caused zero or several values to be extracted.
///
/// An instance holds its [`DolevStrongRole`], its signing key, its input and default,
/// the extracted set, its digest memo and a scratch buffer. The participants, the PKI
/// and the key map with its `KeyId → PartyId` inverse live in a shared
/// [`KeyDirectory`], so building an instance copies no map.
///
/// The hot path is allocation- and hash-light: the instance digest of each candidate
/// value is computed once and memoized, and relayed chains are shared [`SigChain`]s.
/// Each chain link is verified through the directory's [`Pki`], which hashes nothing,
/// and no verification is cached: a value is skipped once extracted, before its chain
/// is validated, so an honest party validates one chain per extracted value and a
/// verification memo would never hit.
#[derive(Debug)]
pub struct DolevStrong<V> {
    directory: Arc<KeyDirectory>,
    role: DolevStrongRole,
    /// The sender's key id, looked up once (it is part of every instance digest).
    sender_key: KeyId,
    signing_key: SigningKey,
    input: Option<V>,
    default: V,
    extracted: BTreeSet<V>,
    output: Option<V>,
    /// Instance digests per candidate value (at most [`DIGEST_MEMO_CAP`] entries).
    digest_memo: Vec<(V, Digest)>,
    /// Scratch buffer for the distinct-signers check (reused across messages).
    seen_signers: Vec<KeyId>,
}

impl<V: Value + Digestible> DolevStrong<V> {
    /// Creates a stand-alone instance for `config.me`, with a directory of its own.
    ///
    /// `input` is the value to broadcast (required iff `me == sender`); `default` is
    /// the fallback output when the sender misbehaves.
    ///
    /// # Panics
    ///
    /// As [`DolevStrong::with_directory`].
    pub fn new(
        config: DolevStrongConfig,
        signing_key: SigningKey,
        input: Option<V>,
        default: V,
    ) -> Self {
        let DolevStrongConfig { me, sender, participants, t, instance, pki, key_of } = config;
        let directory = Arc::new(KeyDirectory::new(participants, pki, key_of));
        Self::with_directory(
            directory,
            DolevStrongRole { me, sender, t, instance },
            signing_key,
            input,
            default,
        )
    }

    /// Creates the instance `role` over a shared directory.
    ///
    /// `input` is the value to broadcast (required iff `me == sender`); `default` is
    /// the fallback output when the sender misbehaves.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `sender` is missing from the participants/key map, if the
    /// signing key does not belong to `me`, or if the sender has no input.
    pub fn with_directory(
        directory: Arc<KeyDirectory>,
        role: DolevStrongRole,
        signing_key: SigningKey,
        input: Option<V>,
        default: V,
    ) -> Self {
        let participants = directory.participants();
        assert!(participants.contains(&role.me), "the local party must be a participant");
        assert!(participants.contains(&role.sender), "the sender must be a participant");
        let (Some(my_key), Some(sender_key)) =
            (directory.key_of(role.me), directory.key_of(role.sender))
        else {
            panic!("participants must have keys in the directory");
        };
        assert_eq!(signing_key.id(), my_key, "the signing key must belong to the local party");
        if role.me == role.sender {
            assert!(input.is_some(), "the sender must hold an input value");
        }
        Self {
            directory,
            role,
            sender_key,
            signing_key,
            input,
            default,
            extracted: BTreeSet::new(),
            output: None,
            digest_memo: Vec::new(),
            seen_signers: Vec::new(),
        }
    }

    /// Number of round invocations until the output is available: `t + 2`.
    pub fn total_rounds(t: usize) -> u64 {
        t as u64 + 2
    }

    /// The digest signed by every link of a chain for `value` in this instance.
    pub fn instance_digest(config: &DolevStrongConfig, value: &V) -> Digest {
        let sender_key = config.key_of.get(&config.sender).copied().expect("sender has a key");
        Self::digest_for(config.instance, sender_key, value)
    }

    /// The digest signed by every link of a chain for `value` in broadcast instance
    /// `instance` whose designated sender holds `sender_key`.
    pub fn digest_for(instance: u64, sender_key: KeyId, value: &V) -> Digest {
        let mut writer = DigestWriter::new();
        writer.label("dolev-strong").u64(instance).u64(u64::from(sender_key.0));
        value.feed(&mut writer);
        writer.finish()
    }

    /// The instance digest of `value`, computed once per distinct candidate value and
    /// memoized. Identical to [`DolevStrong::instance_digest`] for every query.
    fn digest_of(&mut self, value: &V) -> Digest {
        if let Some((_, digest)) = self.digest_memo.iter().find(|(v, _)| v == value) {
            return *digest;
        }
        let digest = Self::digest_for(self.role.instance, self.sender_key, value);
        if self.digest_memo.len() < DIGEST_MEMO_CAP {
            self.digest_memo.push((value.clone(), digest));
        }
        digest
    }

    fn chain_is_valid(&mut self, msg: &DolevStrongMsg<V>, round: u64) -> bool {
        let chain = &msg.chain;
        if (chain.len() as u64) < round || chain.is_empty() {
            return false;
        }
        if chain.first().map(Signature::signer) != Some(self.sender_key) {
            return false;
        }
        let digest = self.digest_of(&msg.value);
        self.seen_signers.clear();
        for signature in &msg.chain {
            if self.seen_signers.contains(&signature.signer()) {
                return false;
            }
            self.seen_signers.push(signature.signer());
            if self.directory.participant_of(signature.signer()).is_none() {
                return false;
            }
            if !self.directory.pki().verify(signature, digest) {
                return false;
            }
        }
        true
    }

    /// Sends `msg` to every other participant, in participant order.
    fn send_to_others(
        &self,
        msg: &DolevStrongMsg<V>,
        out: &mut impl FnMut(PartyId, DolevStrongMsg<V>),
    ) {
        for &p in self.directory.participants() {
            if p != self.role.me {
                out(p, msg.clone());
            }
        }
    }

    /// Signs `msg` onto its chain and sends the extended message to every other
    /// participant.
    fn relay(&mut self, msg: &DolevStrongMsg<V>, out: &mut impl FnMut(PartyId, DolevStrongMsg<V>)) {
        let my_key = self.signing_key.id();
        if msg.chain.contains_signer(my_key) {
            return;
        }
        let digest = self.digest_of(&msg.value);
        let chain = msg.chain.extended(self.signing_key.sign(digest));
        self.send_to_others(&DolevStrongMsg { value: msg.value.clone(), chain }, out);
    }
}

impl<V: Value + Digestible> RoundProtocol for DolevStrong<V> {
    type Msg = DolevStrongMsg<V>;
    type Output = V;

    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m DolevStrongMsg<V>)> + Clone,
        out: &mut impl FnMut(PartyId, DolevStrongMsg<V>),
    ) {
        if self.output.is_some() {
            return;
        }
        let t = self.role.t as u64;

        if round == 0 {
            if self.role.me == self.role.sender {
                let value = self.input.clone().expect("sender holds an input");
                let digest = self.digest_of(&value);
                let chain = SigChain::single(self.signing_key.sign(digest));
                self.extracted.insert(value.clone());
                self.send_to_others(&DolevStrongMsg { value, chain }, out);
            }
            return;
        }

        if round <= t + 1 {
            for (_, msg) in inbox {
                if self.extracted.len() >= 2 {
                    break;
                }
                if self.extracted.contains(&msg.value) {
                    continue;
                }
                if !self.chain_is_valid(msg, round) {
                    continue;
                }
                self.extracted.insert(msg.value.clone());
                if round <= t {
                    self.relay(msg, out);
                }
            }
        }

        if round == t + 1 {
            let decision = if self.extracted.len() == 1 {
                self.extracted.iter().next().expect("set has one element").clone()
            } else {
                self.default.clone()
            };
            self.output = Some(decision);
        }
    }

    fn output(&self) -> Option<V> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_round;

    fn setup(
        n: u32,
        t: usize,
        sender: PartyId,
    ) -> (Pki, BTreeMap<PartyId, KeyId>, Vec<PartyId>, DolevStrongConfig) {
        // Participants: n left-side parties (the side structure is irrelevant here).
        let participants: Vec<PartyId> = (0..n).map(PartyId::left).collect();
        let pki = Pki::new(n);
        let key_of: BTreeMap<PartyId, KeyId> =
            participants.iter().enumerate().map(|(i, &p)| (p, KeyId(i as u32))).collect();
        let config = DolevStrongConfig {
            me: participants[0],
            sender,
            participants: participants.clone(),
            t,
            instance: 7,
            pki: pki.clone(),
            key_of: key_of.clone(),
        };
        (pki, key_of, participants, config)
    }

    fn instance_for(
        config: &DolevStrongConfig,
        pki: &Pki,
        key_of: &BTreeMap<PartyId, KeyId>,
        me: PartyId,
        input: Option<u64>,
    ) -> DolevStrong<u64> {
        let key = pki.signing_key(key_of[&me].0).unwrap();
        let mut config = config.clone();
        config.me = me;
        DolevStrong::new(config, key, input, u64::MAX)
    }

    fn run_honest(n: u32, t: usize, value: u64) -> Vec<u64> {
        let sender = PartyId::left(0);
        let (pki, key_of, participants, config) = setup(n, t, sender);
        let mut instances: Vec<DolevStrong<u64>> = participants
            .iter()
            .map(|&p| {
                instance_for(
                    &config,
                    &pki,
                    &key_of,
                    p,
                    if p == sender { Some(value) } else { None },
                )
            })
            .collect();
        let total = DolevStrong::<u64>::total_rounds(t);
        let mut pending: Vec<Vec<(PartyId, DolevStrongMsg<u64>)>> = vec![Vec::new(); n as usize];
        for round in 0..total {
            let inboxes = std::mem::replace(&mut pending, vec![Vec::new(); n as usize]);
            for (idx, instance) in instances.iter_mut().enumerate() {
                for msg in run_round(instance, round, &inboxes[idx]) {
                    let to = participants.iter().position(|&p| p == msg.to).unwrap();
                    pending[to].push((participants[idx], msg.payload));
                }
            }
        }
        instances.iter().map(|i| i.output().expect("terminates")).collect()
    }

    #[test]
    fn honest_sender_reaches_everyone() {
        for (n, t) in [(2u32, 1usize), (4, 1), (4, 3), (5, 2)] {
            let outputs = run_honest(n, t, 42);
            assert!(outputs.iter().all(|&v| v == 42), "n={n} t={t}: {outputs:?}");
        }
    }

    #[test]
    fn crashed_sender_yields_default_everywhere() {
        let sender = PartyId::left(0);
        let (pki, key_of, participants, config) = setup(4, 2, sender);
        // The sender never sends: every other party must output the default.
        let mut instances: Vec<DolevStrong<u64>> = participants
            .iter()
            .skip(1)
            .map(|&p| instance_for(&config, &pki, &key_of, p, None))
            .collect();
        let total = DolevStrong::<u64>::total_rounds(2);
        for round in 0..total {
            for instance in instances.iter_mut() {
                run_round(instance, round, &[]);
            }
        }
        assert!(instances.iter().all(|i| i.output() == Some(u64::MAX)));
    }

    #[test]
    fn forged_chains_are_rejected() {
        let sender = PartyId::left(0);
        let (pki, key_of, _participants, config) = setup(3, 1, sender);
        let mut receiver = instance_for(&config, &pki, &key_of, PartyId::left(1), None);

        // A byzantine party (L2) tries to inject a value with its own signature instead
        // of the sender's.
        let byz_key = pki.signing_key(key_of[&PartyId::left(2)].0).unwrap();
        let bogus_value = 13u64;
        let digest = DolevStrong::<u64>::instance_digest(&config, &bogus_value);
        let bogus = DolevStrongMsg { value: bogus_value, chain: vec![byz_key.sign(digest)].into() };
        run_round(&mut receiver, 0, &[]);
        run_round(&mut receiver, 1, &[(PartyId::left(2), bogus)]);
        let total = DolevStrong::<u64>::total_rounds(1);
        for round in 2..total {
            run_round(&mut receiver, round, &[]);
        }
        assert_eq!(receiver.output(), Some(u64::MAX), "the forged value must not be extracted");
    }

    /// A value is validated once, however many copies of it arrive: a party that
    /// receives the same valid message from several senders in round 1, and again in
    /// round 2, verifies one chain's links and no more.
    #[test]
    fn repeated_copies_of_an_extracted_value_verify_nothing() {
        let sender = PartyId::left(0);
        let (pki, key_of, participants, config) = setup(4, 2, sender);
        let mut receiver = instance_for(&config, &pki, &key_of, PartyId::left(1), None);
        let value = 23u64;
        let digest = DolevStrong::<u64>::instance_digest(&config, &value);
        let sender_link = pki.signing_key(key_of[&sender].0).unwrap().sign(digest);
        let relayer_link = pki.signing_key(key_of[&participants[2]].0).unwrap().sign(digest);
        let chain: SigChain = vec![sender_link, relayer_link].into();
        let msg = DolevStrongMsg { value, chain: chain.clone() };
        let copies: Vec<(PartyId, DolevStrongMsg<u64>)> =
            participants.iter().skip(2).map(|&from| (from, msg.clone())).collect();
        run_round(&mut receiver, 0, &[]);
        let before = bsm_crypto::counters::thread_snapshot();
        run_round(&mut receiver, 1, &copies);
        run_round(&mut receiver, 2, &copies);
        let delta = bsm_crypto::counters::thread_snapshot() - before;
        assert_eq!(delta.signatures_verified, chain.len() as u64, "{delta:?}");
        for round in 3..DolevStrong::<u64>::total_rounds(config.t) {
            run_round(&mut receiver, round, &[]);
        }
        assert_eq!(receiver.output(), Some(value));
    }

    /// Delivers the chain `[sender link, link by extra]` for a fresh value to L1 at
    /// round 1 and runs the instance to its end; returns L1's output.
    fn output_after_two_link_chain(config: &DolevStrongConfig, pki: &Pki, extra: KeyId) -> u64 {
        let mut receiver = instance_for(config, pki, &config.key_of, PartyId::left(1), None);
        let value = 17u64;
        let digest = DolevStrong::<u64>::instance_digest(config, &value);
        let sender_link = pki.signing_key(config.key_of[&config.sender].0).unwrap().sign(digest);
        let extra_link = pki.signing_key(extra.0).unwrap().sign(digest);
        let msg = DolevStrongMsg { value, chain: vec![sender_link, extra_link].into() };
        run_round(&mut receiver, 0, &[]);
        run_round(&mut receiver, 1, &[(PartyId::left(2), msg)]);
        for round in 2..DolevStrong::<u64>::total_rounds(config.t) {
            run_round(&mut receiver, round, &[]);
        }
        receiver.output().expect("terminates")
    }

    #[test]
    fn a_link_by_a_key_outside_the_key_map_is_rejected() {
        let (_, _, _, mut config) = setup(3, 1, PartyId::left(0));
        // The PKI holds one key more than the key map assigns: KeyId(3) signs validly,
        // but no party holds it.
        let pki = Pki::new(4);
        config.pki = pki.clone();
        assert_eq!(output_after_two_link_chain(&config, &pki, KeyId(2)), 17, "control");
        assert_eq!(output_after_two_link_chain(&config, &pki, KeyId(3)), u64::MAX);
    }

    #[test]
    fn a_link_by_a_mapped_non_participant_is_rejected() {
        let (_, _, _, mut config) = setup(3, 1, PartyId::left(0));
        // R0 holds KeyId(3) in the key map but is not a participant of the instance.
        let pki = Pki::new(4);
        config.pki = pki.clone();
        config.key_of.insert(PartyId::right(0), KeyId(3));
        assert_eq!(output_after_two_link_chain(&config, &pki, KeyId(2)), 17, "control");
        assert_eq!(output_after_two_link_chain(&config, &pki, KeyId(3)), u64::MAX);
    }

    #[test]
    fn chain_with_duplicate_signers_is_rejected() {
        let sender = PartyId::left(0);
        let (pki, key_of, _participants, config) = setup(3, 2, sender);
        let receiver_id = PartyId::left(1);
        let mut receiver = instance_for(&config, &pki, &key_of, receiver_id, None);
        let sender_key = pki.signing_key(key_of[&sender].0).unwrap();
        let value = 9u64;
        let digest = DolevStrong::<u64>::instance_digest(&config, &value);
        let sig = sender_key.sign(digest);
        // Round 2 requires two distinct signatures; a duplicated sender signature is not
        // enough.
        let msg = DolevStrongMsg { value, chain: vec![sig, sig].into() };
        run_round(&mut receiver, 0, &[]);
        run_round(&mut receiver, 1, &[]);
        run_round(&mut receiver, 2, &[(PartyId::left(2), msg)]);
        let total = DolevStrong::<u64>::total_rounds(2);
        for round in 3..total {
            run_round(&mut receiver, round, &[]);
        }
        assert_eq!(receiver.output(), Some(u64::MAX));
    }

    #[test]
    fn short_chain_arriving_late_is_rejected() {
        let sender = PartyId::left(0);
        let (pki, key_of, _participants, config) = setup(3, 1, sender);
        let receiver_id = PartyId::left(1);
        let mut receiver = instance_for(&config, &pki, &key_of, receiver_id, None);
        let sender_key = pki.signing_key(key_of[&sender].0).unwrap();
        let value = 5u64;
        let digest = DolevStrong::<u64>::instance_digest(&config, &value);
        let msg = DolevStrongMsg { value, chain: vec![sender_key.sign(digest)].into() };
        // A single-signature chain delivered at round 2 (it should have been extended by
        // a relay) is too short and must be ignored.
        run_round(&mut receiver, 0, &[]);
        run_round(&mut receiver, 1, &[]);
        run_round(&mut receiver, 2, &[(PartyId::left(2), msg)]);
        assert_eq!(receiver.output(), Some(u64::MAX));
    }

    #[test]
    fn total_rounds_formula() {
        assert_eq!(DolevStrong::<u64>::total_rounds(0), 2);
        assert_eq!(DolevStrong::<u64>::total_rounds(3), 5);
    }

    #[test]
    #[should_panic(expected = "signing key must belong")]
    fn wrong_key_is_rejected() {
        let sender = PartyId::left(0);
        let (pki, key_of, _participants, config) = setup(3, 1, sender);
        let wrong_key = pki.signing_key(key_of[&PartyId::left(2)].0).unwrap();
        let mut config = config;
        config.me = PartyId::left(1);
        let _ = DolevStrong::<u64>::new(config, wrong_key, None, 0);
    }

    #[test]
    #[should_panic(expected = "sender must hold an input")]
    fn sender_without_input_panics() {
        let sender = PartyId::left(0);
        let (pki, key_of, _participants, config) = setup(3, 1, sender);
        let key = pki.signing_key(key_of[&sender].0).unwrap();
        let _ = DolevStrong::<u64>::new(config, key, None, 0);
    }
}
