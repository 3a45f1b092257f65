use crate::value::Value;
use bsm_crypto::{
    Digest, DigestWriter, Digestible, KeyId, Pki, SigChain, Signature, SigningKey, Verifier,
};
use bsm_net::{Outgoing, PartyId, RoundProtocol};
use std::collections::{BTreeMap, BTreeSet};

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

/// Configuration of a [`DolevStrong`] instance.
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

impl DolevStrongConfig {
    fn key_of(&self, party: PartyId) -> Option<KeyId> {
        self.key_of.get(&party).copied()
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
/// The hot path is allocation- and hash-light: the instance digest of each candidate
/// value is computed once and memoized, signature verifications go through a
/// per-instance [`Verifier`] memo, the `KeyId → PartyId` direction of the key map is
/// precomputed, and relayed chains are shared [`SigChain`]s. None of this changes any
/// observable outcome — every cached answer is identical to its uncached counterpart.
#[derive(Debug)]
pub struct DolevStrong<V> {
    config: DolevStrongConfig,
    signing_key: SigningKey,
    input: Option<V>,
    default: V,
    extracted: BTreeSet<V>,
    output: Option<V>,
    /// Inverse of `config.key_of`, built once (the config only stores the forward map).
    party_of: BTreeMap<KeyId, PartyId>,
    /// Memoizing verification handle for `config.pki`.
    verifier: Verifier,
    /// Instance digests per candidate value (at most [`DIGEST_MEMO_CAP`] entries).
    digest_memo: Vec<(V, Digest)>,
    /// Scratch buffer for the distinct-signers check (reused across messages).
    seen_signers: Vec<KeyId>,
}

impl<V: Value + Digestible> DolevStrong<V> {
    /// Creates an instance for `config.me`.
    ///
    /// `input` is the value to broadcast (required iff `me == sender`); `default` is
    /// the fallback output when the sender misbehaves.
    ///
    /// # Panics
    ///
    /// Panics if `me` or `sender` is missing from the participants/key map, if the
    /// signing key does not belong to `me`, or if the sender has no input.
    pub fn new(
        config: DolevStrongConfig,
        signing_key: SigningKey,
        input: Option<V>,
        default: V,
    ) -> Self {
        assert!(config.participants.contains(&config.me), "the local party must be a participant");
        assert!(config.participants.contains(&config.sender), "the sender must be a participant");
        assert!(
            config.key_of.contains_key(&config.me) && config.key_of.contains_key(&config.sender),
            "participants must have keys in the directory"
        );
        assert_eq!(
            Some(signing_key.id()),
            config.key_of(config.me),
            "the signing key must belong to the local party"
        );
        if config.me == config.sender {
            assert!(input.is_some(), "the sender must hold an input value");
        }
        let party_of = config.key_of.iter().map(|(&party, &key)| (key, party)).collect();
        let verifier = config.pki.verifier();
        Self {
            config,
            signing_key,
            input,
            default,
            extracted: BTreeSet::new(),
            output: None,
            party_of,
            verifier,
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
        let mut writer = DigestWriter::new();
        writer
            .label("dolev-strong")
            .u64(config.instance)
            .u64(u64::from(config.key_of(config.sender).expect("sender has a key").0));
        value.feed(&mut writer);
        writer.finish()
    }

    /// The instance digest of `value`, computed once per distinct candidate value and
    /// memoized. Identical to [`DolevStrong::instance_digest`] for every query.
    fn digest_of(&mut self, value: &V) -> Digest {
        if let Some((_, digest)) = self.digest_memo.iter().find(|(v, _)| v == value) {
            return *digest;
        }
        let digest = Self::instance_digest(&self.config, value);
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
        let sender_key = match self.config.key_of(self.config.sender) {
            Some(key) => key,
            None => return false,
        };
        if chain.first().map(Signature::signer) != Some(sender_key) {
            return false;
        }
        let digest = self.digest_of(&msg.value);
        self.seen_signers.clear();
        for signature in &msg.chain {
            if self.seen_signers.contains(&signature.signer()) {
                return false;
            }
            self.seen_signers.push(signature.signer());
            let signer_party = match self.party_of.get(&signature.signer()) {
                Some(&p) => p,
                None => return false,
            };
            if !self.config.participants.contains(&signer_party) {
                return false;
            }
            if !self.verifier.verify(signature, digest) {
                return false;
            }
        }
        true
    }

    /// Signs `msg` onto its chain and sends the extended message to every other
    /// participant, appending to `out`.
    fn relay(&mut self, msg: &DolevStrongMsg<V>, out: &mut Vec<Outgoing<DolevStrongMsg<V>>>) {
        let my_key = self.signing_key.id();
        if msg.chain.contains_signer(my_key) {
            return;
        }
        let digest = self.digest_of(&msg.value);
        let chain = msg.chain.extended(self.signing_key.sign(digest));
        let extended = DolevStrongMsg { value: msg.value.clone(), chain };
        let me = self.config.me;
        out.extend(
            self.config
                .participants
                .iter()
                .filter(|&&p| p != me)
                .map(|&p| Outgoing::new(p, extended.clone())),
        );
    }

    /// Executes logical round `round` over borrowed messages.
    ///
    /// This is [`RoundProtocol::round`] for callers that hold the messages inside some
    /// larger structure (a multiplexed inbox, say) and would otherwise have to clone
    /// each one into a `(PartyId, DolevStrongMsg)` slice first.
    pub fn round_borrowed<'m>(
        &mut self,
        round: u64,
        inbox: impl IntoIterator<Item = (PartyId, &'m DolevStrongMsg<V>)>,
    ) -> Vec<Outgoing<DolevStrongMsg<V>>>
    where
        V: 'm,
    {
        if self.output.is_some() {
            return Vec::new();
        }
        let t = self.config.t as u64;
        let mut out = Vec::new();

        if round == 0 {
            if self.config.me == self.config.sender {
                let value = self.input.clone().expect("sender holds an input");
                let digest = self.digest_of(&value);
                let chain = SigChain::single(self.signing_key.sign(digest));
                self.extracted.insert(value.clone());
                let msg = DolevStrongMsg { value, chain };
                for &p in &self.config.participants {
                    if p != self.config.me {
                        out.push(Outgoing::new(p, msg.clone()));
                    }
                }
            }
            return out;
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
                    self.relay(msg, &mut out);
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
        out
    }
}

impl<V: Value + Digestible> RoundProtocol for DolevStrong<V> {
    type Msg = DolevStrongMsg<V>;
    type Output = V;

    fn round(
        &mut self,
        round: u64,
        inbox: &[(PartyId, DolevStrongMsg<V>)],
    ) -> Vec<Outgoing<DolevStrongMsg<V>>> {
        self.round_borrowed(round, inbox.iter().map(|(from, msg)| (*from, msg)))
    }

    fn output(&self) -> Option<V> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                for msg in instance.round(round, &inboxes[idx]) {
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
                instance.round(round, &[]);
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
        receiver.round(0, &[]);
        receiver.round(1, &[(PartyId::left(2), bogus)]);
        let total = DolevStrong::<u64>::total_rounds(1);
        for round in 2..total {
            receiver.round(round, &[]);
        }
        assert_eq!(receiver.output(), Some(u64::MAX), "the forged value must not be extracted");
    }

    /// Pins down *when* the per-instance [`Verifier`] memo can fire at all — and that
    /// its counter is wired through: a hit needs the same signature verified twice by
    /// one party in one instance, which requires a rejected chain sharing a valid
    /// prefix with a later chain for the same not-yet-extracted value. Honest
    /// executions and the benchmark adversaries never produce that shape, which is
    /// why `verify_cache_hits` is legitimately 0 in `BENCH_engine.json`.
    #[test]
    fn verifier_memo_fires_on_revalidated_chain_prefixes() {
        let sender = PartyId::left(0);
        let (pki, key_of, _participants, config) = setup(3, 1, sender);
        let mut receiver = instance_for(&config, &pki, &key_of, PartyId::left(1), None);
        let sender_key = pki.signing_key(key_of[&sender].0).unwrap();
        let byz_key = pki.signing_key(key_of[&PartyId::left(2)].0).unwrap();
        let value = 21u64;
        let digest = DolevStrong::<u64>::instance_digest(&config, &value);
        let good = sender_key.sign(digest);
        // First chain: valid sender link, then a signature over the wrong digest. The
        // prefix verifies (and is memoized) before the bad tail rejects the chain, so
        // the value stays unextracted.
        let wrong = DolevStrong::<u64>::instance_digest(&config, &99u64);
        let broken = DolevStrongMsg { value, chain: vec![good, byz_key.sign(wrong)].into() };
        // Second chain: the same valid prefix alone — its re-verification must be the
        // memo hit.
        let valid = DolevStrongMsg { value, chain: vec![good].into() };
        receiver.round(0, &[]);
        let before = bsm_crypto::counters::thread_snapshot();
        receiver.round(1, &[(PartyId::left(2), broken), (PartyId::left(2), valid)]);
        let delta = bsm_crypto::counters::thread_snapshot() - before;
        assert!(delta.verify_cache_hits >= 1, "re-verified prefix must hit the memo: {delta:?}");
        receiver.round(2, &[]);
        assert_eq!(receiver.output(), Some(value), "the valid chain must still extract");
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
        receiver.round(0, &[]);
        receiver.round(1, &[]);
        receiver.round(2, &[(PartyId::left(2), msg)]);
        let total = DolevStrong::<u64>::total_rounds(2);
        for round in 3..total {
            receiver.round(round, &[]);
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
        receiver.round(0, &[]);
        receiver.round(1, &[]);
        receiver.round(2, &[(PartyId::left(2), msg)]);
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
