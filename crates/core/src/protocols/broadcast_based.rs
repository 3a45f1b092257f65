//! The broadcast-based bSM protocol of Lemma 1.
//!
//! Every party broadcasts its preference list through a byzantine broadcast instance
//! (one instance per party, the broadcaster being that instance's sender). Broadcast
//! guarantees that all honest parties end the distribution phase with *identical* views
//! of all `2k` lists (byzantine parties that send nothing or garbage are replaced by the
//! default list). Every party then runs the deterministic `AG-S` offline and outputs its
//! own partner in the resulting stable matching, which immediately yields termination,
//! symmetry, stability and non-competition.

use crate::problem::MatchDecision;
use crate::wire::{
    default_pref_vec, dense_key_index, party_from_dense, pref_to_vec, vec_to_pref, PrefVec,
    ProtoBody, ProtoMsg,
};
use bsm_broadcast::{
    Committee, CommitteeBroadcast, CommitteeBroadcastConfig, DolevStrong, DolevStrongRole,
    KeyDirectory,
};
use bsm_crypto::SigningKey;
use bsm_matching::gale_shapley::gale_shapley_left;
use bsm_matching::{PreferenceList, PreferenceProfile, Side};
use bsm_net::{PartyId, PartySet, RoundProtocol};
use std::sync::Arc;

/// Which broadcast primitive carries the preference lists.
#[derive(Debug, Clone)]
pub enum BroadcastFlavor {
    /// Dolev–Strong over the PKI (authenticated settings, Theorem 5 / Lemma 8).
    ///
    /// All `2k` instances of a party, and every party of one execution, share the one
    /// `directory`; each instance owns only its role, key, memos and extracted set.
    DolevStrong {
        /// The participants (all `2k` parties), the PKI and every party's key.
        directory: Arc<KeyDirectory>,
        /// This party's signing key.
        signing_key: SigningKey,
        /// Total corruption bound used for the round count (`tL + tR`, capped at
        /// `n − 1`).
        t: usize,
    },
    /// Committee broadcast (unauthenticated settings, Lemma 4): the side with `t < k/3`
    /// runs phase-king agreement on each sender's value and reports the result.
    Committee {
        /// The agreement committee.
        committee: Committee,
    },
}

enum InstanceState {
    Ds(DolevStrong<PrefVec>),
    Cb(CommitteeBroadcast<PrefVec>),
}

impl InstanceState {
    fn output(&self) -> Option<PrefVec> {
        match self {
            InstanceState::Ds(p) => p.output(),
            InstanceState::Cb(p) => p.output(),
        }
    }
}

/// One slot of a round's routing: a lent message and its sender (`None` only until
/// the counting sort places it).
type Routed<'m> = Option<(PartyId, &'m ProtoMsg)>;

/// Empties `buffer` and hands back its allocation for borrows of another lifetime,
/// so that one allocation serves every round's routing. The element types differ only
/// in lifetime, so the standard library collects the mapped iterator in place.
fn recycle<'a, 'b>(mut buffer: Vec<Routed<'a>>) -> Vec<Routed<'b>> {
    buffer.clear();
    buffer.into_iter().map(|_| None).collect()
}

/// The Lemma 1 protocol, parameterized by the broadcast flavor.
pub struct BroadcastBsm {
    me: PartyId,
    k: usize,
    /// One broadcast per party, indexed by the instance id (the sender's dense index).
    instances: Vec<InstanceState>,
    /// The round's routing cursors, one per instance (kept for their capacity).
    cursors: Vec<usize>,
    /// The round's routed messages, kept empty between rounds for its capacity (see
    /// [`recycle`]).
    routed: Vec<Routed<'static>>,
    decision: Option<MatchDecision>,
}

impl std::fmt::Debug for BroadcastBsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastBsm")
            .field("me", &self.me)
            .field("k", &self.k)
            .field("instances", &self.instances.len())
            .field("decided", &self.decision.is_some())
            .finish_non_exhaustive()
    }
}

impl BroadcastBsm {
    /// Creates the protocol for party `me` with its input preference list.
    ///
    /// # Panics
    ///
    /// Panics if `my_pref.len() != k`.
    pub fn new(me: PartyId, k: usize, my_pref: PreferenceList, flavor: BroadcastFlavor) -> Self {
        assert_eq!(my_pref.len(), k, "preference list must rank all k opposite-side parties");
        let parties = PartySet::new(k);
        let all: Vec<PartyId> = parties.iter().collect();
        let default = default_pref_vec(k);
        // Pushed in dense order, so each instance sits at its instance id.
        let mut instances = Vec::with_capacity(all.len());
        for sender in parties.iter() {
            let instance_id = dense_key_index(sender, k);
            let input = if sender == me { Some(pref_to_vec(&my_pref)) } else { None };
            let state = match &flavor {
                BroadcastFlavor::DolevStrong { directory, signing_key, t } => {
                    let role = DolevStrongRole {
                        me,
                        sender,
                        t: (*t).min(all.len().saturating_sub(1)),
                        instance: u64::from(instance_id),
                    };
                    InstanceState::Ds(DolevStrong::with_directory(
                        Arc::clone(directory),
                        role,
                        signing_key.clone(),
                        input,
                        default.clone(),
                    ))
                }
                BroadcastFlavor::Committee { committee } => {
                    let config = CommitteeBroadcastConfig {
                        me,
                        sender,
                        committee: committee.clone(),
                        all_parties: all.clone(),
                        default: default.clone(),
                    };
                    InstanceState::Cb(CommitteeBroadcast::new(
                        config,
                        input.unwrap_or_else(|| default.clone()),
                    ))
                }
            };
            instances.push(state);
        }
        Self { me, k, instances, cursors: Vec::new(), routed: Vec::new(), decision: None }
    }

    /// Number of logical rounds until every instance has produced its output.
    pub fn total_rounds(k: usize, flavor: &BroadcastFlavor) -> u64 {
        match flavor {
            BroadcastFlavor::DolevStrong { t, .. } => {
                DolevStrong::<PrefVec>::total_rounds((*t).min(2 * k - 1))
            }
            BroadcastFlavor::Committee { committee } => {
                let config = CommitteeBroadcastConfig {
                    me: PartyId::left(0),
                    sender: PartyId::left(0),
                    committee: committee.clone(),
                    all_parties: Vec::new(),
                    default: default_pref_vec(k),
                };
                CommitteeBroadcast::<PrefVec>::total_rounds(&config)
            }
        }
    }

    fn try_decide(&mut self) {
        if self.decision.is_some() {
            return;
        }
        let Some(outputs) =
            self.instances.iter().map(InstanceState::output).collect::<Option<Vec<PrefVec>>>()
        else {
            return;
        };
        // All broadcasts finished: reconstruct the (identical-at-every-honest-party)
        // preference profile, substituting the default list for invalid payloads.
        let k = self.k;
        let mut left = vec![PreferenceList::identity(k); k];
        let mut right = vec![PreferenceList::identity(k); k];
        for (instance, value) in (0u32..).zip(outputs) {
            let party = party_from_dense(instance, k);
            let list = vec_to_pref(k, &value).unwrap_or_else(|| PreferenceList::identity(k));
            match party.side {
                Side::Left => left[party.idx()] = list,
                Side::Right => right[party.idx()] = list,
            }
        }
        // Note: this party's own list is also taken from the broadcast output (not from
        // the local input), exactly as in Lemma 1 — broadcast validity guarantees the
        // two coincide for honest parties within the thresholds.
        let profile = PreferenceProfile::new(left, right).expect("reconstructed lists are valid");
        let matching = gale_shapley_left(&profile);
        let partner = match self.me.side {
            Side::Left => matching.right_of(self.me.idx()).map(|j| PartyId::right(j as u32)),
            Side::Right => matching.left_of(self.me.idx()).map(|i| PartyId::left(i as u32)),
        };
        self.decision = Some(partner);
    }
}

impl RoundProtocol for BroadcastBsm {
    type Msg = ProtoMsg;
    type Output = MatchDecision;

    fn round<'m>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (PartyId, &'m ProtoMsg)> + Clone,
        out: &mut impl FnMut(PartyId, ProtoMsg),
    ) {
        if self.decision.is_some() {
            return;
        }
        // Route each message to its instance with one stable counting sort: a first walk
        // of the inbox counts each instance's messages, a second places them, so every
        // instance reads its own messages, in inbox order, as one slice of `routed`. A
        // message whose instance is not below `2k` reaches no instance. Each instance's
        // sends are tagged with its instance id on the way out.
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.resize(self.instances.len(), 0);
        for (_, msg) in inbox.clone() {
            if let Some(count) = cursors.get_mut(msg.instance as usize) {
                *count += 1;
            }
        }
        // Turn the counts into each instance's first position in `routed`.
        let mut total = 0;
        for cursor in cursors.iter_mut() {
            let count = *cursor;
            *cursor = total;
            total += count;
        }
        let mut routed = recycle(std::mem::take(&mut self.routed));
        routed.resize(total, None);
        for (from, msg) in inbox {
            if let Some(cursor) = cursors.get_mut(msg.instance as usize) {
                routed[*cursor] = Some((from, msg));
                *cursor += 1;
            }
        }
        // Each cursor now sits at the end of its instance's slice.
        let mut start = 0;
        for ((instance, state), &end) in (0u32..).zip(self.instances.iter_mut()).zip(cursors.iter())
        {
            let incoming = routed[start..end].iter().flatten().copied();
            start = end;
            match state {
                InstanceState::Ds(protocol) => {
                    let typed = incoming.filter_map(|(from, msg)| match &msg.body {
                        ProtoBody::Ds(m) => Some((from, m)),
                        _ => None,
                    });
                    protocol.round(round, typed, &mut |to, m| {
                        out(to, ProtoMsg { instance, body: ProtoBody::Ds(m) });
                    });
                }
                InstanceState::Cb(protocol) => {
                    let typed = incoming.filter_map(|(from, msg)| match &msg.body {
                        ProtoBody::Cb(m) => Some((from, m)),
                        _ => None,
                    });
                    protocol.round(round, typed, &mut |to, m| {
                        out(to, ProtoMsg { instance, body: ProtoBody::Cb(m) });
                    });
                }
            }
        }
        self.routed = recycle(routed);
        self.try_decide();
    }

    fn output(&self) -> Option<MatchDecision> {
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_broadcast::{CommitteeMsg, DolevStrongMsg};
    use bsm_crypto::{KeyId, Pki, SigChain};
    use bsm_matching::generators::uniform_profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    fn list_of(profile: &PreferenceProfile, p: PartyId) -> PreferenceList {
        match p.side {
            Side::Left => profile.left(p.idx()).clone(),
            Side::Right => profile.right(p.idx()).clone(),
        }
    }

    /// Drives a full set of honest BroadcastBsm parties in lock step without a network
    /// (all messages delivered next round), and returns each party's decision.
    fn run_lockstep(
        k: usize,
        profile: &PreferenceProfile,
        flavor_of: impl Fn(PartyId) -> BroadcastFlavor,
    ) -> BTreeMap<PartyId, MatchDecision> {
        let parties: Vec<PartyId> = PartySet::new(k).iter().collect();
        let mut protocols: BTreeMap<PartyId, BroadcastBsm> = parties
            .iter()
            .map(|&p| (p, BroadcastBsm::new(p, k, list_of(profile, p), flavor_of(p))))
            .collect();
        let mut pending: BTreeMap<PartyId, Vec<(PartyId, ProtoMsg)>> = BTreeMap::new();
        let total = 4 * (k as u64) + 20;
        for round in 0..total {
            let inboxes = std::mem::take(&mut pending);
            for &p in &parties {
                let inbox = inboxes.get(&p).into_iter().flatten().map(|(from, msg)| (*from, msg));
                protocols.get_mut(&p).unwrap().round(round, inbox, &mut |to, msg| {
                    pending.entry(to).or_default().push((p, msg));
                });
            }
        }
        protocols.iter().map(|(&p, proto)| (p, proto.output().unwrap_or(None))).collect()
    }

    fn committee_flavor(k: usize) -> BroadcastFlavor {
        BroadcastFlavor::Committee {
            committee: Committee::new((0..k as u32).map(PartyId::left).collect(), 0),
        }
    }

    /// The directory of the `2k` parties, each holding the key of its dense index.
    fn dense_directory(k: usize) -> Arc<KeyDirectory> {
        let key_of: BTreeMap<PartyId, KeyId> =
            PartySet::new(k).iter().map(|q| (q, KeyId(dense_key_index(q, k)))).collect();
        let pki = Pki::new(2 * k as u32);
        Arc::new(KeyDirectory::new(PartySet::new(k).iter().collect(), pki, key_of))
    }

    fn ds_flavor(k: usize) -> impl Fn(PartyId) -> BroadcastFlavor {
        let directory = dense_directory(k);
        move |p: PartyId| BroadcastFlavor::DolevStrong {
            directory: Arc::clone(&directory),
            signing_key: directory.pki().signing_key(dense_key_index(p, k)).unwrap(),
            t: 1,
        }
    }

    #[test]
    fn fault_free_run_reproduces_gale_shapley_committee_flavor() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in [1usize, 2, 3, 4] {
            let profile = uniform_profile(k, &mut rng);
            let decisions = run_lockstep(k, &profile, |_| committee_flavor(k));
            let expected = gale_shapley_left(&profile);
            for (party, decision) in decisions {
                let expected_partner = match party.side {
                    Side::Left => expected.right_of(party.idx()).map(|j| PartyId::right(j as u32)),
                    Side::Right => expected.left_of(party.idx()).map(|i| PartyId::left(i as u32)),
                };
                assert_eq!(decision, expected_partner, "party {party} k={k}");
            }
        }
    }

    #[test]
    fn fault_free_run_reproduces_gale_shapley_dolev_strong_flavor() {
        let mut rng = StdRng::seed_from_u64(13);
        let k = 3usize;
        let profile = uniform_profile(k, &mut rng);
        let decisions = run_lockstep(k, &profile, ds_flavor(k));
        let expected = gale_shapley_left(&profile);
        for (party, decision) in decisions {
            let expected_partner = match party.side {
                Side::Left => expected.right_of(party.idx()).map(|j| PartyId::right(j as u32)),
                Side::Right => expected.left_of(party.idx()).map(|i| PartyId::left(i as u32)),
            };
            assert_eq!(decision, expected_partner, "party {party}");
        }
    }

    /// An inbox that counts the items pulled from it and from each of its clones.
    #[derive(Clone)]
    struct Counted<'c, I> {
        inner: I,
        pulls: &'c Cell<usize>,
    }

    impl<I: Iterator> Iterator for Counted<'_, I> {
        type Item = I::Item;

        fn next(&mut self) -> Option<I::Item> {
            let item = self.inner.next();
            if item.is_some() {
                self.pulls.set(self.pulls.get() + 1);
            }
            item
        }
    }

    #[test]
    fn each_lent_message_is_routed_once_to_its_instance() {
        let k = 3usize;
        let flavor_of = ds_flavor(k);
        let profile = uniform_profile(k, &mut StdRng::seed_from_u64(5));
        let parties: Vec<PartyId> = PartySet::new(k).iter().collect();
        let bsm_of = |p: PartyId| BroadcastBsm::new(p, k, list_of(&profile, p), flavor_of(p));
        // Round 0: every sender sends its own instance's value; keep what reaches L1.
        let me = PartyId::left(1);
        let mut sent_to_me = Vec::new();
        for &p in &parties {
            bsm_of(p).round(0, std::iter::empty(), &mut |to, msg| {
                if to == me {
                    sent_to_me.push((p, msg));
                }
            });
        }
        // A second value for L0's instance, validly signed by L0: an equivocation, so
        // that instance extracts and relays two values in the order it reads them.
        let sender_key = KeyId(dense_key_index(PartyId::left(0), k));
        let second: PrefVec = (0..k as u64).rev().collect();
        let digest = DolevStrong::<PrefVec>::digest_for(0, sender_key, &second);
        let BroadcastFlavor::DolevStrong { signing_key, .. } = flavor_of(PartyId::left(0)) else {
            unreachable!("a Dolev–Strong flavor");
        };
        let signature = signing_key.sign(digest);
        let equivocation = ProtoMsg {
            instance: 0,
            body: ProtoBody::Ds(DolevStrongMsg {
                value: second,
                chain: SigChain::single(signature),
            }),
        };
        // The inbox interleaves the instances (each value arrives twice, the copies
        // apart), holds the equivocation between L0's two copies, and holds one message
        // for an instance out of range and one body of the committee flavor.
        let mut inbox: Vec<(PartyId, ProtoMsg)> = sent_to_me.iter().rev().cloned().collect();
        let out_of_range = ProtoMsg { instance: 2 * k as u32, ..inbox[0].1.clone() };
        inbox.insert(2, (PartyId::right(2), out_of_range));
        inbox.push((PartyId::left(2), equivocation));
        let committee_body = ProtoBody::Cb(CommitteeMsg::Input(default_pref_vec(k)));
        inbox.push((PartyId::right(0), ProtoMsg { instance: 0, body: committee_body }));
        inbox.extend(sent_to_me.iter().cloned());
        assert!(inbox.iter().filter(|(_, msg)| msg.instance == 0).count() >= 3);

        // The routed round, pulling from a counted inbox.
        let mut routed = bsm_of(me);
        routed.round(0, std::iter::empty(), &mut |_, _| {});
        let pulls = Cell::new(0);
        let counted =
            Counted { inner: inbox.iter().map(|(from, msg)| (*from, msg)), pulls: &pulls };
        let mut routed_sends = Vec::new();
        routed.round(1, counted, &mut |to, msg| routed_sends.push((to, msg)));
        assert!(
            pulls.get() <= 2 * inbox.len(),
            "{} pulls for {} messages",
            pulls.get(),
            inbox.len()
        );

        // The reference: each instance runs on its own filtered view of the inbox.
        let mut reference = bsm_of(me);
        reference.round(0, std::iter::empty(), &mut |_, _| {});
        let mut reference_sends = Vec::new();
        for (instance, state) in (0u32..).zip(reference.instances.iter_mut()) {
            let InstanceState::Ds(protocol) = state else { panic!("a Dolev–Strong instance") };
            let view = inbox.iter().filter(|(_, msg)| msg.instance == instance);
            let typed = view.filter_map(|(from, msg)| match &msg.body {
                ProtoBody::Ds(m) => Some((*from, m)),
                _ => None,
            });
            protocol.round(1, typed, &mut |to, m| {
                reference_sends.push((to, ProtoMsg { instance, body: ProtoBody::Ds(m) }));
            });
        }
        assert_eq!(routed_sends, reference_sends);
        // Not vacuous: L1 relayed both of L0's values, in the order it read them.
        let relayed_for_l0: Vec<&PrefVec> = routed_sends
            .iter()
            .filter_map(|(_, msg)| match &msg.body {
                ProtoBody::Ds(m) if msg.instance == 0 => Some(&m.value),
                _ => None,
            })
            .collect();
        assert_eq!(relayed_for_l0.len(), 2 * (parties.len() - 1));
        assert_ne!(relayed_for_l0[0], relayed_for_l0[relayed_for_l0.len() - 1]);
    }

    #[test]
    fn recycling_keeps_the_routing_allocation() {
        let buffer: Vec<Routed<'static>> = Vec::with_capacity(64);
        let recycled: Vec<Routed<'_>> = recycle(buffer);
        assert_eq!(recycled.capacity(), 64);
    }

    #[test]
    fn total_rounds_are_positive_and_flavor_dependent() {
        let k = 3usize;
        let directory = dense_directory(k);
        let signing_key = directory.pki().signing_key(0).unwrap();
        let ds = BroadcastFlavor::DolevStrong { directory, signing_key, t: 2 };
        assert_eq!(BroadcastBsm::total_rounds(k, &ds), 4);
        let cb = committee_flavor(k);
        assert!(BroadcastBsm::total_rounds(k, &cb) > 4);
    }

    #[test]
    #[should_panic(expected = "must rank all")]
    fn wrong_list_length_panics() {
        let _ = BroadcastBsm::new(
            PartyId::left(0),
            3,
            PreferenceList::identity(2),
            committee_flavor(3),
        );
    }
}
