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
    Committee, CommitteeBroadcast, CommitteeBroadcastConfig, DolevStrong, DolevStrongConfig,
};
use bsm_crypto::{KeyId, Pki, SigningKey};
use bsm_matching::gale_shapley::gale_shapley_left;
use bsm_matching::{PreferenceList, PreferenceProfile, Side};
use bsm_net::{Outgoing, PartyId, PartySet, RoundProtocol};
use std::collections::BTreeMap;

/// Which broadcast primitive carries the preference lists.
#[derive(Debug, Clone)]
pub enum BroadcastFlavor {
    /// Dolev–Strong over the PKI (authenticated settings, Theorem 5 / Lemma 8).
    DolevStrong {
        /// The public-key directory.
        pki: Pki,
        /// This party's signing key.
        signing_key: SigningKey,
        /// Key of every party (dense numbering).
        key_of: BTreeMap<PartyId, KeyId>,
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

/// The Lemma 1 protocol, parameterized by the broadcast flavor.
pub struct BroadcastBsm {
    me: PartyId,
    k: usize,
    my_pref: PreferenceList,
    instances: BTreeMap<u32, InstanceState>,
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
        let mut instances = BTreeMap::new();
        for sender in parties.iter() {
            let instance_id = dense_key_index(sender, k);
            let input = if sender == me { Some(pref_to_vec(&my_pref)) } else { None };
            let state = match &flavor {
                BroadcastFlavor::DolevStrong { pki, signing_key, key_of, t } => {
                    let config = DolevStrongConfig {
                        me,
                        sender,
                        participants: all.clone(),
                        t: (*t).min(all.len().saturating_sub(1)),
                        instance: u64::from(instance_id),
                        pki: pki.clone(),
                        key_of: key_of.clone(),
                    };
                    InstanceState::Ds(DolevStrong::new(
                        config,
                        signing_key.clone(),
                        input,
                        default_pref_vec(k),
                    ))
                }
                BroadcastFlavor::Committee { committee } => {
                    let config = CommitteeBroadcastConfig {
                        me,
                        sender,
                        committee: committee.clone(),
                        all_parties: all.clone(),
                        default: default_pref_vec(k),
                    };
                    InstanceState::Cb(CommitteeBroadcast::new(
                        config,
                        input.unwrap_or_else(|| default_pref_vec(k)),
                    ))
                }
            };
            instances.insert(instance_id, state);
        }
        Self { me, k, my_pref, instances, decision: None }
    }

    /// The preference list this party contributed as its input.
    pub fn input(&self) -> &PreferenceList {
        &self.my_pref
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
        let mut outputs: BTreeMap<u32, PrefVec> = BTreeMap::new();
        for (&instance, state) in &self.instances {
            match state.output() {
                Some(value) => {
                    outputs.insert(instance, value);
                }
                None => return,
            }
        }
        // All broadcasts finished: reconstruct the (identical-at-every-honest-party)
        // preference profile, substituting the default list for invalid payloads.
        let k = self.k;
        let mut left = vec![PreferenceList::identity(k); k];
        let mut right = vec![PreferenceList::identity(k); k];
        for (instance, value) in outputs {
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

    fn round(&mut self, round: u64, inbox: &[(PartyId, ProtoMsg)]) -> Vec<Outgoing<ProtoMsg>> {
        if self.decision.is_some() {
            return Vec::new();
        }
        // Demultiplex by borrowing: each instance reads its own messages, in inbox
        // order, straight out of the inbox instead of from per-instance clones.
        let mut out = Vec::new();
        for (&instance, state) in self.instances.iter_mut() {
            let incoming = inbox.iter().filter(move |(_, msg)| msg.instance == instance);
            match state {
                InstanceState::Ds(protocol) => {
                    let typed = incoming.filter_map(|(from, msg)| match &msg.body {
                        ProtoBody::Ds(m) => Some((*from, m)),
                        _ => None,
                    });
                    out.extend(protocol.round_borrowed(round, typed).into_iter().map(|sent| {
                        Outgoing::new(
                            sent.to,
                            ProtoMsg { instance, body: ProtoBody::Ds(sent.payload) },
                        )
                    }));
                }
                InstanceState::Cb(protocol) => {
                    let typed = incoming.filter_map(|(from, msg)| match &msg.body {
                        ProtoBody::Cb(m) => Some((*from, m)),
                        _ => None,
                    });
                    out.extend(protocol.round_borrowed(round, typed).into_iter().map(|sent| {
                        Outgoing::new(
                            sent.to,
                            ProtoMsg { instance, body: ProtoBody::Cb(sent.payload) },
                        )
                    }));
                }
            }
        }
        self.try_decide();
        out
    }

    fn output(&self) -> Option<MatchDecision> {
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_matching::generators::uniform_profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            .map(|&p| {
                let list = match p.side {
                    Side::Left => profile.left(p.idx()).clone(),
                    Side::Right => profile.right(p.idx()).clone(),
                };
                (p, BroadcastBsm::new(p, k, list, flavor_of(p)))
            })
            .collect();
        let mut pending: BTreeMap<PartyId, Vec<(PartyId, ProtoMsg)>> = BTreeMap::new();
        let total = 4 * (k as u64) + 20;
        for round in 0..total {
            let inboxes = std::mem::take(&mut pending);
            for &p in &parties {
                let inbox = inboxes.get(&p).cloned().unwrap_or_default();
                let out = protocols.get_mut(&p).unwrap().round(round, &inbox);
                for msg in out {
                    pending.entry(msg.to).or_default().push((p, msg.payload));
                }
            }
        }
        protocols.iter().map(|(&p, proto)| (p, proto.output().unwrap_or(None))).collect()
    }

    fn committee_flavor(k: usize) -> BroadcastFlavor {
        BroadcastFlavor::Committee {
            committee: Committee::new((0..k as u32).map(PartyId::left).collect(), 0),
        }
    }

    fn ds_flavor(k: usize, pki: &Pki) -> impl Fn(PartyId) -> BroadcastFlavor + '_ {
        move |p: PartyId| {
            let key_of: BTreeMap<PartyId, KeyId> =
                PartySet::new(k).iter().map(|q| (q, KeyId(dense_key_index(q, k)))).collect();
            BroadcastFlavor::DolevStrong {
                pki: pki.clone(),
                signing_key: pki.signing_key(dense_key_index(p, k)).unwrap(),
                key_of,
                t: 1,
            }
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
        let pki = Pki::new(2 * k as u32);
        let decisions = run_lockstep(k, &profile, ds_flavor(k, &pki));
        let expected = gale_shapley_left(&profile);
        for (party, decision) in decisions {
            let expected_partner = match party.side {
                Side::Left => expected.right_of(party.idx()).map(|j| PartyId::right(j as u32)),
                Side::Right => expected.left_of(party.idx()).map(|i| PartyId::left(i as u32)),
            };
            assert_eq!(decision, expected_partner, "party {party}");
        }
    }

    #[test]
    fn total_rounds_are_positive_and_flavor_dependent() {
        let k = 3usize;
        let pki = Pki::new(2 * k as u32);
        let key_of: BTreeMap<PartyId, KeyId> =
            PartySet::new(k).iter().map(|q| (q, KeyId(dense_key_index(q, k)))).collect();
        let ds = BroadcastFlavor::DolevStrong {
            pki: pki.clone(),
            signing_key: pki.signing_key(0).unwrap(),
            key_of,
            t: 2,
        };
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
