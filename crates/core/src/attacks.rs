//! The impossibility constructions of Lemmas 5, 7 and 13 as concrete adversaries.
//!
//! The paper's lower bounds are indistinguishability arguments: beyond the stated
//! thresholds, an adversary can present different honest parties with views belonging to
//! different "worlds", forcing two honest parties to claim the same partner (violating
//! non-competition) no matter which protocol is run. This module turns each construction
//! into an executable attack against the constructive protocols of this crate, run just
//! beyond their thresholds:
//!
//! * [`split_brain_attack`] — Lemma 5 / Theorem 2 boundary: fully-connected,
//!   unauthenticated, `tL = tR = ⌈k/3⌉` (`k = 3`). A byzantine committee member and a
//!   byzantine broadcaster keep the two honest committee members on different values of
//!   the byzantine broadcaster's preference list, so two honest left parties end up
//!   claiming the same right party.
//! * [`relay_denial_attack`] — Lemma 7 / Theorems 3–4 boundary: bipartite or one-sided,
//!   unauthenticated, `tR = ⌈k/2⌉` (`k = 2`). The single byzantine right party withholds
//!   relay duty (cutting the left side in two) and equivocates its own preference list,
//!   making both left parties claim it.
//! * [`full_side_partition_attack`] — Lemma 13 / Theorems 6–7 boundary: one-sided or
//!   bipartite, authenticated, `tR = k`, `tL = ⌈k/3⌉` (`k = 3`). The fully byzantine
//!   right side simulates two disjoint worlds towards the two honest left parties (the
//!   byzantine left party signs a consistent story into each world), and both honest
//!   left parties decide to match the same right party.
//!
//! Each constructor returns the scenario (inputs + corrupted set), the protocol plan to
//! force, and the adversary; `run()`-ing them must produce at least one
//! [`crate::properties::PropertyViolation`], which is exactly what experiment E1/E3–E5
//! record.

use crate::harness::Scenario;
use crate::problem::{AuthMode, Setting};
use crate::relay::relay_digest;
use crate::solvability::ProtocolPlan;
use crate::wire::{pref_to_vec, PrefVec, ProtoBody, ProtoMsg, Relayed, WireMsg};
use bsm_broadcast::{BaMsg, BbMsg, CommitteeMsg, KingMsg, KingMsgKind};
use bsm_crypto::SigningKey;
use bsm_matching::{PreferenceList, PreferenceProfile, Side};
use bsm_net::{Adversary, AdversaryContext, Envelope, Outgoing, PartyId, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A ready-to-run impossibility experiment.
pub struct Attack {
    /// Short identifier used in experiment tables (e.g. `"lemma5"`).
    pub name: &'static str,
    /// The paper reference this attack reproduces.
    pub reference: &'static str,
    /// The scenario (setting, inputs, corrupted parties).
    pub scenario: Scenario,
    /// The protocol plan to force (the setting itself is unsolvable).
    pub plan: ProtocolPlan,
    /// The attacking adversary.
    pub adversary: Box<dyn Adversary<WireMsg>>,
}

impl std::fmt::Debug for Attack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attack")
            .field("name", &self.name)
            .field("reference", &self.reference)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl Attack {
    /// Runs the attack and returns the scenario outcome (the caller inspects
    /// `outcome.violations`).
    ///
    /// # Errors
    ///
    /// Propagates harness errors; the attack scenarios themselves are always
    /// well-formed.
    pub fn run(self) -> Result<crate::harness::ScenarioOutcome, crate::harness::HarnessError> {
        self.scenario.run_with_adversary(self.plan, self.adversary)
    }
}

fn list(order: &[usize]) -> PreferenceList {
    PreferenceList::new(order.to_vec()).expect("attack lists are valid permutations")
}

/// Lemma 5 (Theorem 2 "only if"): fully-connected unauthenticated network, `k = 3`,
/// `tL = tR = 1` (both `≥ k/3`).
pub fn split_brain_attack() -> Attack {
    let k = 3usize;
    let setting =
        Setting::new(k, Topology::FullyConnected, AuthMode::Unauthenticated, 1, 1).unwrap();
    // Honest inputs: L0 and L2 both rank R1 first; R0 prefers L0, R2 prefers L2.
    let profile = PreferenceProfile::new(
        vec![list(&[1, 0, 2]), list(&[0, 1, 2]), list(&[1, 2, 0])],
        vec![list(&[0, 2, 1]), list(&[0, 1, 2]), list(&[2, 0, 1])],
    )
    .unwrap();
    let scenario = Scenario::builder(setting)
        .profile(profile)
        .corrupt_left([1])
        .corrupt_right([1])
        .build()
        .expect("attack scenario is well-formed");
    let plan = ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left };
    // The two "worlds": R1's preference list as seen by L0/R0 versus by L2/R2.
    let adversary = SplitBrainAdversary {
        byz_sender: PartyId::right(1),
        byz_member: PartyId::left(1),
        instance: (k + 1) as u32,               // dense index of R1
        view_a: pref_to_vec(&list(&[0, 1, 2])), // R1 prefers L0
        view_b: pref_to_vec(&list(&[2, 1, 0])), // R1 prefers L2
        audience_a: vec![PartyId::left(0), PartyId::right(0)],
        audience_b: vec![PartyId::left(2), PartyId::right(2)],
    };
    Attack {
        name: "lemma5",
        reference: "Lemma 5 / Fig. 2 (Theorem 2, necessity)",
        scenario,
        plan,
        adversary: Box::new(adversary),
    }
}

/// The Lemma 5 adversary: a byzantine broadcaster equivocating its preference list and a
/// byzantine committee member keeping each honest committee member convinced of its own
/// view (and reporting accordingly to the listeners).
struct SplitBrainAdversary {
    byz_sender: PartyId,
    byz_member: PartyId,
    instance: u32,
    view_a: PrefVec,
    view_b: PrefVec,
    audience_a: Vec<PartyId>,
    audience_b: Vec<PartyId>,
}

impl SplitBrainAdversary {
    fn king_bundle(&self, view: &PrefVec, slot: u64) -> Vec<ProtoBody> {
        // Cover the phase the receiver is currently in as well as its neighbours, so no
        // precise alignment with the committee-broadcast round offset is needed; wrong
        // phases and kinds are filtered out by the honest receiver.
        let current_phase = slot / 3;
        let mut bodies = Vec::new();
        for phase in current_phase.saturating_sub(1)..=current_phase + 1 {
            for kind in [
                KingMsgKind::Value(view.clone()),
                KingMsgKind::Propose(view.clone()),
                KingMsgKind::King(view.clone()),
            ] {
                bodies.push(ProtoBody::Cb(CommitteeMsg::King(KingMsg { phase, kind })));
            }
        }
        bodies
    }
}

impl Adversary<WireMsg> for SplitBrainAdversary {
    fn act(
        &mut self,
        ctx: &AdversaryContext<'_>,
        _inboxes: &mut BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    ) -> Vec<(PartyId, Outgoing<WireMsg>)> {
        let slot = ctx.now.slot();
        let mut out = Vec::new();
        let views = [
            (self.audience_a.clone(), self.view_a.clone()),
            (self.audience_b.clone(), self.view_b.clone()),
        ];
        for (audience, view) in views {
            for target in audience {
                // The byzantine sender equivocates its preference list towards the
                // committee members of this audience.
                if target.is_left() {
                    out.push((
                        self.byz_sender,
                        Outgoing::new(
                            target,
                            WireMsg::Direct(ProtoMsg {
                                instance: self.instance,
                                body: ProtoBody::Cb(CommitteeMsg::Input(view.clone())),
                            }),
                        ),
                    ));
                    // The byzantine committee member echoes this audience's value in the
                    // phase-king sub-protocol so the honest member keeps a quorum for it.
                    for body in self.king_bundle(&view, slot) {
                        out.push((
                            self.byz_member,
                            Outgoing::new(
                                target,
                                WireMsg::Direct(ProtoMsg { instance: self.instance, body }),
                            ),
                        ));
                    }
                }
                // The byzantine committee member reports this audience's value to its
                // listeners, tipping the plurality.
                out.push((
                    self.byz_member,
                    Outgoing::new(
                        target,
                        WireMsg::Direct(ProtoMsg {
                            instance: self.instance,
                            body: ProtoBody::Cb(CommitteeMsg::Report(view.clone())),
                        }),
                    ),
                ));
            }
        }
        out
    }
}

/// Lemma 7 (Theorems 3 and 4 "only if"): bipartite or one-sided unauthenticated network,
/// `k = 2`, `tL = 0`, `tR = 1` (`tR ≥ k/2`).
pub fn relay_denial_attack(topology: Topology) -> Attack {
    assert!(
        matches!(topology, Topology::Bipartite | Topology::OneSided),
        "the Lemma 7 construction applies to bipartite and one-sided networks"
    );
    let k = 2usize;
    let setting = Setting::new(k, topology, AuthMode::Unauthenticated, 0, 1).unwrap();
    // Both honest left parties rank the byzantine R1 first; honest R0 prefers L0.
    let profile = PreferenceProfile::new(
        vec![list(&[1, 0]), list(&[1, 0])],
        vec![list(&[0, 1]), list(&[0, 1])],
    )
    .unwrap();
    let scenario = Scenario::builder(setting)
        .profile(profile)
        .corrupt_right([1])
        .build()
        .expect("attack scenario is well-formed");
    let plan = ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left };
    let adversary = RelayDenialAdversary {
        byz_sender: PartyId::right(1),
        instance: (k + 1) as u32,            // dense index of R1
        view_a: pref_to_vec(&list(&[0, 1])), // shown to L0: R1 prefers L0
        view_b: pref_to_vec(&list(&[1, 0])), // shown to L1: R1 prefers L1
    };
    Attack {
        name: "lemma7",
        reference: "Lemma 7 / Fig. 3 (Theorems 3–4, necessity)",
        scenario,
        plan,
        adversary: Box::new(adversary),
    }
}

/// The Lemma 7 adversary: the byzantine right party never performs relay duty (cutting
/// the left side's simulated channels below their majority threshold) and equivocates
/// its own preference list between the two left parties.
struct RelayDenialAdversary {
    byz_sender: PartyId,
    instance: u32,
    view_a: PrefVec,
    view_b: PrefVec,
}

impl Adversary<WireMsg> for RelayDenialAdversary {
    fn act(
        &mut self,
        _ctx: &AdversaryContext<'_>,
        _inboxes: &mut BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    ) -> Vec<(PartyId, Outgoing<WireMsg>)> {
        // Not forwarding any relay request is implicit: the adversary simply never
        // produces RelayDeliver messages.
        let mut out = Vec::new();
        for (target, view) in [(PartyId::left(0), &self.view_a), (PartyId::left(1), &self.view_b)] {
            out.push((
                self.byz_sender,
                Outgoing::new(
                    target,
                    WireMsg::Direct(ProtoMsg {
                        instance: self.instance,
                        body: ProtoBody::Cb(CommitteeMsg::Input(view.clone())),
                    }),
                ),
            ));
        }
        out
    }
}

/// Lemma 13 (Theorems 6 and 7 "only if"): one-sided or bipartite authenticated network,
/// `k = 3`, `tR = k` (the whole right side is byzantine), `tL = 1 ≥ k/3`.
pub fn full_side_partition_attack(topology: Topology) -> Attack {
    assert!(
        matches!(topology, Topology::Bipartite | Topology::OneSided),
        "the Lemma 13 construction applies to bipartite and one-sided networks"
    );
    let k = 3usize;
    let setting = Setting::new(k, topology, AuthMode::Authenticated, 1, k).unwrap();
    // Honest inputs: L0 and L2 both rank R1 (the contested party `v`) first.
    let profile = PreferenceProfile::new(
        vec![list(&[1, 0, 2]), list(&[0, 1, 2]), list(&[1, 2, 0])],
        vec![list(&[0, 1, 2]), list(&[0, 1, 2]), list(&[0, 1, 2])],
    )
    .unwrap();
    let scenario = Scenario::builder(setting)
        .profile(profile.clone())
        .corrupt_left([1])
        .corrupt_right([0, 1, 2])
        .build()
        .expect("attack scenario is well-formed");
    let plan = ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left };

    // The adversary legitimately holds the signing key of the corrupted left party; it
    // obtains it from the scenario's own PKI so its forged relayed confirmations verify
    // against the directory the honest parties use.
    let byz_left = PartyId::left(1);
    let byz_left_key = scenario
        .pki()
        .signing_key(scenario.key_id_of(byz_left).expect("party exists").0)
        .expect("corrupted party key exists");
    let adversary =
        FullSidePartitionAdversary::new(k, profile, byz_left_key, byz_left, PartyId::right(1));
    Attack {
        name: "lemma13",
        reference: "Lemma 13 / Fig. 4 (Theorems 6–7, necessity)",
        scenario,
        plan,
        adversary: Box::new(adversary),
    }
}

/// One forged relayed message: repeatedly delivered (with a fresh timestamp and
/// signature each slot) from a byzantine right party to its target.
struct ForgedRelay {
    target: PartyId,
    origin: PartyId,
    id: u64,
    inner: ProtoMsg,
}

/// The Lemma 13 adversary.
///
/// The right side is fully byzantine and performs no relay duty, so the two honest left
/// parties are completely partitioned (they only ever hear the adversary). Towards each
/// honest left party the adversary plays a consistent world: the right side announces
/// preference lists that make that party the contested right party's favourite, and the
/// byzantine left party `b` signs whatever confirmations (`ΠBB`/`ΠBA` finals) are needed
/// for the honest party's agreement instances to output non-⊥ values. Both honest left
/// parties therefore compute full (but different) matchings and both decide to match
/// `v = R1`, violating non-competition.
struct FullSidePartitionAdversary {
    k: usize,
    byz_left: PartyId,
    byz_left_key: SigningKey,
    relays: Vec<ForgedRelay>,
    direct: Vec<(PartyId, PartyId, ProtoMsg)>,
}

impl FullSidePartitionAdversary {
    fn new(
        k: usize,
        honest_profile: PreferenceProfile,
        byz_left_key: SigningKey,
        byz_left: PartyId,
        contested: PartyId,
    ) -> Self {
        let default = PreferenceList::identity(k);
        let fake_byz_left_list = pref_to_vec(&default);

        let mut relays = Vec::new();
        let mut direct = Vec::new();
        let mut next_id = 0u64;
        let mut forged =
            |target: PartyId, origin: PartyId, inner: ProtoMsg, relays: &mut Vec<ForgedRelay>| {
                relays.push(ForgedRelay { target, origin, id: next_id, inner });
                next_id += 1;
            };

        for audience in [PartyId::left(0), PartyId::left(2)] {
            let audience_list = honest_profile.left(audience.idx()).clone();
            // --- Announcements from the (byzantine) right side, shown to this audience.
            // The contested right party ranks this audience first; the others announce
            // arbitrary (identity) lists.
            for r in 0..k as u32 {
                let right_party = PartyId::right(r);
                let announced = if right_party == contested {
                    PreferenceList::favorite_first(k, audience.idx()).expect("index in range")
                } else {
                    default.clone()
                };
                direct.push((
                    right_party,
                    audience,
                    ProtoMsg {
                        instance: 0,
                        body: ProtoBody::PrefAnnounce(pref_to_vec(&announced)),
                    },
                ));
            }
            // --- ΠBB: the byzantine left party distributes a (consistent) list to this
            // audience, and confirms every value the audience will hold.
            forged(
                audience,
                byz_left,
                ProtoMsg {
                    instance: byz_left.index,
                    body: ProtoBody::Bb(BbMsg::Send(fake_byz_left_list.clone())),
                },
                &mut relays,
            );
            for member in 0..k as u32 {
                // Value the audience will hold for member's ΠBB: its own real list for
                // itself, the fake list for the byzantine left party, the default for
                // the other (partitioned-away) honest left party.
                let expected = if member == audience.index {
                    pref_to_vec(&audience_list)
                } else if member == byz_left.index {
                    fake_byz_left_list.clone()
                } else {
                    pref_to_vec(&default)
                };
                forged(
                    audience,
                    byz_left,
                    ProtoMsg {
                        instance: member,
                        body: ProtoBody::Bb(BbMsg::Ba(BaMsg::Final(expected))),
                    },
                    &mut relays,
                );
            }
            // --- ΠBA on the right side's announcements: confirm exactly what was
            // announced to this audience.
            for r in 0..k as u32 {
                let right_party = PartyId::right(r);
                let announced = if right_party == contested {
                    PreferenceList::favorite_first(k, audience.idx()).expect("index in range")
                } else {
                    default.clone()
                };
                forged(
                    audience,
                    byz_left,
                    ProtoMsg {
                        instance: r,
                        body: ProtoBody::Ba(BaMsg::Final(pref_to_vec(&announced))),
                    },
                    &mut relays,
                );
            }
        }

        Self { k, byz_left, byz_left_key, relays, direct }
    }
}

impl Adversary<WireMsg> for FullSidePartitionAdversary {
    fn act(
        &mut self,
        ctx: &AdversaryContext<'_>,
        _inboxes: &mut BTreeMap<PartyId, Vec<Envelope<WireMsg>>>,
    ) -> Vec<(PartyId, Outgoing<WireMsg>)> {
        let slot = ctx.now.slot();
        let mut out = Vec::new();
        // Direct announcements from byzantine right parties (sent every slot; only the
        // first is recorded by the receiver).
        for (from, to, msg) in &self.direct {
            out.push((*from, Outgoing::new(*to, WireMsg::Direct(msg.clone()))));
        }
        // Forged relayed confirmations "from" the byzantine left party, freshly signed
        // and timestamped every slot so the 2·Δ acceptance window is always satisfied.
        // They are delivered through an arbitrary byzantine right relayer.
        let relayer = PartyId::right(0);
        for forged in &self.relays {
            let mut relayed = Relayed {
                target: forged.target,
                id: forged.id,
                sent_at: slot,
                inner: forged.inner.clone(),
                signature: None,
            };
            let digest = relay_digest(self.byz_left, &relayed, self.k);
            relayed.signature = Some(self.byz_left_key.sign(digest));
            out.push((
                relayer,
                Outgoing::new(
                    forged.target,
                    WireMsg::RelayDeliver { origin: forged.origin, relayed: Arc::new(relayed) },
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_constructors_are_well_formed() {
        let a = split_brain_attack();
        assert_eq!(a.name, "lemma5");
        assert!(format!("{a:?}").contains("lemma5"));
        assert_eq!(a.scenario.corrupted().len(), 2);

        let b = relay_denial_attack(Topology::Bipartite);
        assert_eq!(b.scenario.setting().t_r(), 1);
        let b2 = relay_denial_attack(Topology::OneSided);
        assert_eq!(b2.scenario.setting().topology(), Topology::OneSided);

        let c = full_side_partition_attack(Topology::OneSided);
        assert_eq!(c.scenario.corrupted().len(), 4);
    }

    #[test]
    #[should_panic(expected = "applies to bipartite and one-sided")]
    fn relay_denial_requires_restricted_topology() {
        let _ = relay_denial_attack(Topology::FullyConnected);
    }

    #[test]
    #[should_panic(expected = "applies to bipartite and one-sided")]
    fn partition_requires_restricted_topology() {
        let _ = full_side_partition_attack(Topology::FullyConnected);
    }
}
