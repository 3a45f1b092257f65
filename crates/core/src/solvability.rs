//! The solvability characterization (Theorems 2–7) as a decision procedure.
//!
//! [`characterize`] maps every [`Setting`] either to an executable [`ProtocolPlan`]
//! (the constructive direction of the corresponding theorem) or to an
//! [`Impossibility`] citing the theorem whose lower bound applies. The experiment
//! `E1` sweeps settings through this function and cross-checks both directions
//! empirically.

use crate::problem::{AuthMode, Setting};
use bsm_matching::Side;
use std::fmt;

/// An executable protocol choice for a solvable setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolPlan {
    /// Lemma 1 instantiated with the committee broadcast of Lemma 4: every party
    /// broadcasts its preference list through the committee of the side satisfying
    /// `t < k/3`, then runs `AG-S` locally. Missing channels (one-sided / bipartite
    /// topologies) are simulated with the majority relay of Lemma 6.
    CommitteeBroadcastBsm {
        /// The side acting as the agreement committee.
        committee_side: Side,
    },
    /// Lemma 1 instantiated with Dolev–Strong broadcast (Theorem 5). Missing channels
    /// are simulated with the signed relay of Lemma 8, which only needs one honest
    /// party on the relaying side.
    DolevStrongBsm,
    /// The bipartite authenticated protocol `ΠbSM` of Lemma 9 (also used for the
    /// one-sided case with `tR = k`): the committee side gathers all preference lists
    /// through `ΠBB`/`ΠBA` over timed signed relays (Lemma 10), runs `AG-S` locally and
    /// suggests matches to the other side, which adopts the most common suggestion.
    BipartiteAuthLocal {
        /// The side satisfying `t < k/3` that computes the matching locally.
        committee_side: Side,
    },
}

impl ProtocolPlan {
    /// Every plan the characterization can prescribe.
    pub const ALL: [ProtocolPlan; 5] = [
        ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left },
        ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Right },
        ProtocolPlan::DolevStrongBsm,
        ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left },
        ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Right },
    ];

    /// The name used in reports and exports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left } => {
                "committee-broadcast bSM (committee L)"
            }
            ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Right } => {
                "committee-broadcast bSM (committee R)"
            }
            ProtocolPlan::DolevStrongBsm => "Dolev-Strong bSM",
            ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left } => {
                "ΠbSM local matching (committee L)"
            }
            ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Right } => {
                "ΠbSM local matching (committee R)"
            }
        }
    }
}

impl fmt::Display for ProtocolPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ProtocolPlan {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form, e.g. `Dolev-Strong bSM`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        ProtocolPlan::ALL
            .into_iter()
            .find(|plan| plan.name() == name)
            .ok_or_else(|| format!("unknown protocol plan {name:?}"))
    }
}

/// The reason a setting is unsolvable, citing the theorem whose "only if" direction
/// applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Impossibility {
    /// The theorem establishing the impossibility.
    pub theorem: &'static str,
    /// A human-readable explanation of the violated condition.
    pub reason: String,
}

impl fmt::Display for Impossibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsolvable by {}: {}", self.theorem, self.reason)
    }
}

/// The answer of the characterization for one setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solvability {
    /// bSM is solvable; the plan realizes the constructive direction.
    Solvable(ProtocolPlan),
    /// bSM is unsolvable; the impossibility cites the relevant theorem.
    Unsolvable(Impossibility),
}

impl fmt::Display for Solvability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Solvability::Solvable(plan) => write!(f, "solvable via {plan}"),
            Solvability::Unsolvable(imp) => write!(f, "{imp}"),
        }
    }
}

impl Solvability {
    /// Returns `true` for the solvable case.
    pub fn is_solvable(&self) -> bool {
        matches!(self, Solvability::Solvable(_))
    }

    /// The plan, if solvable.
    pub fn plan(&self) -> Option<ProtocolPlan> {
        match self {
            Solvability::Solvable(plan) => Some(*plan),
            Solvability::Unsolvable(_) => None,
        }
    }
}

/// Picks the committee side among the sides satisfying `t < k/3`, preferring the side
/// with the smaller corruption bound (ties go to `L`).
fn committee_side(setting: &Setting) -> Option<Side> {
    let left_ok = setting.side_below_third(Side::Left);
    let right_ok = setting.side_below_third(Side::Right);
    match (left_ok, right_ok) {
        (true, true) => {
            if setting.t_r() < setting.t_l() {
                Some(Side::Right)
            } else {
                Some(Side::Left)
            }
        }
        (true, false) => Some(Side::Left),
        (false, true) => Some(Side::Right),
        (false, false) => None,
    }
}

/// Applies Theorems 2–7 to `setting`.
pub fn characterize(setting: &Setting) -> Solvability {
    let k = setting.k();
    let t_l = setting.t_l();
    let t_r = setting.t_r();
    match (setting.auth(), setting.topology()) {
        // Theorem 2: fully-connected, unauthenticated.
        (AuthMode::Unauthenticated, bsm_net::Topology::FullyConnected) => {
            match committee_side(setting) {
                Some(side) => Solvability::Solvable(ProtocolPlan::CommitteeBroadcastBsm {
                    committee_side: side,
                }),
                None => Solvability::Unsolvable(Impossibility {
                    theorem: "Theorem 2",
                    reason: format!("tL = {t_l} ≥ k/3 and tR = {t_r} ≥ k/3 (k = {k})"),
                }),
            }
        }
        // Theorem 3: bipartite, unauthenticated.
        (AuthMode::Unauthenticated, bsm_net::Topology::Bipartite) => {
            if !setting.side_below_half(Side::Left) || !setting.side_below_half(Side::Right) {
                return Solvability::Unsolvable(Impossibility {
                    theorem: "Theorem 3",
                    reason: format!(
                        "condition (i) fails: tL = {t_l} or tR = {t_r} is ≥ k/2 (k = {k})"
                    ),
                });
            }
            match committee_side(setting) {
                Some(side) => Solvability::Solvable(ProtocolPlan::CommitteeBroadcastBsm {
                    committee_side: side,
                }),
                None => Solvability::Unsolvable(Impossibility {
                    theorem: "Theorem 3",
                    reason: format!(
                        "condition (ii) fails: tL = {t_l} ≥ k/3 and tR = {t_r} ≥ k/3 (k = {k})"
                    ),
                }),
            }
        }
        // Theorem 4: one-sided, unauthenticated.
        (AuthMode::Unauthenticated, bsm_net::Topology::OneSided) => {
            if !setting.side_below_half(Side::Right) {
                return Solvability::Unsolvable(Impossibility {
                    theorem: "Theorem 4",
                    reason: format!("condition (i) fails: tR = {t_r} ≥ k/2 (k = {k})"),
                });
            }
            match committee_side(setting) {
                Some(side) => Solvability::Solvable(ProtocolPlan::CommitteeBroadcastBsm {
                    committee_side: side,
                }),
                None => Solvability::Unsolvable(Impossibility {
                    theorem: "Theorem 4",
                    reason: format!(
                        "condition (ii) fails: tL = {t_l} ≥ k/3 and tR = {t_r} ≥ k/3 (k = {k})"
                    ),
                }),
            }
        }
        // Theorem 5: fully-connected, authenticated — always solvable.
        (AuthMode::Authenticated, bsm_net::Topology::FullyConnected) => {
            Solvability::Solvable(ProtocolPlan::DolevStrongBsm)
        }
        // Theorem 6: bipartite, authenticated.
        (AuthMode::Authenticated, bsm_net::Topology::Bipartite) => {
            if setting.side_below_full(Side::Left) && setting.side_below_full(Side::Right) {
                return Solvability::Solvable(ProtocolPlan::DolevStrongBsm);
            }
            if setting.side_below_third(Side::Left) {
                return Solvability::Solvable(ProtocolPlan::BipartiteAuthLocal {
                    committee_side: Side::Left,
                });
            }
            if setting.side_below_third(Side::Right) {
                return Solvability::Solvable(ProtocolPlan::BipartiteAuthLocal {
                    committee_side: Side::Right,
                });
            }
            Solvability::Unsolvable(Impossibility {
                theorem: "Theorem 6 (via Corollary 5)",
                reason: format!(
                    "one side is fully byzantine while the other has t ≥ k/3 (tL = {t_l}, tR = {t_r}, k = {k})"
                ),
            })
        }
        // Theorem 7: one-sided, authenticated.
        (AuthMode::Authenticated, bsm_net::Topology::OneSided) => {
            if setting.side_below_full(Side::Right) {
                return Solvability::Solvable(ProtocolPlan::DolevStrongBsm);
            }
            if setting.side_below_third(Side::Left) {
                // tR = k: side R may be completely byzantine. The paper invokes the
                // constructive direction through the bipartite sub-network, i.e. the
                // ΠbSM protocol of Lemma 9 (the one-sided network contains all bipartite
                // edges it needs).
                return Solvability::Solvable(ProtocolPlan::BipartiteAuthLocal {
                    committee_side: Side::Left,
                });
            }
            Solvability::Unsolvable(Impossibility {
                theorem: "Theorem 7 (via Lemma 13)",
                reason: format!("tR = k = {k} and tL = {t_l} ≥ k/3"),
            })
        }
    }
}

/// Convenience wrapper: returns `true` iff bSM is solvable in `setting`.
pub fn is_solvable(setting: &Setting) -> bool {
    characterize(setting).is_solvable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsm_net::Topology;

    fn setting(k: usize, topology: Topology, auth: AuthMode, t_l: usize, t_r: usize) -> Setting {
        Setting::new(k, topology, auth, t_l, t_r).unwrap()
    }

    #[test]
    fn theorem_2_boundaries() {
        // k = 3: k/3 = 1, so tL < 1 or tR < 1 is required.
        let auth = AuthMode::Unauthenticated;
        let topo = Topology::FullyConnected;
        assert!(is_solvable(&setting(3, topo, auth, 0, 3)));
        assert!(is_solvable(&setting(3, topo, auth, 3, 0)));
        assert!(!is_solvable(&setting(3, topo, auth, 1, 1)));
        // k = 4: t < 4/3 means t ≤ 1.
        assert!(is_solvable(&setting(4, topo, auth, 1, 4)));
        assert!(!is_solvable(&setting(4, topo, auth, 2, 2)));
        // k = 6: t < 2.
        assert!(is_solvable(&setting(6, topo, auth, 1, 6)));
        assert!(!is_solvable(&setting(6, topo, auth, 2, 2)));
    }

    #[test]
    fn theorem_3_requires_both_conditions() {
        let auth = AuthMode::Unauthenticated;
        let topo = Topology::Bipartite;
        // tL < k/2 and tR < k/2 and one side < k/3.
        assert!(is_solvable(&setting(6, topo, auth, 1, 2)));
        assert!(!is_solvable(&setting(6, topo, auth, 1, 3))); // tR = k/2
        assert!(!is_solvable(&setting(6, topo, auth, 2, 2))); // both ≥ k/3
        assert!(!is_solvable(&setting(6, topo, auth, 3, 1))); // tL = k/2
        assert!(is_solvable(&setting(6, topo, auth, 2, 1)));
    }

    #[test]
    fn theorem_4_requires_right_half_and_one_third() {
        let auth = AuthMode::Unauthenticated;
        let topo = Topology::OneSided;
        assert!(is_solvable(&setting(6, topo, auth, 5, 1)));
        assert!(!is_solvable(&setting(6, topo, auth, 5, 3))); // tR ≥ k/2
        assert!(!is_solvable(&setting(6, topo, auth, 2, 2))); // neither < k/3
        assert!(is_solvable(&setting(6, topo, auth, 1, 2)));
        // tL may be arbitrarily large as long as tR < k/3.
        assert!(is_solvable(&setting(6, topo, auth, 6, 1)));
    }

    #[test]
    fn theorem_5_always_solvable() {
        for k in [1usize, 2, 3, 5] {
            for t_l in 0..=k {
                for t_r in 0..=k {
                    let s = setting(k, Topology::FullyConnected, AuthMode::Authenticated, t_l, t_r);
                    assert_eq!(characterize(&s).plan(), Some(ProtocolPlan::DolevStrongBsm));
                }
            }
        }
    }

    #[test]
    fn theorem_6_boundaries() {
        let auth = AuthMode::Authenticated;
        let topo = Topology::Bipartite;
        // Both sides below k: always solvable via signed relays + Dolev-Strong.
        assert_eq!(
            characterize(&setting(3, topo, auth, 2, 2)).plan(),
            Some(ProtocolPlan::DolevStrongBsm)
        );
        // One side fully byzantine: need the other side below k/3.
        assert_eq!(
            characterize(&setting(6, topo, auth, 1, 6)).plan(),
            Some(ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left })
        );
        assert_eq!(
            characterize(&setting(6, topo, auth, 6, 1)).plan(),
            Some(ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Right })
        );
        assert!(!is_solvable(&setting(6, topo, auth, 2, 6)));
        assert!(!is_solvable(&setting(6, topo, auth, 6, 2)));
        assert!(!is_solvable(&setting(3, topo, auth, 3, 1)));
    }

    #[test]
    fn theorem_7_boundaries() {
        let auth = AuthMode::Authenticated;
        let topo = Topology::OneSided;
        assert_eq!(
            characterize(&setting(6, topo, auth, 6, 5)).plan(),
            Some(ProtocolPlan::DolevStrongBsm)
        );
        assert_eq!(
            characterize(&setting(6, topo, auth, 1, 6)).plan(),
            Some(ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Left })
        );
        assert!(!is_solvable(&setting(6, topo, auth, 2, 6)));
        assert!(!is_solvable(&setting(3, topo, auth, 1, 3)));
    }

    #[test]
    fn committee_side_prefers_fewer_corruptions() {
        let s = setting(7, Topology::FullyConnected, AuthMode::Unauthenticated, 2, 1);
        assert_eq!(
            characterize(&s).plan(),
            Some(ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Right })
        );
        let s = setting(7, Topology::FullyConnected, AuthMode::Unauthenticated, 1, 2);
        assert_eq!(
            characterize(&s).plan(),
            Some(ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left })
        );
        // Tie goes to the left side.
        let s = setting(7, Topology::FullyConnected, AuthMode::Unauthenticated, 1, 1);
        assert_eq!(
            characterize(&s).plan(),
            Some(ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left })
        );
    }

    #[test]
    fn monotonicity_reducing_corruption_never_hurts() {
        // If a setting is solvable, reducing either bound keeps it solvable.
        for k in 1..=5usize {
            for &topology in &Topology::ALL {
                for &auth in &AuthMode::ALL {
                    for t_l in 0..=k {
                        for t_r in 0..=k {
                            let s = setting(k, topology, auth, t_l, t_r);
                            if !is_solvable(&s) {
                                continue;
                            }
                            for (dl, dr) in [(1usize, 0usize), (0, 1), (1, 1)] {
                                if t_l >= dl && t_r >= dr {
                                    let weaker = setting(k, topology, auth, t_l - dl, t_r - dr);
                                    assert!(
                                        is_solvable(&weaker),
                                        "solvable {s} became unsolvable at {weaker}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stronger_topologies_are_never_worse() {
        // bipartite ⊆ one-sided ⊆ fully-connected: if bSM is solvable in a weaker
        // topology it stays solvable in a stronger one.
        let order = [Topology::Bipartite, Topology::OneSided, Topology::FullyConnected];
        for k in 1..=5usize {
            for &auth in &AuthMode::ALL {
                for t_l in 0..=k {
                    for t_r in 0..=k {
                        for w in 0..order.len() {
                            for s_idx in w + 1..order.len() {
                                let weak = setting(k, order[w], auth, t_l, t_r);
                                let strong = setting(k, order[s_idx], auth, t_l, t_r);
                                if is_solvable(&weak) {
                                    assert!(
                                        is_solvable(&strong),
                                        "{weak} solvable but {strong} not"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn authentication_never_hurts() {
        for k in 1..=5usize {
            for &topology in &Topology::ALL {
                for t_l in 0..=k {
                    for t_r in 0..=k {
                        let unauth = setting(k, topology, AuthMode::Unauthenticated, t_l, t_r);
                        let auth = setting(k, topology, AuthMode::Authenticated, t_l, t_r);
                        if is_solvable(&unauth) {
                            assert!(is_solvable(&auth), "{unauth} solvable but {auth} not");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn displays() {
        assert!(ProtocolPlan::DolevStrongBsm.to_string().contains("Dolev"));
        assert!(ProtocolPlan::CommitteeBroadcastBsm { committee_side: Side::Left }
            .to_string()
            .contains("committee"));
        assert!(ProtocolPlan::BipartiteAuthLocal { committee_side: Side::Right }
            .to_string()
            .contains("bSM"));
        let imp = Impossibility { theorem: "Theorem 2", reason: "x".into() };
        assert!(imp.to_string().contains("Theorem 2"));
        let unsolvable = Solvability::Unsolvable(imp);
        assert!(unsolvable.to_string().contains("unsolvable by Theorem 2"));
        assert!(unsolvable.plan().is_none());
        let solvable = Solvability::Solvable(ProtocolPlan::DolevStrongBsm);
        assert_eq!(solvable.to_string(), "solvable via Dolev-Strong bSM");
    }
}
