use crate::PartyId;
use bsm_matching::Side;

/// The three communication topologies of Fig. 1.
///
/// The matching itself is always between sides `L` and `R`; the topology only restricts
/// which pairs of parties share a (bidirectional, authenticated) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topology {
    /// Only pairs in `L × R` are connected (e.g. international job applicants who can
    /// only talk to potential matches).
    Bipartite,
    /// Like bipartite, but parties in `R` are additionally connected among themselves
    /// (e.g. kidney exchange where recipients must not interact with each other).
    OneSided,
    /// Every pair of distinct parties is connected (a close-knit social group).
    FullyConnected,
}

impl Topology {
    /// All topologies, weakest (bipartite) first.
    pub const ALL: [Topology; 3] =
        [Topology::Bipartite, Topology::OneSided, Topology::FullyConnected];

    /// Returns `true` if parties `a` and `b` share a direct channel in this topology.
    ///
    /// No party has a channel to itself.
    pub fn connects(&self, a: PartyId, b: PartyId) -> bool {
        if a == b {
            return false;
        }
        match (a.side, b.side) {
            (Side::Left, Side::Right) | (Side::Right, Side::Left) => true,
            (Side::Right, Side::Right) => {
                matches!(self, Topology::OneSided | Topology::FullyConnected)
            }
            (Side::Left, Side::Left) => matches!(self, Topology::FullyConnected),
        }
    }

    /// Number of undirected channels in a market of size `k`.
    pub fn channel_count(&self, k: usize) -> usize {
        let cross = k * k;
        let within = k * k.saturating_sub(1) / 2;
        match self {
            Topology::Bipartite => cross,
            Topology::OneSided => cross + within,
            Topology::FullyConnected => cross + 2 * within,
        }
    }

    /// A short lowercase name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Bipartite => "bipartite",
            Topology::OneSided => "one-sided",
            Topology::FullyConnected => "fully-connected",
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) form, e.g. `one-sided`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Topology::ALL
            .into_iter()
            .find(|topology| topology.name() == name)
            .ok_or_else(|| format!("unknown topology {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartySet;

    #[test]
    fn cross_side_channels_always_exist() {
        for topology in Topology::ALL {
            assert!(topology.connects(PartyId::left(0), PartyId::right(1)));
            assert!(topology.connects(PartyId::right(2), PartyId::left(0)));
        }
    }

    #[test]
    fn no_self_channels() {
        for topology in Topology::ALL {
            assert!(!topology.connects(PartyId::left(0), PartyId::left(0)));
            assert!(!topology.connects(PartyId::right(3), PartyId::right(3)));
        }
    }

    #[test]
    fn within_side_channels_depend_on_topology() {
        let l = (PartyId::left(0), PartyId::left(1));
        let r = (PartyId::right(0), PartyId::right(1));
        assert!(!Topology::Bipartite.connects(l.0, l.1));
        assert!(!Topology::Bipartite.connects(r.0, r.1));
        assert!(!Topology::OneSided.connects(l.0, l.1));
        assert!(Topology::OneSided.connects(r.0, r.1));
        assert!(Topology::FullyConnected.connects(l.0, l.1));
        assert!(Topology::FullyConnected.connects(r.0, r.1));
    }

    /// §2: "each model is strictly stronger than the previous one". Every channel of
    /// a weaker topology is a channel of the next one in `ALL`, which has more.
    #[test]
    fn inclusion_order_matches_paper() {
        let parties: Vec<PartyId> = PartySet::new(3).iter().collect();
        for pair in Topology::ALL.windows(2) {
            let (weaker, stronger) = (pair[0], pair[1]);
            for &a in &parties {
                for &b in &parties {
                    if weaker.connects(a, b) {
                        assert!(stronger.connects(a, b), "{weaker} {a}-{b} missing in {stronger}");
                    }
                }
            }
            assert!(stronger.channel_count(3) > weaker.channel_count(3), "{weaker} {stronger}");
        }
    }

    #[test]
    fn channel_count_matches_enumeration() {
        for topology in Topology::ALL {
            for k in 1..=5usize {
                let set = PartySet::new(k);
                let mut count = 0usize;
                let parties: Vec<PartyId> = set.iter().collect();
                for (i, &a) in parties.iter().enumerate() {
                    for &b in parties.iter().skip(i + 1) {
                        if topology.connects(a, b) {
                            count += 1;
                        }
                    }
                }
                assert_eq!(count, topology.channel_count(k), "{topology} k={k}");
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(Topology::Bipartite.to_string(), "bipartite");
        assert_eq!(Topology::OneSided.to_string(), "one-sided");
        assert_eq!(Topology::FullyConnected.to_string(), "fully-connected");
    }
}
