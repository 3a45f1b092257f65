//! Problem statements: settings, inputs and outputs of byzantine stable matching.

use bsm_matching::{PreferenceProfile, Side};
use bsm_net::{PartyId, Topology};
use std::collections::BTreeSet;
use std::fmt;

/// Whether a trusted setup with digital signatures is available (§2, "Cryptographic
/// Assumptions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuthMode {
    /// No cryptographic assumptions.
    Unauthenticated,
    /// A public-key infrastructure and unforgeable signatures are available.
    Authenticated,
}

impl AuthMode {
    /// Both modes, unauthenticated first.
    pub const ALL: [AuthMode; 2] = [AuthMode::Unauthenticated, AuthMode::Authenticated];

    /// A short lowercase name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AuthMode::Unauthenticated => "unauthenticated",
            AuthMode::Authenticated => "authenticated",
        }
    }
}

impl fmt::Display for AuthMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AuthMode {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form, e.g. `authenticated`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        AuthMode::ALL
            .into_iter()
            .find(|auth| auth.name() == name)
            .ok_or_else(|| format!("unknown auth mode {name:?}"))
    }
}

/// The decision of one party: the partner it matches with, or nobody.
///
/// The refined termination property (§2) explicitly allows honest parties to output
/// "nobody" when byzantine parties withhold participation.
pub type MatchDecision = Option<PartyId>;

/// The largest market size `k` a script or scenario file may declare.
///
/// Readers of untrusted files reject a larger `k` with a positioned error before anything
/// `k`-sized is allocated; a Dolev–Strong cell at this size already runs `4k²` = 16,384
/// broadcast instances. [`Setting::new`] itself takes any `k ≥ 1`.
pub const MAX_K: usize = 64;

/// A complete description of one bSM instance environment: the market size, the network
/// topology, the cryptographic assumptions and the per-side corruption budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Setting {
    k: usize,
    topology: Topology,
    auth: AuthMode,
    t_l: usize,
    t_r: usize,
}

/// Errors produced when constructing a [`Setting`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SettingError {
    /// `k` must be positive.
    EmptyMarket,
    /// A corruption bound exceeds the side size `k`.
    BudgetTooLarge {
        /// The offending side.
        side: Side,
        /// The requested bound.
        bound: usize,
        /// The side size.
        k: usize,
    },
}

impl fmt::Display for SettingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SettingError::EmptyMarket => write!(f, "market size k must be at least 1"),
            SettingError::BudgetTooLarge { side, bound, k } => {
                write!(f, "corruption bound {bound} for side {side} exceeds the side size {k}")
            }
        }
    }
}

impl std::error::Error for SettingError {}

impl Setting {
    /// Creates a setting.
    ///
    /// # Errors
    ///
    /// Returns [`SettingError::EmptyMarket`] if `k == 0` and
    /// [`SettingError::BudgetTooLarge`] if `t_l > k` or `t_r > k`.
    pub fn new(
        k: usize,
        topology: Topology,
        auth: AuthMode,
        t_l: usize,
        t_r: usize,
    ) -> Result<Self, SettingError> {
        if k == 0 {
            return Err(SettingError::EmptyMarket);
        }
        if t_l > k {
            return Err(SettingError::BudgetTooLarge { side: Side::Left, bound: t_l, k });
        }
        if t_r > k {
            return Err(SettingError::BudgetTooLarge { side: Side::Right, bound: t_r, k });
        }
        Ok(Self { k, topology, auth, t_l, t_r })
    }

    /// Market size (parties per side).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of parties `n = 2k`.
    pub fn n(&self) -> usize {
        2 * self.k
    }

    /// The communication topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The cryptographic assumptions.
    pub fn auth(&self) -> AuthMode {
        self.auth
    }

    /// Corruption bound for side `L`.
    pub fn t_l(&self) -> usize {
        self.t_l
    }

    /// Corruption bound for side `R`.
    pub fn t_r(&self) -> usize {
        self.t_r
    }

    /// Corruption bound for a given side.
    pub fn t_of(&self, side: Side) -> usize {
        match side {
            Side::Left => self.t_l,
            Side::Right => self.t_r,
        }
    }

    /// Returns `true` if `t < k/3` holds for the given side's bound.
    pub fn side_below_third(&self, side: Side) -> bool {
        3 * self.t_of(side) < self.k
    }

    /// Returns `true` if `t < k/2` holds for the given side's bound.
    pub fn side_below_half(&self, side: Side) -> bool {
        2 * self.t_of(side) < self.k
    }

    /// Returns `true` if `t < k` holds for the given side's bound (at least one honest
    /// party on that side).
    pub fn side_below_full(&self, side: Side) -> bool {
        self.t_of(side) < self.k
    }
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k={} {} {} tL={} tR={}", self.k, self.topology, self.auth, self.t_l, self.t_r)
    }
}

/// The inputs of a bSM instance: every party's complete preference list, plus the set of
/// parties the adversary controls (used by the harness to decide which inputs are
/// actually "honest inputs" for property checking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsmInstance {
    /// Honest inputs: the preference lists each party *would* use if honest.
    pub profile: PreferenceProfile,
    /// The corrupted parties.
    pub corrupted: BTreeSet<PartyId>,
}

impl BsmInstance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if a corrupted party's index is out of range for the profile size.
    pub fn new(profile: PreferenceProfile, corrupted: BTreeSet<PartyId>) -> Self {
        let k = profile.k();
        for party in &corrupted {
            assert!(party.idx() < k, "corrupted party {party} out of range for k = {k}");
        }
        Self { profile, corrupted }
    }

    /// Returns `true` if `party` is honest in this instance.
    pub fn is_honest(&self, party: PartyId) -> bool {
        !self.corrupted.contains(&party)
    }

    /// The preference list of a party (as it would use if honest).
    pub fn preference_of(&self, party: PartyId) -> &bsm_matching::PreferenceList {
        match party.side {
            Side::Left => self.profile.left(party.idx()),
            Side::Right => self.profile.right(party.idx()),
        }
    }
}

/// The inputs of a simplified stable matching (sSM) instance: each party's favorite on
/// the other side (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsmInstance {
    /// `left_favorites[i]` = favorite right-side index of left party `i`.
    pub left_favorites: Vec<usize>,
    /// `right_favorites[j]` = favorite left-side index of right party `j`.
    pub right_favorites: Vec<usize>,
    /// The corrupted parties.
    pub corrupted: BTreeSet<PartyId>,
}

impl SsmInstance {
    /// Converts the sSM instance into a bSM instance by ranking the favorite first and
    /// the remaining partners in index order — the reduction used in Lemma 2.
    ///
    /// # Panics
    ///
    /// Panics if the two favorite vectors have different lengths or contain out-of-range
    /// indices.
    pub fn to_bsm(&self) -> BsmInstance {
        let k = self.left_favorites.len();
        assert_eq!(k, self.right_favorites.len(), "favorite vectors must have equal length");
        let left = self
            .left_favorites
            .iter()
            .map(|&f| {
                bsm_matching::PreferenceList::favorite_first(k, f).expect("favorite in range")
            })
            .collect();
        let right = self
            .right_favorites
            .iter()
            .map(|&f| {
                bsm_matching::PreferenceList::favorite_first(k, f).expect("favorite in range")
            })
            .collect();
        let profile = PreferenceProfile::new(left, right).expect("favorite-first lists are valid");
        BsmInstance::new(profile, self.corrupted.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_validation_and_accessors() {
        assert!(Setting::new(0, Topology::Bipartite, AuthMode::Authenticated, 0, 0).is_err());
        assert!(Setting::new(2, Topology::Bipartite, AuthMode::Authenticated, 3, 0).is_err());
        assert!(Setting::new(2, Topology::Bipartite, AuthMode::Authenticated, 0, 3).is_err());
        let s = Setting::new(4, Topology::OneSided, AuthMode::Unauthenticated, 1, 2).unwrap();
        assert_eq!(s.k(), 4);
        assert_eq!(s.n(), 8);
        assert_eq!(s.topology(), Topology::OneSided);
        assert_eq!(s.auth(), AuthMode::Unauthenticated);
        assert_eq!(s.t_l(), 1);
        assert_eq!(s.t_r(), 2);
        assert_eq!(s.t_of(Side::Left), 1);
        assert_eq!(s.t_of(Side::Right), 2);
        assert!(s.side_below_third(Side::Left));
        assert!(!s.side_below_third(Side::Right));
        assert!(s.side_below_half(Side::Left));
        assert!(!s.side_below_half(Side::Right));
        assert!(s.side_below_full(Side::Right));
        assert!(s.to_string().contains("one-sided"));
    }

    #[test]
    fn auth_mode_display() {
        assert_eq!(AuthMode::Authenticated.to_string(), "authenticated");
        assert_eq!(AuthMode::Unauthenticated.to_string(), "unauthenticated");
        assert_eq!(AuthMode::ALL.len(), 2);
    }

    #[test]
    fn setting_error_display() {
        assert!(!SettingError::EmptyMarket.to_string().is_empty());
        let e = SettingError::BudgetTooLarge { side: Side::Left, bound: 5, k: 3 };
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn instance_helpers() {
        let profile = PreferenceProfile::identity(3).unwrap();
        let corrupted: BTreeSet<PartyId> = [PartyId::right(1)].into_iter().collect();
        let instance = BsmInstance::new(profile, corrupted);
        assert!(instance.is_honest(PartyId::left(0)));
        assert!(!instance.is_honest(PartyId::right(1)));
        assert_eq!(instance.preference_of(PartyId::left(2)).favorite(), 0);
        assert_eq!(instance.preference_of(PartyId::right(2)).favorite(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_rejects_out_of_range_corruption() {
        let profile = PreferenceProfile::identity(2).unwrap();
        let corrupted: BTreeSet<PartyId> = [PartyId::right(5)].into_iter().collect();
        let _ = BsmInstance::new(profile, corrupted);
    }

    #[test]
    fn ssm_reduction_ranks_favorites_first() {
        let ssm = SsmInstance {
            left_favorites: vec![2, 0, 1],
            right_favorites: vec![1, 1, 1],
            corrupted: BTreeSet::new(),
        };
        let bsm = ssm.to_bsm();
        assert_eq!(bsm.profile.left(0).favorite(), 2);
        assert_eq!(bsm.profile.left(1).favorite(), 0);
        assert_eq!(bsm.profile.right(2).favorite(), 1);
    }
}
