use crate::{MatchingError, Result};

/// The position of a partner within a preference list (0 is most preferred).
pub type Rank = usize;

/// A complete, strictly-ordered preference list over the `k` agents on the opposite side.
///
/// The list is a permutation of `0..k`; earlier entries are preferred. Every partner in
/// the list is preferred over being unmatched, mirroring the paper's convention that a
/// party "prefers any party in its preference list over being alone" (§2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PreferenceList {
    order: Vec<usize>,
    /// `rank[p]` is the position of partner `p` in `order`.
    rank: Vec<Rank>,
}

impl PreferenceList {
    /// Builds a preference list from an explicit ranking (most preferred first).
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::NotAPermutation`] if `order` is not a permutation of
    /// `0..order.len()` and [`MatchingError::EmptyMarket`] if it is empty.
    pub fn new(order: Vec<usize>) -> Result<Self> {
        if order.is_empty() {
            return Err(MatchingError::EmptyMarket);
        }
        let k = order.len();
        let mut rank = vec![usize::MAX; k];
        for (pos, &p) in order.iter().enumerate() {
            if p >= k {
                return Err(MatchingError::NotAPermutation { side: "unknown", agent: 0 });
            }
            if rank[p] != usize::MAX {
                return Err(MatchingError::NotAPermutation { side: "unknown", agent: 0 });
            }
            rank[p] = pos;
        }
        Ok(Self { order, rank })
    }

    /// The identity preference list `0, 1, …, k-1`.
    ///
    /// Used as the *default* list assigned to byzantine parties that never distribute a
    /// valid list (Lemma 1, Appendix A.1).
    pub fn identity(k: usize) -> Self {
        let order: Vec<usize> = (0..k).collect();
        let rank = order.clone();
        Self { order, rank }
    }

    /// Builds the list that ranks `favorite` first and the remaining partners in
    /// ascending index order.
    ///
    /// This is the reduction from simplified stable matching (sSM) inputs to full
    /// preference lists used in the proof of Lemma 2.
    pub fn favorite_first(k: usize, favorite: usize) -> Result<Self> {
        if favorite >= k {
            return Err(MatchingError::AgentOutOfBounds { index: favorite, k });
        }
        let mut order = Vec::with_capacity(k);
        order.push(favorite);
        order.extend((0..k).filter(|&p| p != favorite));
        Self::new(order)
    }

    /// Number of partners ranked by this list (the market size `k`).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `false`: a valid preference list is never empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The partner ranked at `position` (0 = most preferred).
    ///
    /// Returns `None` if `position >= k`.
    pub fn partner_at(&self, position: Rank) -> Option<usize> {
        self.order.get(position).copied()
    }

    /// The rank of `partner` in this list (0 = most preferred).
    ///
    /// Returns `None` if `partner` is out of bounds.
    pub fn rank_of(&self, partner: usize) -> Option<Rank> {
        self.rank.get(partner).copied()
    }

    /// The most preferred partner (the "favorite" used in the simplified problem, §3).
    pub fn favorite(&self) -> usize {
        self.order[0]
    }

    /// Returns `true` if this list prefers `a` over `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds; callers validate indices at construction.
    pub fn prefers(&self, a: usize, b: usize) -> bool {
        self.rank[a] < self.rank[b]
    }

    /// Iterates over partners from most to least preferred.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().copied()
    }

    /// The underlying ranking (most preferred first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

impl AsRef<[usize]> for PreferenceList {
    fn as_ref(&self) -> &[usize] {
        &self.order
    }
}

/// The preference lists of all `2k` agents in a two-sided market.
///
/// `left[i]` ranks the right-side agents from the point of view of left agent `i`;
/// `right[j]` symmetrically ranks the left-side agents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PreferenceProfile {
    left: Vec<PreferenceList>,
    right: Vec<PreferenceList>,
}

impl PreferenceProfile {
    /// Builds a profile from already-validated preference lists.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::SideSizeMismatch`] if the two sides have different sizes,
    /// [`MatchingError::EmptyMarket`] for `k == 0`, and
    /// [`MatchingError::WrongListLength`] if any list does not rank exactly `k` partners.
    pub fn new(left: Vec<PreferenceList>, right: Vec<PreferenceList>) -> Result<Self> {
        if left.len() != right.len() {
            return Err(MatchingError::SideSizeMismatch { left: left.len(), right: right.len() });
        }
        if left.is_empty() {
            return Err(MatchingError::EmptyMarket);
        }
        let k = left.len();
        for (agent, list) in left.iter().enumerate() {
            if list.len() != k {
                return Err(MatchingError::WrongListLength {
                    side: "left",
                    agent,
                    found: list.len(),
                    expected: k,
                });
            }
        }
        for (agent, list) in right.iter().enumerate() {
            if list.len() != k {
                return Err(MatchingError::WrongListLength {
                    side: "right",
                    agent,
                    found: list.len(),
                    expected: k,
                });
            }
        }
        Ok(Self { left, right })
    }

    /// Builds a profile from raw ranking rows (`rows[i]` = ranking of agent `i`).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`PreferenceList::new`] and
    /// [`PreferenceProfile::new`].
    pub fn from_rows(left: Vec<Vec<usize>>, right: Vec<Vec<usize>>) -> Result<Self> {
        let left = left
            .into_iter()
            .enumerate()
            .map(|(agent, row)| {
                PreferenceList::new(row)
                    .map_err(|_| MatchingError::NotAPermutation { side: "left", agent })
            })
            .collect::<Result<Vec<_>>>()?;
        let right = right
            .into_iter()
            .enumerate()
            .map(|(agent, row)| {
                PreferenceList::new(row)
                    .map_err(|_| MatchingError::NotAPermutation { side: "right", agent })
            })
            .collect::<Result<Vec<_>>>()?;
        Self::new(left, right)
    }

    /// A profile in which every agent holds the identity list — the canonical default
    /// profile used when byzantine parties withhold their input.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::EmptyMarket`] if `k == 0`.
    pub fn identity(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(MatchingError::EmptyMarket);
        }
        let lists = vec![PreferenceList::identity(k); k];
        Self::new(lists.clone(), lists)
    }

    /// The market size `k` (number of agents per side).
    pub fn k(&self) -> usize {
        self.left.len()
    }

    /// Preference list of left agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn left(&self, i: usize) -> &PreferenceList {
        &self.left[i]
    }

    /// Preference list of right agent `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn right(&self, j: usize) -> &PreferenceList {
        &self.right[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_rejects_non_permutations() {
        assert!(PreferenceList::new(vec![0, 0]).is_err());
        assert!(PreferenceList::new(vec![0, 2]).is_err());
        assert!(PreferenceList::new(vec![]).is_err());
        assert!(PreferenceList::new(vec![1, 0, 2]).is_ok());
    }

    #[test]
    fn rank_and_prefers_are_consistent() {
        let list = PreferenceList::new(vec![2, 0, 1]).unwrap();
        assert_eq!(list.rank_of(2), Some(0));
        assert_eq!(list.rank_of(0), Some(1));
        assert_eq!(list.rank_of(1), Some(2));
        assert_eq!(list.rank_of(7), None);
        assert!(list.prefers(2, 0));
        assert!(list.prefers(0, 1));
        assert!(!list.prefers(1, 2));
        assert_eq!(list.favorite(), 2);
        assert_eq!(list.partner_at(1), Some(0));
        assert_eq!(list.partner_at(3), None);
    }

    #[test]
    fn favorite_first_puts_favorite_on_top() {
        let list = PreferenceList::favorite_first(4, 2).unwrap();
        assert_eq!(list.order(), &[2, 0, 1, 3]);
        assert!(PreferenceList::favorite_first(4, 4).is_err());
    }

    #[test]
    fn identity_list_is_sorted() {
        let list = PreferenceList::identity(3);
        assert_eq!(list.order(), &[0, 1, 2]);
        assert_eq!(list.len(), 3);
        assert!(!list.is_empty());
    }

    #[test]
    fn profile_validation() {
        assert!(PreferenceProfile::from_rows(vec![vec![0]], vec![vec![0], vec![0]]).is_err());
        assert!(PreferenceProfile::from_rows(vec![], vec![]).is_err());
        // A list of the wrong length is caught.
        let bad = PreferenceProfile::new(
            vec![PreferenceList::identity(2), PreferenceList::identity(2)],
            vec![PreferenceList::identity(2), PreferenceList::identity(3)],
        );
        assert!(matches!(bad, Err(MatchingError::WrongListLength { side: "right", .. })));
        assert!(PreferenceProfile::identity(3).is_ok());
        assert!(PreferenceProfile::identity(0).is_err());
    }

    #[test]
    fn iter_visits_in_preference_order() {
        let list = PreferenceList::new(vec![1, 2, 0]).unwrap();
        let collected: Vec<usize> = list.iter().collect();
        assert_eq!(collected, vec![1, 2, 0]);
        assert_eq!(list.as_ref(), &[1, 2, 0]);
    }
}
