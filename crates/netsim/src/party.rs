use bsm_matching::Side;
use std::fmt;

/// Identifier of one of the `2k` parties: a side (`L` or `R`) and an index `0..k` within
/// that side.
///
/// Left party `i` corresponds to left agent `i` of the matching market, and likewise on
/// the right, so protocol outputs can be checked directly against
/// [`bsm_matching::Matching`] assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartyId {
    /// The side this party belongs to.
    pub side: Side,
    /// The index within the side, in `0..k`.
    pub index: u32,
}

impl PartyId {
    /// Left party `index`.
    pub fn left(index: u32) -> Self {
        Self { side: Side::Left, index }
    }

    /// Right party `index`.
    pub fn right(index: u32) -> Self {
        Self { side: Side::Right, index }
    }

    /// Returns `true` if this party is on side `L`.
    pub fn is_left(&self) -> bool {
        self.side == Side::Left
    }

    /// Returns `true` if this party is on side `R`.
    pub fn is_right(&self) -> bool {
        self.side == Side::Right
    }

    /// The index as a `usize`, for indexing into per-side vectors.
    pub fn idx(&self) -> usize {
        self.index as usize
    }

    /// A canonical dense numbering of the `2k` parties: left parties come first
    /// (`0..k`), then right parties (`k..2k`).
    ///
    /// Used to assign PKI key ids and to index flat arrays.
    pub fn dense(&self, k: usize) -> usize {
        match self.side {
            Side::Left => self.idx(),
            Side::Right => k + self.idx(),
        }
    }

    /// Inverse of [`PartyId::dense`].
    ///
    /// # Panics
    ///
    /// Panics if `dense >= 2k`.
    pub fn from_dense(dense: usize, k: usize) -> Self {
        assert!(dense < 2 * k, "dense index {dense} out of range for k = {k}");
        if dense < k {
            PartyId::left(dense as u32)
        } else {
            PartyId::right((dense - k) as u32)
        }
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.side, self.index)
    }
}

impl std::str::FromStr for PartyId {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form: a side letter (`L`/`R`) followed by
    /// the decimal index, e.g. `L2` or `R0`.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let (side, index) = match text.split_at_checked(1) {
            Some(("L", index)) => (Side::Left, index),
            Some(("R", index)) => (Side::Right, index),
            _ => return Err(format!("party id {text:?} must start with L or R")),
        };
        let index =
            index.parse().map_err(|_| format!("party id {text:?} has a malformed index"))?;
        Ok(Self { side, index })
    }
}

/// The set of all parties in a market of size `k` (so `2k` parties in total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartySet {
    k: usize,
}

impl PartySet {
    /// Creates the party set for a market with `k` parties per side.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "market size k must be positive");
        Self { k }
    }

    /// Parties per side.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of parties, `n = 2k`.
    pub fn n(&self) -> usize {
        2 * self.k
    }

    /// Iterates over all parties, left side first, in index order.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        let k = self.k as u32;
        (0..k).map(PartyId::left).chain((0..k).map(PartyId::right))
    }

    /// Iterates over the parties of one side in index order.
    pub fn side(&self, side: Side) -> impl Iterator<Item = PartyId> + '_ {
        let k = self.k as u32;
        (0..k).map(move |i| PartyId { side, index: i })
    }

    /// Iterates over the left-side parties.
    pub fn left(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.side(Side::Left)
    }

    /// Returns `true` if `party` is a valid member of this set.
    pub fn contains(&self, party: PartyId) -> bool {
        party.idx() < self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_constructors_and_predicates() {
        let l = PartyId::left(2);
        let r = PartyId::right(0);
        assert!(l.is_left() && !l.is_right());
        assert!(r.is_right() && !r.is_left());
        assert_eq!(l.idx(), 2);
        assert_eq!(l.to_string(), "L2");
        assert_eq!(r.to_string(), "R0");
    }

    #[test]
    fn dense_numbering_roundtrips() {
        let k = 4;
        for dense in 0..2 * k {
            let p = PartyId::from_dense(dense, k);
            assert_eq!(p.dense(k), dense);
        }
        assert_eq!(PartyId::left(3).dense(4), 3);
        assert_eq!(PartyId::right(0).dense(4), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dense_out_of_range_panics() {
        let _ = PartyId::from_dense(8, 4);
    }

    #[test]
    fn party_set_iteration() {
        let set = PartySet::new(3);
        assert_eq!(set.k(), 3);
        assert_eq!(set.n(), 6);
        let all: Vec<PartyId> = set.iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], PartyId::left(0));
        assert_eq!(all[3], PartyId::right(0));
        assert_eq!(set.left().count(), 3);
        assert_eq!(set.side(Side::Right).count(), 3);
        assert!(set.contains(PartyId::left(2)));
        assert!(!set.contains(PartyId::right(3)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn empty_party_set_panics() {
        let _ = PartySet::new(0);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut parties =
            vec![PartyId::right(1), PartyId::left(1), PartyId::right(0), PartyId::left(0)];
        parties.sort();
        assert_eq!(
            parties,
            vec![PartyId::left(0), PartyId::left(1), PartyId::right(0), PartyId::right(1)]
        );
    }
}
