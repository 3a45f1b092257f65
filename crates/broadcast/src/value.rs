/// The bound a broadcast/agreement value must satisfy.
///
/// The paper broadcasts whole preference lists; the protocols here only need values to
/// be cloneable, comparable (for deterministic tie-breaking) and printable, and to own
/// their data (`'static`), since a [`bsm_net::RoundProtocol`] message must. The bound
/// is expressed as a blanket-implemented trait alias so signatures stay short.
pub trait Value: Clone + Eq + Ord + std::fmt::Debug + 'static {}

impl<T: Clone + Eq + Ord + std::fmt::Debug + 'static> Value for T {}

/// Returns the value with the highest multiplicity in `votes`, breaking ties towards the
/// smaller value (by `Ord`) so every honest party breaks ties identically.
///
/// Returns `None` when `votes` is empty.
pub(crate) fn plurality<V: Value>(votes: impl IntoIterator<Item = V>) -> Option<(V, usize)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<V, usize> = BTreeMap::new();
    for vote in votes {
        *counts.entry(vote).or_insert(0) += 1;
    }
    counts.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plurality_picks_the_most_frequent_value() {
        let (winner, count) = plurality(vec![3, 1, 3, 2, 3]).unwrap();
        assert_eq!(winner, 3);
        assert_eq!(count, 3);
    }

    #[test]
    fn plurality_breaks_ties_towards_smaller_value() {
        let (winner, count) = plurality(vec![2, 1, 2, 1]).unwrap();
        assert_eq!(winner, 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn plurality_of_empty_is_none() {
        assert_eq!(plurality(Vec::<u32>::new()), None);
    }
}
