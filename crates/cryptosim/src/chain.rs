//! Shared, copy-on-extend signature chains.
//!
//! Authenticated broadcast protocols relay a growing chain of signatures to `n − 1`
//! recipients per round. With a plain `Vec<Signature>` every recipient gets a deep
//! copy (`O(n · r)` signature copies per relay); a [`SigChain`] shares one immutable
//! chain behind an `Arc`, so fanning a message out costs one reference-count bump per
//! recipient and only [`SigChain::extended`] — called once per relay, not once per
//! recipient — copies the chain, straight into the new chain's one allocation.

use crate::digest::{DigestWriter, Digestible};
use crate::pki::{KeyId, Signature};
use std::sync::Arc;

/// An immutable, cheaply clonable signature chain.
///
/// Cloning is `O(1)` (an `Arc` bump); [`extended`](Self::extended) produces a new
/// chain with one signature appended, leaving the original untouched — the
/// copy-on-extend discipline authenticated relaying needs.
///
/// The [`Digestible`] encoding is identical to `Vec<Signature>`'s (length prefix,
/// then each signature), so switching a message type between the two never changes
/// any content digest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SigChain {
    sigs: Arc<[Signature]>,
}

impl SigChain {
    /// The empty chain.
    pub fn new() -> Self {
        Self { sigs: Arc::from(Vec::new()) }
    }

    /// A chain holding exactly `signature`.
    pub fn single(signature: Signature) -> Self {
        Self { sigs: Arc::from([signature]) }
    }

    /// A new chain equal to `self` with `signature` appended (copy-on-extend). The
    /// links are collected straight into the new chain's `Arc`, whose length the
    /// iterator knows, so extending allocates once.
    pub fn extended(&self, signature: Signature) -> Self {
        Self { sigs: self.sigs.iter().copied().chain([signature]).collect() }
    }

    /// The signatures, oldest first.
    pub fn as_slice(&self) -> &[Signature] {
        &self.sigs
    }

    /// Iterates the signatures, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, Signature> {
        self.sigs.iter()
    }

    /// The first (oldest) signature, if any.
    pub fn first(&self) -> Option<&Signature> {
        self.sigs.first()
    }

    /// Number of signatures in the chain.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Returns `true` for the empty chain.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Returns `true` if any link was signed by `key`.
    pub fn contains_signer(&self, key: KeyId) -> bool {
        self.sigs.iter().any(|sig| sig.signer() == key)
    }
}

impl Default for SigChain {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<Signature>> for SigChain {
    fn from(sigs: Vec<Signature>) -> Self {
        Self { sigs: sigs.into() }
    }
}

impl<'a> IntoIterator for &'a SigChain {
    type Item = &'a Signature;
    type IntoIter = std::slice::Iter<'a, Signature>;

    fn into_iter(self) -> Self::IntoIter {
        self.sigs.iter()
    }
}

impl Digestible for SigChain {
    fn feed(&self, writer: &mut DigestWriter) {
        self.as_slice().feed(writer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::pki::Pki;

    fn three_sigs() -> Vec<Signature> {
        let pki = Pki::new(3);
        (0..3)
            .map(|i| pki.signing_key(i).unwrap().sign(Digest::of_bytes(format!("m{i}").as_bytes())))
            .collect()
    }

    #[test]
    fn extend_shares_the_prefix_and_clones_cheaply() {
        let sigs = three_sigs();
        let chain = SigChain::single(sigs[0]);
        let longer = chain.extended(sigs[1]).extended(sigs[2]);
        assert_eq!(chain.len(), 1, "extending must not mutate the original");
        assert_eq!(longer.len(), 3);
        assert_eq!(longer.as_slice(), &sigs[..]);
        assert_eq!(longer.first(), Some(&sigs[0]));
        assert_eq!(longer.clone(), longer);
        assert!(longer.contains_signer(KeyId(1)));
        assert!(!chain.contains_signer(KeyId(1)));
        assert_eq!((&longer).into_iter().count(), 3);
        assert_eq!(longer.iter().count(), 3);
    }

    #[test]
    fn empty_and_from_vec() {
        assert!(SigChain::new().is_empty());
        assert!(SigChain::default().first().is_none());
        let sigs = three_sigs();
        let chain: SigChain = sigs.clone().into();
        assert_eq!(chain.as_slice(), &sigs[..]);
    }

    #[test]
    fn digestible_encoding_matches_vec_of_signatures() {
        let sigs = three_sigs();
        let chain: SigChain = sigs.clone().into();
        assert_eq!(Digest::of(&chain), Digest::of(&sigs));
        assert_eq!(Digest::of(&SigChain::new()), Digest::of(&Vec::<Signature>::new()));
    }
}
