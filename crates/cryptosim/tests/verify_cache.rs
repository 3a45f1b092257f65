//! Property tests pinning the cached verify fast path to the uncached one.
//!
//! The [`Verifier`] memo must be *observationally invisible*: for any interleaving of
//! signing and verification — honest signatures, replayed queries, digest-mismatched
//! queries and forged signatures — a memoizing verifier returns exactly what
//! [`Pki::verify_detailed`] returns, and verifying through the cache signs nothing:
//! the calling thread's signature count, which the campaign reports are built from,
//! moves only on [`bsm_crypto::SigningKey::sign`].
//!
//! Forgeries are modeled the only way the public API allows (which is also the
//! strongest attack the idealization admits): signatures produced by a *foreign* PKI
//! with the same deterministic tag scheme — identical bytes, but absent from the local
//! registry until the local key signs the same content.

use bsm_crypto::counters::thread_signatures_issued;
use bsm_crypto::{Digest, Pki, VerifyError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Twin PKIs receive the identical sign sequence; one is queried through a
    /// memoizing [`bsm_crypto::Verifier`], the other directly. Every query must agree,
    /// and the thread's signature count must grow by the sign calls alone (caching
    /// affects neither results nor accounting).
    #[test]
    fn cached_verify_agrees_with_uncached(
        n in 1u32..=5,
        seed in any::<u64>(),
        len in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<(u8, usize, usize)> = (0..len)
            .map(|_| (rng.random_range(0u8..4), rng.random_range(0usize..8), rng.random_range(0usize..8)))
            .collect();
        let contents: Vec<Digest> = (0..8u8).map(|i| Digest::of_bytes(&[i])).collect();
        let cached_pki = Pki::new(n);
        let uncached_pki = Pki::new(n);
        // A foreign setup with extra keys: its signatures carry valid tags but are
        // forgeries locally (UnknownSigner for the extra keys, Forged otherwise —
        // unless the local twin signed the same content, in which case the values
        // coincide and both sides accept).
        let forger = Pki::new(n + 3);
        let mut verifier = cached_pki.verifier();
        let issued = thread_signatures_issued();
        let mut signed = 0;
        let mut cached_sigs = Vec::new();
        let mut uncached_sigs = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                // Sign: the same key/content on both twins.
                0 => {
                    let key = (a as u32) % n;
                    let digest = contents[b];
                    cached_sigs.push(cached_pki.signing_key(key).unwrap().sign(digest));
                    uncached_sigs.push(uncached_pki.signing_key(key).unwrap().sign(digest));
                    signed += 2;
                }
                // Honest + replayed verification (repeat queries are the memo's
                // fast path; every repetition must still agree).
                1 if !cached_sigs.is_empty() => {
                    let i = a % cached_sigs.len();
                    for _ in 0..=(b % 3) {
                        let want =
                            uncached_pki.verify_detailed(&uncached_sigs[i], uncached_sigs[i].digest());
                        let got = verifier.verify_detailed(&cached_sigs[i], cached_sigs[i].digest());
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(want, Ok(()));
                    }
                }
                // Digest-mismatched query against a genuine signature.
                2 if !cached_sigs.is_empty() => {
                    let i = a % cached_sigs.len();
                    let other = contents[b];
                    let want = uncached_pki.verify_detailed(&uncached_sigs[i], other);
                    let got = verifier.verify_detailed(&cached_sigs[i], other);
                    prop_assert_eq!(got, want);
                }
                // Forged / unknown-signer query from the foreign setup.
                3 => {
                    let key = (a as u32) % (n + 3);
                    let digest = contents[b];
                    let foreign = forger.signing_key(key).unwrap().sign(digest);
                    signed += 1;
                    let want = uncached_pki.verify_detailed(&foreign, digest);
                    let got = verifier.verify_detailed(&foreign, digest);
                    prop_assert_eq!(got, want);
                }
                _ => {}
            }
        }
        prop_assert_eq!(thread_signatures_issued() - issued, signed);
    }
}

/// A forged signature rejected by the cache must verify later once the local signer
/// actually signs that content — failures are never memoized.
#[test]
fn late_signing_is_visible_through_the_cache() {
    let pki = Pki::new(2);
    let twin = Pki::new(2); // same key ids and tag scheme, different registry
    let digest = Digest::of_bytes(b"late");
    let mut verifier = pki.verifier();
    let early = twin.signing_key(1).unwrap().sign(digest);
    assert_eq!(verifier.verify_detailed(&early, digest), Err(VerifyError::Forged));
    let issued_before = thread_signatures_issued();
    let ours = pki.signing_key(1).unwrap().sign(digest);
    assert_eq!(ours, early, "identical content and signer produce the identical signature");
    assert_eq!(verifier.verify_detailed(&early, digest), Ok(()));
    assert_eq!(verifier.memoized(), 1);
    // Verification through the cache signs nothing.
    assert_eq!(thread_signatures_issued(), issued_before + 1);
}
