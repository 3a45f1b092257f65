use crate::digest::{Digest, DigestWriter};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// Identifier of a key pair in the [`Pki`] directory (one per party).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// A digital signature over a [`Digest`].
///
/// Signatures are transferable values: protocols embed them in messages and any party
/// holding the [`Pki`] directory can verify them, exactly as with real signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: KeyId,
    digest: Digest,
    tag: Digest,
}

impl Signature {
    /// The key that (claims to have) produced this signature.
    pub fn signer(&self) -> KeyId {
        self.signer
    }

    /// The digest this signature covers.
    pub fn digest(&self) -> Digest {
        self.digest
    }
}

impl crate::digest::Digestible for Signature {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.label("sig").u64(u64::from(self.signer.0)).digest(self.digest).digest(self.tag);
    }
}

impl crate::digest::Digestible for KeyId {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.u64(u64::from(self.0));
    }
}

/// Why a signature failed to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The signer id does not exist in this PKI.
    UnknownSigner,
    /// The signature does not cover the claimed digest.
    DigestMismatch,
    /// The signature was never produced by the claimed signer (forgery attempt).
    Forged,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownSigner => write!(f, "unknown signer"),
            VerifyError::DigestMismatch => write!(f, "signature does not cover this digest"),
            VerifyError::Forged => write!(f, "signature was not produced by the claimed signer"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// One key pair's slice of the signing registry: the digests actually signed with
/// this key via a [`SigningKey`], each mapped to its [`expected_tag`].
///
/// The registry is sharded **per key**, one lock each: signing with key `i` touches
/// only shard `i`, so parties signing concurrently never contend on a shared lock.
/// The digest maps are append-only, so a signature that verifies once verifies
/// forever. Because each signed digest maps to the content tag computed at signing
/// time, verification compares the claimed tag against the stored one instead of
/// re-hashing — [`Pki::verify_detailed`] performs **zero** digest computations.
type KeyShard = RwLock<HashMap<Digest, Digest>>;

/// A simulated public key infrastructure with idealized unforgeable signatures.
///
/// `Pki::new(n)` creates one key pair per party (keys `0..n`). Distribute each
/// [`SigningKey`] to its party (only the key holder can sign) and clone the `Pki`
/// handle freely as the public directory (anyone can verify).
///
/// The idealization: a [`Signature`] verifies iff the corresponding [`SigningKey`]
/// actually produced it for exactly that digest. Byzantine parties can replay or
/// re-distribute signatures they have seen (as with real signatures) but cannot forge
/// signatures of honest parties, matching the paper's §2 assumption.
///
/// Internally the signing registry is sharded per key (one lock per key), so signing
/// and verifying against *different* keys never contend. Verifying is one lookup and
/// one tag compare, so callers verify through the `Pki` itself and cache nothing.
#[derive(Debug, Clone)]
pub struct Pki {
    shards: Arc<[KeyShard]>,
}

impl Pki {
    /// Creates a PKI with `n` key pairs, identified by `KeyId(0)…KeyId(n-1)`.
    pub fn new(n: u32) -> Self {
        let shards: Vec<KeyShard> = (0..n).map(|_| KeyShard::default()).collect();
        Self { shards: shards.into() }
    }

    /// Number of key pairs in the directory.
    pub fn len(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Returns `true` if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Hands out the signing key for `id`.
    ///
    /// Returns `None` if `id` is not in the directory. The simulator calls this once per
    /// party at setup; handing a key to the adversary models corrupting that party.
    pub fn signing_key(&self, id: u32) -> Option<SigningKey> {
        if (id as usize) < self.shards.len() {
            Some(SigningKey { id: KeyId(id), shards: Arc::clone(&self.shards) })
        } else {
            None
        }
    }

    /// Verifies that `signature` is a valid signature by `signature.signer()` over
    /// `digest`. Returns `false` on any failure; use [`Pki::verify_detailed`] for the
    /// reason.
    pub fn verify(&self, signature: &Signature, digest: Digest) -> bool {
        self.verify_detailed(signature, digest).is_ok()
    }

    /// Verifies a signature, reporting why verification failed.
    ///
    /// Hash-free: the claimed tag is compared against the tag stored at signing time,
    /// which is equivalent to recomputing the expected tag (the stored tag *is* the
    /// expected tag) — a digest the signer never signed fails the registry lookup, and
    /// a tampered tag on a signed digest fails the comparison, exactly the two
    /// `Forged` cases of the recomputing implementation.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::UnknownSigner`] if the signer id is not in the directory,
    /// [`VerifyError::DigestMismatch`] if the signature covers a different digest, and
    /// [`VerifyError::Forged`] if the claimed signer never signed this digest or the
    /// tag does not match.
    pub fn verify_detailed(
        &self,
        signature: &Signature,
        digest: Digest,
    ) -> Result<(), VerifyError> {
        crate::counters::count_verification();
        let Some(shard) = self.shards.get(signature.signer.0 as usize) else {
            return Err(VerifyError::UnknownSigner);
        };
        if signature.digest != digest {
            return Err(VerifyError::DigestMismatch);
        }
        let signed = shard.read().expect("registry lock is never poisoned");
        match signed.get(&digest) {
            Some(tag) if *tag == signature.tag => Ok(()),
            _ => Err(VerifyError::Forged),
        }
    }
}

/// The secret signing half of a key pair. Only its holder can produce signatures.
#[derive(Debug, Clone)]
pub struct SigningKey {
    id: KeyId,
    shards: Arc<[KeyShard]>,
}

impl SigningKey {
    /// The public identifier of this key.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// Signs a digest. Touches only this key's registry shard, so concurrent signers
    /// with different keys never contend; re-signing already-signed content reuses the
    /// stored tag instead of re-hashing. Every call counts once in the calling
    /// thread's [`thread_signatures_issued`](crate::counters::thread_signatures_issued).
    pub fn sign(&self, digest: Digest) -> Signature {
        let tag = *self.shards[self.id.0 as usize]
            .write()
            .expect("registry lock is never poisoned")
            .entry(digest)
            .or_insert_with(|| expected_tag(self.id, digest));
        crate::counters::count_signature();
        Signature { signer: self.id, digest, tag }
    }
}

/// Deterministic content tag binding a signer id to a digest. The tag alone is not
/// sufficient for verification (the registry check is what rules out forgeries); it
/// exists so that two `Signature` values over the same content compare equal.
fn expected_tag(signer: KeyId, digest: Digest) -> Digest {
    let mut w = DigestWriter::new();
    w.label("bsm-signature").u64(u64::from(signer.0)).digest(digest);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_and_verify_roundtrip() {
        let pki = Pki::new(4);
        assert_eq!(pki.len(), 4);
        assert!(!pki.is_empty());
        let key = pki.signing_key(2).unwrap();
        assert_eq!(key.id(), KeyId(2));
        let digest = Digest::of_bytes(b"hello");
        let sig = key.sign(digest);
        assert_eq!(sig.signer(), KeyId(2));
        assert_eq!(sig.digest(), digest);
        assert!(pki.verify(&sig, digest));
        assert_eq!(pki.verify_detailed(&sig, digest), Ok(()));
    }

    #[test]
    fn verification_fails_for_wrong_digest() {
        let pki = Pki::new(2);
        let key = pki.signing_key(0).unwrap();
        let sig = key.sign(Digest::of_bytes(b"a"));
        assert_eq!(
            pki.verify_detailed(&sig, Digest::of_bytes(b"b")),
            Err(VerifyError::DigestMismatch)
        );
    }

    #[test]
    fn forged_signature_does_not_verify() {
        let pki = Pki::new(2);
        let key0 = pki.signing_key(0).unwrap();
        let digest = Digest::of_bytes(b"transfer");
        let genuine = key0.sign(digest);

        // An adversary that has seen `genuine` tries to claim party 1 signed it by
        // rewriting the signer field — it cannot construct such a value through the
        // public API, so we simulate the strongest forgery it could attempt: taking a
        // signature party 1 made on *different* content.
        let key1 = pki.signing_key(1).unwrap();
        let other = key1.sign(Digest::of_bytes(b"something else"));
        assert_eq!(pki.verify_detailed(&other, digest), Err(VerifyError::DigestMismatch));

        // A digest party 1 never signed does not verify even with a matching claim.
        let unsigned = Digest::of_bytes(b"never signed by 1");
        let replay =
            Signature { signer: KeyId(1), digest: unsigned, tag: expected_tag(KeyId(1), unsigned) };
        assert_eq!(pki.verify_detailed(&replay, unsigned), Err(VerifyError::Forged));

        // The genuine one still verifies (replaying valid signatures is allowed).
        assert!(pki.verify(&genuine, digest));
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let pki = Pki::new(1);
        assert!(pki.signing_key(5).is_none());
        let other_pki = Pki::new(10);
        let foreign = other_pki.signing_key(7).unwrap().sign(Digest::of_bytes(b"x"));
        assert_eq!(
            pki.verify_detailed(&foreign, Digest::of_bytes(b"x")),
            Err(VerifyError::UnknownSigner)
        );
    }

    #[test]
    fn signatures_do_not_transfer_across_pki_instances() {
        // Two separate PKIs model distinct trusted setups; a signature from one does not
        // verify in the other even for the same key id and digest.
        let pki_a = Pki::new(2);
        let pki_b = Pki::new(2);
        let digest = Digest::of_bytes(b"cross-setup");
        let sig = pki_a.signing_key(0).unwrap().sign(digest);
        assert!(pki_a.verify(&sig, digest));
        assert!(!pki_b.verify(&sig, digest));
    }

    #[test]
    fn clones_share_the_registry() {
        let pki = Pki::new(2);
        let directory = pki.clone();
        let sig = pki.signing_key(1).unwrap().sign(Digest::of_bytes(b"shared"));
        assert!(directory.verify(&sig, Digest::of_bytes(b"shared")));
    }

    #[test]
    fn signature_counter_counts_every_sign_call() {
        use crate::counters::thread_signatures_issued;
        let pki = Pki::new(2);
        let before = thread_signatures_issued();
        let key = pki.signing_key(0).unwrap();
        let digest = Digest::of_bytes(b"counted");
        key.sign(digest);
        key.sign(digest); // repeat signatures over the same content still count
        pki.clone().signing_key(1).unwrap().sign(Digest::of_bytes(b"other"));
        assert_eq!(thread_signatures_issued() - before, 3);
        // Verifying signs nothing.
        assert!(pki.verify(&key.sign(digest), digest));
        assert_eq!(thread_signatures_issued() - before, 4);
    }

    #[test]
    fn display_impls() {
        assert_eq!(KeyId(3).to_string(), "key#3");
        assert!(!VerifyError::Forged.to_string().is_empty());
        assert!(!VerifyError::UnknownSigner.to_string().is_empty());
        assert!(!VerifyError::DigestMismatch.to_string().is_empty());
    }
}
