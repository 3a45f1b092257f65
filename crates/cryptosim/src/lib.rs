//! Simulated cryptographic substrate for the byzantine stable matching protocols.
//!
//! The paper's authenticated setting assumes "a public key infrastructure and a secure
//! digital signature scheme … for simplicity of presentation, we assume that signatures
//! are unforgeable" (§2). This crate provides exactly that idealization for use inside
//! the deterministic network simulator:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation (no external crypto
//!   dependency) used to bind signatures to message contents,
//! * [`Digest`] and [`DigestWriter`] — content hashing of structured protocol messages,
//! * [`Pki`], [`SigningKey`], [`Signature`] — an idealized EUF-CMA signature scheme: a
//!   signature verifies if and only if the holder of the corresponding [`SigningKey`]
//!   actually signed that exact digest. Unforgeability is enforced by a shared signing
//!   registry rather than by number theory, which is the standard idealization used in
//!   distributed computing proofs (and by this paper). The substitution changes no
//!   protocol behaviour the paper analyses: its proofs use only that a signature
//!   cannot be forged, which the registry makes true by construction rather than
//!   computationally hard, with no key generation or modular arithmetic per message
//!   and no randomness that would break the simulator's determinism.
//!
//! # Hashing cost and the one `unsafe` block
//!
//! Every digest finishes through [`sha256::Sha256`]: [`Digest::of`], [`DigestWriter`],
//! signature tags, Dolev–Strong instance digests and relay digests. Its 64-byte block
//! compression has two implementations, chosen per block at run time: one on the x86
//! SHA extensions when `is_x86_feature_detected!` confirms `sha` and `sse4.1`, and a
//! portable one everywhere else. Both give the same digests; a unit test holds the
//! accelerated compression to the portable one on 10,000 seeded random inputs, and
//! the FIPS vectors run through whichever path the CPU selects. The call into the
//! accelerated function, after that feature check, is the crate's only `unsafe`
//! block, which is why this crate denies `unsafe_code` where the rest of the
//! workspace forbids it. Verification hashes nothing (see [`Pki::verify_detailed`]).
//!
//! # Example
//!
//! ```rust
//! use bsm_crypto::{Pki, Digest};
//!
//! let pki = Pki::new(3);
//! let alice = pki.signing_key(0).expect("key 0 exists");
//! let digest = Digest::of_bytes(b"propose: match with party 2");
//! let signature = alice.sign(digest);
//!
//! // Anyone holding the PKI directory can verify…
//! assert!(pki.verify(&signature, digest));
//! // …and a forged signature for a different signer or message does not verify.
//! assert!(!pki.verify(&signature, Digest::of_bytes(b"something else")));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chain;
pub mod counters;
mod digest;
mod pki;
pub mod sha256;

pub use chain::SigChain;
pub use counters::CounterSnapshot;
pub use digest::{Digest, DigestWriter, Digestible};
pub use pki::{KeyId, Pki, Signature, SigningKey, Verifier, VerifyError, VERIFY_MEMO_CAP};
