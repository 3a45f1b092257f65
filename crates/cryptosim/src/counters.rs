//! Per-thread counters for the crypto hot path.
//!
//! The scenario engine's performance is dominated by SHA-256 work: every digest
//! computed and every signature verified costs a fixed number of compression rounds.
//! These counters make that work *observable* — `campaign_ctl bench` sums each
//! cell's delta over a fixed campaign into `BENCH_engine.json`, so an optimization
//! that removes redundant hashing shows up as a hard counter drop even on
//! single-core CI hardware where wall-clock is noisy.
//!
//! Each counter is a const-initialized thread-local `Cell<u64>`, so counting an
//! event is one non-atomic add on the calling thread. The counters never participate
//! in protocol logic or exported reports (which stay byte-identical whatever the
//! counters say). They are read as deltas on one thread: [`thread_snapshot`] reads
//! the digest and verification counts, and [`thread_signatures_issued`] the
//! signature count. A campaign cell runs entirely on one worker thread, so the delta
//! around a cell is *exactly* that cell's work, whatever other threads do meanwhile.
//! A scenario run (`bsm_core::harness`) takes its signature count the same way, so
//! that count stays exact even while other threads run the same scenario.

use std::cell::Cell;
use std::ops::{AddAssign, Sub};

thread_local! {
    static DIGESTS_COMPUTED: Cell<u64> = const { Cell::new(0) };
    static SIGNATURES_VERIFIED: Cell<u64> = const { Cell::new(0) };
    static SIGNATURES_ISSUED: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time reading of the calling thread's digest and verification counters.
///
/// Subtracting two snapshots taken on the same thread yields the work performed in
/// between; adding deltas sums the work of several cells. Both saturate, so neither
/// can wrap or panic whatever the operands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Digests computed (SHA-256 finalizations).
    pub digests_computed: u64,
    /// Signature verifications ([`Pki::verify_detailed`](crate::Pki::verify_detailed)
    /// calls).
    pub signatures_verified: u64,
    /// Verifications answered from a memo. Nothing memoizes verifications, so a
    /// snapshot always reads 0 here; the field stays because `BENCH_engine.json`, the
    /// `metrics.jsonl` sidecar and `perfbench` still carry the key.
    pub verify_cache_hits: u64,
}

impl Sub for CounterSnapshot {
    type Output = CounterSnapshot;

    /// Delta between two snapshots, saturating so a mixed-up operand order degrades
    /// to zeros instead of wrapping.
    fn sub(self, earlier: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            digests_computed: self.digests_computed.saturating_sub(earlier.digests_computed),
            signatures_verified: self
                .signatures_verified
                .saturating_sub(earlier.signatures_verified),
            verify_cache_hits: self.verify_cache_hits.saturating_sub(earlier.verify_cache_hits),
        }
    }
}

impl AddAssign for CounterSnapshot {
    /// Field-wise sum, saturating so deltas read from untrusted input cannot wrap.
    fn add_assign(&mut self, other: CounterSnapshot) {
        self.digests_computed = self.digests_computed.saturating_add(other.digests_computed);
        self.signatures_verified =
            self.signatures_verified.saturating_add(other.signatures_verified);
        self.verify_cache_hits = self.verify_cache_hits.saturating_add(other.verify_cache_hits);
    }
}

/// A snapshot of the calling thread's counters: the delta between two calls on the
/// same thread is exactly the work that thread performed in between.
pub fn thread_snapshot() -> CounterSnapshot {
    CounterSnapshot {
        digests_computed: DIGESTS_COMPUTED.get(),
        signatures_verified: SIGNATURES_VERIFIED.get(),
        verify_cache_hits: 0,
    }
}

/// Signatures produced on the calling thread so far ([`SigningKey::sign`] calls,
/// repeat signatures over the same content included).
///
/// [`SigningKey::sign`]: crate::pki::SigningKey::sign
pub fn thread_signatures_issued() -> u64 {
    SIGNATURES_ISSUED.get()
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.set(counter.get() + 1);
}

/// Records one finished digest computation ([`DigestWriter::finish`] or
/// [`Digest::of_bytes`]).
///
/// [`DigestWriter::finish`]: crate::digest::DigestWriter::finish
/// [`Digest::of_bytes`]: crate::digest::Digest::of_bytes
pub(crate) fn count_digest() {
    bump(&DIGESTS_COMPUTED);
}

/// Records one signature verification.
pub(crate) fn count_verification() {
    bump(&SIGNATURES_VERIFIED);
}

/// Records one signature produced by [`SigningKey::sign`](crate::pki::SigningKey::sign).
pub(crate) fn count_signature() {
    bump(&SIGNATURES_ISSUED);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let before = thread_snapshot();
        let signatures = thread_signatures_issued();
        count_digest();
        count_verification();
        count_signature();
        let after = thread_snapshot();
        assert!(after.digests_computed > before.digests_computed);
        assert!(after.signatures_verified > before.signatures_verified);
        assert_eq!(after.verify_cache_hits, 0, "nothing memoizes verifications");
        assert!(thread_signatures_issued() > signatures);
    }

    #[test]
    fn thread_snapshot_delta_is_exact_despite_other_threads() {
        // Another thread counting must not leak into this thread's delta: this is
        // the property that makes per-cell attribution exact.
        let noise = std::thread::spawn(|| {
            for _ in 0..10_000 {
                count_digest();
                count_verification();
                count_signature();
            }
        });
        let before = thread_snapshot();
        let signatures = thread_signatures_issued();
        count_digest();
        count_digest();
        count_verification();
        count_signature();
        let delta = thread_snapshot() - before;
        let signed = thread_signatures_issued() - signatures;
        noise.join().unwrap();
        assert_eq!(delta.digests_computed, 2);
        assert_eq!(delta.signatures_verified, 1);
        assert_eq!(signed, 1);
    }

    #[test]
    fn snapshot_matches_accessors_and_sub_saturates() {
        let before = thread_snapshot();
        count_digest();
        let delta = thread_snapshot() - before;
        assert_eq!(delta, CounterSnapshot { digests_computed: 1, ..CounterSnapshot::default() });
        // Swapped operands saturate to zero rather than wrapping.
        assert_eq!(before - thread_snapshot(), CounterSnapshot::default());
        // Sums saturate at the top rather than wrapping or panicking.
        let mut sum = CounterSnapshot { verify_cache_hits: u64::MAX, ..delta };
        sum += delta;
        sum += CounterSnapshot { verify_cache_hits: 1, ..CounterSnapshot::default() };
        assert_eq!(
            sum,
            CounterSnapshot {
                digests_computed: 2,
                signatures_verified: 0,
                verify_cache_hits: u64::MAX,
            }
        );
    }
}
