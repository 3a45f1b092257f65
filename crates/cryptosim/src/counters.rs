//! Process-global counters for the crypto hot path.
//!
//! The scenario engine's performance is dominated by SHA-256 work: every digest
//! computed and every signature verified costs a fixed number of compression rounds.
//! These counters make that work *observable* — `campaign_ctl bench` sums each
//! cell's delta over a fixed campaign into `BENCH_engine.json`, so an optimization
//! that removes redundant hashing shows up as a hard counter drop even on
//! single-core CI hardware where wall-clock is noisy.
//!
//! The counters are monotone, process-wide and updated with relaxed atomics: they
//! never participate in protocol logic or exported reports (which stay byte-identical
//! whatever the counters say) and impose one uncontended `fetch_add` per event.
//!
//! Each event is additionally mirrored into a per-thread counter (a const-initialized
//! `Cell<u64>`, ~1 cheap non-atomic add). [`thread_snapshot`] reads the calling
//! thread's totals, which is what lets the campaign engine attribute crypto work to an
//! individual grid cell: each cell runs entirely on one worker thread, so the
//! thread-local delta around a cell is *exactly* that cell's work even while other
//! workers hammer the global counters concurrently.

use std::cell::Cell;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

static DIGESTS_COMPUTED: AtomicU64 = AtomicU64::new(0);
static SIGNATURES_VERIFIED: AtomicU64 = AtomicU64::new(0);
static VERIFY_CACHE_HITS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_DIGESTS_COMPUTED: Cell<u64> = const { Cell::new(0) };
    static TL_SIGNATURES_VERIFIED: Cell<u64> = const { Cell::new(0) };
    static TL_VERIFY_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time reading of the three crypto counters.
///
/// Snapshots are taken either process-wide ([`snapshot`]) or for the calling thread
/// only ([`thread_snapshot`]); subtracting two snapshots of the same kind yields the
/// work performed in between. All fields are monotone, so the subtraction in
/// [`Sub`] never underflows when `earlier <= later` snapshots are ordered correctly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Digests computed (SHA-256 finalizations).
    pub digests_computed: u64,
    /// Full (uncached) signature verifications.
    pub signatures_verified: u64,
    /// Verifications answered from a [`Verifier`](crate::pki::Verifier) memo.
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

/// A snapshot of the process-global counters.
pub fn snapshot() -> CounterSnapshot {
    CounterSnapshot {
        digests_computed: digests_computed(),
        signatures_verified: signatures_verified(),
        verify_cache_hits: verify_cache_hits(),
    }
}

/// A snapshot of the calling thread's own counters.
///
/// Unlike [`snapshot`], this is immune to concurrent work on other threads: the delta
/// between two `thread_snapshot` calls on the same thread is exactly the work that
/// thread performed in between.
pub fn thread_snapshot() -> CounterSnapshot {
    CounterSnapshot {
        digests_computed: TL_DIGESTS_COMPUTED.get(),
        signatures_verified: TL_SIGNATURES_VERIFIED.get(),
        verify_cache_hits: TL_VERIFY_CACHE_HITS.get(),
    }
}

/// Records one finished digest computation ([`DigestWriter::finish`] or
/// [`Digest::of_bytes`]).
///
/// [`DigestWriter::finish`]: crate::digest::DigestWriter::finish
/// [`Digest::of_bytes`]: crate::digest::Digest::of_bytes
pub(crate) fn count_digest() {
    DIGESTS_COMPUTED.fetch_add(1, Ordering::Relaxed);
    TL_DIGESTS_COMPUTED.set(TL_DIGESTS_COMPUTED.get() + 1);
}

/// Records one full (uncached) signature verification.
pub(crate) fn count_verification() {
    SIGNATURES_VERIFIED.fetch_add(1, Ordering::Relaxed);
    TL_SIGNATURES_VERIFIED.set(TL_SIGNATURES_VERIFIED.get() + 1);
}

/// Records one verification answered from a [`Verifier`](crate::pki::Verifier) memo.
pub(crate) fn count_cache_hit() {
    VERIFY_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    TL_VERIFY_CACHE_HITS.set(TL_VERIFY_CACHE_HITS.get() + 1);
}

/// Total digests computed by this process so far.
pub fn digests_computed() -> u64 {
    DIGESTS_COMPUTED.load(Ordering::Relaxed)
}

/// Total full signature verifications performed by this process so far (memo hits
/// excluded).
pub fn signatures_verified() -> u64 {
    SIGNATURES_VERIFIED.load(Ordering::Relaxed)
}

/// Total signature verifications answered from a per-verifier memo so far.
pub fn verify_cache_hits() -> u64 {
    VERIFY_CACHE_HITS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let d0 = digests_computed();
        let v0 = signatures_verified();
        let h0 = verify_cache_hits();
        count_digest();
        count_verification();
        count_cache_hit();
        assert!(digests_computed() > d0);
        assert!(signatures_verified() > v0);
        assert!(verify_cache_hits() > h0);
    }

    #[test]
    fn thread_snapshot_delta_is_exact_despite_other_threads() {
        // Another thread hammering the counters must not leak into this thread's
        // delta: this is the property that makes per-cell attribution exact.
        let noise = std::thread::spawn(|| {
            for _ in 0..10_000 {
                count_digest();
                count_verification();
                count_cache_hit();
            }
        });
        let before = thread_snapshot();
        count_digest();
        count_digest();
        count_verification();
        count_cache_hit();
        let delta = thread_snapshot() - before;
        noise.join().unwrap();
        assert_eq!(delta.digests_computed, 2);
        assert_eq!(delta.signatures_verified, 1);
        assert_eq!(delta.verify_cache_hits, 1);
    }

    #[test]
    fn snapshot_matches_accessors_and_sub_saturates() {
        let snap = snapshot();
        assert!(snap.digests_computed <= digests_computed());
        let later = snapshot();
        let delta = later - snap;
        assert!(delta.digests_computed <= later.digests_computed);
        // Swapped operands saturate to zero rather than wrapping.
        let bigger = CounterSnapshot { digests_computed: 7, ..CounterSnapshot::default() };
        assert_eq!((CounterSnapshot::default() - bigger).digests_computed, 0);
    }
}
