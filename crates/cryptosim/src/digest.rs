use crate::sha256::Sha256;
use std::fmt;
use std::fmt::Write as _;

/// A 256-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest; useful as a placeholder that never equals a real hash of
    /// protocol content (finding a preimage of zero is assumed infeasible).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes a byte string.
    pub fn of_bytes(data: &[u8]) -> Self {
        crate::counters::count_digest();
        Digest(crate::sha256::sha256(data))
    }

    /// Hashes any [`Digestible`] value.
    pub fn of<T: Digestible + ?Sized>(value: &T) -> Self {
        let mut writer = DigestWriter::new();
        value.feed(&mut writer);
        writer.finish()
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A short hexadecimal prefix, for logs and Debug output.
    pub fn short_hex(&self) -> String {
        let mut out = String::with_capacity(8);
        for b in &self.0[..4] {
            let _ = write!(out, "{b:02x}");
        }
        out
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// An incremental, domain-separated digest builder for structured protocol messages.
///
/// Each primitive written is prefixed with a type tag and (for variable-length data) a
/// length, so distinct structures can never produce colliding byte streams by
/// concatenation ambiguity.
#[derive(Debug, Clone)]
pub struct DigestWriter {
    hasher: Sha256,
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { hasher: Sha256::new() }
    }

    /// Writes a domain-separation label.
    pub fn label(&mut self, label: &str) -> &mut Self {
        self.hasher.update(&[0x01]);
        self.hasher.update(&(label.len() as u64).to_be_bytes());
        self.hasher.update(label.as_bytes());
        self
    }

    /// Writes an unsigned 64-bit integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.hasher.update(&[0x02]);
        self.hasher.update(&value.to_be_bytes());
        self
    }

    /// Writes a usize (as u64).
    pub fn usize(&mut self, value: usize) -> &mut Self {
        self.u64(value as u64)
    }

    /// Writes a boolean.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.hasher.update(&[0x03, u8::from(value)]);
        self
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.hasher.update(&[0x04]);
        self.hasher.update(&(data.len() as u64).to_be_bytes());
        self.hasher.update(data);
        self
    }

    /// Writes a nested digest.
    pub fn digest(&mut self, digest: Digest) -> &mut Self {
        self.hasher.update(&[0x05]);
        self.hasher.update(digest.as_bytes());
        self
    }

    /// Writes a slice of usize values (length-prefixed, as u64).
    pub fn usize_slice(&mut self, values: &[usize]) -> &mut Self {
        self.hasher.update(&[0x08]);
        self.hasher.update(&(values.len() as u64).to_be_bytes());
        for v in values {
            self.hasher.update(&(*v as u64).to_be_bytes());
        }
        self
    }

    /// Finishes and returns the digest.
    pub fn finish(self) -> Digest {
        crate::counters::count_digest();
        Digest(self.hasher.finalize())
    }
}

/// Types that can be deterministically fed into a [`DigestWriter`].
///
/// Protocol messages implement this to obtain canonical content digests for signing.
pub trait Digestible {
    /// Feeds a canonical encoding of `self` into `writer`.
    fn feed(&self, writer: &mut DigestWriter);
}

impl Digestible for [u8] {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.bytes(self);
    }
}

impl Digestible for Vec<u8> {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.bytes(self);
    }
}

impl Digestible for str {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.bytes(self.as_bytes());
    }
}

impl Digestible for u64 {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.u64(*self);
    }
}

impl Digestible for usize {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.usize(*self);
    }
}

impl Digestible for Digest {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.digest(*self);
    }
}

impl<T: Digestible> Digestible for [T] {
    fn feed(&self, writer: &mut DigestWriter) {
        writer.usize(self.len());
        for item in self {
            item.feed(writer);
        }
    }
}

impl<T: Digestible> Digestible for Vec<T> {
    fn feed(&self, writer: &mut DigestWriter) {
        self.as_slice().feed(writer);
    }
}

/// A shared value digests exactly like the value it points to, so a message type can
/// move a field behind an `Arc` without changing any content digest.
impl<T: Digestible + ?Sized> Digestible for std::sync::Arc<T> {
    fn feed(&self, writer: &mut DigestWriter) {
        (**self).feed(writer);
    }
}

impl<T: Digestible> Digestible for Option<T> {
    fn feed(&self, writer: &mut DigestWriter) {
        match self {
            None => {
                writer.bool(false);
            }
            Some(v) => {
                writer.bool(true);
                v.feed(writer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_bytes_matches_sha256() {
        let d = Digest::of_bytes(b"abc");
        assert_eq!(
            d.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(d.as_bytes(), &crate::sha256::sha256(b"abc"));
    }

    #[test]
    fn debug_and_short_hex_are_nonempty() {
        let d = Digest::of_bytes(b"x");
        assert!(format!("{d:?}").contains(&d.short_hex()));
        assert_eq!(d.short_hex().len(), 8);
        assert_eq!(Digest::ZERO.as_ref().len(), 32);
    }

    #[test]
    fn writer_is_deterministic_and_order_sensitive() {
        let a = {
            let mut w = DigestWriter::new();
            w.label("msg").u64(1).u64(2);
            w.finish()
        };
        let a2 = {
            let mut w = DigestWriter::new();
            w.label("msg").u64(1).u64(2);
            w.finish()
        };
        let b = {
            let mut w = DigestWriter::new();
            w.label("msg").u64(2).u64(1);
            w.finish()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn length_prefixing_prevents_concatenation_ambiguity() {
        let a = {
            let mut w = DigestWriter::new();
            w.bytes(b"ab").bytes(b"c");
            w.finish()
        };
        let b = {
            let mut w = DigestWriter::new();
            w.bytes(b"a").bytes(b"bc");
            w.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn shared_values_digest_like_their_contents() {
        let list = vec![3u64, 1, 2];
        let shared: std::sync::Arc<[u64]> = list.clone().into();
        assert_eq!(Digest::of(&shared), Digest::of(&list));
        assert_eq!(Digest::of(&std::sync::Arc::new(7u64)), Digest::of(&7u64));
    }

    #[test]
    fn option_and_slices_are_distinguished() {
        assert_ne!(Digest::of(&None::<u64>), Digest::of(&Some(0u64)));

        let s1 = {
            let mut w = DigestWriter::new();
            w.usize_slice(&[1, 2, 3]);
            w.finish()
        };
        let s2 = {
            let mut w = DigestWriter::new();
            w.usize_slice(&[1, 2]).usize_slice(&[3]);
            w.finish()
        };
        assert_ne!(s1, s2);
    }

    #[test]
    fn digestible_impls_roundtrip() {
        let via_trait = Digest::of("hello");
        let via_writer = {
            let mut w = DigestWriter::new();
            w.bytes(b"hello");
            w.finish()
        };
        assert_eq!(via_trait, via_writer);

        let list: Vec<u64> = vec![7, 8];
        let opt: Option<u64> = Some(9);
        // Just exercise the impls; distinct values hash differently.
        assert_ne!(Digest::of(&list), Digest::of(&opt));
        assert_ne!(Digest::of(&Some(1u64)), Digest::of(&Option::<u64>::None));
        assert_ne!(Digest::of(&1usize), Digest::of(&2usize));
        assert_ne!(Digest::of::<[u8]>(b"a"), Digest::of(&Digest::ZERO));
        assert_eq!(Digest::of(&vec![1u64, 2]), Digest::of::<[u64]>(&[1u64, 2]));
    }
}
