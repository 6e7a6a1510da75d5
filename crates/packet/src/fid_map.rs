//! Hash maps keyed by [`Fid`], with a hasher made for 20-bit flow IDs.
//!
//! The std `HashMap` hashes with randomly keyed SipHash-1-3, which costs
//! tens of nanoseconds per key. A FID is already a hash of the 5-tuple
//! ([`crate::FiveTuple::fid`]), only 20 bits wide, so one folded multiply
//! is enough to spread it over the whole hash word. The hasher is fixed
//! and unkeyed: traffic crafted to collide in a table would slow it down,
//! the same exposure the 20-bit FID space already has (paper §VI-B).
//! [`FidMap`] and [`FidSet`] are the std collections with that hasher;
//! every per-flow table in the
//! workspace (the Local MATs, the Event Table, the batch caches and the
//! NFs' per-flow state) uses them.
//!
//! hashbrown, the table behind std's `HashMap`, takes a bucket index from
//! the hash's low bits and a 7-bit tag from its top bits, so both ends of
//! the word must depend on every FID bit. A 64 × 64 → 128-bit multiply by
//! an odd constant, folded by XOR of its two halves, gives that: the
//! product's middle bits (the top of the low half) mix all input bits, and
//! the high half folds the upper input bits down into the low bits.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::Fid;

/// The odd multiplier of the fold: 2⁶⁴ / φ, the golden-ratio constant of
/// Fibonacci hashing.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-fold hasher for [`Fid`] keys (see the module docs).
///
/// `Fid`'s derived `Hash` writes one `u32`, which takes the
/// [`Hasher::write_u32`] fast path. Other writes are folded in eight
/// bytes at a time, so the hasher stays correct (if slower) for any key.
#[derive(Debug, Clone, Copy, Default)]
pub struct FidHasher(u64);

impl FidHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(K);
        // Keeping the halves of the product is the point of the fold.
        #[allow(clippy::cast_possible_truncation)]
        let low = product as u64;
        self.0 = low ^ (product >> 64) as u64;
    }
}

impl Hasher for FidHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
}

/// The `BuildHasher` of [`FidMap`] and [`FidSet`].
pub type FidBuildHasher = BuildHasherDefault<FidHasher>;

/// A `HashMap` keyed by [`Fid`], hashed with [`FidHasher`]. Build one with
/// `FidMap::default()` or `FidMap::with_capacity_and_hasher(n,
/// Default::default())`.
pub type FidMap<V> = HashMap<Fid, V, FidBuildHasher>;

/// A `HashSet` of [`Fid`]s, hashed with [`FidHasher`].
pub type FidSet = HashSet<Fid, FidBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    fn hash(fid: Fid) -> u64 {
        FidBuildHasher::default().hash_one(fid)
    }

    /// Distinct values among `f(hash)` over `fids`.
    fn distinct(fids: &[Fid], f: impl Fn(u64) -> u64) -> usize {
        fids.iter().map(|&fid| f(hash(fid))).collect::<HashSet<_>>().len()
    }

    /// Asserts the FIDs spread over both the low bits hashbrown indexes
    /// buckets with and the top seven bits it keeps as the tag.
    fn assert_spreads(fids: &[Fid], what: &str) {
        assert_eq!(fids.len(), 1024);
        // 1024 keys into 1024 buckets: a uniform hash fills ~63% of them
        // (1 - 1/e); a hash that ignores some key bits fills far fewer.
        let buckets = distinct(fids, |h| h & 1023);
        assert!(buckets > 560, "{what}: only {buckets}/1024 low-bit buckets used");
        // And every one of the 128 tags appears.
        let tags = distinct(fids, |h| h >> 57);
        assert_eq!(tags, 128, "{what}: only {tags}/128 tags used");
    }

    #[test]
    fn sequential_fids_spread_over_low_and_top_bits() {
        let fids: Vec<Fid> = (0..1024).map(Fid::new).collect();
        assert_spreads(&fids, "sequential");
    }

    #[test]
    fn fids_differing_only_in_high_bits_spread() {
        // Bits 10..20 vary, the low ten bits are fixed.
        let fids: Vec<Fid> = (0..1024).map(|i| Fid::new((i << 10) | 0x2a5)).collect();
        assert_spreads(&fids, "high-bit");
    }

    #[test]
    fn maps_and_sets_work_with_the_hasher() {
        let mut map: FidMap<u32> = FidMap::default();
        let mut set = FidSet::default();
        for n in 0..1000u32 {
            map.insert(Fid::new(n * 977), n);
            set.insert(Fid::new(n * 977));
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(set.len(), 1000);
        assert_eq!(map[&Fid::new(977 * 500)], 500);
        assert!(set.contains(&Fid::new(0)));
        assert!(!set.contains(&Fid::new(1)));
    }

    #[test]
    fn byte_writes_are_hashed_too() {
        let mut a = FidHasher::default();
        a.write(b"0123456789");
        let mut b = FidHasher::default();
        b.write(b"0123456780");
        assert_ne!(a.finish(), b.finish());
    }
}
