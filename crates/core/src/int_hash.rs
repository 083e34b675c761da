//! Maps keyed by integers the program mints itself — tensor ids, data
//! handles, buffer lengths — hashed by one multiply instead of SipHash.
//!
//! SipHash guards a map against keys chosen to collide, which costs a
//! registry lookup more than the lookup: several are made per kernel. These
//! keys never come from outside the program, so they need no guard. Keys a
//! caller supplies keep the standard hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over program-minted integer keys.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over program-minted integer keys.
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Folds each integer into the state with a 64 × 64 → 128-bit multiply by
/// the golden-ratio constant, XOR-ing the halves: the table indexes by the
/// low bits and the registry shards by them too, so the high half's mixing
/// must reach them.
#[derive(Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One registry shard's ids (every 16th) fill the table's buckets
    /// evenly: no low bit of the key survives unmixed.
    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        let buckets = 256;
        let mut hits = vec![0usize; buckets];
        for id in (0..16 * 4096u64).step_by(16) {
            let mut h = IntHasher::default();
            h.write_u64(id);
            hits[(h.finish() as usize) % buckets] += 1;
        }
        let (lo, hi) = (hits.iter().min().unwrap(), hits.iter().max().unwrap());
        assert!(*lo >= 4 && *hi <= 32, "bucket counts {lo}..{hi} for 4096 keys in 256 buckets");
    }
}
