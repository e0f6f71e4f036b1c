//! Hash maps and sets for small integer-like keys, with one fixed hasher.
//!
//! The standard `HashMap::new` seeds SipHash from the process
//! (`RandomState`), which is ambient randomness and, for the simulator's
//! keys — ids, tokens, link edges — several times the cost of the lookup
//! around it. [`IdMap`] and [`IdSet`] use [`IdHasher`] instead: an
//! FxHash-style multiply-rotate hasher with no seed, so the same keys land
//! in the same buckets in every process.
//!
//! These types are for keyed access only. Iterating a hash map visits its
//! keys in bucket order, which depends on the hash function and on the
//! insertion history; a map that is iterated stays a `BTreeMap` (the
//! workspace `clippy.toml` rejects `iter` and friends on both).
//!
//! The hasher is not collision-resistant: it is for keys the simulation
//! mints itself, never for keys an adversary chooses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the fixed [`IdHasher`]. Build one with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` with the fixed [`IdHasher`]. Build one with
/// `IdSet::default()`.
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// FxHash's multiplier (the one rustc's own `FxHasher` uses).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// An FxHash-style hasher: each word is folded in as
/// `h = (h.rotl(5) ^ word) * K`. Unseeded, so deterministic across
/// processes.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    #[test]
    fn the_hash_is_fixed() {
        // Pinned values: the hasher takes no seed, so these hold in every
        // process.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), K);
        assert_eq!(
            hash_of(&(1u32, 2u32)),
            (K.rotate_left(5) ^ 2).wrapping_mul(K)
        );
    }

    #[test]
    fn byte_writes_fold_whole_and_partial_words() {
        let mut a = IdHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 7]);
        let mut b = IdHasher::default();
        b.write_u64(1);
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_answer_lookups() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        let mut s: IdSet<(u32, u8)> = IdSet::default();
        for i in 0..10_000u64 {
            m.insert(i * 3, i as u32);
            s.insert((i as u32, (i % 7) as u8));
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&2_997), Some(&999));
        assert_eq!(m.get(&2_998), None);
        assert!(s.contains(&(42, 0)));
        assert!(!s.contains(&(42, 1)));
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.len(), 9_999);
    }
}
