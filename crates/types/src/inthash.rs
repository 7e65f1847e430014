//! Seedless hash maps and sets for integer keys.
//!
//! AsmDB's analysis makes a map operation for every dynamic instruction
//! of a trace and for every state of its CFG walk, always on integer keys:
//! PCs, line numbers, block ids, and `(block, distance)` pairs packed into
//! one `u64`. The standard library's SipHash is built to resist chosen
//! keys, which these keys never are, and costs several times a multiply.
//! [`IntHasher`] folds each integer with one add and one multiply and
//! rotates the product once at the end.
//!
//! The hasher has no seed, so an [`IntMap`] iterates in the same order on
//! every run. That order still depends on the insertion history and the
//! capacity, so code whose output must be stable sorts what it collects
//! rather than relying on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers (or tuples of them) over [`IntHasher`].
///
/// # Examples
///
/// ```
/// use swip_types::IntMap;
///
/// let mut blocks: IntMap<u64, usize> = IntMap::default();
/// blocks.insert(0x1_0000, 0);
/// assert_eq!(blocks.get(&0x1_0000), Some(&0));
/// ```
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of integers (or tuples of them) over [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// A multiply-rotate hasher for integer keys.
///
/// Each 64-bit word `n` folds in as `h = (h + n) × K`; `finish` returns
/// `h` rotated left by 26 bits. The product's low bits depend only on the
/// key's low bits, so without the rotation PCs at stride 4 would use a
/// quarter of a table's buckets and packed `(block << 32) | distance` keys
/// would collide on every block. The rotation brings the product's
/// well-mixed high bits down to where the table picks its bucket.
#[derive(Clone, Copy, Default, Debug)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(Self::K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// The share of the 4096 possible values that the low 12 bits of the
    /// keys' hashes take.
    fn low_bits_fill(keys: impl Iterator<Item = u64>) -> f64 {
        let build = BuildHasherDefault::<IntHasher>::default();
        let mut seen = vec![false; 4096];
        for k in keys {
            seen[(build.hash_one(k) & 0xfff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count() as f64 / 4096.0
    }

    #[test]
    fn low_bits_spread_over_each_key_family() {
        let families: [(&str, Vec<u64>); 4] = [
            (
                "pcs at stride 4",
                (0..4096).map(|i| 0x1_0000 + 4 * i).collect(),
            ),
            (
                "line bases at stride 64",
                (0..4096).map(|i| 0x1_0000 + 64 * i).collect(),
            ),
            (
                "consecutive line numbers",
                (0..4096).map(|i| 0x400 + i).collect(),
            ),
            (
                "packed (block, distance)",
                (0..64u64)
                    .flat_map(|b| (0..64u64).map(move |d| (b << 32) | d))
                    .collect(),
            ),
        ];
        for (name, keys) in families {
            let fill = low_bits_fill(keys.into_iter());
            assert!(
                fill >= 0.40,
                "{name}: low 12 bits take {:.1}%",
                fill * 100.0
            );
        }
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IntMap<(u64, u64), u32> = IntMap::default();
        *m.entry((1, 2)).or_insert(0) += 3;
        *m.entry((1, 2)).or_insert(0) += 4;
        m.insert((2, 1), 1);
        assert_eq!(m[&(1, 2)], 7);
        assert_eq!(m.len(), 2);
        let mut s: IntSet<usize> = IntSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }

    #[test]
    fn byte_writes_fold_little_endian_words() {
        let mut words = IntHasher::default();
        words.write_u64(0x0807_0605_0403_0201);
        words.write_u64(0x09);
        let mut bytes = IntHasher::default();
        bytes.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(words.finish(), bytes.finish());
    }
}
