//! The global (branch) history register.

use std::fmt;

/// Width of the global history register in bits.
pub(crate) const HISTORY_BITS: usize = 256;
const WORDS: usize = HISTORY_BITS / 64;

/// A 256-bit global history shift register.
///
/// Bit 0 of word 0 is the most recent outcome. The register is `Copy` so the
/// branch unit can cheaply reset the speculative history to the
/// architectural one after a redirect — the post-fetch-correction mechanism
/// the paper's FDP model relies on ("the FTQ is flushed, the GHR is
/// corrected, and prefetching continues").
///
/// # Examples
///
/// ```
/// use swip_branch::GlobalHistory;
///
/// let mut h = GlobalHistory::new();
/// h.push(true);
/// h.push(false);
/// assert_eq!(h.recent(2), 0b10); // most recent outcome (false) in bit 0
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct GlobalHistory {
    words: [u64; WORDS],
}

impl GlobalHistory {
    /// Creates an all-zero (all-not-taken) history.
    pub const fn new() -> Self {
        GlobalHistory { words: [0; WORDS] }
    }

    /// Shifts in one outcome (`true` = taken) as the new most-recent bit.
    pub fn push(&mut self, taken: bool) {
        let mut carry = taken as u64;
        for w in self.words.iter_mut() {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
    }

    /// Returns the `n` most recent outcomes packed into the low bits of a
    /// `u64` (most recent in bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn recent(&self, n: usize) -> u64 {
        assert!(n <= 64, "recent() supports at most 64 bits, got {n}");
        if n == 0 {
            return 0;
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        self.words[0] & mask
    }

    /// XOR-folds the `len` most recent history bits down to `out_bits` bits.
    ///
    /// This is the standard index-hashing primitive for gshare- and
    /// perceptron-style predictors with long histories.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or greater than 63, or if `len` exceeds the
    /// register width.
    pub fn fold(&self, len: usize, out_bits: u32) -> u64 {
        assert!(out_bits > 0 && out_bits < 64, "out_bits must be in 1..64");
        assert!(len <= HISTORY_BITS, "history length {len} exceeds register");
        let mask = (1u64 << out_bits) - 1;
        let mut acc = 0u64;
        let mut taken_bits = 0usize;
        let mut word = 0usize;
        while taken_bits < len {
            let take = (len - taken_bits).min(64);
            let mut w = self.words[word];
            if take < 64 {
                w &= (1u64 << take) - 1;
            }
            // Fold this word's chunk into the accumulator out_bits at a time.
            let mut folded = w;
            while folded != 0 {
                acc ^= folded & mask;
                folded >>= out_bits;
            }
            taken_bits += take;
            word += 1;
        }
        acc & mask
    }

    /// Clears the history to all-not-taken.
    pub fn clear(&mut self) {
        self.words = [0; WORDS];
    }
}

impl fmt::Debug for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GlobalHistory({:016x}…)", self.words[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_most_recent_into_bit0() {
        let mut h = GlobalHistory::new();
        h.push(true);
        assert_eq!(h.recent(1), 1);
        h.push(false);
        assert_eq!(h.recent(1), 0);
        assert_eq!(h.recent(2), 0b10);
        h.push(true);
        assert_eq!(h.recent(3), 0b101);
    }

    #[test]
    fn carry_propagates_across_words() {
        let mut h = GlobalHistory::new();
        h.push(true);
        for _ in 0..64 {
            h.push(false);
        }
        // The taken bit is now bit 0 of word 1; folding 65 bits must see it.
        assert_eq!(h.recent(64), 0);
        assert_ne!(h.fold(65, 16), h.fold(64, 16));
    }

    #[test]
    fn fold_is_deterministic_and_bounded() {
        let mut h = GlobalHistory::new();
        for i in 0..100 {
            h.push(i % 3 == 0);
        }
        let a = h.fold(93, 12);
        let b = h.fold(93, 12);
        assert_eq!(a, b);
        assert!(a < (1 << 12));
    }

    #[test]
    fn different_histories_usually_fold_differently() {
        let mut h1 = GlobalHistory::new();
        let mut h2 = GlobalHistory::new();
        for i in 0..32 {
            h1.push(i % 2 == 0);
            h2.push(i % 2 == 1);
        }
        assert_ne!(h1.fold(32, 14), h2.fold(32, 14));
    }

    #[test]
    fn clear_resets() {
        let mut h = GlobalHistory::new();
        h.push(true);
        h.clear();
        assert_eq!(h, GlobalHistory::new());
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn recent_too_wide_panics() {
        let _ = GlobalHistory::new().recent(65);
    }
}
