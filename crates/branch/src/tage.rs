//! A TAGE-lite conditional direction predictor.
//!
//! A compact TAGE (TAgged GEometric history) implementation: a bimodal base
//! table plus tagged tables indexed by geometrically increasing history
//! lengths. The longest-history tag match provides the prediction; useful
//! counters steer allocation on mispredictions. Included as the
//! quality-axis alternative to the hashed perceptron — FDP's run-ahead
//! depth is bounded by direction accuracy, so predictor choice is a natural
//! ablation for the paper's study.

use swip_types::Addr;

use crate::direction::DirectionPredictor;
use crate::GlobalHistory;

/// Geometric history lengths of the tagged tables.
const HISTORIES: [usize; 6] = [4, 8, 16, 32, 64, 128];
const TAG_BITS: u32 = 9;
const CTR_MAX: i8 = 3;
const CTR_MIN: i8 = -4;

#[derive(Copy, Clone, Debug, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8,
    useful: u8,
    valid: bool,
}

/// The TAGE-lite predictor.
#[derive(Clone, Debug)]
pub struct TageLite {
    bimodal: Vec<i8>,
    /// All tagged tables in one contiguous allocation, indexed by
    /// `table * 2^index_bits + index` (flat layout; no per-table `Vec`).
    tagged: Vec<TaggedEntry>,
    index_bits: u32,
    /// Deterministic allocation "randomness" (LFSR-ish counter).
    alloc_seed: u64,
}

struct Lookup {
    provider: Option<(usize, usize)>,
    alt_taken: bool,
}

impl TageLite {
    /// Creates a TAGE-lite with `2^log2_entries` entries per tagged table.
    pub fn new(log2_entries: u32) -> Self {
        TageLite {
            bimodal: vec![0; 1 << log2_entries],
            tagged: vec![TaggedEntry::default(); HISTORIES.len() << log2_entries],
            index_bits: log2_entries,
            alloc_seed: 0x9e37_79b9,
        }
    }

    /// Flat slot of entry `i` in tagged table `t`.
    fn slot(&self, t: usize, i: usize) -> usize {
        (t << self.index_bits) + i
    }

    fn base_index(&self, pc: Addr) -> usize {
        let x = pc.raw() >> 2;
        ((x ^ (x >> self.index_bits as u64)) & ((1u64 << self.index_bits) - 1)) as usize
    }

    fn index(&self, table: usize, pc: Addr, hist: &GlobalHistory) -> usize {
        let h = hist.fold(HISTORIES[table], self.index_bits);
        (self.base_index(pc) as u64 ^ h ^ ((table as u64) << 2)) as usize
            & ((1 << self.index_bits) - 1)
    }

    fn tag(&self, table: usize, pc: Addr, hist: &GlobalHistory) -> u16 {
        let h = hist.fold(HISTORIES[table], TAG_BITS);
        let p = (pc.raw() >> 2) ^ (pc.raw() >> (2 + TAG_BITS as u64));
        ((p ^ (h << 1) ^ table as u64) & ((1 << TAG_BITS) - 1)) as u16
    }

    fn lookup(&self, pc: Addr, hist: &GlobalHistory) -> Lookup {
        let mut provider = None;
        let mut alt = None;
        for t in (0..HISTORIES.len()).rev() {
            let e = &self.tagged[self.slot(t, self.index(t, pc, hist))];
            if e.valid && e.tag == self.tag(t, pc, hist) {
                if provider.is_none() {
                    provider = Some((t, self.index(t, pc, hist)));
                } else if alt.is_none() {
                    alt = Some(e.ctr >= 0);
                    break;
                }
            }
        }
        Lookup {
            provider,
            alt_taken: alt.unwrap_or(self.bimodal[self.base_index(pc)] >= 0),
        }
    }

    fn predict_taken(&self, pc: Addr, hist: &GlobalHistory) -> bool {
        let l = self.lookup(pc, hist);
        match l.provider {
            Some((t, i)) => self.tagged[self.slot(t, i)].ctr >= 0,
            None => l.alt_taken,
        }
    }
}

fn bump(ctr: &mut i8, taken: bool) {
    if taken {
        *ctr = (*ctr + 1).min(CTR_MAX);
    } else {
        *ctr = (*ctr - 1).max(CTR_MIN);
    }
}

impl DirectionPredictor for TageLite {
    fn predict(&self, pc: Addr, hist: &GlobalHistory) -> bool {
        self.predict_taken(pc, hist)
    }

    fn update(&mut self, pc: Addr, hist: &GlobalHistory, taken: bool) -> bool {
        let l = self.lookup(pc, hist);
        let predicted = match l.provider {
            Some((t, i)) => self.tagged[self.slot(t, i)].ctr >= 0,
            None => l.alt_taken,
        };

        // Provider update (or bimodal when no provider).
        match l.provider {
            Some((t, i)) => {
                let s = self.slot(t, i);
                let provider_pred = self.tagged[s].ctr >= 0;
                // Useful bit: the provider differed from the alternate and
                // was right (increment) or wrong (decrement).
                if provider_pred != l.alt_taken {
                    let e = &mut self.tagged[s];
                    if provider_pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                bump(&mut self.tagged[s].ctr, taken);
            }
            None => {
                let idx = self.base_index(pc);
                bump(&mut self.bimodal[idx], taken);
            }
        }

        // Allocation on misprediction: claim a not-useful entry in one
        // longer-history table; age useful bits when none is free.
        if predicted != taken {
            let start = l.provider.map_or(0, |(t, _)| t + 1);
            if start < HISTORIES.len() {
                self.alloc_seed = self
                    .alloc_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let offset = (self.alloc_seed >> 33) as usize % (HISTORIES.len() - start);
                let mut allocated = false;
                for k in 0..(HISTORIES.len() - start) {
                    let t = start + (offset + k) % (HISTORIES.len() - start);
                    let i = self.index(t, pc, hist);
                    let s = self.slot(t, i);
                    if !self.tagged[s].valid || self.tagged[s].useful == 0 {
                        self.tagged[s] = TaggedEntry {
                            tag: self.tag(t, pc, hist),
                            ctr: if taken { 0 } else { -1 },
                            useful: 0,
                            valid: true,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    for t in start..HISTORIES.len() {
                        let i = self.index(t, pc, hist);
                        let s = self.slot(t, i);
                        let e = &mut self.tagged[s];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
        predicted
    }

    fn storage_bits(&self) -> usize {
        self.bimodal.len() * 3 + self.tagged.len() * (TAG_BITS as usize + 3 + 2 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train<P: DirectionPredictor>(p: &mut P, pc: Addr, pattern: &[bool], reps: usize) -> f64 {
        let mut h = GlobalHistory::new();
        // Warm-up phase.
        for _ in 0..reps {
            for &t in pattern {
                p.update(pc, &h, t);
                h.push(t);
            }
        }
        // Measurement phase.
        let mut correct = 0;
        let total = pattern.len() * 16;
        for _ in 0..16 {
            for &t in pattern {
                if p.predict(pc, &h) == t {
                    correct += 1;
                }
                p.update(pc, &h, t);
                h.push(t);
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_a_bias() {
        let mut p = TageLite::new(10);
        assert!(train(&mut p, Addr::new(0x40), &[true], 8) > 0.99);
    }

    #[test]
    fn learns_alternation_via_history() {
        let mut p = TageLite::new(10);
        let acc = train(&mut p, Addr::new(0x80), &[true, false], 32);
        assert!(acc > 0.9, "T/NT accuracy {acc}");
    }

    #[test]
    fn learns_a_loop_exit_pattern() {
        // 7 taken then 1 not-taken: classic trip-count pattern.
        let mut p = TageLite::new(10);
        let pattern = [true, true, true, true, true, true, true, false];
        let acc = train(&mut p, Addr::new(0xc0), &pattern, 64);
        assert!(acc > 0.85, "loop-exit accuracy {acc}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_catastrophically() {
        let mut p = TageLite::new(10);
        let a = Addr::new(0x100);
        let b = Addr::new(0x204);
        let mut h = GlobalHistory::new();
        for _ in 0..200 {
            p.update(a, &h, true);
            h.push(true);
            p.update(b, &h, false);
            h.push(false);
        }
        assert!(p.predict(a, &h));
        assert!(!p.predict(b, &h));
    }

    #[test]
    fn storage_accounting() {
        let p = TageLite::new(10);
        assert!(p.storage_bits() > 1024 * 3);
    }
}
