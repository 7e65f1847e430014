//! Conditional-branch direction predictors.

use std::fmt;

use swip_types::Addr;

use crate::GlobalHistory;

/// A conditional-branch direction predictor.
///
/// Implementations are table-based structures updated at branch resolution.
/// The front-end passes the *speculative* global history at prediction time
/// and the *repaired* history at update time, mirroring how a decoupled
/// front-end trains its predictors out of the resolve stage.
pub trait DirectionPredictor: fmt::Debug {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&self, pc: Addr, hist: &GlobalHistory) -> bool;

    /// Trains the predictor with the resolved outcome and returns the
    /// direction it predicted before training, as
    /// [`DirectionPredictor::predict`] would have.
    fn update(&mut self, pc: Addr, hist: &GlobalHistory, taken: bool) -> bool;

    /// Storage budget in bits (for reporting against Table I).
    fn storage_bits(&self) -> usize;
}

/// Which direction predictor a [`crate::BranchUnit`] instantiates.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum DirectionKind {
    /// Global-history-XOR-PC indexed 2-bit counters.
    Gshare,
    /// Multi-table hashed perceptron (ChampSim's default predictor).
    #[default]
    HashedPerceptron,
    /// TAGE-lite: tagged geometric-history tables over a bimodal base.
    TageLite,
}

/// Creates a boxed predictor of the requested kind.
pub(crate) fn make_predictor(
    kind: DirectionKind,
    log2_entries: u32,
) -> Box<dyn DirectionPredictor + Send> {
    match kind {
        DirectionKind::Gshare => Box::new(Gshare::new(log2_entries)),
        DirectionKind::HashedPerceptron => Box::new(HashedPerceptron::new(log2_entries)),
        DirectionKind::TageLite => Box::new(crate::TageLite::new(log2_entries)),
    }
}

fn pc_index(pc: Addr, bits: u32) -> usize {
    // Instructions are 4-byte aligned; drop the low bits and mix.
    let x = pc.raw() >> 2;
    let mixed = x ^ (x >> bits as u64);
    (mixed & ((1u64 << bits) - 1)) as usize
}

/// A saturating 2-bit counter.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
struct Counter2(u8);

impl Counter2 {
    const WEAKLY_TAKEN: Counter2 = Counter2(2);

    fn taken(self) -> bool {
        self.0 >= 2
    }

    fn train(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Gshare: 2-bit counters indexed by PC XOR folded global history.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<Counter2>,
    index_bits: u32,
    history_len: usize,
}

impl Gshare {
    /// Creates a gshare predictor with `2^log2_entries` counters and a
    /// history length equal to the index width.
    pub fn new(log2_entries: u32) -> Self {
        Gshare {
            table: vec![Counter2::WEAKLY_TAKEN; 1 << log2_entries],
            index_bits: log2_entries,
            history_len: log2_entries as usize,
        }
    }

    fn index(&self, pc: Addr, hist: &GlobalHistory) -> usize {
        let h = hist.fold(self.history_len, self.index_bits);
        pc_index(pc, self.index_bits) ^ h as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: Addr, hist: &GlobalHistory) -> bool {
        self.table[self.index(pc, hist)].taken()
    }

    fn update(&mut self, pc: Addr, hist: &GlobalHistory, taken: bool) -> bool {
        let idx = self.index(pc, hist);
        let predicted = self.table[idx].taken();
        self.table[idx].train(taken);
        predicted
    }

    fn storage_bits(&self) -> usize {
        self.table.len() * 2
    }
}

/// History lengths for the hashed-perceptron feature tables (geometric-ish
/// spacing, following the championship hashed perceptron).
const HP_HISTORY_LENGTHS: [usize; 8] = [0, 3, 8, 16, 32, 64, 128, 232];
const HP_WEIGHT_MAX: i8 = 63;
const HP_WEIGHT_MIN: i8 = -64;

/// A hashed perceptron direction predictor (Tarjan & Skadron; the ChampSim
/// default "hashed perceptron" used by the paper's simulation platform).
///
/// Eight feature tables of 7-bit signed weights are indexed by hashes of the
/// PC with geometrically-spaced history lengths; the prediction is the sign
/// of the summed weights, and training occurs on a misprediction or when the
/// magnitude of the sum is below an adaptive-free fixed threshold.
#[derive(Clone)]
pub struct HashedPerceptron {
    tables: Vec<Vec<i8>>,
    index_bits: u32,
    threshold: i32,
}

impl fmt::Debug for HashedPerceptron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashedPerceptron")
            .field("tables", &self.tables.len())
            .field("index_bits", &self.index_bits)
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl HashedPerceptron {
    /// Creates a hashed perceptron with `2^log2_entries` weights per table.
    pub fn new(log2_entries: u32) -> Self {
        HashedPerceptron {
            tables: vec![vec![0i8; 1 << log2_entries]; HP_HISTORY_LENGTHS.len()],
            index_bits: log2_entries,
            // θ ≈ 2.14 * h + 20.58 with h the number of features, the classic
            // perceptron threshold heuristic.
            threshold: (2.14 * HP_HISTORY_LENGTHS.len() as f64 + 20.58) as i32,
        }
    }

    fn index(&self, table: usize, pc: Addr, hist: &GlobalHistory) -> usize {
        let len = HP_HISTORY_LENGTHS[table];
        let base = pc_index(pc, self.index_bits) as u64;
        let h = if len == 0 {
            0
        } else {
            hist.fold(len, self.index_bits)
        };
        // Mix in the table number so equal-length collisions differ.
        let mixed = base ^ h ^ ((table as u64) << (self.index_bits / 2));
        (mixed & ((1u64 << self.index_bits) - 1)) as usize
    }

    /// Each feature table's index for `pc` under `hist`.
    fn indices(&self, pc: Addr, hist: &GlobalHistory) -> [usize; HP_HISTORY_LENGTHS.len()] {
        std::array::from_fn(|t| self.index(t, pc, hist))
    }

    fn sum(&self, indices: &[usize; HP_HISTORY_LENGTHS.len()]) -> i32 {
        self.tables
            .iter()
            .zip(indices)
            .map(|(tbl, &i)| tbl[i] as i32)
            .sum()
    }
}

impl DirectionPredictor for HashedPerceptron {
    fn predict(&self, pc: Addr, hist: &GlobalHistory) -> bool {
        self.sum(&self.indices(pc, hist)) >= 0
    }

    fn update(&mut self, pc: Addr, hist: &GlobalHistory, taken: bool) -> bool {
        let indices = self.indices(pc, hist);
        let sum = self.sum(&indices);
        let predicted = sum >= 0;
        if predicted != taken || sum.abs() < self.threshold {
            for (tbl, &i) in self.tables.iter_mut().zip(&indices) {
                let w = &mut tbl[i];
                if taken {
                    *w = (*w + 1).min(HP_WEIGHT_MAX);
                } else {
                    *w = (*w - 1).max(HP_WEIGHT_MIN);
                }
            }
        }
        predicted
    }

    fn storage_bits(&self) -> usize {
        self.tables.iter().map(|t| t.len() * 7).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_loop<P: DirectionPredictor>(p: &mut P, pc: Addr, pattern: &[bool], reps: usize) {
        let mut h = GlobalHistory::new();
        for _ in 0..reps {
            for &taken in pattern {
                p.update(pc, &h, taken);
                h.push(taken);
            }
        }
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = Gshare::new(12);
        let pc = Addr::new(0x2000);
        // Alternating T/NT: bimodal can't learn it, gshare can.
        train_loop(&mut p, pc, &[true, false], 64);
        let mut h = GlobalHistory::new();
        let mut correct = 0;
        let mut expected = true;
        for _ in 0..32 {
            if p.predict(pc, &h) == expected {
                correct += 1;
            }
            p.update(pc, &h, expected);
            h.push(expected);
            expected = !expected;
        }
        assert!(
            correct >= 30,
            "gshare only got {correct}/32 on T/NT pattern"
        );
    }

    #[test]
    fn perceptron_learns_history_correlation() {
        let mut p = HashedPerceptron::new(12);
        let pc = Addr::new(0x3000);
        // Outcome equals the outcome two branches ago (period-4 pattern).
        let pattern = [true, true, false, false];
        train_loop(&mut p, pc, &pattern, 64);
        let mut h = GlobalHistory::new();
        // Rebuild history phase by replaying once without checking.
        for &t in &pattern {
            h.push(t);
        }
        let mut correct = 0;
        for i in 0..64 {
            let expected = pattern[i % 4];
            if p.predict(pc, &h) == expected {
                correct += 1;
            }
            p.update(pc, &h, expected);
            h.push(expected);
        }
        assert!(
            correct >= 56,
            "perceptron got {correct}/64 on periodic pattern"
        );
    }

    #[test]
    fn storage_bits_reported() {
        assert_eq!(Gshare::new(10).storage_bits(), 2048);
        assert_eq!(HashedPerceptron::new(10).storage_bits(), 8 * 1024 * 7);
    }

    #[test]
    fn factory_builds_each_kind() {
        for kind in [
            DirectionKind::Gshare,
            DirectionKind::HashedPerceptron,
            DirectionKind::TageLite,
        ] {
            let p = make_predictor(kind, 8);
            assert!(p.storage_bits() > 0);
        }
    }

    #[test]
    fn update_returns_the_prediction_it_trained_against() {
        for kind in [
            DirectionKind::Gshare,
            DirectionKind::HashedPerceptron,
            DirectionKind::TageLite,
        ] {
            let mut p = make_predictor(kind, 8);
            let mut h = GlobalHistory::new();
            let mut state = 7u64;
            let mut wrong = 0;
            for i in 0..4000u64 {
                // A xorshift stream over 16 branches, biased per branch.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let pc = Addr::new(0x1000 + (i % 16) * 4);
                let taken = state % 4 < (i % 16) % 4;
                let predicted = p.predict(pc, &h);
                assert_eq!(p.update(pc, &h, taken), predicted, "{kind:?}, branch {i}");
                wrong += u64::from(predicted != taken);
                h.push(taken);
            }
            // Not vacuous: the stream trained each predictor on its misses.
            assert!(wrong > 0, "{kind:?}");
        }
    }

    #[test]
    fn prediction_is_pure() {
        let p = HashedPerceptron::new(10);
        let h = GlobalHistory::new();
        let a = p.predict(Addr::new(0x40), &h);
        let b = p.predict(Addr::new(0x40), &h);
        assert_eq!(a, b);
    }
}
