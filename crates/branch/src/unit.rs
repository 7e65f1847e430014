//! The composed branch-prediction unit driven by the decoupled front-end.

use std::fmt;

use swip_types::{Addr, BranchKind, Counter, Ratio};

use crate::direction::{make_predictor, DirectionKind, DirectionPredictor};
use crate::{Btb, GlobalHistory, IndirectPredictor, Ras};

/// Fixed instruction size assumed for return-address computation.
///
/// The paper models 32-bit instructions throughout; AsmDB's inserted
/// prefetches are also one instruction word.
const INSTR_BYTES: u64 = 4;

/// How the global history register is maintained.
///
/// The paper's FDP model adopts the Ishii et al. improvement of restricting
/// history to *taken* branches, so that conditional branches invisible to the
/// front-end (not-taken BTB misses "do not appear as branches but rather as
/// sequential instruction accesses") cannot desynchronize the speculative
/// history from the architectural one.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum HistoryMode {
    /// Record the outcome of every *conditional* branch (classic GHR). The
    /// speculative GHR can silently diverge on not-taken BTB misses; the
    /// divergence is repaired at the next redirect.
    Full,
    /// Record a path bit only for *taken* branches (Ishii-style). Not-taken
    /// branches — visible or not — leave the history untouched, keeping
    /// speculative and architectural history consistent by construction.
    #[default]
    TakenOnly,
}

/// Configuration for a [`BranchUnit`].
#[derive(Clone, Debug)]
pub struct BranchConfig {
    /// Number of BTB sets (power of two).
    pub btb_sets: usize,
    /// BTB associativity.
    pub btb_assoc: usize,
    /// Return-address-stack capacity.
    pub ras_entries: usize,
    /// log2 of the indirect predictor's entry count.
    pub indirect_log2_entries: u32,
    /// log2 of the direction predictor's table entry count.
    pub direction_log2_entries: u32,
    /// Which direction predictor to instantiate.
    pub direction: DirectionKind,
    /// Global-history maintenance policy.
    pub history_mode: HistoryMode,
}

impl Default for BranchConfig {
    /// A modern-core budget: 8K-entry 8-way BTB, 64-entry RAS, 4K-entry
    /// indirect predictor, 64K-weight hashed perceptron (Sunny-Cove-like,
    /// matching the paper's Table I scale).
    fn default() -> Self {
        BranchConfig {
            btb_sets: 1024,
            btb_assoc: 8,
            ras_entries: 64,
            indirect_log2_entries: 12,
            direction_log2_entries: 14,
            direction: DirectionKind::HashedPerceptron,
            history_mode: HistoryMode::TakenOnly,
        }
    }
}

/// Applies the history-mode policy for one (predicted or resolved) branch.
fn push_history(mode: HistoryMode, ghr: &mut GlobalHistory, pc: Addr, prediction: &Prediction) {
    match mode {
        HistoryMode::Full => {
            if prediction.kind == BranchKind::CondDirect {
                ghr.push(prediction.taken);
            }
        }
        HistoryMode::TakenOnly => {
            if prediction.taken {
                // Path bit: parity of pc/target word addresses gives the
                // history content that a pure "taken" bit would lack.
                let bit = ((pc.raw() >> 2) ^ (prediction.target.raw() >> 2)).count_ones() & 1;
                ghr.push(bit != 0);
            }
        }
    }
}

/// A front-end prediction for one instruction address.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Prediction {
    /// What kind of branch the BTB believes lives at this PC.
    pub kind: BranchKind,
    /// Predicted direction (`true` for all unconditional kinds).
    pub taken: bool,
    /// Predicted target when taken.
    pub target: Addr,
}

/// Counters reported by the branch unit.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct BranchStats {
    /// Conditional direction prediction accuracy (resolved branches).
    pub direction: Ratio,
    /// BTB lookups that hit, over all front-end lookups.
    pub btb: Ratio,
    /// BTB fills that allocated a new entry.
    pub btb_fills: Counter,
    /// Indirect-target predictions that were correct at resolve.
    pub indirect: Ratio,
    /// Resolved branches flagged as mispredicted by the pipeline.
    pub mispredicts: Counter,
    /// Resolved branches of any kind.
    pub resolved: Counter,
}

impl BranchStats {
    /// Mispredictions per 1000 resolved branches.
    pub fn mpkb(&self) -> f64 {
        self.mispredicts.per(self.resolved.get(), 1000)
    }
}

/// The full branch-prediction complex: BTB + direction + RAS + indirect,
/// with separate speculative and architectural global histories.
///
/// See the crate-level docs for a usage sketch; the front-end calls
/// [`BranchUnit::predict_at`] while filling the FTQ and
/// [`BranchUnit::resolve`] as branches retire, calling
/// [`BranchUnit::resync_speculative`] after any redirect.
pub struct BranchUnit {
    config: BranchConfig,
    btb: Btb,
    direction: Box<dyn DirectionPredictor + Send>,
    indirect: IndirectPredictor,
    spec_ghr: GlobalHistory,
    arch_ghr: GlobalHistory,
    spec_ras: Ras,
    arch_ras: Ras,
    stats: BranchStats,
}

impl fmt::Debug for BranchUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BranchUnit")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl BranchUnit {
    /// Creates a branch unit from `config`.
    pub fn new(config: BranchConfig) -> Self {
        BranchUnit {
            btb: Btb::new(config.btb_sets, config.btb_assoc),
            direction: make_predictor(config.direction, config.direction_log2_entries),
            indirect: IndirectPredictor::new(config.indirect_log2_entries),
            spec_ghr: GlobalHistory::new(),
            arch_ghr: GlobalHistory::new(),
            spec_ras: Ras::new(config.ras_entries),
            arch_ras: Ras::new(config.ras_entries),
            config,
            stats: BranchStats::default(),
        }
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &BranchConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Produces the front-end prediction for the instruction at `pc`.
    ///
    /// Returns `None` when the BTB has no entry for `pc`: the front-end must
    /// treat the address as a non-branch and continue sequentially. This is
    /// the defining property of a BTB-driven FDP — unknown branches are
    /// invisible until they resolve once.
    ///
    /// Prediction reads speculative state but does not advance it; the fill
    /// engine calls [`BranchUnit::commit_spec`] for each branch it walks
    /// past, so the speculative history always reflects the fill path.
    pub fn predict_at(&mut self, pc: Addr) -> Option<Prediction> {
        let entry = self.btb.lookup(pc);
        self.stats.btb.record(entry.is_some());
        let entry = entry?;
        let fallthrough = pc.add(INSTR_BYTES);
        let prediction = match entry.kind {
            BranchKind::CondDirect => {
                let taken = self.direction.predict(pc, &self.spec_ghr);
                Prediction {
                    kind: entry.kind,
                    taken,
                    target: if taken { entry.target } else { fallthrough },
                }
            }
            BranchKind::UncondDirect | BranchKind::DirectCall => Prediction {
                kind: entry.kind,
                taken: true,
                target: entry.target,
            },
            BranchKind::IndirectCall | BranchKind::IndirectJump => {
                let target = self
                    .indirect
                    .predict(pc, &self.spec_ghr)
                    .unwrap_or(entry.target);
                Prediction {
                    kind: entry.kind,
                    taken: true,
                    target,
                }
            }
            BranchKind::Return => {
                let target = self.spec_ras.peek().unwrap_or(entry.target);
                Prediction {
                    kind: entry.kind,
                    taken: true,
                    target,
                }
            }
        };
        Some(prediction)
    }

    /// Advances speculative state (GHR, RAS) past one branch on the fill
    /// path with its actual kind/outcome. The trace-driven fill engine only
    /// ever walks the correct path, so committing actual outcomes keeps the
    /// speculative history exactly consistent with the architectural one —
    /// the invariant the taken-only-history improvement is designed to give
    /// real hardware.
    pub fn commit_spec(&mut self, pc: Addr, kind: BranchKind, target: Addr, taken: bool) {
        let outcome = Prediction {
            kind,
            taken,
            target,
        };
        push_history(self.config.history_mode, &mut self.spec_ghr, pc, &outcome);
        if taken {
            if kind.is_call() {
                self.spec_ras.push(pc.add(INSTR_BYTES));
            } else if kind == BranchKind::Return {
                self.spec_ras.pop();
            }
        }
    }

    /// Records a resolved branch: trains the BTB, direction and indirect
    /// predictors against the architectural history, and maintains the
    /// architectural RAS. `mispredicted` is the pipeline's verdict for this
    /// dynamic branch (used for statistics only).
    pub fn resolve(
        &mut self,
        pc: Addr,
        kind: BranchKind,
        target: Addr,
        taken: bool,
        mispredicted: bool,
    ) {
        self.stats.resolved.incr();
        if mispredicted {
            self.stats.mispredicts.incr();
        }

        if kind == BranchKind::CondDirect {
            let predicted = self.direction.predict(pc, &self.arch_ghr);
            self.stats.direction.record(predicted == taken);
            self.direction.update(pc, &self.arch_ghr, taken);
        }
        if kind.is_indirect() && kind != BranchKind::Return {
            if let Some(t) = self.indirect.predict(pc, &self.arch_ghr) {
                self.stats.indirect.record(t == target);
            } else {
                self.stats.indirect.record(false);
            }
            self.indirect.update(pc, &self.arch_ghr, target);
        }

        // BTB learns branches once they are taken; a never-taken conditional
        // stays invisible to the front-end (it fetches sequentially anyway).
        if taken && self.btb.insert(pc, kind, target) {
            self.stats.btb_fills.incr();
        }

        // Architectural RAS.
        if kind.is_call() {
            self.arch_ras.push(pc.add(INSTR_BYTES));
        } else if kind == BranchKind::Return {
            self.arch_ras.pop();
        }

        // Architectural history.
        let resolved = Prediction {
            kind,
            taken,
            target,
        };
        push_history(self.config.history_mode, &mut self.arch_ghr, pc, &resolved);
    }

    /// Resynchronizes all speculative state to the architectural state.
    /// Called by the front-end after a resolve-time redirect.
    pub fn resync_speculative(&mut self) {
        self.spec_ghr = self.arch_ghr;
        self.spec_ras = self.arch_ras.clone();
    }

    /// Installs a BTB entry from the pre-decoder (post-fetch correction path:
    /// a taken branch the BTB missed is discovered once its line arrives).
    pub fn train_btb_from_predecode(&mut self, pc: Addr, kind: BranchKind, target: Addr) {
        if self.btb.insert(pc, kind, target) {
            self.stats.btb_fills.incr();
        }
    }

    /// Total predictor storage in bits (Table I reporting).
    pub fn storage_bits(&self) -> usize {
        self.direction.storage_bits()
            + self.indirect.storage_bits()
            + self.btb.capacity() * (64 + 3 + 64) // tag+kind+target upper bound
            + self.config.ras_entries * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchUnit {
        BranchUnit::new(BranchConfig {
            btb_sets: 64,
            btb_assoc: 4,
            ras_entries: 16,
            indirect_log2_entries: 8,
            direction_log2_entries: 10,
            direction: DirectionKind::Gshare,
            history_mode: HistoryMode::TakenOnly,
        })
    }

    #[test]
    fn unknown_pc_predicts_sequential() {
        let mut u = unit();
        assert!(u.predict_at(Addr::new(0x1000)).is_none());
        assert_eq!(u.stats().btb.hits(), 0);
        assert_eq!(u.stats().btb.total(), 1);
    }

    #[test]
    fn resolve_trains_btb_for_taken_branches_only() {
        let mut u = unit();
        u.resolve(
            Addr::new(0x10),
            BranchKind::CondDirect,
            Addr::new(0x100),
            false,
            false,
        );
        assert!(u.predict_at(Addr::new(0x10)).is_none());
        u.resolve(
            Addr::new(0x10),
            BranchKind::CondDirect,
            Addr::new(0x100),
            true,
            false,
        );
        assert!(u.predict_at(Addr::new(0x10)).is_some());
    }

    #[test]
    fn direction_predictor_learns_through_resolve() {
        let mut u = unit();
        let pc = Addr::new(0x20);
        for _ in 0..8 {
            u.resolve(pc, BranchKind::CondDirect, Addr::new(0x200), true, false);
        }
        let p = u.predict_at(pc).unwrap();
        assert!(p.taken);
        assert_eq!(p.target, Addr::new(0x200));
    }

    #[test]
    fn returns_use_speculative_ras() {
        let mut u = unit();
        let call_pc = Addr::new(0x100);
        let ret_pc = Addr::new(0x2000);
        // Teach the BTB about both branches.
        u.resolve(
            call_pc,
            BranchKind::DirectCall,
            Addr::new(0x2000),
            true,
            false,
        );
        u.resolve(ret_pc, BranchKind::Return, Addr::new(0x104), true, false);
        u.resync_speculative();
        // Prediction path: call pushes 0x104; return pops it.
        let c = u.predict_at(call_pc).unwrap();
        assert_eq!(c.target, Addr::new(0x2000));
        let r = u.predict_at(ret_pc).unwrap();
        assert_eq!(r.target, Addr::new(0x104));
    }

    #[test]
    fn indirect_targets_update() {
        let mut u = unit();
        let pc = Addr::new(0x50);
        u.resolve(pc, BranchKind::IndirectJump, Addr::new(0x7000), true, false);
        u.resync_speculative();
        assert_eq!(u.predict_at(pc).unwrap().target, Addr::new(0x7000));
        u.resolve(pc, BranchKind::IndirectJump, Addr::new(0x8000), true, false);
        u.resync_speculative();
        assert_eq!(u.predict_at(pc).unwrap().target, Addr::new(0x8000));
    }

    #[test]
    fn mispredict_stats_counted() {
        let mut u = unit();
        u.resolve(
            Addr::new(0),
            BranchKind::CondDirect,
            Addr::new(0x40),
            true,
            true,
        );
        u.resolve(
            Addr::new(0),
            BranchKind::CondDirect,
            Addr::new(0x40),
            true,
            false,
        );
        assert_eq!(u.stats().mispredicts.get(), 1);
        assert_eq!(u.stats().resolved.get(), 2);
        assert_eq!(u.stats().mpkb(), 500.0);
    }

    #[test]
    fn predecode_training_makes_branch_visible() {
        let mut u = unit();
        let pc = Addr::new(0x60);
        assert!(u.predict_at(pc).is_none());
        u.train_btb_from_predecode(pc, BranchKind::UncondDirect, Addr::new(0x900));
        let p = u.predict_at(pc).unwrap();
        assert!(p.taken);
        assert_eq!(p.target, Addr::new(0x900));
    }

    #[test]
    fn full_history_mode_works_end_to_end() {
        let mut u = BranchUnit::new(BranchConfig {
            history_mode: HistoryMode::Full,
            ..BranchConfig::default()
        });
        let pc = Addr::new(0x40);
        for i in 0..64 {
            let taken = i % 2 == 0;
            u.commit_spec(pc, BranchKind::CondDirect, Addr::new(0x100), taken);
            u.resolve(pc, BranchKind::CondDirect, Addr::new(0x100), taken, false);
        }
        // With alternating outcomes recorded in full history, the predictor
        // should become accurate over the later half.
        assert!(u.stats().direction.rate() > 0.5);
        assert!(u.predict_at(pc).is_some());
    }

    #[test]
    fn commit_spec_maintains_the_speculative_ras() {
        let mut u = unit();
        let call_pc = Addr::new(0x100);
        let ret_pc = Addr::new(0x2000);
        u.resolve(
            call_pc,
            BranchKind::DirectCall,
            Addr::new(0x2000),
            true,
            false,
        );
        u.resolve(ret_pc, BranchKind::Return, Addr::new(0x104), true, false);
        u.resync_speculative();
        // Walk the call on the fill path; the return prediction must pop the
        // pushed address.
        u.commit_spec(call_pc, BranchKind::DirectCall, Addr::new(0x2000), true);
        let p = u.predict_at(ret_pc).unwrap();
        assert_eq!(p.target, Addr::new(0x104));
    }

    #[test]
    fn prediction_does_not_mutate_speculative_state() {
        let mut u = unit();
        let ret_pc = Addr::new(0x300);
        u.resolve(ret_pc, BranchKind::Return, Addr::new(0x999), true, false);
        u.resync_speculative();
        u.commit_spec(
            Addr::new(0x100),
            BranchKind::DirectCall,
            Addr::new(0x300),
            true,
        );
        // Two consecutive predictions must agree: peeking the RAS must not pop.
        let a = u.predict_at(ret_pc).unwrap();
        let b = u.predict_at(ret_pc).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.target, Addr::new(0x104));
    }

    #[test]
    fn storage_accounting_positive() {
        assert!(unit().storage_bits() > 0);
    }
}
