//! Trace mix and footprint analysis.

use std::collections::BTreeSet;
use std::fmt;

use swip_types::InstrKind;

use crate::Trace;

/// Aggregate statistics about a trace: instruction mix, control-flow density,
/// and static code footprint.
///
/// The static footprint (unique PCs / unique code lines) is what determines
/// L1-I pressure, the operating regime the paper's workloads live in
/// ("large instruction working sets, resulting in MPKIs ranging from ~2 to
/// ~28").
///
/// # Examples
///
/// ```
/// use swip_types::Addr;
/// use swip_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("t");
/// b.alu();
/// b.cond_branch(Addr::new(0), true);
/// let s = b.finish().summary();
/// assert_eq!(s.total, 2);
/// assert_eq!(s.branches, 1);
/// assert_eq!(s.unique_pcs, 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceSummary {
    /// Total dynamic instructions.
    pub total: u64,
    /// Dynamic ALU instructions.
    pub alu: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic branches of any kind.
    pub branches: u64,
    /// Dynamic taken branches.
    pub taken_branches: u64,
    /// Dynamic software instruction prefetches.
    pub prefetches: u64,
    /// Distinct static instruction addresses.
    pub unique_pcs: u64,
    /// Distinct static instruction cache lines (64 B).
    pub unique_lines: u64,
    /// Static code size in bytes (sum of sizes over unique PCs).
    pub static_bytes: u64,
}

impl TraceSummary {
    /// Computes the summary of `trace` in one pass.
    pub fn of(trace: &Trace) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut pcs = BTreeSet::new();
        let mut lines = BTreeSet::new();
        for i in trace.iter() {
            s.total += 1;
            match i.kind() {
                InstrKind::Alu => s.alu += 1,
                InstrKind::Load { .. } => s.loads += 1,
                InstrKind::Store { .. } => s.stores += 1,
                InstrKind::Branch { taken, .. } => {
                    s.branches += 1;
                    if taken {
                        s.taken_branches += 1;
                    }
                }
                InstrKind::PrefetchI { .. } => s.prefetches += 1,
            }
            if pcs.insert(i.pc) {
                s.static_bytes += i.size as u64;
            }
            lines.insert(i.pc.line());
        }
        s.unique_pcs = pcs.len() as u64;
        s.unique_lines = lines.len() as u64;
        s
    }

    /// Fraction of dynamic instructions that are branches.
    pub fn branch_density(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.branches as f64 / self.total as f64
        }
    }

    /// Static instruction-footprint size in KiB (unique lines × 64 B).
    pub fn footprint_kib(&self) -> f64 {
        self.unique_lines as f64 * 64.0 / 1024.0
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs ({} br, {} ld, {} st, {} pf), footprint {:.1} KiB ({} lines)",
            self.total,
            self.branches,
            self.loads,
            self.stores,
            self.prefetches,
            self.footprint_kib(),
            self.unique_lines,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;
    use swip_types::Addr;

    #[test]
    fn mix_counts() {
        let mut b = TraceBuilder::new("mix");
        b.alu();
        b.load(Addr::new(0x9000));
        b.store(Addr::new(0x9008));
        b.cond_branch(Addr::new(0x0), true);
        b.cond_branch(Addr::new(0x40), false);
        b.prefetch_i(Addr::new(0x4000));
        let s = b.finish().summary();
        assert_eq!(s.total, 6);
        assert_eq!(s.alu, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 2);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.prefetches, 1);
    }

    #[test]
    fn footprint_counts_unique_statics_once() {
        let mut b = TraceBuilder::new("loop");
        // 4-instruction loop body executed 10 times.
        for _ in 0..10 {
            b.set_pc(Addr::new(0x100));
            b.alu().alu().alu();
            b.cond_branch(Addr::new(0x100), true);
        }
        let s = b.finish().summary();
        assert_eq!(s.total, 40);
        assert_eq!(s.unique_pcs, 4);
        assert_eq!(s.static_bytes, 16);
        assert_eq!(s.unique_lines, 1);
    }

    #[test]
    fn branch_density() {
        let mut b = TraceBuilder::new("d");
        b.alu().alu().alu();
        b.cond_branch(Addr::new(0), false);
        let s = b.finish().summary();
        assert!((s.branch_density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = TraceSummary::of(&Trace::from_instructions("e", vec![]));
        assert_eq!(s, TraceSummary::default());
        assert_eq!(s.branch_density(), 0.0);
    }
}
