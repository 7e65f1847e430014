//! Simulation results: everything the paper's figures need, in one struct.

use std::fmt;

use swip_branch::BranchStats;
use swip_cache::{CacheStats, HierarchyStats};
use swip_frontend::{FtqStats, TimelineSample};

use crate::BackendStats;

/// The result of simulating one trace under one configuration.
///
/// `ipc` counts every retired instruction; `effective_ipc` excludes inserted
/// `prefetch.i` instructions, matching the paper's accounting ("We do not
/// include the additional instructions AsmDB inserts when calculating its
/// IPC") so that AsmDB-rewritten traces are compared on useful work.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Workload (trace) name.
    pub workload: String,
    /// Retired instructions, including inserted software prefetches.
    pub instructions: u64,
    /// Retired `prefetch.i` instructions.
    pub prefetch_instructions: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Raw instructions per cycle.
    pub ipc: f64,
    /// IPC over useful (non-prefetch) instructions — the paper's metric.
    pub effective_ipc: f64,
    /// L1-I demand misses per 1000 useful instructions.
    pub l1i_mpki: f64,
    /// Front-end / FTQ statistics (Figs 8–11).
    pub frontend: FtqStats,
    /// Branch-prediction statistics.
    pub branch: BranchStats,
    /// L1-I cache statistics.
    pub l1i: CacheStats,
    /// L2 cache statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Hierarchy-level statistics (per-level instruction hit counts).
    pub hierarchy: HierarchyStats,
    /// Backend statistics.
    pub backend: BackendStats,
    /// Per-line L1-I demand misses (line number → count); populated only
    /// when the run was configured with `collect_line_profile`.
    pub line_misses: std::collections::HashMap<u64, u64>,
    /// Cycle-sampled scenario timeline (oldest first); populated only when
    /// the run was configured with a `timeline` sampler.
    pub timeline: Vec<TimelineSample>,
    /// Timeline samples evicted by the sampler's capacity bound (the head
    /// of the run is lost first).
    pub timeline_dropped: u64,
    /// False if the run hit the cycle watchdog before draining.
    pub completed: bool,
}

impl SimReport {
    /// Speedup of this run's effective IPC over `baseline`'s.
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if baseline.effective_ipc == 0.0 {
            0.0
        } else {
            self.effective_ipc / baseline.effective_ipc
        }
    }

    /// Useful (non-prefetch) instructions retired.
    pub fn useful_instructions(&self) -> u64 {
        self.instructions - self.prefetch_instructions
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.workload)?;
        writeln!(
            f,
            "instructions: {} ({} prefetch.i), cycles: {}, IPC: {:.3} (effective {:.3})",
            self.instructions,
            self.prefetch_instructions,
            self.cycles,
            self.ipc,
            self.effective_ipc
        )?;
        writeln!(f, "L1-I MPKI: {:.2}", self.l1i_mpki)?;
        let (s1, s2, s3, empty) = self.frontend.scenario_fractions();
        writeln!(
            f,
            "FTQ scenarios: S1 {:.1}%  S2 {:.1}%  S3 {:.1}%  empty {:.1}%",
            s1 * 100.0,
            s2 * 100.0,
            s3 * 100.0,
            empty * 100.0
        )?;
        writeln!(
            f,
            "head stalls: {} cycles; waiting entries: {}; partially covered: {}",
            self.frontend.head_stall_cycles,
            self.frontend.entries_waiting_on_head,
            self.frontend.partially_covered_entries
        )?;
        writeln!(
            f,
            "fetch latency: head {:.1} cy, non-head {:.1} cy; aliased {:.1}% of line requests",
            self.frontend.head_fetch_cycles.mean(),
            self.frontend.nonhead_fetch_cycles.mean(),
            self.frontend.alias_fraction() * 100.0
        )?;
        write!(
            f,
            "branches: {} resolved, {:.2}% dir accuracy, {} mispredicted",
            self.branch.resolved,
            self.branch.direction.rate() * 100.0,
            self.branch.mispredicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(name: &str, eipc: f64) -> SimReport {
        SimReport {
            workload: name.into(),
            instructions: 1000,
            prefetch_instructions: 100,
            cycles: 500,
            ipc: 2.0,
            effective_ipc: eipc,
            l1i_mpki: 10.0,
            frontend: FtqStats::default(),
            branch: BranchStats::default(),
            l1i: CacheStats::default(),
            l2: CacheStats::default(),
            llc: CacheStats::default(),
            hierarchy: HierarchyStats::default(),
            backend: BackendStats::default(),
            line_misses: std::collections::HashMap::new(),
            timeline: Vec::new(),
            timeline_dropped: 0,
            completed: true,
        }
    }

    #[test]
    fn speedup_ratio() {
        let a = blank("a", 1.5);
        let b = blank("b", 1.0);
        assert!((a.speedup_over(&b) - 1.5).abs() < 1e-12);
        let zero = blank("z", 0.0);
        assert_eq!(a.speedup_over(&zero), 0.0);
    }

    #[test]
    fn useful_instruction_accounting() {
        assert_eq!(blank("a", 1.0).useful_instructions(), 900);
    }

    #[test]
    fn display_is_multiline_and_nonempty() {
        let text = blank("demo", 1.0).to_string();
        assert!(text.contains("demo"));
        assert!(text.lines().count() >= 5);
    }
}
