//! Trait-conformance suite for every [`InstructionPrefetcher`]
//! implementation (DESIGN.md §16): two identical runs replay
//! deterministically, every mechanism but FDP leaves a trace in the
//! counters the run report carries, and a tick before `next_tick` changes
//! nothing.

use std::collections::HashMap;
use std::sync::Arc;

use swip_branch::{BranchConfig, BranchUnit};
use swip_cache::{HierarchyConfig, MemoryHierarchy};
use swip_frontend::{
    AsmdbHintPrefetcher, EntanglingPrefetcher, FdpPrefetcher, FtqStats, HintTable,
    InstructionPrefetcher, ManaPrefetcher, NextLinePrefetcher, PreloadConfig, PreloadPrefetcher,
    ShadowBtbPrefetcher,
};
use swip_types::{Addr, BranchKind, Cycle};

/// Every implementation under test, by label, freshly constructed so runs
/// never share state.
fn zoo() -> Vec<(&'static str, Box<dyn InstructionPrefetcher>)> {
    let mut pc_hints: HashMap<Addr, Vec<Addr>> = HashMap::new();
    let mut line_hints: HashMap<u64, Vec<Addr>> = HashMap::new();
    for i in 0..16u64 {
        let pc = Addr::new(i * 64);
        let targets = vec![Addr::new((i + 7) * 64), Addr::new((i + 9) * 64)];
        pc_hints.insert(pc, targets.clone());
        line_hints.insert(pc.line().number(), targets);
    }
    vec![
        (
            "fdp",
            Box::new(FdpPrefetcher) as Box<dyn InstructionPrefetcher>,
        ),
        (
            "asmdb",
            Box::new(AsmdbHintPrefetcher::new(Arc::new(HintTable::from_pc_map(
                &pc_hints,
            )))),
        ),
        (
            "preload",
            Box::new(PreloadPrefetcher::new(
                Arc::new(HintTable::from_line_map(&line_hints)),
                PreloadConfig::default(),
            )),
        ),
        ("mana", Box::new(ManaPrefetcher::new())),
        ("shadow_btb", Box::new(ShadowBtbPrefetcher::new())),
        ("next_line", Box::new(NextLinePrefetcher)),
        ("entangling", Box::new(EntanglingPrefetcher::new())),
    ]
}

/// A deterministic stimulus that exercises all five hooks: a 96-line loop
/// (so MANA sees repeated successions and AsmDB/preload hit their tables
/// on its first 16 lines), periodic BTB misses (for shadow-branch
/// capture), a demand fetch of every line through the hierarchy (which
/// the loop outgrows: the tiny L1-I holds 64 lines, so next-line and
/// entangling see misses), and enough cycles to out-wait every metadata
/// latency.
fn drive(
    p: &mut dyn InstructionPrefetcher,
    mem: &mut MemoryHierarchy,
    branch: &mut BranchUnit,
    stats: &mut FtqStats,
    cycles: std::ops::Range<u64>,
) {
    for now in cycles {
        let pc = Addr::new((now % 96) * 64);
        p.train_on_fetch(pc, now, mem, stats);
        if now % 3 == 0 {
            let target = Addr::new(((now + 5) % 96) * 64);
            p.train_on_btb_miss(pc, BranchKind::UncondDirect, target, now);
        }
        p.issue_prefetch(pc.line(), now, mem, branch, stats);
        let result = mem.fetch_instr(pc.line(), now);
        if result.complete_at != Cycle::MAX {
            p.on_demand_fetch(pc.line(), now, result, mem);
        }
        p.tick(now, mem, stats);
    }
}

/// The observable side effects of a run: the FTQ counters the mechanisms
/// fire and the prefetches they send to the hierarchy.
fn observed(stats: &FtqStats, mem: &MemoryHierarchy) -> (FtqStats, u64) {
    (stats.clone(), mem.stats().instr_prefetches.get())
}

#[test]
fn two_identical_runs_replay_deterministically() {
    let run = |idx: usize| {
        let (label, mut p) = zoo().remove(idx);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        drive(p.as_mut(), &mut mem, &mut branch, &mut stats, 0..2000);
        (label, observed(&stats, &mem))
    };
    let untouched = (FtqStats::default(), 0);
    for idx in 0..zoo().len() {
        let (label, a) = run(idx);
        let (_, b) = run(idx);
        assert_eq!(a, b, "{label} diverged across identical runs");
        // FDP's run-ahead lives in the FTQ itself, not this seam.
        assert_eq!(
            a == untouched,
            label == "fdp",
            "{label}: only FDP may leave the counters untouched"
        );
    }
}

/// The simulation loop skips the cycles before `next_tick` (or all of
/// them while it is `None`) without calling `tick`, so a tick there must
/// change nothing observable: the FTQ counters and the prefetches sent to
/// the hierarchy.
#[test]
fn ticks_before_next_tick_change_nothing() {
    for (label, mut p) in zoo() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        let mut now = 0;
        let mut pending_rounds = 0;
        for _ in 0..12 {
            // Each round ends just after a cycle whose demand fetch may
            // have queued metadata, so work is often in flight.
            drive(p.as_mut(), &mut mem, &mut branch, &mut stats, now..now + 40);
            now += 40;
            let due = p.next_tick();
            let until = match due {
                Some(at) => {
                    assert!(at >= now, "{label}: tick at {} left {at} due", now - 1);
                    pending_rounds += 1;
                    at
                }
                None => now + 50,
            };
            for cycle in now..until {
                let before = observed(&stats, &mem);
                p.tick(cycle, &mut mem, &mut stats);
                let after = observed(&stats, &mem);
                assert_eq!(before, after, "{label} acted at {cycle}, before {due:?}");
            }
            now = until;
        }
        if matches!(label, "preload" | "mana") {
            assert!(pending_rounds > 0, "{label} never had work in flight");
        }
    }
}
