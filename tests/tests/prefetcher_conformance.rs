//! Trait-conformance suite for every [`InstructionPrefetcher`]
//! implementation (DESIGN.md §16): a disabled mechanism issues nothing,
//! snapshot counters are monotone, two identical runs replay
//! deterministically, and a tick before `next_tick` changes nothing.

use std::collections::HashMap;
use std::sync::Arc;

use swip_branch::{BranchConfig, BranchUnit};
use swip_cache::{HierarchyConfig, MemoryHierarchy};
use swip_frontend::{
    AsmdbHintPrefetcher, FdpPrefetcher, FtqStats, HintTable, InstructionPrefetcher, ManaPrefetcher,
    PrefetcherSnapshot, PreloadConfig, PreloadPrefetcher, ShadowBtbPrefetcher,
};
use swip_types::{Addr, BranchKind};

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
            Box::new(FdpPrefetcher::new()) as Box<dyn InstructionPrefetcher>,
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
    ]
}

/// A deterministic stimulus that exercises all four hooks: a 16-line loop
/// (so MANA sees repeated successions and AsmDB/preload hit their
/// tables), periodic BTB misses (for shadow-branch capture), and enough
/// cycles to out-wait every metadata latency.
fn drive(
    p: &mut dyn InstructionPrefetcher,
    mem: &mut MemoryHierarchy,
    branch: &mut BranchUnit,
    stats: &mut FtqStats,
    cycles: std::ops::Range<u64>,
) {
    for now in cycles {
        let pc = Addr::new((now % 16) * 64);
        p.train_on_fetch(pc, now, mem, stats);
        if now % 3 == 0 {
            let target = Addr::new(((now + 5) % 16) * 64);
            p.train_on_btb_miss(pc, BranchKind::UncondDirect, target, now);
        }
        p.issue_prefetch(pc.line(), now, mem, branch, stats);
        p.tick(now, mem, stats);
    }
}

/// The observable side effects of one run: the snapshot plus the shared
/// FTQ counters the mechanisms fire.
fn observed(stats: &FtqStats, p: &dyn InstructionPrefetcher) -> (PrefetcherSnapshot, [u64; 4]) {
    (
        p.snapshot(),
        [
            stats.swpf_hinted.get(),
            stats.swpf_preloaded.get(),
            stats.preload_l1_hits.get(),
            stats.preload_metadata_requests.get(),
        ],
    )
}

#[test]
fn disabled_prefetchers_issue_nothing() {
    for (label, mut p) in zoo() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        assert!(p.enabled(), "{label} must start enabled");
        p.set_enabled(false);
        assert!(!p.enabled(), "{label}");
        drive(p.as_mut(), &mut mem, &mut branch, &mut stats, 0..500);
        let (snap, counters) = observed(&stats, p.as_ref());
        assert_eq!(
            snap,
            PrefetcherSnapshot::default(),
            "{label} acted while disabled"
        );
        assert_eq!(
            counters, [0; 4],
            "{label} fired FTQ counters while disabled"
        );

        // Re-enabling makes the mechanism observable again (except FDP,
        // whose run-ahead lives in the FTQ itself, not this seam).
        p.set_enabled(true);
        drive(p.as_mut(), &mut mem, &mut branch, &mut stats, 500..1500);
        if label != "fdp" {
            let (snap, _) = observed(&stats, p.as_ref());
            assert!(
                snap.trained + snap.issued + snap.metadata_requests > 0,
                "{label} stayed inert after re-enable"
            );
        }
    }
}

#[test]
fn snapshot_counters_are_monotone() {
    for (label, mut p) in zoo() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        let mut prev = p.snapshot();
        for chunk in 0..10u64 {
            drive(
                p.as_mut(),
                &mut mem,
                &mut branch,
                &mut stats,
                chunk * 100..(chunk + 1) * 100,
            );
            let snap = p.snapshot();
            assert!(snap.trained >= prev.trained, "{label} trained shrank");
            assert!(snap.issued >= prev.issued, "{label} issued shrank");
            assert!(
                snap.metadata_requests >= prev.metadata_requests,
                "{label} metadata_requests shrank"
            );
            prev = snap;
        }
    }
}

#[test]
fn two_identical_runs_replay_deterministically() {
    let run = |idx: usize| {
        let (label, mut p) = zoo().remove(idx);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        drive(p.as_mut(), &mut mem, &mut branch, &mut stats, 0..2000);
        (label, observed(&stats, p.as_ref()))
    };
    for idx in 0..zoo().len() {
        let (label, a) = run(idx);
        let (_, b) = run(idx);
        assert_eq!(a, b, "{label} diverged across identical runs");
    }
}

/// The simulation loop skips the cycles before `next_tick` (or all of
/// them while it is `None`) without calling `tick`, so a tick there must
/// change nothing observable: the snapshot, the FTQ counters and the
/// prefetches sent to the hierarchy.
#[test]
fn ticks_before_next_tick_change_nothing() {
    for (label, mut p) in zoo() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        let mut now = 0;
        let mut pending_rounds = 0;
        for round in 0..12 {
            // Round 6 runs disabled: nothing may fall due then.
            p.set_enabled(round != 6);
            // Each round ends just after a cycle whose demand fetch may
            // have queued metadata, so work is often in flight.
            drive(p.as_mut(), &mut mem, &mut branch, &mut stats, now..now + 40);
            now += 40;
            let due = p.next_tick();
            if !p.enabled() {
                assert_eq!(due, None, "{label} reports work while disabled");
            }
            let until = match due {
                Some(at) => {
                    assert!(at >= now, "{label}: tick at {} left {at} due", now - 1);
                    pending_rounds += 1;
                    at
                }
                None => now + 50,
            };
            for cycle in now..until {
                let before = (p.snapshot(), stats.clone(), mem.stats().instr_prefetches);
                p.tick(cycle, &mut mem, &mut stats);
                let after = (p.snapshot(), stats.clone(), mem.stats().instr_prefetches);
                assert_eq!(before, after, "{label} acted at {cycle}, before {due:?}");
            }
            now = until;
        }
        if matches!(label, "preload" | "mana") {
            assert!(pending_rounds > 0, "{label} never had work in flight");
        }
    }
}
