//! Proof that the simulator's hot paths are allocation-free in steady
//! state.
//!
//! A counting global allocator wraps the system allocator. One test
//! warms a cache, then drives `Cache::access` and `Cache::fill`
//! (including evictions and the prefetched-bit bookkeeping) and asserts
//! the heap counter did not move: the set slice is borrowed in place and
//! victim selection never clones or collects. Another steps a warm
//! `Machine` under every configuration of the sweep, so the whole busy
//! cycle (front-end, hierarchy, backend and the prefetcher hooks) is
//! held to the same rule.
//!
//! The workspace's library crates `#![forbid(unsafe_code)]`; this test
//! binary is its own crate root, so the `GlobalAlloc` impl (inherently
//! `unsafe`) lives here without weakening that guarantee.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swip_bench::{ConfigId, SessionBuilder};
use swip_branch::{BranchConfig, BranchUnit};
use swip_cache::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy, ReplacementKind};
use swip_core::Machine;
use swip_frontend::{
    AsmdbHintPrefetcher, EntanglingPrefetcher, FtqStats, InstructionPrefetcher, ManaPrefetcher,
    NextLinePrefetcher, ShadowBtbPrefetcher,
};
use swip_types::{Addr, BranchKind, Cycle};

/// Counts every heap allocation per thread, so tests running on parallel
/// threads do not see each other's allocations.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` cannot panic during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn cache_access_and_fill_are_allocation_free_in_steady_state() {
    for kind in [ReplacementKind::Lru, ReplacementKind::Srrip] {
        // Construction allocates (the flat way array) — that's fine and
        // happens once per cache, outside the measured region.
        let mut cache = Cache::new(CacheConfig::with_capacity_kib("L1I", 32, 8, 4, 8, kind));
        for n in 0..2048u64 {
            cache.fill(Addr::new(n * 64).line(), n.is_multiple_of(5));
        }

        let before = allocations();
        let mut hits = 0u64;
        let mut stream = 1u64 << 32; // disjoint from the hot set below
        for round in 0..4u64 {
            for n in 0..4096u64 {
                // Alternate a small resident hot set (hits) with a
                // distant stream (misses + fills), so both outcomes and
                // steady-state evictions are exercised.
                let line = if n.is_multiple_of(2) {
                    Addr::new((n % 64) * 64).line()
                } else {
                    stream += 64;
                    Addr::new(stream + round).line()
                };
                if cache.access(line, n.is_multiple_of(7)) {
                    hits += 1;
                } else {
                    // Misses fill, forcing steady-state evictions through
                    // the in-place victim-selection path.
                    cache.fill(line, n.is_multiple_of(3));
                }
            }
        }
        let after = allocations();
        assert!(hits > 0, "workload never hit; the test lost its meaning");
        assert_eq!(
            after - before,
            0,
            "steady-state access/fill allocated ({kind:?})"
        );
    }
}

#[test]
fn zoo_prefetcher_hooks_are_allocation_free_in_steady_state() {
    // DESIGN.md §16: per-cycle trait hooks must not allocate in steady
    // state. The zoo's hardware mechanisms allocate all their storage at
    // construction; this pins that the hooks stay on it.
    let zoo: Vec<(&str, Box<dyn InstructionPrefetcher>)> = vec![
        ("mana", Box::new(ManaPrefetcher::new())),
        ("shadow_btb", Box::new(ShadowBtbPrefetcher::new())),
        ("next_line", Box::new(NextLinePrefetcher)),
        ("entangling", Box::new(EntanglingPrefetcher::new())),
    ];
    for (label, mut p) in zoo {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        let drive = |p: &mut dyn InstructionPrefetcher,
                     mem: &mut MemoryHierarchy,
                     branch: &mut BranchUnit,
                     stats: &mut FtqStats,
                     cycles: std::ops::Range<u64>| {
            for now in cycles {
                // A 96-line loop outgrows the tiny L1-I's 64 lines, so the
                // demand fetches keep missing.
                let pc = Addr::new((now % 96) * 64);
                p.train_on_fetch(pc, now, mem, stats);
                if now.is_multiple_of(3) {
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
        };
        // Warm-up: fills the tables, settles the hierarchy and BTB.
        drive(p.as_mut(), &mut mem, &mut branch, &mut stats, 0..2048);
        let issued = mem.l1i_stats().prefetch.total();
        let before = allocations();
        drive(p.as_mut(), &mut mem, &mut branch, &mut stats, 2048..8192);
        assert_eq!(
            allocations() - before,
            0,
            "{label} hooks allocated in steady state"
        );
        assert!(
            mem.l1i_stats().prefetch.total() > issued,
            "{label} issued nothing in the measured window; the test lost its meaning"
        );
    }
}

/// Steps `machine` as `Simulator::run` does, at most `limit` times,
/// returning how many steps it took.
fn advance(machine: &mut Machine<'_>, limit: u64) -> u64 {
    let mut steps = 0;
    while steps < limit && machine.running() {
        machine.skip_idle();
        if machine.running() {
            machine.step();
            steps += 1;
        }
    }
    steps
}

#[test]
fn a_warm_machine_steps_without_allocating_on_every_configuration() {
    // Construction and the first steps allocate: the tables, and the FTQ's
    // line lists and the buffers until they reach their working sizes.
    const WARM_STEPS: u64 = 20_000;
    let session = SessionBuilder::new().instructions(50_000).build().unwrap();
    let spec = session
        .workloads()
        .into_iter()
        .find(|s| s.name == "secret_srv12")
        .expect("secret_srv12 is in the suite");
    let trace = session.trace(&spec);
    let out = session.asmdb(&spec);
    assert!(!out.plan.is_empty(), "the rewritten runs need insertions");
    for id in ConfigId::ALL {
        let config = id.sim_config();
        // The line profile is an observer that grows a map per missed line.
        assert!(!config.collect_line_profile);
        let (program, supplied): (_, Option<Box<dyn InstructionPrefetcher>>) = match id {
            ConfigId::AsmdbCons | ConfigId::AsmdbFdp => (&out.rewritten, None),
            ConfigId::AsmdbConsNoov | ConfigId::AsmdbFdpNoov => (
                &*trace,
                Some(Box::new(AsmdbHintPrefetcher::new(out.hint_table.clone()))),
            ),
            ConfigId::Base | ConfigId::Fdp | ConfigId::Mana | ConfigId::ShadowBtb => {
                (&*trace, None)
            }
        };
        let mut machine = Machine::new(&config, program, supplied);
        assert_eq!(advance(&mut machine, WARM_STEPS), WARM_STEPS);
        let before = allocations();
        let steps = advance(&mut machine, u64::MAX);
        let allocated = allocations() - before;
        assert!(
            steps > 1000,
            "{} took {steps} warm steps; the test lost its meaning",
            id.label()
        );
        assert_eq!(
            allocated,
            0,
            "{} allocated in {steps} warm steps",
            id.label()
        );
        assert!(machine.finish().completed, "{}", id.label());
    }
}
