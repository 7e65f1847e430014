//! Golden counters for the entangling-prefetcher configuration.
//!
//! The hot-path flattening of cache sets must not change replacement
//! order or prefetch accounting in any observable way. The entangling
//! prefetcher is the most sensitive client: its learned destination
//! pairs depend on the exact sequence of L1I misses, so a single
//! reordered eviction cascades into different `useful_prefetches`
//! counts. These tests pin the exact counter values produced by the
//! pre-flattening implementation on a deterministic workload.

use swip_cache::{AccessResult, MemoryHierarchy};
use swip_core::{SimConfig, SimReport, Simulator};
use swip_frontend::{EntanglingPrefetcher, InstructionPrefetcher, NextLinePrefetcher};
use swip_types::{Cycle, LineAddr};
use swip_workloads::{cvp1_suite, generate};

/// Entangling with next-line stacked on top: on each accepted demand
/// fetch, the entangled prefetches go first, then the next line.
struct Stacked {
    entangling: EntanglingPrefetcher,
    next_line: NextLinePrefetcher,
}

impl InstructionPrefetcher for Stacked {
    fn on_demand_fetch(
        &mut self,
        line: LineAddr,
        now: Cycle,
        result: AccessResult,
        mem: &mut MemoryHierarchy,
    ) {
        self.entangling.on_demand_fetch(line, now, result, mem);
        self.next_line.on_demand_fetch(line, now, result, mem);
    }
}

/// Deterministic entangling run: first CVP-1 workload (`public_srv_60`),
/// 20k instructions, `sunny_cove_like` front-end, the entangling
/// prefetcher, optionally with the next-line prefetcher stacked on top.
fn entangling_report(next_line: bool) -> (String, SimReport) {
    let spec = cvp1_suite(20_000).into_iter().next().expect("suite");
    let trace = generate(&spec);
    let prefetcher: Box<dyn InstructionPrefetcher> = if next_line {
        Box::new(Stacked {
            entangling: EntanglingPrefetcher::new(),
            next_line: NextLinePrefetcher,
        })
    } else {
        Box::new(EntanglingPrefetcher::new())
    };
    let report =
        Simulator::new(SimConfig::sunny_cove_like()).run_with_prefetcher(&trace, prefetcher);
    (spec.name.clone(), report)
}

#[test]
fn entangling_l1i_counters_are_pinned() {
    let (name, r) = entangling_report(false);
    assert!(r.completed, "{name} must run to completion");
    assert_eq!(name, "public_srv_60");
    // Pinned against the pre-flattening implementation (PR 5 baseline).
    // Any change here means the flat layout altered replacement order.
    assert_eq!(r.cycles, 96_297, "cycles");
    assert_eq!(r.l1i.evictions.get(), 56, "l1i evictions");
    assert_eq!(r.l1i.useful_prefetches.get(), 1, "l1i useful prefetches");
    assert_eq!(r.l1i.demand.hits(), 1_517, "l1i demand hits");
    assert_eq!(r.l1i.demand.misses(), 514, "l1i demand misses");
    assert_eq!(r.l1i.prefetch.hits(), 1_459, "l1i prefetch hits");
    assert_eq!(r.l1i.prefetch.misses(), 1, "l1i prefetch misses");
}

#[test]
fn entangling_with_next_line_counters_are_pinned() {
    // Stacking the next-line prefetcher multiplies prefetch-driven fills,
    // so this run exercises the prefetched-bit bookkeeping (folded into
    // `Way` by the flattening) far harder than entangling alone.
    let (name, r) = entangling_report(true);
    assert!(r.completed, "{name} must run to completion");
    assert_eq!(r.cycles, 74_052, "cycles");
    assert_eq!(r.l1i.evictions.get(), 100, "l1i evictions");
    assert_eq!(r.l1i.useful_prefetches.get(), 214, "l1i useful prefetches");
    assert_eq!(r.l1i.demand.hits(), 1_628, "l1i demand hits");
    assert_eq!(r.l1i.demand.misses(), 289, "l1i demand misses");
    assert_eq!(r.l1i.prefetch.hits(), 726, "l1i prefetch hits");
    assert_eq!(r.l1i.prefetch.misses(), 289, "l1i prefetch misses");
}
