//! Property-style tests for the `swip-analyze` dataflow layer: dominator
//! trees, natural-loop detection, and the static prefetch-plan evaluator
//! built on top of them (DESIGN.md §14).
//!
//! Small random digraphs are cheap to check against brute force, so every
//! structural claim the fast algorithms make — "a dominates b", "h heads a
//! natural loop containing x" — is re-derived here from the path-based
//! definitions via exhaustive BFS. Cases come from a fixed-seed SplitMix64
//! stream; the failing case index is part of each assertion message.

use std::collections::VecDeque;

use swip_analyze::{evaluate_plan, CoverageConfig, DomTree, LoopForest};
use swip_asmdb::{plan_insertions, select_targets, Cfg, CfgBlock};
use swip_types::Addr;
use swip_workloads::{cvp1_suite, generate};

/// Minimal deterministic generator (SplitMix64), same shape as
/// `properties.rs`.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Builds a CFG with `count` single-instruction blocks and the given edge
/// list (duplicates allowed by the generator; deduped here so edge weights
/// stay meaningful).
fn cfg_of(count: usize, edges: &[(usize, usize)]) -> Cfg {
    let mut blocks: Vec<CfgBlock> = (0..count)
        .map(|i| {
            let start = Addr::new(0x1000 + 0x100 * i as u64);
            CfgBlock {
                start,
                pcs: vec![start],
                exec_count: 1,
                succs: Vec::new(),
                preds: Vec::new(),
                ends_with_branch: false,
            }
        })
        .collect();
    for &(a, b) in edges {
        if !blocks[a].succs.iter().any(|&(s, _)| s == b) {
            blocks[a].succs.push((b, 1));
            blocks[b].preds.push((a, 1));
        }
    }
    Cfg::from_parts(blocks)
}

/// A random digraph: every node gets 0–2 successors, so the stream covers
/// disconnected, straight-line, diamond, and multi-loop shapes.
fn arb_cfg(rng: &mut TestRng) -> Cfg {
    let n = 2 + rng.below(9) as usize; // 2..=10 blocks
    let mut edges = Vec::new();
    for a in 0..n {
        for _ in 0..rng.below(3) {
            edges.push((a, rng.below(n as u64) as usize));
        }
    }
    cfg_of(n, &edges)
}

/// Nodes reachable from `from` by BFS, never stepping onto `avoid`.
fn reachable_avoiding(cfg: &Cfg, from: usize, avoid: Option<usize>) -> Vec<bool> {
    let n = cfg.len();
    let mut seen = vec![false; n];
    if Some(from) == avoid {
        return seen;
    }
    let mut queue = VecDeque::from([from]);
    seen[from] = true;
    while let Some(b) = queue.pop_front() {
        for &(s, _) in &cfg.block(b).succs {
            if s < n && Some(s) != avoid && !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
    }
    seen
}

/// Path-based definition: `a` dominates `b` iff `b` is reachable from the
/// entry and every entry→b path passes through `a`.
fn dominates_by_definition(cfg: &Cfg, entry: usize, a: usize, b: usize) -> bool {
    if !reachable_avoiding(cfg, entry, None)[b] {
        return false;
    }
    a == b || !reachable_avoiding(cfg, entry, Some(a))[b]
}

#[test]
fn dominators_match_the_path_based_definition() {
    let mut rng = TestRng::new(0x0d0a);
    for case in 0..300 {
        let cfg = arb_cfg(&mut rng);
        let n = cfg.len();
        let entry = rng.below(n as u64) as usize;
        let dom = DomTree::dominators(&cfg, entry);
        let bfs = reachable_avoiding(&cfg, entry, None);
        for (b, &bfs_reaches) in bfs.iter().enumerate().take(n) {
            assert_eq!(
                dom.is_reachable(b),
                bfs_reaches,
                "case {case}: reachability of block {b} disagrees with BFS"
            );
            for a in 0..n {
                assert_eq!(
                    dom.dominates(a, b),
                    dominates_by_definition(&cfg, entry, a, b),
                    "case {case}: dominates({a}, {b}) from entry {entry}"
                );
            }
        }
    }
}

#[test]
fn idom_chains_are_acyclic_and_rpo_decreasing() {
    let mut rng = TestRng::new(0x1d03);
    for case in 0..300 {
        let cfg = arb_cfg(&mut rng);
        let n = cfg.len();
        let entry = rng.below(n as u64) as usize;
        let dom = DomTree::dominators(&cfg, entry);
        assert_eq!(dom.root(), entry);
        assert!(
            dom.idom(entry).is_none(),
            "case {case}: the root has no idom"
        );
        for b in 0..n {
            if !dom.is_reachable(b) {
                assert_eq!(dom.idom(b), None);
                assert_eq!(dom.rpo_number(b), None);
                continue;
            }
            // Entry dominates everything reachable.
            assert!(
                dom.dominates(entry, b),
                "case {case}: entry {entry} must dominate reachable block {b}"
            );
            // Walking idoms strictly decreases RPO numbers, so the chain
            // terminates at the root in < n steps: acyclicity.
            let mut cur = b;
            let mut steps = 0usize;
            while let Some(p) = dom.idom(cur) {
                assert!(
                    dom.rpo_number(p).unwrap() < dom.rpo_number(cur).unwrap(),
                    "case {case}: idom({cur}) = {p} does not decrease RPO"
                );
                assert!(
                    dom.strictly_dominates(p, b),
                    "case {case}: chain node {p} must strictly dominate {b}"
                );
                cur = p;
                steps += 1;
                assert!(steps <= n, "case {case}: idom chain of {b} cycles");
            }
            assert_eq!(cur, entry, "case {case}: idom chain of {b} misses entry");
            assert_eq!(dom.depth(b), Some(steps));
        }
    }
}

#[test]
fn natural_loops_match_the_back_edge_definition() {
    let mut rng = TestRng::new(0x100b);
    for case in 0..300 {
        let cfg = arb_cfg(&mut rng);
        let n = cfg.len();
        let entry = rng.below(n as u64) as usize;
        let dom = DomTree::dominators(&cfg, entry);
        let forest = LoopForest::detect(&cfg, &dom);

        for l in &forest.loops {
            assert!(!l.latches.is_empty(), "case {case}: loop with no latch");
            assert!(l.blocks.contains(&l.header));
            for &latch in &l.latches {
                // Each latch really has a back edge to the header, and the
                // header dominates it (the definition of "back edge").
                assert!(
                    cfg.block(latch).succs.iter().any(|&(s, _)| s == l.header),
                    "case {case}: latch {latch} has no edge to header {}",
                    l.header
                );
                assert!(dom.dominates(l.header, latch), "case {case}");
            }
            for &b in &l.blocks {
                assert!(
                    dom.dominates(l.header, b),
                    "case {case}: header {} must dominate body block {b}",
                    l.header
                );
            }
            // Body by definition: blocks that reach a latch without
            // passing through the header, plus the header itself.
            for b in 0..n {
                if !dom.is_reachable(b) {
                    assert!(!l.blocks.contains(&b), "case {case}");
                    continue;
                }
                let in_body = b == l.header || {
                    let seen = reachable_avoiding(&cfg, b, Some(l.header));
                    b != l.header && l.latches.iter().any(|&t| seen[t])
                };
                assert_eq!(
                    l.blocks.contains(&b),
                    in_body,
                    "case {case}: membership of {b} in loop at {}",
                    l.header
                );
            }
        }

        // Depth and innermost agree with naive recounting.
        for b in 0..n {
            let containing: Vec<_> = forest
                .loops
                .iter()
                .filter(|l| l.blocks.contains(&b))
                .collect();
            assert_eq!(forest.depth(b) as usize, containing.len(), "case {case}");
            match forest.innermost(b) {
                None => assert!(containing.is_empty(), "case {case}"),
                Some(inner) => {
                    assert!(inner.blocks.contains(&b), "case {case}");
                    let smallest = containing.iter().map(|l| l.blocks.len()).min().unwrap();
                    assert_eq!(inner.blocks.len(), smallest, "case {case}");
                }
            }
        }
    }
}

/// The dataflow layer on real inputs: CFGs reconstructed from generated
/// suite traces obey the same invariants, and the evaluator's verdict over
/// the toolkit's own AsmDB plans never includes "dead" — the planner only
/// anchors at executed PCs, which are reachable by construction.
#[test]
fn generated_trace_cfgs_are_sound_and_own_plans_are_never_dead() {
    let mut rng = TestRng::new(0xace5);
    for round in 0..6 {
        let idx = rng.below(48) as usize;
        let mut suite = cvp1_suite(6_000);
        let spec = suite.remove(idx);
        let trace = generate(&spec);
        let cfg = Cfg::from_trace(&trace);
        let entry = trace
            .instructions()
            .first()
            .and_then(|i| cfg.block_of(i.pc))
            .expect("first executed pc must be in the CFG");

        let dom = DomTree::dominators(&cfg, entry);
        for (b, _) in cfg.blocks() {
            // Every reconstructed block was executed, so all are reachable
            // from the entry and dominated by it.
            assert!(
                dom.is_reachable(b),
                "round {round} ({}): block {b}",
                spec.name
            );
            assert!(dom.dominates(entry, b), "round {round} ({})", spec.name);
        }

        let forest = LoopForest::detect(&cfg, &dom);
        for l in &forest.loops {
            assert!(l.header_exec_count(&cfg) >= 1);
        }

        // Fabricate a miss profile (every executed line missed once per
        // use) so planning has real targets to anchor.
        let mut misses = std::collections::HashMap::new();
        for i in trace.iter() {
            *misses.entry(i.pc.line().number()).or_insert(0u64) += 1;
        }
        let targets = select_targets(&cfg, &misses, 4, 0.5, 64);
        let plan = plan_insertions(&cfg, &targets, 8, 48, 0.2, 2);
        let eval = evaluate_plan(&cfg, Some(entry), &plan, &CoverageConfig::default());
        assert_eq!(eval.classes.len(), plan.insertions.len());
        assert_eq!(
            eval.fatal_rules(),
            Vec::<&str>::new(),
            "round {round} ({}): the planner's own insertions must never be dead",
            spec.name
        );
        assert_eq!(eval.coverage.counter_pairs().len(), 15);
    }
}
