//! Natural-loop detection over a dominator tree.
//!
//! A back edge is an edge `u → h` whose head `h` dominates its tail `u`;
//! the natural loop of `h` is `h` plus every block that can reach a back
//! edge's tail without passing through `h`. Loops sharing a header are
//! merged, as is conventional. The forest records, per block, the smallest
//! (innermost) loop containing it and its nesting depth — the structure the
//! clobbering rule ([`coverage`](crate::coverage)) uses to ask "which cache
//! lines does the hot loop around this insertion keep re-touching?".

use std::collections::HashSet;

use swip_asmdb::{BlockId, Cfg};

use crate::dominators::DomTree;

/// One natural loop: a dominating header and the blocks that cycle back
/// into it.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the body).
    pub header: BlockId,
    /// Tails of the back edges into `header` (the loop latches).
    pub latches: Vec<BlockId>,
    /// Every block in the loop, sorted ascending; always contains `header`.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Number of times the header block executed (the trip count upper
    /// bound recorded by CFG reconstruction).
    pub fn header_exec_count(&self, cfg: &Cfg) -> u64 {
        cfg.block(self.header).exec_count
    }
}

/// All natural loops of a CFG, with per-block innermost-loop and nesting
/// depth lookups.
#[derive(Clone, Debug)]
pub struct LoopForest {
    /// Loops ordered by header block id.
    pub loops: Vec<NaturalLoop>,
    /// Index into `loops` of the smallest loop containing each block.
    innermost: Vec<Option<usize>>,
    /// Number of loops containing each block.
    depth: Vec<u32>,
}

impl LoopForest {
    /// Detects every natural loop of `cfg` using dominance information from
    /// `dom`. Back edges whose endpoints are unreachable from the entry are
    /// ignored.
    pub fn detect(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        let n = cfg.len();
        // Find back edges, grouped by header.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
        for (u, block) in cfg.blocks() {
            if !dom.is_reachable(u) {
                continue;
            }
            for &(h, _) in &block.succs {
                if h < n && dom.dominates(h, u) {
                    match headers.iter().position(|&x| x == h) {
                        Some(i) => {
                            if !latches_of[i].contains(&u) {
                                latches_of[i].push(u);
                            }
                        }
                        None => {
                            headers.push(h);
                            latches_of.push(vec![u]);
                        }
                    }
                }
            }
        }

        // Body of each loop: backward flood from the latches, stopping at
        // the header.
        let mut loops: Vec<NaturalLoop> = headers
            .into_iter()
            .zip(latches_of)
            .map(|(header, mut latches)| {
                latches.sort_unstable();
                let mut body: HashSet<BlockId> = HashSet::new();
                body.insert(header);
                let mut work: Vec<BlockId> = Vec::new();
                for &l in &latches {
                    if body.insert(l) {
                        work.push(l);
                    }
                }
                while let Some(b) = work.pop() {
                    for &(p, _) in &cfg.block(b).preds {
                        if p < n && dom.is_reachable(p) && body.insert(p) {
                            work.push(p);
                        }
                    }
                }
                let mut blocks: Vec<BlockId> = body.into_iter().collect();
                blocks.sort_unstable();
                NaturalLoop {
                    header,
                    latches,
                    blocks,
                }
            })
            .collect();
        loops.sort_by_key(|l| l.header);

        // Innermost loop = smallest containing body; depth = containing
        // loop count. O(loops × body) — fine at trace-CFG scale.
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        let mut depth = vec![0u32; n];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                depth[b] += 1;
                match innermost[b] {
                    Some(j) if loops[j].blocks.len() <= l.blocks.len() => {}
                    _ => innermost[b] = Some(i),
                }
            }
        }
        LoopForest {
            loops,
            innermost,
            depth,
        }
    }

    /// The smallest loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<&NaturalLoop> {
        self.loops.get(*self.innermost.get(b)?.as_ref()?)
    }

    /// How many loops contain `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth.get(b).copied().unwrap_or(0)
    }

    /// Number of distinct loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the CFG has no loops at all.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_asmdb::CfgBlock;
    use swip_types::Addr;

    fn cfg_of(count: usize, edges: &[(usize, usize)]) -> Cfg {
        let mut blocks: Vec<CfgBlock> = (0..count)
            .map(|i| {
                let start = Addr::new(0x100 * i as u64);
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
            blocks[a].succs.push((b, 1));
            blocks[b].preds.push((a, 1));
        }
        Cfg::from_parts(blocks)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let cfg = cfg_of(3, &[(0, 1), (1, 2)]);
        let dom = DomTree::dominators(&cfg, 0);
        let forest = LoopForest::detect(&cfg, &dom);
        assert!(forest.is_empty());
        assert_eq!(forest.depth(1), 0);
        assert!(forest.innermost(1).is_none());
    }

    #[test]
    fn simple_cycle_is_one_loop() {
        // 0 → 1 → 2 → 1, 2 → 3.
        let cfg = cfg_of(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let dom = DomTree::dominators(&cfg, 0);
        let forest = LoopForest::detect(&cfg, &dom);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, 1);
        assert_eq!(l.latches, vec![2]);
        assert_eq!(l.blocks, vec![1, 2]);
        assert_eq!(forest.depth(2), 1);
        assert_eq!(forest.depth(0), 0);
        assert_eq!(forest.depth(3), 0);
    }

    #[test]
    fn nested_loops_report_depth_and_innermost() {
        // Outer: 1 → 2 → 3 → 1; inner: 2 → 2 (self loop).
        let cfg = cfg_of(4, &[(0, 1), (1, 2), (2, 2), (2, 3), (3, 1)]);
        let dom = DomTree::dominators(&cfg, 0);
        let forest = LoopForest::detect(&cfg, &dom);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest.depth(2), 2);
        assert_eq!(forest.depth(1), 1);
        let inner = forest.innermost(2).unwrap();
        assert_eq!(inner.header, 2);
        assert_eq!(inner.blocks, vec![2]);
        let outer = forest.innermost(3).unwrap();
        assert_eq!(outer.header, 1);
        assert_eq!(outer.blocks, vec![1, 2, 3]);
    }

    #[test]
    fn shared_header_loops_merge() {
        // Two back edges into 1: 1 → 2 → 1 and 1 → 3 → 1.
        let cfg = cfg_of(4, &[(0, 1), (1, 2), (2, 1), (1, 3), (3, 1)]);
        let dom = DomTree::dominators(&cfg, 0);
        let forest = LoopForest::detect(&cfg, &dom);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, 1);
        assert_eq!(l.latches, vec![2, 3]);
        assert_eq!(l.blocks, vec![1, 2, 3]);
    }

    #[test]
    fn headers_dominate_their_bodies() {
        // Irregular mesh with a couple of cycles.
        let cfg = cfg_of(6, &[(0, 1), (1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 4)]);
        let dom = DomTree::dominators(&cfg, 0);
        let forest = LoopForest::detect(&cfg, &dom);
        for l in &forest.loops {
            for &b in &l.blocks {
                assert!(dom.dominates(l.header, b), "header {} !dom {b}", l.header);
            }
        }
    }
}
