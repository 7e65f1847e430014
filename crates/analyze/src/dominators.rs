//! Dominator trees over a reconstructed CFG.
//!
//! The tree is computed with the Cooper–Harvey–Kennedy iterative
//! algorithm over a reverse-postorder numbering: simple, allocation-light,
//! and near-linear on the reducible CFGs trace reconstruction produces.
//!
//! The tree is the substrate for the static prefetch-plan evaluator
//! ([`coverage`](crate::coverage)): redundancy is an argument about
//! dominating line touches, deadness about reachability from the entry, and
//! clobbering about natural loops (back edges are defined by dominance).

use swip_asmdb::{BlockId, Cfg};

/// A dominator tree over the blocks of a [`Cfg`].
///
/// Unreachable blocks (never executed on any path from the root) carry no
/// tree node: [`DomTree::is_reachable`] is `false` and [`DomTree::idom`]
/// returns `None` for them.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block; the root is its own idom.
    idom: Vec<Option<usize>>,
    /// Reverse-postorder number per block (`usize::MAX` when
    /// unreachable). Dominators always have smaller numbers.
    rpo_index: Vec<usize>,
    /// Blocks in reverse postorder, root first.
    order: Vec<BlockId>,
    /// The root block.
    root: BlockId,
}

impl DomTree {
    /// Dominators rooted at `entry` (the block containing the first
    /// executed instruction).
    pub fn dominators(cfg: &Cfg, entry: BlockId) -> DomTree {
        let n = cfg.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, block) in cfg.blocks() {
            for &(s, _) in &block.succs {
                if s < n {
                    succs[id].push(s);
                    preds[s].push(id);
                }
            }
        }
        let (idom, rpo_index, order) = solve(n, entry, &succs, &preds);
        DomTree {
            idom,
            rpo_index,
            order,
            root: entry,
        }
    }

    /// The root block.
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Immediate dominator of `b`: `None` for the root itself and for
    /// unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let p = (*self.idom.get(b)?)?;
        (p != b).then_some(p)
    }

    /// Whether `b` is reachable from the root (participates in the tree).
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom.get(b).is_some_and(|d| d.is_some())
    }

    /// Reverse-postorder number of `b`; dominators always number lower than
    /// the blocks they dominate.
    pub fn rpo_number(&self, b: BlockId) -> Option<usize> {
        match self.rpo_index.get(b) {
            Some(&i) if i != usize::MAX => Some(i),
            _ => None,
        }
    }

    /// Blocks in reverse postorder, root first.
    pub fn rpo(&self) -> &[BlockId] {
        &self.order
    }

    /// Whether `a` dominates `b` (reflexively: every block dominates
    /// itself). `false` when either block is unreachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (Some(ia), Some(_)) = (self.rpo_number(a), self.rpo_number(b)) else {
            return false;
        };
        // Climb b's dominator chain; dominators strictly decrease in RPO
        // number, so stop as soon as we pass a.
        let mut cur = b;
        while self.rpo_index[cur] > ia {
            match self.idom[cur] {
                Some(p) if p != cur => cur = p,
                _ => return false,
            }
        }
        cur == a
    }

    /// Whether `a` dominates `b` and `a != b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Depth of `b` in the tree (root is 0); `None` when unreachable.
    pub fn depth(&self, b: BlockId) -> Option<usize> {
        self.rpo_number(b)?;
        let mut depth = 0;
        let mut cur = b;
        while let Some(p) = self.idom(cur) {
            cur = p;
            depth += 1;
        }
        Some(depth)
    }
}

/// Cooper–Harvey–Kennedy over an explicit adjacency list. Returns
/// `(idom, rpo_index, order)`; `idom[root] == Some(root)`, unreachable
/// nodes get `None` and `rpo_index` `usize::MAX`.
fn solve(
    n: usize,
    root: usize,
    succs: &[Vec<usize>],
    preds: &[Vec<usize>],
) -> (Vec<Option<usize>>, Vec<usize>, Vec<usize>) {
    // Postorder DFS with an explicit stack, then reverse.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = unseen, 1 = open, 2 = done
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    state[root] = 1;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let mut advanced = false;
        while *next < succs[b].len() {
            let s = succs[b][*next];
            *next += 1;
            if state[s] == 0 {
                state[s] = 1;
                stack.push((s, 0));
                advanced = true;
                break;
            }
        }
        if !advanced && matches!(stack.last(), Some(&(bb, nn)) if bb == b && nn >= succs[b].len()) {
            stack.pop();
            state[b] = 2;
            order.push(b);
        }
    }
    order.reverse(); // reverse postorder, root first

    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in order.iter().enumerate() {
        rpo_index[b] = i;
    }

    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[root] = Some(root);
    let intersect = |idom: &[Option<usize>], rpo: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo[a] > rpo[b] {
                a = idom[a].expect("processed node has an idom");
            }
            while rpo[b] > rpo[a] {
                b = idom[b].expect("processed node has an idom");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_index, cur, p),
                });
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    (idom, rpo_index, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_asmdb::CfgBlock;
    use swip_types::Addr;

    /// Builds a CFG from an edge list; block `i` starts at `0x100 * i` and
    /// holds `lens[i]` instructions.
    fn cfg_of(lens: &[usize], edges: &[(usize, usize)]) -> Cfg {
        let mut blocks: Vec<CfgBlock> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let start = Addr::new(0x100 * i as u64);
                CfgBlock {
                    start,
                    pcs: (0..len)
                        .map(|k| Addr::new(start.raw() + 4 * k as u64))
                        .collect(),
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

    /// Diamond: 0 → {1, 2} → 3.
    fn diamond() -> Cfg {
        cfg_of(&[2, 2, 2, 2], &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn diamond_dominators() {
        let dom = DomTree::dominators(&diamond(), 0);
        assert_eq!(dom.idom(0), None);
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(0));
        assert_eq!(
            dom.idom(3),
            Some(0),
            "join is dominated by the fork, not a branch"
        );
        assert!(dom.dominates(0, 3));
        assert!(!dom.dominates(1, 3));
        assert!(dom.dominates(3, 3));
        assert!(dom.strictly_dominates(0, 3));
        assert!(!dom.strictly_dominates(3, 3));
    }

    #[test]
    fn unreachable_blocks_are_outside_the_tree() {
        // 0 → 1; 2 floats free.
        let cfg = cfg_of(&[1, 1, 1], &[(0, 1)]);
        let dom = DomTree::dominators(&cfg, 0);
        assert!(dom.is_reachable(1));
        assert!(!dom.is_reachable(2));
        assert_eq!(dom.idom(2), None);
        assert!(!dom.dominates(0, 2));
        assert_eq!(dom.rpo(), &[0, 1]);
    }

    #[test]
    fn depth_counts_tree_edges() {
        // 0 → 1 → 2 (straight line).
        let cfg = cfg_of(&[1, 1, 1], &[(0, 1), (1, 2)]);
        let dom = DomTree::dominators(&cfg, 0);
        assert_eq!(dom.depth(0), Some(0));
        assert_eq!(dom.depth(1), Some(1));
        assert_eq!(dom.depth(2), Some(2));
    }
}
