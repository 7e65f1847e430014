//! Control-flow-graph reconstruction from a dynamic trace.

use swip_trace::Trace;
use swip_types::{Addr, Instruction, IntMap, IntSet};

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// One reconstructed basic block.
#[derive(Clone, Debug)]
pub struct CfgBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// Addresses of the block's instructions, in layout order.
    pub pcs: Vec<Addr>,
    /// Dynamic executions of the block.
    pub exec_count: u64,
    /// Weighted successor edges (block, taken-transition count).
    pub succs: Vec<(BlockId, u64)>,
    /// Weighted predecessor edges.
    pub preds: Vec<(BlockId, u64)>,
    /// True when the block's final instruction is a control transfer.
    pub ends_with_branch: bool,
}

impl CfgBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True for an empty block (never produced by reconstruction).
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The block's final instruction address.
    pub fn last_pc(&self) -> Addr {
        *self.pcs.last().expect("blocks are never empty")
    }
}

/// A control-flow graph reconstructed from a dynamic instruction trace.
///
/// Leaders are derived from observed control flow: the trace start, every
/// observed branch target, and every fall-through successor of a branch.
/// Blocks are maximal straight-line runs between leaders; edges carry
/// observed transition counts, which later stages use both as execution
/// frequencies and as path probabilities (AsmDB's fanout).
///
/// # Examples
///
/// ```
/// use swip_asmdb::Cfg;
/// use swip_trace::TraceBuilder;
/// use swip_types::Addr;
///
/// let mut b = TraceBuilder::new("loop");
/// for _ in 0..3 {
///     b.set_pc(Addr::new(0x100));
///     b.alu();
///     b.cond_branch(Addr::new(0x100), true);
/// }
/// let cfg = Cfg::from_trace(&b.finish());
/// assert_eq!(cfg.len(), 1); // one block, a self-loop
/// let block = cfg.block(0);
/// assert_eq!(block.exec_count, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Cfg {
    blocks: Vec<CfgBlock>,
    pc_to_block: IntMap<u64, BlockId>,
}

impl Cfg {
    /// Reconstructs the CFG of `trace`.
    pub fn from_trace(trace: &Trace) -> Cfg {
        // Static view: every executed PC once, with the instruction metadata
        // of its first execution (kinds are stable per PC — guaranteed by
        // the trace model), in PC order.
        let mut seen: IntSet<u64> = IntSet::default();
        let mut static_instrs: Vec<Instruction> = trace
            .iter()
            .filter(|i| seen.insert(i.pc.raw()))
            .copied()
            .collect();
        static_instrs.sort_unstable_by_key(|i| i.pc);

        // Leaders: trace start, branch targets, fall-throughs after branches.
        let mut leaders: IntSet<u64> = IntSet::default();
        if let Some(first) = trace.instructions().first() {
            leaders.insert(first.pc.raw());
        }
        for i in &static_instrs {
            if i.is_branch() {
                if let Some(t) = i.branch_target() {
                    leaders.insert(t.raw());
                }
                leaders.insert(i.pc.raw() + i.size as u64);
            }
        }
        // Any PC not contiguous with its predecessor starts a block (gaps
        // between functions).
        for w in static_instrs.windows(2) {
            if w[0].pc.raw() + w[0].size as u64 != w[1].pc.raw() {
                leaders.insert(w[1].pc.raw());
            }
        }

        // Blocks: maximal runs between leaders.
        let mut blocks: Vec<CfgBlock> = Vec::new();
        let mut pc_to_block: IntMap<u64, BlockId> =
            IntMap::with_capacity_and_hasher(static_instrs.len(), Default::default());
        let mut current: Vec<Addr> = Vec::new();
        let flush = |current: &mut Vec<Addr>,
                     blocks: &mut Vec<CfgBlock>,
                     pc_to_block: &mut IntMap<u64, BlockId>,
                     ends_with_branch: bool| {
            if current.is_empty() {
                return;
            }
            let id = blocks.len();
            for pc in current.iter() {
                pc_to_block.insert(pc.raw(), id);
            }
            blocks.push(CfgBlock {
                start: current[0],
                pcs: std::mem::take(current),
                exec_count: 0,
                succs: Vec::new(),
                preds: Vec::new(),
                ends_with_branch,
            });
        };
        for (idx, i) in static_instrs.iter().enumerate() {
            if idx > 0 && leaders.contains(&i.pc.raw()) {
                flush(&mut current, &mut blocks, &mut pc_to_block, false);
            }
            current.push(i.pc);
            if i.is_branch() {
                flush(&mut current, &mut blocks, &mut pc_to_block, true);
            }
        }
        flush(&mut current, &mut blocks, &mut pc_to_block, false);

        let mut cfg = Cfg {
            blocks,
            pc_to_block,
        };

        // Dynamic pass: execution counts and weighted edges, keyed by the
        // packed (from, to) pair.
        let mut edges: IntMap<u64, u64> = IntMap::default();
        let mut prev_block: Option<BlockId> = None;
        for i in trace.iter() {
            let id = cfg.pc_to_block[&i.pc.raw()];
            let is_block_start = cfg.blocks[id].start == i.pc;
            if is_block_start {
                cfg.blocks[id].exec_count += 1;
                if let Some(p) = prev_block {
                    *edges.entry(((p as u64) << 32) | id as u64).or_insert(0) += 1;
                }
            }
            prev_block = Some(id);
        }
        // The edge map's order is erased by the sort below.
        for (key, count) in edges {
            let (from, to) = ((key >> 32) as BlockId, (key & 0xffff_ffff) as BlockId);
            cfg.blocks[from].succs.push((to, count));
            cfg.blocks[to].preds.push((from, count));
        }
        for b in &mut cfg.blocks {
            b.succs.sort_by_key(|&(id, c)| (std::cmp::Reverse(c), id));
            b.preds.sort_by_key(|&(id, c)| (std::cmp::Reverse(c), id));
        }
        cfg
    }

    /// Rebuilds a CFG from raw blocks; the pc → block index is derived from
    /// each block's `pcs`.
    ///
    /// This is the construction surface for tools that need to fabricate or
    /// perturb a graph directly — `swip-analyze`'s well-formedness rules are
    /// exercised against graphs built this way. [`Cfg::from_trace`] remains
    /// the only production path and the well-formedness baseline.
    pub fn from_parts(blocks: Vec<CfgBlock>) -> Cfg {
        let mut pc_to_block = IntMap::default();
        for (id, b) in blocks.iter().enumerate() {
            for pc in &b.pcs {
                pc_to_block.insert(pc.raw(), id);
            }
        }
        Cfg {
            blocks,
            pc_to_block,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the CFG has no blocks (empty trace).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &CfgBlock {
        &self.blocks[id]
    }

    /// Iterates over all blocks.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &CfgBlock)> {
        self.blocks.iter().enumerate()
    }

    /// The block containing `pc`, if `pc` was ever executed.
    pub fn block_of(&self, pc: Addr) -> Option<BlockId> {
        self.pc_to_block.get(&pc.raw()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_trace::TraceBuilder;

    #[test]
    fn straight_line_with_gap_splits_blocks() {
        let mut b = TraceBuilder::new("gap");
        b.alu().alu();
        b.set_pc(Addr::new(0x100));
        b.alu();
        let cfg = Cfg::from_trace(&b.finish());
        assert_eq!(cfg.len(), 2);
        assert_eq!(cfg.block(0).len(), 2);
        assert_eq!(cfg.block(1).start, Addr::new(0x100));
    }

    #[test]
    fn branch_ends_a_block_and_edges_count() {
        // A diamond: entry -> (taken|fallthrough) -> join, executed twice
        // with different outcomes.
        let mut b = TraceBuilder::new("diamond");
        for taken in [true, false] {
            b.set_pc(Addr::new(0x0));
            b.alu();
            b.cond_branch(Addr::new(0x20), taken); // skip to 0x20 when taken
            if !taken {
                // fall-through block at 0x8
                b.alu();
                b.jump(Addr::new(0x20));
            }
            b.alu(); // join block at 0x20
            b.jump(Addr::new(0x0));
        }
        let cfg = Cfg::from_trace(&b.finish());
        let entry = cfg.block_of(Addr::new(0x0)).unwrap();
        let fall = cfg.block_of(Addr::new(0x8)).unwrap();
        let join = cfg.block_of(Addr::new(0x20)).unwrap();
        assert_ne!(entry, join);
        let entry_block = cfg.block(entry);
        assert_eq!(entry_block.exec_count, 2);
        let to_join = entry_block.succs.iter().find(|(t, _)| *t == join).unwrap();
        let to_fall = entry_block.succs.iter().find(|(t, _)| *t == fall).unwrap();
        assert_eq!(to_join.1, 1);
        assert_eq!(to_fall.1, 1);
    }

    #[test]
    fn self_loop_edge() {
        let mut b = TraceBuilder::new("self");
        for _ in 0..5 {
            b.set_pc(Addr::new(0x40));
            b.alu();
            b.cond_branch(Addr::new(0x40), true);
        }
        let cfg = Cfg::from_trace(&b.finish());
        let id = cfg.block_of(Addr::new(0x40)).unwrap();
        let block = cfg.block(id);
        assert_eq!(block.exec_count, 5);
        let self_edge = block.succs.iter().find(|(t, _)| *t == id).unwrap();
        assert_eq!(self_edge.1, 4);
    }

    #[test]
    fn every_pc_maps_to_its_block() {
        let mut b = TraceBuilder::new("map");
        b.alu().alu();
        b.cond_branch(Addr::new(0x0), false);
        b.alu();
        let trace = b.finish();
        let cfg = Cfg::from_trace(&trace);
        for i in trace.iter() {
            let id = cfg.block_of(i.pc).expect("every executed pc is mapped");
            assert!(cfg.block(id).pcs.contains(&i.pc));
        }
    }

    #[test]
    fn empty_trace_gives_empty_cfg() {
        let cfg = Cfg::from_trace(&swip_trace::Trace::from_instructions("e", vec![]));
        assert!(cfg.is_empty());
        assert_eq!(cfg.len(), 0);
    }
}
