//! The static program model: functions, blocks, terminators, layout.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swip_types::{Addr, Reg};

use crate::WorkloadSpec;

/// One instruction slot in a basic block body.
#[derive(Clone, Debug)]
pub(crate) enum Slot {
    /// Computation with register dependences.
    Alu { dst: Reg, srcs: [Option<Reg>; 2] },
    /// Load from a data region; `site` identifies the static access site.
    Load { dst: Reg, site: u32, stride: u64 },
    /// Store to a data region.
    Store { site: u32, stride: u64 },
}

/// How a basic block ends.
#[derive(Clone, Debug)]
pub enum Terminator {
    /// No control instruction; execution continues at the next block.
    FallThrough,
    /// A conditional branch that, when taken, skips the next block.
    CondSkip {
        /// Probability the skip is taken on a given execution.
        bias: f64,
    },
    /// A conditional back-edge to the block at index `back_to` (possibly this
    /// block itself); the region executes `trips` times per visit. Region
    /// loops (back_to < current) give iterations distinct branch histories,
    /// which is what makes their exits learnable by history-based predictors.
    Loop {
        /// Index of the block the back edge targets.
        back_to: usize,
        /// Trip count per visit (stable per site, like real loop bounds).
        trips: u32,
    },
    /// A call to one of `targets` (function indices); indirect sites carry
    /// several targets and rotate among them.
    Call {
        /// Candidate callee function indices.
        targets: Vec<usize>,
        /// True for register-indirect call sites.
        indirect: bool,
    },
    /// Function return (only the final block).
    Return,
}

impl Terminator {
    /// Instruction slots the terminator occupies (0 for fall-through).
    pub fn instr_count(&self) -> usize {
        match self {
            Terminator::FallThrough => 0,
            _ => 1,
        }
    }
}

/// One basic block: a body of instruction slots plus a [`Terminator`].
#[derive(Clone, Debug)]
pub struct Block {
    /// Address of the first body instruction.
    pub start: Addr,
    pub(crate) slots: Vec<Slot>,
    /// The block's terminator.
    pub term: Terminator,
}

impl Block {
    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.slots.len() + self.term.instr_count()
    }

    /// True if the block holds no instructions (never generated).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte size of the block.
    pub fn byte_len(&self) -> u64 {
        self.len() as u64 * 4
    }

    /// Address of the terminator instruction.
    ///
    /// # Panics
    ///
    /// Panics for fall-through blocks, which have no terminator instruction.
    pub fn term_pc(&self) -> Addr {
        assert!(
            self.term.instr_count() > 0,
            "fall-through blocks have no terminator instruction"
        );
        self.start.add(self.slots.len() as u64 * 4)
    }

    /// Address just past the block.
    pub fn end(&self) -> Addr {
        self.start.add(self.byte_len())
    }
}

/// One function: a layer in the call DAG plus its basic blocks.
#[derive(Clone, Debug)]
pub struct Function {
    /// Address of the first block.
    pub base: Addr,
    /// Call-graph layer (0 = dispatcher; layer *l* calls layer *l + 1*).
    pub layer: usize,
    /// Basic blocks in layout order.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Total instructions in the function.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }
}

/// A complete synthetic program: a dispatcher loop over hot-weighted root
/// functions plus a layered call DAG.
///
/// The call graph is a DAG by construction (layer *l* only calls layer
/// *l + 1*), which bounds dynamic call depth at `max_call_depth` and keeps
/// the instruction kind at every PC stable across executions — the property
/// AsmDB's profile-and-rewrite loop depends on.
#[derive(Clone, Debug)]
pub struct Program {
    /// All functions; index 0 conventionally unused (dispatcher is separate).
    pub functions: Vec<Function>,
    /// Address of the dispatcher's indirect-call instruction.
    pub dispatcher_call_pc: Addr,
    /// Address of the dispatcher's loop-back jump.
    pub dispatcher_jump_pc: Addr,
    /// Layer-1 function indices in hot-first order (dispatch distribution).
    pub hot_roots: Vec<usize>,
}

impl Program {
    /// Generates the static program implied by `spec` (deterministic in
    /// `spec.seed`).
    pub fn generate(spec: &WorkloadSpec) -> Program {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let layers = spec.max_call_depth.max(2);

        // Assign functions to layers 1..=layers round-robin, then generate
        // structure. Layout happens afterwards so block addresses are final.
        // (layer, blocks-as-(body, terminator)) per function, pre-layout.
        type ProtoBlock = (Vec<Slot>, Terminator);
        let mut protos: Vec<(usize, Vec<ProtoBlock>)> = Vec::new();
        for f in 0..spec.functions {
            let layer = 1 + f % layers;
            let nblocks = rng.gen_range((spec.avg_blocks / 2).max(2)..=spec.avg_blocks * 2);
            let mut blocks = Vec::with_capacity(nblocks);
            let mut calls = 0usize;
            for b in 0..nblocks {
                let body = gen_body(spec, &mut rng);
                let term = if b + 1 == nblocks {
                    Terminator::Return
                } else {
                    gen_terminator(
                        spec, &mut rng, f, layer, layers, b, nblocks, &mut calls, &blocks,
                    )
                };
                blocks.push((body, term));
            }
            protos.push((layer, blocks));
        }

        // Lay functions out at irregular, non-power-of-two offsets.
        let mut functions = Vec::with_capacity(spec.functions);
        let mut cursor = Addr::new(0x0001_0000);
        for (layer, blocks) in protos {
            let base = cursor;
            let mut block_addr = base;
            let mut laid = Vec::with_capacity(blocks.len());
            for (slots, term) in blocks {
                let b = Block {
                    start: block_addr,
                    slots,
                    term,
                };
                block_addr = b.end();
                laid.push(b);
            }
            cursor = block_addr.add(4 * rng.gen_range(1..=13));
            functions.push(Function {
                base,
                layer,
                blocks: laid,
            });
        }

        // Dispatcher: indirect call + loop-back jump, placed after all code.
        let dispatcher_call_pc = cursor;
        let dispatcher_jump_pc = cursor.add(4);

        // Hot ordering of the layer-1 roots.
        let mut roots: Vec<usize> = functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.layer == 1)
            .map(|(i, _)| i)
            .collect();
        // Fisher–Yates with the structural RNG: the hot set differs per seed.
        for i in (1..roots.len()).rev() {
            let j = rng.gen_range(0..=i);
            roots.swap(i, j);
        }

        Program {
            functions,
            dispatcher_call_pc,
            dispatcher_jump_pc,
            hot_roots: roots,
        }
    }

    /// Static instruction footprint in bytes (excluding padding).
    pub fn code_bytes(&self) -> u64 {
        self.functions
            .iter()
            .map(|f| f.instr_count() as u64 * 4)
            .sum::<u64>()
            + 8 // dispatcher
    }
}

fn gen_body(spec: &WorkloadSpec, rng: &mut SmallRng) -> Vec<Slot> {
    let n = rng.gen_range((spec.avg_block_instrs / 2).max(1)..=spec.avg_block_instrs * 2);
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let r: f64 = rng.gen();
        let slot = if r < spec.load_fraction {
            Slot::Load {
                dst: Reg::new(rng.gen_range(1..32)),
                site: rng.gen(),
                stride: pick_stride(rng),
            }
        } else if r < spec.load_fraction + spec.store_fraction {
            Slot::Store {
                site: rng.gen(),
                stride: pick_stride(rng),
            }
        } else {
            let s1 = Reg::new(rng.gen_range(1..32));
            let s2 = (rng.gen_range(0..4usize) == 0).then(|| Reg::new(rng.gen_range(1..32)));
            Slot::Alu {
                dst: Reg::new(rng.gen_range(1..32)),
                srcs: [Some(s1), s2],
            }
        };
        slots.push(slot);
    }
    slots
}

/// Data-access stride per static site: overwhelmingly cache-friendly so the
/// D-side does not mask the front-end behavior the paper characterizes
/// (CVP-1's front-end-bound traces behave the same way).
fn pick_stride(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..100u32) {
        0..=79 => 0,    // revisits one address: L1-D hit
        80..=92 => 8,   // walks within a line: mostly hits
        93..=98 => 64,  // streaming: misses amortized by spatial reuse
        _ => 4096 + 64, // page-crossing: rare long-latency load
    }
}

#[allow(clippy::too_many_arguments)]
fn gen_terminator(
    spec: &WorkloadSpec,
    rng: &mut SmallRng,
    caller: usize,
    layer: usize,
    layers: usize,
    block: usize,
    nblocks: usize,
    calls: &mut usize,
    prior: &[(Vec<Slot>, Terminator)],
) -> Terminator {
    let can_skip = block + 2 < nblocks;
    // Cap call sites per function so the call tree's branching factor stays
    // near 1.3 — otherwise a single dispatcher iteration explodes
    // exponentially across the layered DAG.
    let can_call = layer < layers && *calls < 2;
    let r: f64 = rng.gen();
    if r < 0.16 && can_call {
        // Callees live in the next layer; round-robin base plus jitter.
        let next_layer: Vec<usize> = (0..spec.functions)
            .filter(|f| 1 + f % layers == layer + 1 && *f != caller)
            .collect();
        if next_layer.is_empty() {
            return Terminator::FallThrough;
        }
        *calls += 1;
        let indirect = rng.gen::<f64>() < spec.indirect_call_fraction;
        let ntargets = if indirect {
            rng.gen_range(2..=4usize)
        } else {
            1
        };
        let targets = (0..ntargets)
            .map(|_| next_layer[rng.gen_range(0..next_layer.len())])
            .collect();
        Terminator::Call { targets, indirect }
    } else if r < 0.51 && can_skip {
        let bias = if rng.gen::<f64>() < spec.predictable_branch_fraction {
            if rng.gen::<bool>() {
                0.99
            } else {
                0.01
            }
        } else {
            rng.gen_range(0.30..0.70)
        };
        Terminator::CondSkip { bias }
    } else if r < 0.51 + spec.loop_fraction {
        // Prefer region loops (back edge over the last few blocks) so
        // iterations carry distinct branch histories; regions must not
        // contain call sites, or the call tree would multiply per trip.
        let mut back_to = block;
        if block > 0 && rng.gen_bool(0.85) {
            let lo = block.saturating_sub(3);
            let candidate = rng.gen_range(lo..=block.saturating_sub(1));
            let region_is_call_free = prior[candidate..block]
                .iter()
                .all(|(_, t)| !matches!(t, Terminator::Call { .. }));
            if region_is_call_free {
                back_to = candidate;
            }
        }
        // Tight loops get realistic high trip counts so their (hard to
        // predict) exit mispredictions amortize; region loops stay short so
        // their bodies do not dominate the dynamic mix.
        // Short, per-site-constant trip counts keep loop exits within the
        // reach of history-based prediction (a taken-only GHR sees one bit
        // per iteration).
        let trips = if back_to == block {
            rng.gen_range(4..=8u32)
        } else {
            rng.gen_range(2..=4u32)
        };
        Terminator::Loop { back_to, trips }
    } else {
        Terminator::FallThrough
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvp1_suite;

    fn sample_spec() -> WorkloadSpec {
        cvp1_suite(10_000).remove(16) // a server workload
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = sample_spec();
        let a = Program::generate(&spec);
        let b = Program::generate(&spec);
        assert_eq!(a.code_bytes(), b.code_bytes());
        assert_eq!(a.hot_roots, b.hot_roots);
        assert_eq!(a.functions.len(), b.functions.len());
    }

    #[test]
    fn layout_is_disjoint_and_ordered() {
        let p = Program::generate(&sample_spec());
        let mut prev_end = Addr::ZERO;
        for f in &p.functions {
            assert!(f.base >= prev_end, "function overlaps predecessor");
            let mut addr = f.base;
            for b in &f.blocks {
                assert_eq!(b.start, addr, "block not contiguous");
                addr = b.end();
            }
            prev_end = addr;
        }
        assert!(p.dispatcher_call_pc >= prev_end);
    }

    #[test]
    fn every_function_ends_with_return() {
        let p = Program::generate(&sample_spec());
        for f in &p.functions {
            assert!(matches!(f.blocks.last().unwrap().term, Terminator::Return));
        }
    }

    #[test]
    fn calls_respect_layering() {
        let p = Program::generate(&sample_spec());
        for f in &p.functions {
            for b in &f.blocks {
                if let Terminator::Call { targets, .. } = &b.term {
                    for &t in targets {
                        assert_eq!(
                            p.functions[t].layer,
                            f.layer + 1,
                            "call crosses layers incorrectly"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cond_skips_never_jump_past_return() {
        let p = Program::generate(&sample_spec());
        for f in &p.functions {
            for (i, b) in f.blocks.iter().enumerate() {
                if matches!(b.term, Terminator::CondSkip { .. }) {
                    assert!(i + 2 < f.blocks.len(), "skip would bypass return");
                }
            }
        }
    }

    #[test]
    fn footprint_tracks_spec() {
        let spec = sample_spec();
        let p = Program::generate(&spec);
        let kib = p.code_bytes() / 1024;
        let approx = spec.approx_footprint_kib() as u64;
        assert!(
            kib > approx / 4 && kib < approx * 4,
            "footprint {kib} KiB far from spec estimate {approx} KiB"
        );
    }

    #[test]
    fn hot_roots_are_layer_one() {
        let p = Program::generate(&sample_spec());
        assert!(!p.hot_roots.is_empty());
        for &r in &p.hot_roots {
            assert_eq!(p.functions[r].layer, 1);
        }
    }
}
