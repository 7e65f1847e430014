//! The trace emitter: executes a synthetic [`Program`] into a dynamic trace.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swip_trace::Trace;
use swip_types::{Addr, Instruction, Reg};

use crate::program::{Block, Slot, Terminator};
use crate::{Program, WorkloadSpec};

/// Base of the synthetic data heap (far from the code segment).
const DATA_BASE: u64 = 0x1000_0000;

/// Generates the dynamic trace for `spec`.
///
/// Deterministic: the same spec always yields byte-identical traces, which
/// lets the AsmDB pipeline profile a run and rewrite exactly the program it
/// profiled. The trace ends at the first dispatcher-loop boundary after
/// `spec.instructions` instructions.
pub fn generate(spec: &WorkloadSpec) -> Trace {
    let program = Program::generate(spec);
    generate_from(spec, &program)
}

/// Generates the trace for an already-built program (exposed so callers can
/// inspect the static program alongside its trace).
pub(crate) fn generate_from(spec: &WorkloadSpec, program: &Program) -> Trace {
    let mut e = Emitter {
        program,
        rng: SmallRng::seed_from_u64(spec.seed ^ 0x5eed_1234_abcd_ef00),
        out: Vec::with_capacity(spec.instructions as usize + 4096),
        site_visits: HashMap::new(),
        budget: spec.instructions,
        hot_exponent: spec.hot_exponent,
        root_persistence: spec.root_persistence,
        current_root: None,
    };
    e.run();
    Trace::from_instructions(spec.name.clone(), e.out)
}

struct Emitter<'a> {
    program: &'a Program,
    rng: SmallRng,
    out: Vec<Instruction>,
    site_visits: HashMap<u32, u64>,
    budget: u64,
    hot_exponent: f64,
    root_persistence: f64,
    /// Index into `hot_roots` of the root currently being dispatched.
    current_root: Option<usize>,
}

impl Emitter<'_> {
    fn run(&mut self) {
        while (self.out.len() as u64) < self.budget {
            let root = self.sample_root();
            let call_pc = self.program.dispatcher_call_pc;
            let root_base = self.program.functions[root].base;
            self.out
                .push(Instruction::indirect_call(call_pc, root_base).with_srcs(&[Reg::new(1)]));
            self.walk(root, self.program.dispatcher_jump_pc);
            self.out
                .push(Instruction::jump(self.program.dispatcher_jump_pc, call_pc));
        }
    }

    /// Root selection with three regimes, mirroring how server request
    /// streams behave: *stay* on the current handler (warm, clustered),
    /// *chain* to a fixed successor handler (cold in the L1-I but a
    /// predictable indirect target — a request pipeline), or *jump* to a
    /// Zipf-weighted random handler. The stay probability is the workload's
    /// `root_persistence`; lowering it raises the L1-I miss rate without
    /// making the dispatcher's indirect call unpredictable.
    fn sample_root(&mut self) -> usize {
        let n = self.program.hot_roots.len();
        let idx = match self.current_root {
            Some(cur) if self.rng.gen::<f64>() < self.root_persistence => cur,
            Some(cur) if self.rng.gen::<f64>() < 0.85 => (cur + 1) % n,
            _ => {
                let u: f64 = self.rng.gen();
                (((n as f64) * u.powf(self.hot_exponent)) as usize).min(n - 1)
            }
        };
        self.current_root = Some(idx);
        self.program.hot_roots[idx]
    }

    fn walk(&mut self, func_idx: usize, ret_to: Addr) {
        let func = &self.program.functions[func_idx];
        let mut loop_counters: HashMap<usize, u32> = HashMap::new();
        let mut b = 0usize;
        while b < func.blocks.len() {
            let block = &func.blocks[b];
            self.emit_body(block);
            match &block.term {
                Terminator::FallThrough => b += 1,
                Terminator::Return => {
                    self.out.push(Instruction::ret(block.term_pc(), ret_to));
                    return;
                }
                Terminator::CondSkip { bias } => {
                    let taken = self.rng.gen::<f64>() < *bias;
                    let target = func.blocks[b + 2].start;
                    self.out
                        .push(Instruction::cond_branch(block.term_pc(), target, taken));
                    b += if taken { 2 } else { 1 };
                }
                Terminator::Loop { back_to, trips } => {
                    let pc = block.term_pc();
                    let target = func.blocks[*back_to].start;
                    let counter = loop_counters.entry(b).or_insert(0);
                    *counter += 1;
                    if *counter < *trips {
                        self.out.push(Instruction::cond_branch(pc, target, true));
                        b = *back_to;
                    } else {
                        *counter = 0;
                        self.out.push(Instruction::cond_branch(pc, target, false));
                        b += 1;
                    }
                }
                Terminator::Call { targets, indirect } => {
                    let pc = block.term_pc();
                    // Virtual-dispatch sites are mostly monomorphic in
                    // practice: a dominant target with occasional megamorphic
                    // excursions (learnable by a last-target predictor).
                    let callee = if *indirect {
                        if self.rng.gen::<f64>() < 0.10 {
                            targets[self.rng.gen_range(0..targets.len())]
                        } else {
                            targets[0]
                        }
                    } else {
                        targets[0]
                    };
                    let callee_base = self.program.functions[callee].base;
                    let call = if *indirect {
                        Instruction::indirect_call(pc, callee_base).with_srcs(&[Reg::new(2)])
                    } else {
                        Instruction::call(pc, callee_base)
                    };
                    self.out.push(call);
                    self.walk(callee, pc.add(4));
                    b += 1;
                }
            }
        }
        // Structurally unreachable: the final block always returns.
        unreachable!("function fell off its final block");
    }

    fn emit_body(&mut self, block: &Block) {
        let mut pc = block.start;
        for slot in &block.slots {
            let instr = match slot {
                Slot::Alu { dst, srcs } => {
                    let mut i = Instruction::alu(pc).with_dst(*dst);
                    i.srcs = [srcs[0], srcs[1], None];
                    i
                }
                Slot::Load { dst, site, stride } => {
                    let addr = self.data_address(*site, *stride);
                    Instruction::load(pc, addr)
                        .with_dst(*dst)
                        .with_srcs(&[Reg::new(3)])
                }
                Slot::Store { site, stride } => {
                    let addr = self.data_address(*site, *stride);
                    Instruction::store(pc, addr).with_srcs(&[Reg::new(4)])
                }
            };
            self.out.push(instr);
            pc = pc.add(4);
        }
    }

    /// Per-site data addresses: a static base spread over a 2 MiB region,
    /// advanced by the site's stride within a 64 KiB window per visit.
    fn data_address(&mut self, site: u32, stride: u64) -> Addr {
        let visits = self.site_visits.entry(site).or_insert(0);
        *visits += 1;
        let base = DATA_BASE + (site as u64 % 32768) * 64;
        Addr::new(base + (*visits * stride) % 0x1_0000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvp1_suite;
    use swip_types::{BranchKind, InstrKind};

    fn small_suite() -> Vec<WorkloadSpec> {
        cvp1_suite(20_000)
    }

    #[test]
    fn traces_meet_budget_and_are_deterministic() {
        let spec = &small_suite()[16];
        let a = generate(spec);
        let b = generate(spec);
        assert!(a.len() >= 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn overshoot_is_bounded() {
        let spec = &small_suite()[16];
        let t = generate(spec);
        assert!(
            t.len() < 20_000 + 100_000,
            "overshoot too large: {}",
            t.len()
        );
    }

    #[test]
    fn calls_and_returns_pair_like_a_stack() {
        let spec = &small_suite()[20];
        let t = generate(spec);
        let mut stack: Vec<Addr> = Vec::new();
        for i in t.iter() {
            if let InstrKind::Branch { kind, target, .. } = i.kind() {
                match kind {
                    BranchKind::DirectCall | BranchKind::IndirectCall => {
                        stack.push(i.pc.add(4));
                    }
                    BranchKind::Return => {
                        let expected = stack.pop().expect("return without call");
                        assert_eq!(target, expected, "return target mismatch at {}", i.pc);
                    }
                    _ => {}
                }
            }
        }
        assert!(stack.is_empty(), "unbalanced calls at trace end");
    }

    #[test]
    fn every_pc_has_a_stable_instruction_kind() {
        let spec = &small_suite()[5];
        let t = generate(spec);
        let mut kinds: HashMap<u64, std::mem::Discriminant<InstrKind>> = HashMap::new();
        for i in t.iter() {
            let d = std::mem::discriminant(&i.kind());
            if let Some(prev) = kinds.insert(i.pc.raw(), d) {
                assert_eq!(prev, d, "instruction kind changed at {}", i.pc);
            }
        }
    }

    #[test]
    fn control_flow_is_sequential_or_explained_by_branches() {
        let spec = &small_suite()[30];
        let t = generate(spec);
        let instrs = t.instructions();
        for w in instrs.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert_eq!(a.next_pc(), b.pc, "discontinuity between {} and {}", a, b);
        }
    }

    #[test]
    fn branch_density_is_realistic() {
        for idx in [1usize, 5, 16] {
            let spec = &small_suite()[idx];
            let s = generate(spec).summary();
            let d = s.branch_density();
            assert!(
                (0.05..0.45).contains(&d),
                "{}: branch density {d:.2} out of range",
                spec.name
            );
        }
    }

    #[test]
    fn server_footprint_larger_than_crypto() {
        let suite = small_suite();
        let srv = generate(&suite[16]).summary();
        let crypto = generate(&suite[1]).summary();
        assert!(
            srv.unique_lines > crypto.unique_lines * 2,
            "srv {} lines vs crypto {} lines",
            srv.unique_lines,
            crypto.unique_lines
        );
    }
}
