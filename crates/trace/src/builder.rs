//! Convenience builder for constructing traces in program order.

use swip_types::{Addr, BranchKind, Instruction};

use crate::Trace;

/// Incrementally builds a [`Trace`], tracking the current PC.
///
/// The builder lays instructions out contiguously from a start address; taken
/// branches move the PC to their target, mirroring how a real dynamic stream
/// walks a binary. This is the primitive the synthetic workload generator and
/// many tests are written against.
///
/// # Examples
///
/// ```
/// use swip_types::Addr;
/// use swip_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::with_start("loop", Addr::new(0x1000));
/// b.alu();
/// b.cond_branch(Addr::new(0x1000), true); // back-edge
/// b.alu(); // continues at the branch target
/// let t = b.finish();
/// assert_eq!(t.instructions()[2].pc, Addr::new(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    name: String,
    pc: Addr,
    instrs: Vec<Instruction>,
}

impl TraceBuilder {
    /// Creates a builder starting at PC 0.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_start(name, Addr::ZERO)
    }

    /// Creates a builder starting at `start`.
    pub fn with_start(name: impl Into<String>, start: Addr) -> Self {
        TraceBuilder {
            name: name.into(),
            pc: start,
            instrs: Vec::new(),
        }
    }

    /// The PC the next appended instruction will occupy.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends a pre-built instruction and advances the PC to its
    /// architectural successor.
    pub fn push(&mut self, instr: Instruction) -> &mut Self {
        self.pc = instr.next_pc();
        self.instrs.push(instr);
        self
    }

    /// Appends an ALU instruction.
    pub fn alu(&mut self) -> &mut Self {
        self.push(Instruction::alu(self.pc))
    }

    /// Appends a load from `addr`.
    pub fn load(&mut self, addr: Addr) -> &mut Self {
        self.push(Instruction::load(self.pc, addr))
    }

    /// Appends a store to `addr`.
    pub fn store(&mut self, addr: Addr) -> &mut Self {
        self.push(Instruction::store(self.pc, addr))
    }

    /// Appends a conditional branch to `target` with outcome `taken`.
    pub fn cond_branch(&mut self, target: Addr, taken: bool) -> &mut Self {
        self.push(Instruction::cond_branch(self.pc, target, taken))
    }

    /// Appends an unconditional jump to `target`.
    pub fn jump(&mut self, target: Addr) -> &mut Self {
        self.push(Instruction::jump(self.pc, target))
    }

    /// Appends a direct call to `target`.
    pub fn call(&mut self, target: Addr) -> &mut Self {
        self.push(Instruction::call(self.pc, target))
    }

    /// Appends a return to `target`.
    pub fn ret(&mut self, target: Addr) -> &mut Self {
        self.push(Instruction::ret(self.pc, target))
    }

    /// Appends a branch of arbitrary kind.
    pub fn branch(&mut self, kind: BranchKind, target: Addr, taken: bool) -> &mut Self {
        self.push(Instruction::branch(self.pc, kind, target, taken))
    }

    /// Appends a software instruction prefetch of `target`.
    pub fn prefetch_i(&mut self, target: Addr) -> &mut Self {
        self.push(Instruction::prefetch_i(self.pc, target))
    }

    /// Moves the current PC without emitting an instruction (e.g. to lay out
    /// a function at a fresh address before calling it).
    pub fn set_pc(&mut self, pc: Addr) -> &mut Self {
        self.pc = pc;
        self
    }

    /// Finishes the build, producing the immutable [`Trace`].
    pub fn finish(self) -> Trace {
        Trace::from_instructions(self.name, self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_layout() {
        let mut b = TraceBuilder::new("seq");
        b.alu().alu().alu();
        let t = b.finish();
        let pcs: Vec<u64> = t.iter().map(|i| i.pc.raw()).collect();
        assert_eq!(pcs, vec![0, 4, 8]);
    }

    #[test]
    fn taken_branch_redirects_pc() {
        let mut b = TraceBuilder::with_start("br", Addr::new(0x100));
        b.cond_branch(Addr::new(0x200), true);
        assert_eq!(b.pc(), Addr::new(0x200));
        b.cond_branch(Addr::new(0x300), false);
        assert_eq!(b.pc(), Addr::new(0x204));
    }

    #[test]
    fn call_and_return_walk() {
        let mut b = TraceBuilder::with_start("call", Addr::new(0x1000));
        b.call(Addr::new(0x2000));
        assert_eq!(b.pc(), Addr::new(0x2000));
        b.alu();
        b.ret(Addr::new(0x1004));
        assert_eq!(b.pc(), Addr::new(0x1004));
    }

    #[test]
    fn set_pc_does_not_emit() {
        let mut b = TraceBuilder::new("setpc");
        b.set_pc(Addr::new(0x40)).alu();
        let t = b.finish();
        assert_eq!(t.len(), 1);
        assert_eq!(t.instructions()[0].pc, Addr::new(0x40));
    }
}
