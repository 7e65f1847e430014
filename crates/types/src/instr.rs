//! The dynamic instruction model.

use std::fmt;

use crate::{Addr, Reg};

/// Default instruction size in bytes (the paper assumes 32-bit instructions:
/// "192, 32-bit instructions" for a 24-entry FTQ of 8-instruction blocks).
pub const DEFAULT_INSTR_SIZE: u8 = 4;

/// The flavor of a control-transfer instruction.
///
/// Mirrors the CVP-1 / ChampSim branch taxonomy, which the FDP front-end's
/// predictors treat differently:
/// conditional branches consult the direction predictor; returns consult the
/// RAS; indirect jumps and calls consult the indirect predictor; all taken
/// branches need a BTB target.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// Conditional direct branch (taken or not-taken per execution).
    CondDirect,
    /// Unconditional direct jump (always taken).
    UncondDirect,
    /// Unconditional indirect jump through a register.
    IndirectJump,
    /// Direct call; pushes a return address onto the RAS.
    DirectCall,
    /// Indirect call; pushes a return address and needs the indirect predictor.
    IndirectCall,
    /// Return; pops the RAS.
    Return,
}

impl BranchKind {
    /// True for calls (direct or indirect), which push the RAS.
    pub const fn is_call(self) -> bool {
        matches!(self, BranchKind::DirectCall | BranchKind::IndirectCall)
    }

    /// True for branches whose target comes from a register, not the
    /// instruction encoding (indirect jumps/calls and returns).
    pub const fn is_indirect(self) -> bool {
        matches!(
            self,
            BranchKind::IndirectJump | BranchKind::IndirectCall | BranchKind::Return
        )
    }

    /// True for branches that are always taken.
    pub const fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::CondDirect)
    }
}

/// The operation class of an instruction, with class-specific payload.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum InstrKind {
    /// Integer/FP computation; no memory or control-flow side effects.
    Alu,
    /// Memory load from `addr`.
    Load {
        /// Effective byte address of the access.
        addr: Addr,
    },
    /// Memory store to `addr`.
    Store {
        /// Effective byte address of the access.
        addr: Addr,
    },
    /// Control transfer. `taken` records the *trace outcome*; predictors must
    /// not peek at it when predicting.
    Branch {
        /// Which predictor structures this branch exercises.
        kind: BranchKind,
        /// Architectural target of the branch when taken.
        target: Addr,
        /// Whether this dynamic instance was taken.
        taken: bool,
    },
    /// Software instruction prefetch of the line containing `target`
    /// (the `prefetch.i` ISA support AsmDB assumes). Occupies a front-end
    /// slot like any other instruction; a pre-decoder fires the prefetch once
    /// the instruction itself has been fetched.
    PrefetchI {
        /// Code address whose line should be prefetched into the L1-I.
        target: Addr,
    },
}

/// One dynamic instruction as it appears in a trace.
///
/// `pc`, `size`, `srcs` and `dst` are public fields. The operation class
/// is packed into two private fields, so it is read with
/// [`Instruction::kind`] and set by the constructors or
/// [`Instruction::with_kind`].
///
/// # Examples
///
/// ```
/// use swip_types::{Addr, InstrKind, Instruction, Reg};
///
/// let ld = Instruction::load(Addr::new(0x400), Addr::new(0x9000))
///     .with_dst(Reg::new(1))
///     .with_srcs(&[Reg::new(2)]);
/// assert!(ld.is_memory());
/// assert_eq!(ld.kind(), InstrKind::Load { addr: Addr::new(0x9000) });
/// assert_eq!(ld.next_pc(), Addr::new(0x404));
/// ```
///
/// # Layout
///
/// A session holds every trace it simulates, original and rewritten, so
/// the record is kept to 24 bytes (DESIGN.md §13). [`InstrKind`]'s
/// address payload is one `u64` operand (0 for [`InstrKind::Alu`]), and
/// its variant, [`BranchKind`] and taken bit are one class byte. Every
/// `InstrKind` value round-trips through `with_kind` and `kind`, the
/// not-taken unconditional branches a decoder may meet included, and two
/// instructions are equal exactly when their fields and kinds are.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Program counter of this instruction.
    pub pc: Addr,
    /// The address payload of [`Instruction::kind`].
    operand: u64,
    /// Encoded size in bytes (normally 4).
    pub size: u8,
    /// The variant of [`Instruction::kind`], in the layout of `class`.
    class: u8,
    /// Source registers (up to 3, CVP-1 style). `None` slots are unused.
    pub srcs: [Option<Reg>; 3],
    /// Destination register, if any.
    pub dst: Option<Reg>,
}

const _: () = assert!(std::mem::size_of::<Instruction>() == 24);

/// The class byte: `ALU`, `LOAD`, `STORE` or `PREFETCH_I`, or for a
/// branch `BRANCH`, the [`BranchKind`] in the low three bits, and `TAKEN`.
mod class {
    pub const ALU: u8 = 0;
    pub const LOAD: u8 = 1;
    pub const STORE: u8 = 2;
    pub const PREFETCH_I: u8 = 3;
    pub const BRANCH: u8 = 1 << 3;
    pub const TAKEN: u8 = 1 << 4;
    pub const BRANCH_KIND: u8 = 0b111;
}

impl BranchKind {
    /// Every kind, indexed by its position in the declaration.
    const ALL: [BranchKind; 6] = [
        BranchKind::CondDirect,
        BranchKind::UncondDirect,
        BranchKind::IndirectJump,
        BranchKind::DirectCall,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];
}

impl Instruction {
    /// Creates an instruction of any kind at `pc`, with the default size
    /// and no registers. Unlike [`Instruction::branch`] it accepts a
    /// not-taken unconditional branch.
    pub const fn new(pc: Addr, kind: InstrKind) -> Self {
        Instruction {
            pc,
            operand: 0,
            size: DEFAULT_INSTR_SIZE,
            class: class::ALU,
            srcs: [None; 3],
            dst: None,
        }
        .with_kind(kind)
    }

    /// Creates an ALU instruction at `pc`.
    pub fn alu(pc: Addr) -> Self {
        Self::new(pc, InstrKind::Alu)
    }

    /// Creates a load from `addr` at `pc`.
    pub fn load(pc: Addr, addr: Addr) -> Self {
        Self::new(pc, InstrKind::Load { addr })
    }

    /// Creates a store to `addr` at `pc`.
    pub fn store(pc: Addr, addr: Addr) -> Self {
        Self::new(pc, InstrKind::Store { addr })
    }

    /// Creates a conditional direct branch.
    pub fn cond_branch(pc: Addr, target: Addr, taken: bool) -> Self {
        Self::branch(pc, BranchKind::CondDirect, target, taken)
    }

    /// Creates an unconditional direct jump (always taken).
    pub fn jump(pc: Addr, target: Addr) -> Self {
        Self::branch(pc, BranchKind::UncondDirect, target, true)
    }

    /// Creates a direct call (always taken).
    pub fn call(pc: Addr, target: Addr) -> Self {
        Self::branch(pc, BranchKind::DirectCall, target, true)
    }

    /// Creates an indirect call (always taken).
    pub fn indirect_call(pc: Addr, target: Addr) -> Self {
        Self::branch(pc, BranchKind::IndirectCall, target, true)
    }

    /// Creates an indirect jump (always taken).
    pub fn indirect_jump(pc: Addr, target: Addr) -> Self {
        Self::branch(pc, BranchKind::IndirectJump, target, true)
    }

    /// Creates a return to `target` (always taken).
    pub fn ret(pc: Addr, target: Addr) -> Self {
        Self::branch(pc, BranchKind::Return, target, true)
    }

    /// Creates a branch of arbitrary kind.
    ///
    /// # Panics
    ///
    /// Panics if an unconditional kind is created with `taken == false`.
    pub fn branch(pc: Addr, kind: BranchKind, target: Addr, taken: bool) -> Self {
        assert!(
            taken || !kind.is_unconditional(),
            "unconditional branch at {pc} cannot be not-taken"
        );
        Self::new(
            pc,
            InstrKind::Branch {
                kind,
                target,
                taken,
            },
        )
    }

    /// Creates a software instruction prefetch of `target`'s line.
    pub fn prefetch_i(pc: Addr, target: Addr) -> Self {
        Self::new(pc, InstrKind::PrefetchI { target })
    }

    /// The operation class and payload.
    pub const fn kind(&self) -> InstrKind {
        let addr = Addr::new(self.operand);
        match self.class {
            class::ALU => InstrKind::Alu,
            class::LOAD => InstrKind::Load { addr },
            class::STORE => InstrKind::Store { addr },
            class::PREFETCH_I => InstrKind::PrefetchI { target: addr },
            c => InstrKind::Branch {
                kind: BranchKind::ALL[(c & class::BRANCH_KIND) as usize],
                target: addr,
                taken: c & class::TAKEN != 0,
            },
        }
    }

    /// Replaces the operation class and payload (builder style). Any
    /// `InstrKind` is accepted, as by [`Instruction::new`].
    #[must_use]
    pub const fn with_kind(mut self, kind: InstrKind) -> Self {
        (self.class, self.operand) = match kind {
            InstrKind::Alu => (class::ALU, 0),
            InstrKind::Load { addr } => (class::LOAD, addr.raw()),
            InstrKind::Store { addr } => (class::STORE, addr.raw()),
            InstrKind::Branch {
                kind,
                target,
                taken,
            } => {
                let taken = if taken { class::TAKEN } else { 0 };
                (class::BRANCH | kind as u8 | taken, target.raw())
            }
            InstrKind::PrefetchI { target } => (class::PREFETCH_I, target.raw()),
        };
        self
    }

    /// Sets the source registers (builder style). Extra entries beyond 3 are
    /// ignored.
    #[must_use]
    pub fn with_srcs(mut self, srcs: &[Reg]) -> Self {
        for (slot, reg) in self.srcs.iter_mut().zip(srcs.iter()) {
            *slot = Some(*reg);
        }
        self
    }

    /// Sets the destination register (builder style).
    #[must_use]
    pub fn with_dst(mut self, dst: Reg) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Sets a non-default encoded size (builder style).
    #[must_use]
    pub fn with_size(mut self, size: u8) -> Self {
        self.size = size;
        self
    }

    /// True if this is any control-transfer instruction.
    pub const fn is_branch(&self) -> bool {
        self.class & class::BRANCH != 0
    }

    /// True if this is a load or store.
    pub const fn is_memory(&self) -> bool {
        matches!(self.class, class::LOAD | class::STORE)
    }

    /// True if this is a software instruction prefetch.
    pub const fn is_prefetch_i(&self) -> bool {
        self.class == class::PREFETCH_I
    }

    /// The branch kind, if this is a branch.
    pub fn branch_kind(&self) -> Option<BranchKind> {
        match self.kind() {
            InstrKind::Branch { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// The trace-recorded taken outcome; `false` for non-branches.
    pub fn is_taken(&self) -> bool {
        self.class & class::TAKEN != 0
    }

    /// The branch target, if this is a branch.
    pub fn branch_target(&self) -> Option<Addr> {
        self.is_branch().then_some(Addr::new(self.operand))
    }

    /// The address of the instruction that architecturally follows this one
    /// in the dynamic stream: the branch target when taken, else the
    /// fall-through.
    pub fn next_pc(&self) -> Addr {
        if self.is_taken() {
            Addr::new(self.operand)
        } else {
            self.fallthrough()
        }
    }

    /// The fall-through address (`pc + size`), regardless of branch outcome.
    pub fn fallthrough(&self) -> Addr {
        self.pc.add(self.size as u64)
    }
}

impl fmt::Debug for Instruction {
    /// The fields, with `kind` in place of the packed operand and class.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instruction")
            .field("pc", &self.pc)
            .field("size", &self.size)
            .field("kind", &self.kind())
            .field("srcs", &self.srcs)
            .field("dst", &self.dst)
            .finish()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            InstrKind::Alu => write!(f, "{}: alu", self.pc),
            InstrKind::Load { addr } => write!(f, "{}: load [{addr}]", self.pc),
            InstrKind::Store { addr } => write!(f, "{}: store [{addr}]", self.pc),
            InstrKind::Branch {
                kind,
                target,
                taken,
            } => {
                write!(
                    f,
                    "{}: {kind:?} -> {target} ({})",
                    self.pc,
                    if taken { "T" } else { "NT" }
                )
            }
            InstrKind::PrefetchI { target } => {
                write!(f, "{}: prefetch.i {target}", self.pc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pc_taken_vs_not_taken() {
        let pc = Addr::new(0x100);
        let tgt = Addr::new(0x200);
        assert_eq!(Instruction::cond_branch(pc, tgt, true).next_pc(), tgt);
        assert_eq!(
            Instruction::cond_branch(pc, tgt, false).next_pc(),
            Addr::new(0x104)
        );
        assert_eq!(Instruction::alu(pc).next_pc(), Addr::new(0x104));
    }

    #[test]
    fn classification_helpers() {
        let pc = Addr::new(0);
        assert!(Instruction::ret(pc, Addr::new(8)).is_branch());
        assert!(Instruction::load(pc, Addr::new(8)).is_memory());
        assert!(Instruction::prefetch_i(pc, Addr::new(8)).is_prefetch_i());
        assert!(!Instruction::alu(pc).is_branch());
        assert_eq!(
            Instruction::call(pc, Addr::new(8)).branch_kind(),
            Some(BranchKind::DirectCall)
        );
    }

    #[test]
    fn branch_kind_predicates() {
        assert!(BranchKind::DirectCall.is_call());
        assert!(BranchKind::IndirectCall.is_call() && BranchKind::IndirectCall.is_indirect());
        assert!(BranchKind::Return.is_indirect());
        assert!(!BranchKind::CondDirect.is_unconditional());
        assert!(BranchKind::UncondDirect.is_unconditional());
    }

    #[test]
    #[should_panic(expected = "cannot be not-taken")]
    fn not_taken_jump_panics() {
        let _ = Instruction::branch(Addr::new(0), BranchKind::UncondDirect, Addr::new(64), false);
    }

    #[test]
    fn builder_sets_registers() {
        let i = Instruction::alu(Addr::new(0))
            .with_dst(Reg::new(5))
            .with_srcs(&[Reg::new(1), Reg::new(2)]);
        assert_eq!(i.dst, Some(Reg::new(5)));
        assert_eq!(i.srcs[0], Some(Reg::new(1)));
        assert_eq!(i.srcs[1], Some(Reg::new(2)));
        assert_eq!(i.srcs[2], None);
    }

    #[test]
    fn every_kind_round_trips_through_the_packed_form() {
        let pc = Addr::new(0x100);
        let a = Addr::new(0xdead_beef_0040);
        let mut kinds = vec![
            InstrKind::Alu,
            InstrKind::Load { addr: a },
            InstrKind::Store { addr: a },
            InstrKind::PrefetchI { target: a },
        ];
        for kind in BranchKind::ALL {
            for taken in [false, true] {
                kinds.push(InstrKind::Branch {
                    kind,
                    target: a,
                    taken,
                });
            }
        }
        for k in kinds {
            let i = Instruction::new(pc, k);
            assert_eq!(i.kind(), k);
            assert_eq!(Instruction::load(pc, pc).with_kind(k), i);
            assert_eq!(i.is_branch(), matches!(k, InstrKind::Branch { .. }));
            assert_eq!(
                i.is_taken(),
                matches!(k, InstrKind::Branch { taken: true, .. })
            );
            assert_eq!(
                i.is_memory(),
                matches!(k, InstrKind::Load { .. } | InstrKind::Store { .. })
            );
            assert_eq!(i.is_prefetch_i(), matches!(k, InstrKind::PrefetchI { .. }));
            assert_eq!(i.branch_target().is_some(), i.is_branch());
        }
    }

    #[test]
    fn debug_names_the_kind_not_the_packing() {
        let i = Instruction::load(Addr::new(0x400), Addr::new(0x9000))
            .with_srcs(&[Reg::new(2)])
            .with_dst(Reg::new(1));
        assert_eq!(
            format!("{i:?}"),
            "Instruction { pc: Addr(0x400), size: 4, kind: Load { addr: Addr(0x9000) }, \
             srcs: [Some(r2), None, None], dst: Some(r1) }"
        );
    }

    #[test]
    fn custom_size_changes_fallthrough() {
        let i = Instruction::alu(Addr::new(0x10)).with_size(8);
        assert_eq!(i.fallthrough(), Addr::new(0x18));
    }
}
