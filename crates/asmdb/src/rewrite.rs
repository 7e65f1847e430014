//! Trace rewriting: inserting `prefetch.i` instructions with address
//! shifting (code bloat).

use std::collections::BTreeMap;

use swip_trace::Trace;
use swip_types::{Addr, InstrKind, Instruction, IntMap, IntSet};

use crate::Plan;

/// Instruction word size; every inserted prefetch occupies one word.
const WORD: u64 = 4;

/// Bloat accounting for one rewrite (the paper's Figure 7).
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct RewriteReport {
    /// Static code-size increase: inserted bytes / original static bytes
    /// (Fig 7a).
    pub static_bloat: f64,
    /// Dynamic instruction increase: executed prefetches / original dynamic
    /// length (Fig 7b).
    pub dynamic_bloat: f64,
    /// Distinct (anchor, target) prefetch slots inserted.
    pub inserted_sites: usize,
    /// Dynamic `prefetch.i` executions in the rewritten trace.
    pub inserted_dynamic: u64,
    /// Original static code bytes (unique PCs × 4).
    pub original_static_bytes: u64,
    /// Original dynamic instruction count.
    pub original_len: u64,
}

/// The address-shift map implied by a set of insertion slots.
///
/// Inserting a prefetch at *key* `k` shifts every address `≥ k` up by one
/// word — exactly what reassembling a binary with an extra instruction does.
/// The paper: "Adding additional instructions shifts the instruction
/// addresses within the binary, shifting the cache lines' contents."
///
/// Slots at a key come in two flavors with different branch-target
/// semantics. *Before-anchor* slots sit at the head of the block whose first
/// remaining instruction is at `k`: a branch targeting `k` enters that block
/// and must execute them, so the target maps to the first slot.
/// *After-anchor* slots were appended to the **preceding** block: a branch
/// targeting `k` must land past them.
#[derive(Clone, Debug, Default)]
pub struct ShiftMap {
    /// Sorted insertion keys with (after-anchor, before-anchor) slot counts.
    keys: Vec<(u64, u64, u64)>,
    /// Cumulative total slot counts (same indexing as `keys`).
    cumulative: Vec<u64>,
}

impl ShiftMap {
    /// The shift map `rewrite_trace` would apply for `plan` — usable to
    /// reason about the rewritten address space (e.g. cache-set geometry)
    /// without materializing the rewritten trace.
    pub fn from_plan(plan: &Plan) -> Self {
        let (_, slots) = plan_slots(plan);
        ShiftMap::new(&slots)
    }

    fn new(slots: &BTreeMap<u64, (u64, u64)>) -> Self {
        let keys: Vec<(u64, u64, u64)> = slots.iter().map(|(&k, &(a, b))| (k, a, b)).collect();
        let mut cumulative = Vec::with_capacity(keys.len());
        let mut total = 0;
        for &(_, a, b) in &keys {
            total += a + b;
            cumulative.push(total);
        }
        ShiftMap { keys, cumulative }
    }

    /// Index of `addr` in the key list, if it is a key.
    fn find(&self, addr: u64) -> Result<usize, usize> {
        self.keys.binary_search_by_key(&addr, |&(k, _, _)| k)
    }

    /// Total slots with key ≤ `addr`.
    fn slots_at_or_before(&self, addr: u64) -> u64 {
        match self.find(addr) {
            Ok(i) => self.cumulative[i],
            Err(0) => 0,
            Err(i) => self.cumulative[i - 1],
        }
    }

    /// Total slots with key < `addr`.
    fn slots_strictly_before(&self, addr: u64) -> u64 {
        match self.find(addr) {
            Ok(0) | Err(0) => 0,
            Ok(i) => self.cumulative[i - 1],
            Err(i) => self.cumulative[i - 1],
        }
    }

    /// The rewritten address of the *instruction* originally at `addr`
    /// (shifts past every slot inserted at or before it).
    pub fn remap_pc(&self, addr: Addr) -> Addr {
        addr.add(WORD * self.slots_at_or_before(addr.raw()))
    }

    /// The rewritten address a *branch target* `addr` resolves to: past any
    /// after-anchor slots at `addr` (they belong to the preceding block) but
    /// at the head of any before-anchor slots (they belong to the targeted
    /// block).
    pub fn remap_target(&self, addr: Addr) -> Addr {
        let after = match self.find(addr.raw()) {
            Ok(i) => self.keys[i].1,
            Err(_) => 0,
        };
        addr.add(WORD * (self.slots_strictly_before(addr.raw()) + after))
    }

    /// Addresses of the `m` before-anchor (`before = true`) or after-anchor
    /// slots at key `k` in the rewritten space.
    fn slot_addrs(&self, key: u64, m: u64, before: bool) -> impl Iterator<Item = Addr> + '_ {
        let base = self.slots_strictly_before(key);
        let after_count = match self.find(key) {
            Ok(i) => self.keys[i].1,
            Err(_) => 0,
        };
        // Layout at a key: after-anchor slots first, then before-anchor.
        let start = if before { base + after_count } else { base };
        (0..m).map(move |j| Addr::new(key + WORD * (start + j)))
    }
}

/// Groups `plan`'s insertions into per-anchor target lists and the slot
/// table keyed by rewritten-space insertion point (before-anchor slots
/// shift the anchor itself; after-anchor slots begin at the next word).
/// The slot table only sums counts, so it does not depend on the order the
/// anchor map is visited in.
type AnchorSlots = (IntMap<u64, (bool, Vec<Addr>)>, BTreeMap<u64, (u64, u64)>);

fn plan_slots(plan: &Plan) -> AnchorSlots {
    // Group insertions per anchor, preserving plan order.
    let mut per_anchor: IntMap<u64, (bool, Vec<Addr>)> = IntMap::default();
    for ins in &plan.insertions {
        let entry = per_anchor
            .entry(ins.anchor.raw())
            .or_insert_with(|| (ins.before, Vec::new()));
        debug_assert_eq!(
            entry.0, ins.before,
            "an anchor's before/after mode is a property of its instruction"
        );
        if !entry.1.contains(&ins.target_pc) {
            entry.1.push(ins.target_pc);
        }
    }
    let mut slots: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (&anchor, (before, targets)) in &per_anchor {
        let key = if *before { anchor } else { anchor + WORD };
        let entry = slots.entry(key).or_insert((0, 0));
        if *before {
            entry.1 += targets.len() as u64;
        } else {
            entry.0 += targets.len() as u64;
        }
    }
    (per_anchor, slots)
}

/// Applies `plan` to `trace`, producing the rewritten trace and its bloat
/// report.
///
/// Every static address at or past an insertion point shifts by one word per
/// inserted prefetch; branch targets (taken and fall-through) are remapped
/// into the new address space; data addresses are untouched. The dynamic
/// stream is identical to the input modulo the inserted `prefetch.i`
/// instructions, which execute every time their anchor does.
///
/// An empty plan shifts nothing, so its rewrite is the input under the
/// `+asmdb` name and shares the input's instructions instead of copying
/// them (see [`Trace::renamed`]).
pub fn rewrite_trace(trace: &Trace, plan: &Plan) -> (Trace, RewriteReport) {
    let name = format!("{}+asmdb", trace.name());
    if plan.insertions.is_empty() {
        // Inserted one at a time: a `collect()` would size the set for
        // every dynamic PC, most of them repeats.
        let mut unique_pcs: IntSet<u64> = IntSet::default();
        for instr in trace.iter() {
            unique_pcs.insert(instr.pc.raw());
        }
        return (
            trace.renamed(name),
            bloat_report(trace, unique_pcs.len(), 0, 0),
        );
    }
    rewrite_copying(trace, plan, name)
}

/// [`rewrite_trace`] by copying every record, shifted, into a new trace
/// named `name`, with the plan's prefetches inserted.
fn rewrite_copying(trace: &Trace, plan: &Plan, name: String) -> (Trace, RewriteReport) {
    let (per_anchor, slots) = plan_slots(plan);
    let shift = ShiftMap::new(&slots);

    let mut out = Vec::with_capacity(trace.len() + trace.len() / 8);
    let mut inserted_dynamic = 0u64;
    let mut unique_pcs: IntSet<u64> = IntSet::default();

    let emit_prefetches = |key: u64,
                           before: bool,
                           targets: &[Addr],
                           out: &mut Vec<Instruction>,
                           inserted: &mut u64| {
        let addrs = shift.slot_addrs(key, targets.len() as u64, before);
        for (slot_pc, target) in addrs.zip(targets) {
            out.push(Instruction::prefetch_i(
                slot_pc,
                shift.remap_target(*target),
            ));
            *inserted += 1;
        }
    };

    for instr in trace.iter() {
        unique_pcs.insert(instr.pc.raw());
        let anchor_info = per_anchor.get(&instr.pc.raw());
        if let Some((true, targets)) = anchor_info {
            emit_prefetches(
                instr.pc.raw(),
                true,
                targets,
                &mut out,
                &mut inserted_dynamic,
            );
        }
        out.push(remap_instr(instr, &shift));
        if let Some((false, targets)) = anchor_info {
            emit_prefetches(
                instr.pc.raw() + WORD,
                false,
                targets,
                &mut out,
                &mut inserted_dynamic,
            );
        }
    }

    let total_slots: u64 = slots.values().map(|&(a, b)| a + b).sum();
    let report = bloat_report(trace, unique_pcs.len(), total_slots, inserted_dynamic);
    (Trace::from_instructions(name, out), report)
}

/// The bloat of inserting `slots` static prefetches, executed
/// `inserted_dynamic` times, into `trace`, which has `unique_pcs` distinct
/// instruction addresses.
fn bloat_report(
    trace: &Trace,
    unique_pcs: usize,
    slots: u64,
    inserted_dynamic: u64,
) -> RewriteReport {
    let original_static_bytes = unique_pcs as u64 * WORD;
    RewriteReport {
        static_bloat: if original_static_bytes == 0 {
            0.0
        } else {
            (WORD * slots) as f64 / original_static_bytes as f64
        },
        dynamic_bloat: if trace.is_empty() {
            0.0
        } else {
            inserted_dynamic as f64 / trace.len() as f64
        },
        inserted_sites: slots as usize,
        inserted_dynamic,
        original_static_bytes,
        original_len: trace.len() as u64,
    }
}

fn remap_instr(instr: &Instruction, shift: &ShiftMap) -> Instruction {
    let kind = match instr.kind() {
        InstrKind::Branch {
            kind,
            target,
            taken,
        } => InstrKind::Branch {
            kind,
            target: shift.remap_target(target),
            taken,
        },
        InstrKind::PrefetchI { target } => InstrKind::PrefetchI {
            target: shift.remap_target(target),
        },
        other => other, // data addresses are not code; never shifted
    };
    let mut out = instr.with_kind(kind);
    out.pc = shift.remap_pc(instr.pc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Insertion;
    use swip_trace::TraceBuilder;

    fn plan_with(insertions: Vec<Insertion>) -> Plan {
        Plan {
            targeted_lines: insertions.len(),
            insertions,
            uncovered_lines: 0,
        }
    }

    fn continuity_holds(trace: &Trace) {
        for w in trace.instructions().windows(2) {
            assert_eq!(
                w[0].next_pc(),
                w[1].pc,
                "discontinuity between {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn empty_plan_is_identity_modulo_name() {
        let mut b = TraceBuilder::new("t");
        b.alu().alu().cond_branch(Addr::new(0), true);
        let trace = b.finish();
        let (rewritten, report) = rewrite_trace(&trace, &Plan::default());
        assert_eq!(rewritten.instructions(), trace.instructions());
        assert_eq!(report.static_bloat, 0.0);
        assert_eq!(report.dynamic_bloat, 0.0);
    }

    #[test]
    fn empty_plan_shares_the_original_and_reports_what_a_copy_would() {
        let mut b = TraceBuilder::new("t");
        for _ in 0..3 {
            b.set_pc(Addr::new(0x40));
            b.alu().load(Addr::new(0x9000));
            b.cond_branch(Addr::new(0x40), true);
        }
        let empty = TraceBuilder::new("e").finish();
        for trace in [b.finish(), empty] {
            let (shared, report) = rewrite_trace(&trace, &Plan::default());
            let name = format!("{}+asmdb", trace.name());
            let (copied, copied_report) = rewrite_copying(&trace, &Plan::default(), name.clone());
            assert_eq!(
                shared.instructions().as_ptr(),
                trace.instructions().as_ptr(),
                "{name} was copied"
            );
            assert_eq!(shared.name(), name);
            assert_eq!(shared, copied);
            let fields = |r: &RewriteReport| {
                (
                    r.static_bloat.to_bits(),
                    r.dynamic_bloat.to_bits(),
                    r.inserted_sites,
                    r.inserted_dynamic,
                    r.original_static_bytes,
                    r.original_len,
                )
            };
            assert_eq!(fields(&report), fields(&copied_report), "{name}");
        }
    }

    #[test]
    fn before_branch_insertion_shifts_and_stays_continuous() {
        // Block A: alu alu jump->0x100 ; Block B at 0x100: alu, executed 3x.
        let mut b = TraceBuilder::new("t");
        for _ in 0..3 {
            b.set_pc(Addr::new(0x0));
            b.alu();
            b.alu();
            b.jump(Addr::new(0x100));
            b.alu();
            b.jump(Addr::new(0x0));
        }
        let trace = b.finish();
        let plan = plan_with(vec![Insertion {
            anchor: Addr::new(0x8), // the jump in block A
            before: true,
            target_pc: Addr::new(0x100),
            distance: 16,
            reach: 1.0,
        }]);
        let (rw, report) = rewrite_trace(&trace, &plan);
        continuity_holds(&rw);
        // Per dynamic iteration: alu(0x0) alu(0x4) PF(0x8) jump(0xc) ...
        let instrs = rw.instructions();
        assert_eq!(
            instrs[2].kind(),
            InstrKind::PrefetchI {
                target: Addr::new(0x104)
            }
        );
        assert_eq!(instrs[2].pc, Addr::new(0x8));
        assert_eq!(instrs[3].pc, Addr::new(0xc)); // the shifted jump
        assert_eq!(instrs[3].branch_target(), Some(Addr::new(0x104)));
        assert_eq!(instrs[4].pc, Addr::new(0x104)); // shifted block B
        assert_eq!(report.inserted_dynamic, 3);
        assert_eq!(report.inserted_sites, 1);
        assert!(report.dynamic_bloat > 0.0 && report.static_bloat > 0.0);
    }

    #[test]
    fn addresses_before_insertion_point_do_not_move() {
        let mut b = TraceBuilder::new("t");
        b.set_pc(Addr::new(0x0));
        b.alu();
        b.alu();
        b.jump(Addr::new(0x100));
        b.alu();
        let trace = b.finish();
        let plan = plan_with(vec![Insertion {
            anchor: Addr::new(0x8),
            before: true,
            target_pc: Addr::new(0x100),
            distance: 4,
            reach: 1.0,
        }]);
        let (rw, _) = rewrite_trace(&trace, &plan);
        assert_eq!(rw.instructions()[0].pc, Addr::new(0x0));
        assert_eq!(rw.instructions()[1].pc, Addr::new(0x4));
    }

    #[test]
    fn after_anchor_insertion_for_fallthrough_blocks() {
        // A fall-through anchor: alu at 0x4 (block boundary after it via
        // branch-target leader at 0x8 does not exist here, so we fabricate
        // the plan directly).
        let mut b = TraceBuilder::new("t");
        b.alu(); // 0x0
        b.alu(); // 0x4  <- anchor, after
        b.alu(); // 0x8
        let trace = b.finish();
        let plan = plan_with(vec![Insertion {
            anchor: Addr::new(0x4),
            before: false,
            target_pc: Addr::new(0x8),
            distance: 4,
            reach: 1.0,
        }]);
        let (rw, _) = rewrite_trace(&trace, &plan);
        continuity_holds(&rw);
        let instrs = rw.instructions();
        assert_eq!(instrs[1].pc, Addr::new(0x4));
        assert!(matches!(instrs[2].kind(), InstrKind::PrefetchI { .. }));
        assert_eq!(instrs[2].pc, Addr::new(0x8));
        assert_eq!(instrs[3].pc, Addr::new(0xc)); // shifted third alu
    }

    #[test]
    fn multiple_targets_at_one_anchor() {
        let mut b = TraceBuilder::new("t");
        b.alu();
        b.alu();
        b.jump(Addr::new(0x100));
        b.alu();
        let trace = b.finish();
        let plan = plan_with(vec![
            Insertion {
                anchor: Addr::new(0x8),
                before: true,
                target_pc: Addr::new(0x100),
                distance: 4,
                reach: 1.0,
            },
            Insertion {
                anchor: Addr::new(0x8),
                before: true,
                target_pc: Addr::new(0x140),
                distance: 4,
                reach: 1.0,
            },
        ]);
        let (rw, report) = rewrite_trace(&trace, &plan);
        continuity_holds(&rw);
        assert_eq!(report.inserted_sites, 2);
        let pf: Vec<_> = rw
            .iter()
            .filter(|i| matches!(i.kind(), InstrKind::PrefetchI { .. }))
            .collect();
        assert_eq!(pf.len(), 2);
    }

    #[test]
    fn removing_prefetches_recovers_original_order() {
        let mut b = TraceBuilder::new("t");
        for _ in 0..4 {
            b.set_pc(Addr::new(0x0));
            b.alu();
            b.cond_branch(Addr::new(0x40), true);
            b.alu();
            b.jump(Addr::new(0x0));
        }
        let trace = b.finish();
        let plan = plan_with(vec![Insertion {
            anchor: Addr::new(0x4),
            before: true,
            target_pc: Addr::new(0x40),
            distance: 4,
            reach: 1.0,
        }]);
        let (rw, _) = rewrite_trace(&trace, &plan);
        let stripped: Vec<InstrKind> = rw
            .iter()
            .filter(|i| !i.is_prefetch_i())
            .map(|i| match i.kind() {
                InstrKind::Branch { kind, taken, .. } => InstrKind::Branch {
                    kind,
                    taken,
                    target: Addr::ZERO,
                },
                k => k,
            })
            .collect();
        let original: Vec<InstrKind> = trace
            .iter()
            .map(|i| match i.kind() {
                InstrKind::Branch { kind, taken, .. } => InstrKind::Branch {
                    kind,
                    taken,
                    target: Addr::ZERO,
                },
                k => k,
            })
            .collect();
        assert_eq!(stripped, original);
    }
}
