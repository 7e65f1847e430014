//! Family R: rewrite diffing — a rewritten trace must be the original plus
//! *exactly* the planned prefetches, in the planned places, with correctly
//! shifted addresses. Nothing reordered, nothing dropped.
//!
//! The checker re-derives the address-shift arithmetic from the plan (the
//! same model [`swip_asmdb::rewrite_trace`] uses: one word per inserted slot,
//! before-anchor slots at the anchor's key, after-anchor slots one word past
//! it) and then walks the two instruction streams in lockstep. It never calls
//! the rewriter itself, so it also catches emission bugs, not just tampering.

use std::collections::BTreeMap;

use swip_asmdb::Plan;
use swip_trace::Trace;
use swip_types::{Addr, InstrKind, Instruction};

use crate::diag::{Diagnostic, Location, Severity};

/// Instruction word size; every inserted prefetch occupies one word.
const WORD: u64 = 4;

/// Diffs `rewritten` against `original` under `plan` (rules R001–R003).
///
/// The walk stops at the first divergence: once alignment between the two
/// streams is lost, every later comparison would misfire.
pub fn diff_rewrite(original: &Trace, plan: &Plan, rewritten: &Trace) -> Vec<Diagnostic> {
    let (per_anchor, shift) = Shift::from_plan(plan);
    let orig = original.instructions();
    let rw = rewritten.instructions();
    let mut diags = Vec::new();
    let mut k = 0usize; // cursor into the rewritten stream

    'walk: for oi in orig {
        let anchor = per_anchor.get(&oi.pc.raw());

        // Planned before-anchor prefetches precede the anchor occurrence.
        if let Some((true, targets)) = anchor {
            if !expect_prefetches(rw, &mut k, oi.pc.raw(), true, targets, &shift, &mut diags) {
                break 'walk;
            }
        }

        // The original instruction itself, address-shifted.
        match rw.get(k) {
            None => {
                diags.push(Diagnostic::new(
                    "R001",
                    Severity::Error,
                    Location::Seq(k as u64),
                    format!(
                        "rewritten trace ends early: instruction originally at {} is missing",
                        oi.pc
                    ),
                ));
                break 'walk;
            }
            Some(r) if r.is_prefetch_i() && !oi.is_prefetch_i() => {
                diags.push(Diagnostic::new(
                    "R002",
                    Severity::Error,
                    Location::Seq(k as u64),
                    format!(
                        "unplanned prefetch.i at {} (no insertion anchors here)",
                        r.pc
                    ),
                ));
                break 'walk;
            }
            Some(r) => {
                let expected = remap_instr(oi, &shift);
                if *r != expected {
                    diags.push(Diagnostic::new(
                        "R001",
                        Severity::Error,
                        Location::Seq(k as u64),
                        format!(
                            "instruction differs from the shifted original: expected {expected}, found {r}"
                        ),
                    ));
                    break 'walk;
                }
                k += 1;
            }
        }

        // Planned after-anchor prefetches follow the anchor occurrence.
        if let Some((false, targets)) = anchor {
            if !expect_prefetches(
                rw,
                &mut k,
                oi.pc.raw() + WORD,
                false,
                targets,
                &shift,
                &mut diags,
            ) {
                break 'walk;
            }
        }
    }

    if diags.is_empty() {
        if let Some(r) = rw.get(k) {
            let (rule, what) = if r.is_prefetch_i() {
                ("R002", "unplanned trailing prefetch.i")
            } else {
                ("R001", "trailing instruction past the original stream")
            };
            diags.push(Diagnostic::new(
                rule,
                Severity::Error,
                Location::Seq(k as u64),
                format!("{what} at {}", r.pc),
            ));
        }
    }
    diags
}

/// Consumes the planned prefetch run for one anchor occurrence. Returns
/// `false` (after pushing a diagnostic) when the walk must stop.
#[allow(clippy::too_many_arguments)]
fn expect_prefetches(
    rw: &[Instruction],
    k: &mut usize,
    key: u64,
    before: bool,
    targets: &[Addr],
    shift: &Shift,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let slot_pcs = shift.slot_addrs(key, targets.len() as u64, before);
    for (slot_pc, target) in slot_pcs.into_iter().zip(targets) {
        let Some(r) = rw.get(*k) else {
            diags.push(Diagnostic::new(
                "R002",
                Severity::Error,
                Location::Seq(*k as u64),
                format!("rewritten trace ends before the planned prefetch of {target}"),
            ));
            return false;
        };
        let InstrKind::PrefetchI { target: got } = r.kind() else {
            diags.push(Diagnostic::new(
                "R002",
                Severity::Error,
                Location::Seq(*k as u64),
                format!(
                    "planned prefetch of {target} is missing; found {} at {} instead",
                    r, r.pc
                ),
            ));
            return false;
        };
        if r.pc != slot_pc {
            diags.push(Diagnostic::new(
                "R002",
                Severity::Error,
                Location::Seq(*k as u64),
                format!("prefetch slot at {}, expected slot address {slot_pc}", r.pc),
            ));
            return false;
        }
        let want = shift.remap_target(*target);
        if got != want {
            diags.push(Diagnostic::new(
                "R003",
                Severity::Error,
                Location::Seq(*k as u64),
                format!(
                    "prefetch at {} targets {got}, plan says {target} (shifted: {want})",
                    r.pc
                ),
            ));
            return false;
        }
        *k += 1;
    }
    true
}

/// Per-anchor insertion info: (before-anchor?, deduplicated targets in plan
/// order) — the same grouping the rewriter derives from a plan.
type PerAnchor = BTreeMap<u64, (bool, Vec<Addr>)>;

/// A re-derivation of the rewriter's address-shift model: sorted insertion
/// keys with (after-anchor, before-anchor) slot counts and cumulative totals.
struct Shift {
    keys: Vec<(u64, u64, u64)>,
    cumulative: Vec<u64>,
}

impl Shift {
    fn from_plan(plan: &Plan) -> (PerAnchor, Shift) {
        let mut per_anchor: PerAnchor = BTreeMap::new();
        for ins in &plan.insertions {
            let entry = per_anchor
                .entry(ins.anchor.raw())
                .or_insert_with(|| (ins.before, Vec::new()));
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
        let keys: Vec<(u64, u64, u64)> = slots.iter().map(|(&kk, &(a, b))| (kk, a, b)).collect();
        let mut cumulative = Vec::with_capacity(keys.len());
        let mut total = 0;
        for &(_, a, b) in &keys {
            total += a + b;
            cumulative.push(total);
        }
        (per_anchor, Shift { keys, cumulative })
    }

    fn find(&self, addr: u64) -> Result<usize, usize> {
        self.keys.binary_search_by_key(&addr, |&(kk, _, _)| kk)
    }

    fn slots_at_or_before(&self, addr: u64) -> u64 {
        match self.find(addr) {
            Ok(i) => self.cumulative[i],
            Err(0) => 0,
            Err(i) => self.cumulative[i - 1],
        }
    }

    fn slots_strictly_before(&self, addr: u64) -> u64 {
        match self.find(addr) {
            Ok(0) | Err(0) => 0,
            Ok(i) | Err(i) => self.cumulative[i - 1],
        }
    }

    fn remap_pc(&self, addr: Addr) -> Addr {
        addr.add(WORD * self.slots_at_or_before(addr.raw()))
    }

    fn remap_target(&self, addr: Addr) -> Addr {
        let after = match self.find(addr.raw()) {
            Ok(i) => self.keys[i].1,
            Err(_) => 0,
        };
        addr.add(WORD * (self.slots_strictly_before(addr.raw()) + after))
    }

    fn slot_addrs(&self, key: u64, m: u64, before: bool) -> Vec<Addr> {
        let base = self.slots_strictly_before(key);
        let after_count = match self.find(key) {
            Ok(i) => self.keys[i].1,
            Err(_) => 0,
        };
        let start = if before { base + after_count } else { base };
        (0..m)
            .map(|j| Addr::new(key + WORD * (start + j)))
            .collect()
    }
}

/// The shifted image of an original instruction: pc and code-space targets
/// move; data addresses do not.
fn remap_instr(instr: &Instruction, shift: &Shift) -> Instruction {
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
        other => other,
    };
    let mut out = instr.with_kind(kind);
    out.pc = shift.remap_pc(instr.pc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_asmdb::{rewrite_trace, Insertion};
    use swip_trace::TraceBuilder;

    /// Two blocks looped 3×: A = alu alu jump→0x100, B = alu jump→0x0.
    fn fixture() -> (Trace, Plan) {
        let mut b = TraceBuilder::new("t");
        for _ in 0..3 {
            b.set_pc(Addr::new(0x0));
            b.alu();
            b.alu();
            b.jump(Addr::new(0x100));
            b.alu();
            b.jump(Addr::new(0x0));
        }
        let plan = Plan {
            insertions: vec![Insertion {
                anchor: Addr::new(0x8),
                before: true,
                target_pc: Addr::new(0x100),
                distance: 16,
                reach: 1.0,
            }],
            targeted_lines: 1,
            uncovered_lines: 0,
        };
        (b.finish(), plan)
    }

    fn rules(original: &Trace, plan: &Plan, rewritten: &Trace) -> Vec<&'static str> {
        diff_rewrite(original, plan, rewritten)
            .iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn faithful_rewrite_is_clean() {
        let (t, plan) = fixture();
        let (rw, _) = rewrite_trace(&t, &plan);
        let diags = diff_rewrite(&t, &plan, &rw);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn faithful_after_anchor_rewrite_is_clean() {
        let mut b = TraceBuilder::new("t");
        b.alu();
        b.alu(); // 0x4, after-anchor
        b.alu();
        let t = b.finish();
        let plan = Plan {
            insertions: vec![Insertion {
                anchor: Addr::new(0x4),
                before: false,
                target_pc: Addr::new(0x8),
                distance: 4,
                reach: 1.0,
            }],
            targeted_lines: 1,
            uncovered_lines: 0,
        };
        let (rw, _) = rewrite_trace(&t, &plan);
        let diags = diff_rewrite(&t, &plan, &rw);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn tampered_instruction_is_r001() {
        let (t, plan) = fixture();
        let (rw, _) = rewrite_trace(&t, &plan);
        let mut instrs = rw.instructions().to_vec();
        instrs[0] = Instruction::store(instrs[0].pc, Addr::new(0x9000));
        let bad = Trace::from_instructions(rw.name(), instrs);
        assert_eq!(rules(&t, &plan, &bad), ["R001"]);
    }

    #[test]
    fn truncated_rewrite_is_r001() {
        let (t, plan) = fixture();
        let (rw, _) = rewrite_trace(&t, &plan);
        let mut instrs = rw.instructions().to_vec();
        instrs.pop();
        let bad = Trace::from_instructions(rw.name(), instrs);
        assert_eq!(rules(&t, &plan, &bad), ["R001"]);
    }

    #[test]
    fn dropped_prefetch_is_r002() {
        let (t, plan) = fixture();
        let (rw, _) = rewrite_trace(&t, &plan);
        let instrs: Vec<Instruction> = rw
            .iter()
            .enumerate()
            .filter(|(i, r)| !(*i == 2 && r.is_prefetch_i()))
            .map(|(_, r)| *r)
            .collect();
        assert!(instrs.len() < rw.len(), "expected a prefetch at index 2");
        let bad = Trace::from_instructions(rw.name(), instrs);
        assert_eq!(rules(&t, &plan, &bad), ["R002"]);
    }

    #[test]
    fn extra_prefetch_is_r002() {
        let (t, plan) = fixture();
        let (rw, _) = rewrite_trace(&t, &plan);
        let mut instrs = rw.instructions().to_vec();
        instrs.insert(1, Instruction::prefetch_i(Addr::new(0x4), Addr::new(0x104)));
        let bad = Trace::from_instructions(rw.name(), instrs);
        assert_eq!(rules(&t, &plan, &bad), ["R002"]);
    }

    #[test]
    fn retargeted_prefetch_is_r003() {
        let (t, plan) = fixture();
        let (rw, _) = rewrite_trace(&t, &plan);
        let mut instrs = rw.instructions().to_vec();
        let pf = instrs
            .iter_mut()
            .find(|i| i.is_prefetch_i())
            .expect("rewrite inserted a prefetch");
        *pf = pf.with_kind(InstrKind::PrefetchI {
            target: Addr::new(0x4000),
        });
        let bad = Trace::from_instructions(rw.name(), instrs);
        assert_eq!(rules(&t, &plan, &bad), ["R003"]);
    }
}
