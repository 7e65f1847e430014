//! Family T: trace lints — semantic checks the codec cannot express.
//!
//! The codec guarantees structural validity (tags, registers, lengths);
//! these rules check the *meaning* of a decoded trace: control-flow
//! continuity, branch/taken consistency, per-PC kind stability, address
//! plausibility, and prefetch usefulness.

use std::collections::{HashMap, HashSet};
use std::mem::Discriminant;

use swip_trace::Trace;
use swip_types::{BranchKind, InstrKind};

use crate::diag::{Diagnostic, Location, Severity};

/// Data addresses below this are treated as null-page accesses (T014).
const NULL_PAGE: u64 = 0x1000;

/// Lints a decoded trace (rules T010–T016).
pub fn lint_trace(trace: &Trace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if trace.is_empty() {
        diags.push(Diagnostic::new(
            "T016",
            Severity::Info,
            Location::None,
            "trace contains no instructions",
        ));
        return diags;
    }

    // Static views used by several rules.
    let mut code_lines: HashSet<u64> = HashSet::new();
    for i in trace.iter() {
        code_lines.insert(i.pc.line().number());
    }

    let mut kinds: HashMap<u64, Discriminant<InstrKind>> = HashMap::new();
    let mut zero_size_reported: HashSet<u64> = HashSet::new();
    let mut data_reported: HashSet<u64> = HashSet::new();
    let mut prefetch_reported: HashSet<u64> = HashSet::new();

    for (seq, i) in trace.iter().enumerate() {
        let seq = seq as u64;

        // T010: the successor PC must be explained by this instruction.
        if let Some(next) = trace.instructions().get(seq as usize + 1) {
            if i.next_pc() != next.pc {
                diags.push(Diagnostic::new(
                    "T010",
                    Severity::Error,
                    Location::Seq(seq),
                    format!(
                        "control-flow discontinuity: {} at {} implies successor {}, trace continues at {}",
                        kind_name(&i.kind()),
                        i.pc,
                        i.next_pc(),
                        next.pc
                    ),
                ));
            }
        }

        // T011: unconditional control transfers are always taken.
        if let InstrKind::Branch { kind, taken, .. } = i.kind() {
            if kind != BranchKind::CondDirect && !taken {
                diags.push(Diagnostic::new(
                    "T011",
                    Severity::Error,
                    Location::Seq(seq),
                    format!(
                        "unconditional branch ({kind:?}) at {} recorded as not-taken",
                        i.pc
                    ),
                ));
            }
        }

        // T012: one PC, one instruction kind (the CFG builder and the
        // rewriter both assume this).
        let d = std::mem::discriminant(&i.kind());
        if let Some(prev) = kinds.insert(i.pc.raw(), d) {
            if prev != d {
                diags.push(Diagnostic::new(
                    "T012",
                    Severity::Error,
                    Location::Seq(seq),
                    format!("instruction kind at {} changed between executions", i.pc),
                ));
            }
        }

        // T013: zero-size instructions make fall-through ill-defined.
        if i.size == 0 && zero_size_reported.insert(i.pc.raw()) {
            diags.push(Diagnostic::new(
                "T013",
                Severity::Error,
                Location::Pc(i.pc.raw()),
                "instruction has size 0; fall-through would not advance",
            ));
        }

        // T014: data addresses should not alias executed code or the null
        // page (per static access site).
        if let InstrKind::Load { addr } | InstrKind::Store { addr } = i.kind() {
            let implausible = addr.raw() < NULL_PAGE || code_lines.contains(&addr.line().number());
            if implausible && data_reported.insert(i.pc.raw()) {
                let why = if addr.raw() < NULL_PAGE {
                    "falls in the null page"
                } else {
                    "aliases an executed code line"
                };
                diags.push(Diagnostic::new(
                    "T014",
                    Severity::Warn,
                    Location::Pc(i.pc.raw()),
                    format!("data address {addr} at {} {why}", i.pc),
                ));
            }
        }

        // T015: a prefetch whose target line is never executed is dead
        // weight (per static target line).
        if let InstrKind::PrefetchI { target } = i.kind() {
            let line = target.line().number();
            if !code_lines.contains(&line) && prefetch_reported.insert(line) {
                diags.push(Diagnostic::new(
                    "T015",
                    Severity::Warn,
                    Location::Pc(i.pc.raw()),
                    format!(
                        "prefetch.i at {} targets line {line:#x}, which never executes",
                        i.pc
                    ),
                ));
            }
        }
    }
    diags
}

fn kind_name(kind: &InstrKind) -> &'static str {
    match kind {
        InstrKind::Alu => "alu",
        InstrKind::Load { .. } => "load",
        InstrKind::Store { .. } => "store",
        InstrKind::Branch { .. } => "branch",
        InstrKind::PrefetchI { .. } => "prefetch.i",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_trace::TraceBuilder;
    use swip_types::{Addr, Instruction};

    fn rules(trace: &Trace) -> Vec<&'static str> {
        lint_trace(trace).iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_trace_is_clean() {
        let mut b = TraceBuilder::new("ok");
        b.alu().alu().cond_branch(Addr::new(0), true);
        assert!(rules(&b.finish()).is_empty());
    }

    #[test]
    fn empty_trace_is_info_only() {
        let t = Trace::from_instructions("e", vec![]);
        let d = lint_trace(&t);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "T016");
        assert_eq!(d[0].severity, Severity::Info);
    }

    #[test]
    fn discontinuity_is_t010() {
        let t = Trace::from_instructions(
            "bad",
            vec![
                Instruction::alu(Addr::new(0x0)),
                Instruction::alu(Addr::new(0x100)), // gap, no branch
            ],
        );
        assert_eq!(rules(&t), vec!["T010"]);
    }

    #[test]
    fn not_taken_jump_is_t011() {
        // `Instruction::branch` asserts against this, so fabricate via
        // `Instruction::new` (exactly what a hand-corrupted file decodes
        // into).
        let i = Instruction::new(
            Addr::new(0x0),
            InstrKind::Branch {
                kind: BranchKind::UncondDirect,
                target: Addr::new(0x40),
                taken: false,
            },
        );
        let next = Instruction::alu(Addr::new(0x4)); // consistent with not-taken
        let t = Trace::from_instructions("bad", vec![i, next]);
        assert_eq!(rules(&t), vec!["T011"]);
    }

    #[test]
    fn kind_change_is_t012() {
        let t = Trace::from_instructions(
            "bad",
            vec![
                Instruction::alu(Addr::new(0x0)),
                Instruction::jump(Addr::new(0x4), Addr::new(0x0)),
                Instruction::load(Addr::new(0x0), Addr::new(0x90000)),
            ],
        );
        assert_eq!(rules(&t), vec!["T012"]);
    }

    #[test]
    fn zero_size_is_t013() {
        let t =
            Trace::from_instructions("bad", vec![Instruction::alu(Addr::new(0x0)).with_size(0)]);
        assert_eq!(rules(&t), vec!["T013"]);
    }

    #[test]
    fn code_aliasing_load_is_t014_once_per_site() {
        let mut instrs = Vec::new();
        for rep in 0..3u64 {
            let base = rep * 8;
            instrs.push(Instruction::load(Addr::new(base), Addr::new(0x4)).with_size(4));
            instrs.push(Instruction::jump(
                Addr::new(base + 4),
                Addr::new((rep + 1) * 8),
            ));
        }
        // Keep continuity: last jump targets 24, add a terminator there.
        instrs.push(Instruction::alu(Addr::new(24)));
        let t = Trace::from_instructions("bad", instrs);
        let r = rules(&t);
        assert_eq!(r.iter().filter(|r| **r == "T014").count(), 3, "{r:?}");
    }

    #[test]
    fn null_page_store_is_t014() {
        let t = Trace::from_instructions(
            "bad",
            vec![Instruction::store(Addr::new(0x4000), Addr::new(0x10))],
        );
        assert_eq!(rules(&t), vec!["T014"]);
    }

    #[test]
    fn useless_prefetch_is_t015() {
        let t = Trace::from_instructions(
            "bad",
            vec![
                Instruction::prefetch_i(Addr::new(0x0), Addr::new(0x9000)),
                Instruction::alu(Addr::new(0x4)),
            ],
        );
        assert_eq!(rules(&t), vec!["T015"]);
    }

    #[test]
    fn useful_prefetch_is_clean() {
        let t = Trace::from_instructions(
            "ok",
            vec![
                Instruction::prefetch_i(Addr::new(0x0), Addr::new(0x40)),
                Instruction::jump(Addr::new(0x4), Addr::new(0x40)),
                Instruction::alu(Addr::new(0x40)),
            ],
        );
        assert!(rules(&t).is_empty());
    }
}
