//! One integration test per `swip-analyze` rule id: every entry in the
//! DESIGN.md §8 catalog is triggered here through the public API, exactly as
//! `swip analyze` would surface it. Companion acceptance tests prove that
//! everything the toolkit itself produces — generated suite workloads,
//! before and after the AsmDB rewrite — analyzes clean of errors.

use swip_analyze::{
    analyze_read, analyze_trace, check_cfg, diff_rewrite, lint_trace, verify_plan, Severity,
};
use swip_asmdb::{rewrite_trace, Cfg, Insertion, Plan};
use swip_trace::{Trace, TraceBuilder};
use swip_types::{Addr, BranchKind, InstrKind, Instruction};

/// Asserts that `diags` contains `rule` and nothing of a *higher* severity
/// that isn't also `rule` (i.e. the corpus file triggers what it claims).
fn assert_rule(diags: &[swip_analyze::Diagnostic], rule: &str) {
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "expected {rule}, got {diags:?}"
    );
}

// ---- decode family (T001–T007), through analyze_read ---------------------

fn encoded(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    trace.write_to(&mut buf).unwrap();
    buf
}

fn tiny() -> Trace {
    let mut b = TraceBuilder::new("x");
    b.alu().alu();
    b.finish()
}

fn decode_rule(bytes: &[u8]) -> &'static str {
    let report = analyze_read(bytes, "corpus", false);
    assert!(report.has_errors());
    assert_eq!(report.families, vec!["decode"]);
    assert_eq!(report.diagnostics.len(), 1);
    report.diagnostics[0].rule
}

#[test]
fn t001_bad_magic() {
    let mut buf = encoded(&tiny());
    buf[0] = b'Z';
    assert_eq!(decode_rule(&buf), "T001");
}

#[test]
fn t002_unsupported_version() {
    let mut buf = encoded(&tiny());
    buf[4..8].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(decode_rule(&buf), "T002");
}

#[test]
fn t003_unknown_tag() {
    let mut buf = encoded(&tiny());
    let tag_at = 12 + 1 + 8 + 8 + 1; // header, 1-byte name, count, pc, size
    buf[tag_at] = 200;
    assert_eq!(decode_rule(&buf), "T003");
}

#[test]
fn t004_bad_register() {
    let mut buf = encoded(&tiny());
    let dst_at = 12 + 1 + 8 + 8 + 1 + 1 + 1; // ... tag, srcmask
    buf[dst_at] = 0xf0;
    assert_eq!(decode_rule(&buf), "T004");
}

#[test]
fn t005_truncated_stream() {
    let buf = encoded(&tiny());
    assert_eq!(decode_rule(&buf[..buf.len() - 1]), "T005");
}

#[test]
fn t006_non_utf8_name() {
    let mut buf = encoded(&tiny());
    buf[12] = 0xff;
    assert_eq!(decode_rule(&buf), "T006");
}

#[test]
fn t007_implausible_length() {
    let mut buf = encoded(&tiny());
    buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode_rule(&buf), "T007");
}

// ---- trace family (T010–T016) --------------------------------------------

#[test]
fn t010_discontinuity() {
    let t = Trace::from_instructions(
        "corpus",
        vec![
            Instruction::alu(Addr::new(0x0)),
            Instruction::alu(Addr::new(0x80)),
        ],
    );
    assert_rule(&lint_trace(&t), "T010");
}

#[test]
fn t011_not_taken_unconditional() {
    let jump = Instruction::new(
        Addr::new(0x0),
        InstrKind::Branch {
            kind: BranchKind::UncondDirect,
            target: Addr::new(0x40),
            taken: false,
        },
    );
    let t = Trace::from_instructions("corpus", vec![jump, Instruction::alu(Addr::new(0x4))]);
    assert_rule(&lint_trace(&t), "T011");
}

#[test]
fn t012_kind_instability() {
    let t = Trace::from_instructions(
        "corpus",
        vec![
            Instruction::alu(Addr::new(0x0)),
            Instruction::jump(Addr::new(0x4), Addr::new(0x0)),
            Instruction::load(Addr::new(0x0), Addr::new(0x9000)),
        ],
    );
    assert_rule(&lint_trace(&t), "T012");
}

#[test]
fn t013_zero_size() {
    let t = Trace::from_instructions(
        "corpus",
        vec![Instruction::alu(Addr::new(0x0)).with_size(0)],
    );
    assert_rule(&lint_trace(&t), "T013");
}

#[test]
fn t014_null_page_access() {
    let t = Trace::from_instructions(
        "corpus",
        vec![Instruction::store(Addr::new(0x4000), Addr::new(0x8))],
    );
    assert_rule(&lint_trace(&t), "T014");
}

#[test]
fn t015_dead_prefetch() {
    let t = Trace::from_instructions(
        "corpus",
        vec![
            Instruction::prefetch_i(Addr::new(0x0), Addr::new(0xbeef00)),
            Instruction::alu(Addr::new(0x4)),
        ],
    );
    assert_rule(&lint_trace(&t), "T015");
}

#[test]
fn t016_empty_trace() {
    let t = Trace::from_instructions("corpus", vec![]);
    let diags = lint_trace(&t);
    assert_rule(&diags, "T016");
    assert!(diags.iter().all(|d| d.severity == Severity::Info));
}

// ---- cfg family (C001–C007) ----------------------------------------------

/// A diamond CFG whose blocks we can perturb per rule.
fn diamond() -> (Trace, Vec<swip_asmdb::CfgBlock>) {
    let mut b = TraceBuilder::new("corpus");
    for taken in [true, false] {
        b.set_pc(Addr::new(0x0));
        b.alu();
        b.cond_branch(Addr::new(0x20), taken);
        if !taken {
            b.alu();
            b.jump(Addr::new(0x20));
        }
        b.alu();
        b.jump(Addr::new(0x0));
    }
    let t = b.finish();
    let blocks = Cfg::from_trace(&t)
        .blocks()
        .map(|(_, blk)| blk.clone())
        .collect();
    (t, blocks)
}

#[test]
fn c001_edge_to_unknown_block() {
    let (t, mut blocks) = diamond();
    blocks[0].succs.push((77, 1));
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C001");
}

#[test]
fn c002_impossible_edge_target() {
    let (t, mut blocks) = diamond();
    let w = blocks[0].succs[0].1;
    blocks[0].succs[0] = (0, w); // entry's branch cannot target entry
    blocks[0].preds.push((0, w));
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C002");
}

#[test]
fn c003_missing_mirror_edge() {
    let (t, mut blocks) = diamond();
    let victim = blocks.iter().position(|b| !b.preds.is_empty()).unwrap();
    blocks[victim].preds.pop();
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C003");
}

#[test]
fn c004_unreachable_block() {
    let (t, mut blocks) = diamond();
    let orphan = blocks.len() - 1;
    for b in &mut blocks {
        b.succs.retain(|&(s, _)| s != orphan);
        b.preds.retain(|&(p, _)| p != orphan);
    }
    blocks[orphan].succs.clear();
    blocks[orphan].preds.clear();
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C004");
}

#[test]
fn c005_malformed_block() {
    let (t, mut blocks) = diamond();
    let extra = blocks[1].pcs.clone();
    blocks[0].pcs.extend(extra);
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C005");
}

#[test]
fn c006_uncovered_pc() {
    let (t, mut blocks) = diamond();
    blocks.pop();
    let gone = blocks.len();
    for b in &mut blocks {
        b.succs.retain(|&(s, _)| s != gone);
        b.preds.retain(|&(p, _)| p != gone);
    }
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C006");
}

#[test]
fn c007_inflated_edge_weight() {
    let (t, mut blocks) = diamond();
    let victim = blocks.iter().position(|b| !b.succs.is_empty()).unwrap();
    blocks[victim].succs[0].1 += 500;
    let (to, w) = blocks[victim].succs[0];
    for p in &mut blocks[to].preds {
        if p.0 == victim {
            p.1 = w;
        }
    }
    assert_rule(&check_cfg(&t, &Cfg::from_parts(blocks)), "C007");
}

// ---- plan family (P001–P006) ---------------------------------------------

/// Three blocks looped: A(0x0) → B(0x100) → C(0x200) → A, 8 instrs each.
fn chain() -> (Trace, Cfg) {
    let mut b = TraceBuilder::new("corpus");
    for _ in 0..4 {
        for base in [0x0u64, 0x100, 0x200] {
            b.set_pc(Addr::new(base));
            for _ in 0..7 {
                b.alu();
            }
            b.jump(Addr::new((base + 0x100) % 0x300));
        }
    }
    let t = b.finish();
    let cfg = Cfg::from_trace(&t);
    (t, cfg)
}

fn plan_of(insertions: Vec<Insertion>) -> Plan {
    Plan {
        targeted_lines: insertions.len(),
        insertions,
        uncovered_lines: 0,
    }
}

fn ins(anchor: u64, target: u64, distance: u64, reach: f64) -> Insertion {
    Insertion {
        anchor: Addr::new(anchor),
        before: true,
        target_pc: Addr::new(target),
        distance,
        reach,
    }
}

fn plan_rules(cfg: &Cfg, plan: &Plan) -> Vec<swip_analyze::Diagnostic> {
    verify_plan(cfg, cfg.block_of(Addr::new(0x0)), plan)
}

#[test]
fn p001_unknown_anchor() {
    let (_, cfg) = chain();
    assert_rule(
        &plan_rules(&cfg, &plan_of(vec![ins(0xdead, 0x200, 8, 0.9)])),
        "P001",
    );
}

#[test]
fn p002_unreachable_target() {
    let (_, cfg) = chain();
    assert_rule(
        &plan_rules(&cfg, &plan_of(vec![ins(0x1c, 0x7000, 8, 0.9)])),
        "P002",
    );
}

#[test]
fn p003_impossible_distance() {
    let (_, cfg) = chain();
    // 0x200 is 8 instructions (all of B) past A's jump; 2 is unachievable.
    assert_rule(
        &plan_rules(&cfg, &plan_of(vec![ins(0x1c, 0x200, 2, 0.9)])),
        "P003",
    );
}

#[test]
fn p004_duplicate_insertion() {
    let (_, cfg) = chain();
    let plan = plan_of(vec![ins(0x1c, 0x200, 8, 0.9), ins(0x1c, 0x200, 16, 0.5)]);
    assert_rule(&plan_rules(&cfg, &plan), "P004");
}

#[test]
fn p005_reach_not_a_probability() {
    let (_, cfg) = chain();
    assert_rule(
        &plan_rules(&cfg, &plan_of(vec![ins(0x1c, 0x200, 8, -0.2)])),
        "P005",
    );
}

#[test]
fn p006_dominated_redundant_prefetch() {
    let (_, cfg) = chain();
    // B dominates C's jump; prefetching B's own line from C is redundant.
    assert_rule(
        &plan_rules(&cfg, &plan_of(vec![ins(0x21c, 0x100, 8, 0.9)])),
        "P006",
    );
}

// ---- rewrite family (R001–R003) ------------------------------------------

fn rewrite_fixture() -> (Trace, Plan, Trace) {
    let (t, _) = chain();
    let plan = plan_of(vec![ins(0x1c, 0x200, 8, 0.9)]);
    let (rw, _) = rewrite_trace(&t, &plan);
    (t, plan, rw)
}

#[test]
fn r001_tampered_instruction() {
    let (t, plan, rw) = rewrite_fixture();
    let mut instrs = rw.instructions().to_vec();
    instrs[0] = Instruction::load(instrs[0].pc, Addr::new(0x9000));
    let bad = Trace::from_instructions(rw.name(), instrs);
    assert_rule(&diff_rewrite(&t, &plan, &bad), "R001");
}

#[test]
fn r002_dropped_prefetch() {
    let (t, plan, rw) = rewrite_fixture();
    let instrs: Vec<Instruction> = rw.iter().filter(|i| !i.is_prefetch_i()).copied().collect();
    assert!(instrs.len() < rw.len());
    let bad = Trace::from_instructions(rw.name(), instrs);
    assert_rule(&diff_rewrite(&t, &plan, &bad), "R002");
}

#[test]
fn r003_retargeted_prefetch() {
    let (t, plan, rw) = rewrite_fixture();
    let mut instrs = rw.instructions().to_vec();
    let pf = instrs.iter_mut().find(|i| i.is_prefetch_i()).unwrap();
    *pf = pf.with_kind(InstrKind::PrefetchI {
        target: Addr::new(0xf000),
    });
    let bad = Trace::from_instructions(rw.name(), instrs);
    assert_rule(&diff_rewrite(&t, &plan, &bad), "R003");
}

// ---- acceptance: the toolkit's own artifacts are clean -------------------

#[test]
fn generated_workloads_analyze_clean() {
    for idx in [1usize, 4] {
        // one crypto, one integer workload
        let spec = swip_workloads::cvp1_suite(4_000).remove(idx);
        let trace = swip_workloads::generate(&spec);
        let report = analyze_trace(&trace, false);
        assert_eq!(report.errors(), 0, "{}: {report}", spec.name);
    }
}

#[test]
fn asmdb_rewritten_workload_analyzes_clean() {
    let spec = swip_workloads::cvp1_suite(4_000).remove(1);
    let trace = swip_workloads::generate(&spec);
    let out = swip_asmdb::Asmdb::new(swip_asmdb::AsmdbConfig::default())
        .run(&trace, &swip_core::SimConfig::conservative());
    let report = analyze_trace(&out.rewritten, false);
    assert_eq!(report.errors(), 0, "{report}");
    // And the independent diff agrees with the pipeline's own rewrite.
    let diags = diff_rewrite(&trace, &out.plan, &out.rewritten);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn analyze_round_trips_through_bytes() {
    let spec = swip_workloads::cvp1_suite(3_000).remove(1);
    let trace = swip_workloads::generate(&spec);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).unwrap();
    let report = analyze_read(bytes.as_slice(), "suite.swip", false);
    assert_eq!(report.errors(), 0, "{report}");
    assert_eq!(report.families[0], "decode");
    // JSON output is well-formed enough to contain the documented keys.
    let json = report.to_json();
    for key in [
        "\"subject\"",
        "\"families\"",
        "\"errors\"",
        "\"diagnostics\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

// ---- runtime invariants (feature `invariants`, enabled for this crate) ---

#[test]
fn simulation_upholds_runtime_invariants() {
    // swip-core is built with the `invariants` feature here, so I001/I002
    // assert on every front-end cycle and I003 at end of run. A full
    // simulation of a front-end-bound workload passing without panicking is
    // the positive test.
    let spec = swip_workloads::cvp1_suite(3_000).remove(0);
    let trace = swip_workloads::generate(&spec);
    let report = swip_core::Simulator::new(swip_core::SimConfig::conservative()).run(&trace);
    assert!(report.completed);
    assert!(report.instructions > 0);
}
