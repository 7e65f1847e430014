//! Family D: static prefetch-plan coverage prediction.
//!
//! Where family P (`plan_check`) re-proves the *claims* a plan makes, this
//! module predicts its *value*: will each insertion actually warm the L1-I,
//! or is it dead weight? Every insertion is classified into exactly one
//! [`InsertionClass`] using the dominator tree, the natural-loop forest,
//! and shortest-path distances — no simulation:
//!
//! * **Dead** (`D001`, error) — the anchor or target was never executed,
//!   the anchor is unreachable from the entry, or no forward path leads
//!   from the anchor to the target. The prefetch can never be useful; a
//!   plan containing one is rejected outright by `swip-serve` admission.
//! * **Redundant** (`D002`, warning) — a block on the anchor's dominator
//!   chain already touches the target line within the reuse window, so the
//!   line is resident on *every* path reaching the anchor.
//! * **Late** (`D003`, warning) — the static shortest-path distance from
//!   the anchor to the target is below the configured miss latency: demand
//!   fetch arrives before (or with) the prefetch.
//! * **Clobbering** (`D004`, warning) — the anchor sits in a natural loop
//!   whose body already fills the target's L1-I set with lines it keeps
//!   re-touching; the prefetch evicts one of them.
//!
//! Classification order is dead → redundant → late → clobbering (the first
//! matching class wins): redundancy makes timeliness moot, and both make
//! eviction pressure moot. The aggregate [`PredictedCoverage`] weights each
//! site by its anchor block's execution count so predictions are comparable
//! with the dynamic counters a [`RunReport`](swip_report) carries — that
//! comparison is `swip analyze --predict-vs` (see [`crate::predict`]).
//!
//! The model's assumptions (and therefore its error sources) are documented
//! in DESIGN.md §14.

use std::collections::{HashMap, HashSet};

use swip_asmdb::{BlockId, Cfg, Plan, ShiftMap};

use crate::diag::{Diagnostic, Location, Severity};
use crate::dominators::DomTree;
use crate::loops::{LoopForest, NaturalLoop};
use crate::plan_check::target_entry_distances;

/// Parameters of the static cache/latency model.
///
/// Defaults mirror the `sunny_cove_like` simulator configuration: a 32 KiB
/// 8-way L1-I (64 sets of 64-byte lines) and a 34-cycle LLC round trip
/// (`llc_round_trip()`), read as "a prefetch issued fewer than 34
/// instructions ahead of its target is late" under the ~1 IPC the paper's
/// front-end-bound workloads sustain.
#[derive(Copy, Clone, Debug)]
pub struct CoverageConfig {
    /// Instructions a prefetch must lead its target by to hide an LLC miss.
    pub miss_latency: u64,
    /// Dominator-chain distance (instructions) within which an earlier
    /// touch of the target line is assumed still resident.
    pub reuse_window: u64,
    /// L1-I set count (capacity / line size / ways).
    pub l1i_sets: u64,
    /// L1-I associativity.
    pub l1i_ways: usize,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            miss_latency: 34,
            reuse_window: 2048,
            l1i_sets: 64,
            l1i_ways: 8,
        }
    }
}

/// The predicted fate of one planned insertion.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum InsertionClass {
    /// Predicted to warm the cache ahead of demand.
    Useful,
    /// Can never fire usefully (rule `D001`).
    Dead,
    /// Target line already resident on all reaching paths (rule `D002`).
    Redundant,
    /// Fires too close to the target to hide the miss (rule `D003`).
    Late,
    /// Evicts a line the surrounding loop keeps re-touching (rule `D004`).
    Clobbering,
}

impl InsertionClass {
    /// Lower-case class name used in counters and messages.
    pub fn name(self) -> &'static str {
        match self {
            InsertionClass::Useful => "useful",
            InsertionClass::Dead => "dead",
            InsertionClass::Redundant => "redundant",
            InsertionClass::Late => "late",
            InsertionClass::Clobbering => "clobbering",
        }
    }
}

/// Machine-readable summary of a plan evaluation: site counts per class,
/// execution-weighted counts (each site weighted by its anchor block's
/// `exec_count`), and line coverage.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PredictedCoverage {
    /// Total planned insertion sites.
    pub sites: u64,
    /// Sites predicted useful.
    pub useful_sites: u64,
    /// Sites classified dead (`D001`).
    pub dead_sites: u64,
    /// Sites classified redundant (`D002`).
    pub redundant_sites: u64,
    /// Sites classified late (`D003`).
    pub late_sites: u64,
    /// Sites classified clobbering (`D004`).
    pub clobbering_sites: u64,
    /// Predicted dynamic prefetch executions (Σ anchor exec counts).
    pub predicted_executions: u64,
    /// Execution-weighted useful predictions.
    pub useful_executions: u64,
    /// Execution-weighted dead predictions (always 0 when anchors exist).
    pub dead_executions: u64,
    /// Execution-weighted redundant predictions.
    pub redundant_executions: u64,
    /// Execution-weighted late predictions.
    pub late_executions: u64,
    /// Execution-weighted clobbering predictions.
    pub clobbering_executions: u64,
    /// Predicted executions that find their target line already resident
    /// (the steady-state duplicate model; see [`duplicate_rate`]).
    ///
    /// [`duplicate_rate`]: PredictedCoverage::duplicate_rate
    pub duplicate_executions: u64,
    /// Distinct target lines the plan aims at.
    pub targeted_lines: u64,
    /// Distinct target lines with at least one useful site.
    pub covered_lines: u64,
}

impl PredictedCoverage {
    /// Fraction of targeted lines with a useful site (1.0 for an empty
    /// plan: nothing was left uncovered).
    pub fn coverage_ratio(&self) -> f64 {
        if self.targeted_lines == 0 {
            1.0
        } else {
            self.covered_lines as f64 / self.targeted_lines as f64
        }
    }

    /// Predicted fraction of executed prefetches that find their line
    /// already resident (0.0 when nothing executes) — the number to hold
    /// against the measured `l1i.prefetch_hits / ftq.swpf_executed`.
    ///
    /// Unlike `redundant_executions`, which counts every execution of a
    /// site *classified* redundant (`D002`), this is a steady-state
    /// estimate over *all* sites: even a useful site's later executions
    /// mostly re-request a line its first execution (or a demand fetch)
    /// already installed, unless L1-I set pressure keeps evicting it.
    pub fn duplicate_rate(&self) -> f64 {
        if self.predicted_executions == 0 {
            0.0
        } else {
            self.duplicate_executions as f64 / self.predicted_executions as f64
        }
    }

    /// The summary as stable `(name, value)` counter pairs — the shape
    /// embedded in run reports and compared by `--predict-vs`.
    pub fn counter_pairs(&self) -> Vec<(String, u64)> {
        vec![
            ("sites".into(), self.sites),
            ("useful_sites".into(), self.useful_sites),
            ("dead_sites".into(), self.dead_sites),
            ("redundant_sites".into(), self.redundant_sites),
            ("late_sites".into(), self.late_sites),
            ("clobbering_sites".into(), self.clobbering_sites),
            ("predicted_executions".into(), self.predicted_executions),
            ("useful_executions".into(), self.useful_executions),
            ("dead_executions".into(), self.dead_executions),
            ("redundant_executions".into(), self.redundant_executions),
            ("late_executions".into(), self.late_executions),
            ("clobbering_executions".into(), self.clobbering_executions),
            ("duplicate_executions".into(), self.duplicate_executions),
            ("targeted_lines".into(), self.targeted_lines),
            ("covered_lines".into(), self.covered_lines),
        ]
    }

    /// Rebuilds a summary from counter pairs (ignoring unknown names, so
    /// the schema can grow).
    pub fn from_counter_pairs(pairs: &[(String, u64)]) -> PredictedCoverage {
        let mut c = PredictedCoverage::default();
        for (name, value) in pairs {
            match name.as_str() {
                "sites" => c.sites = *value,
                "useful_sites" => c.useful_sites = *value,
                "dead_sites" => c.dead_sites = *value,
                "redundant_sites" => c.redundant_sites = *value,
                "late_sites" => c.late_sites = *value,
                "clobbering_sites" => c.clobbering_sites = *value,
                "predicted_executions" => c.predicted_executions = *value,
                "useful_executions" => c.useful_executions = *value,
                "dead_executions" => c.dead_executions = *value,
                "redundant_executions" => c.redundant_executions = *value,
                "late_executions" => c.late_executions = *value,
                "clobbering_executions" => c.clobbering_executions = *value,
                "duplicate_executions" => c.duplicate_executions = *value,
                "targeted_lines" => c.targeted_lines = *value,
                "covered_lines" => c.covered_lines = *value,
                _ => {}
            }
        }
        c
    }
}

/// Result of statically evaluating a plan: a class per insertion (parallel
/// to `plan.insertions`), the aggregate summary, and the D-family
/// diagnostics.
#[derive(Clone, Debug)]
pub struct PlanEvaluation {
    /// Predicted class of each insertion, in plan order.
    pub classes: Vec<InsertionClass>,
    /// Aggregate, execution-weighted summary.
    pub coverage: PredictedCoverage,
    /// One `D001`–`D004` diagnostic per non-useful insertion.
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanEvaluation {
    /// Rule ids of the fatal diagnostics (currently only `D001`), deduped
    /// and sorted — the list a rejected `swip-serve` submission reports.
    pub fn fatal_rules(&self) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.rule)
            .collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }
}

/// Statically classifies every insertion of `plan` against `cfg`.
///
/// `entry` is the block containing the first executed instruction; passing
/// `None` disables the reachability, redundancy, and clobbering arguments
/// (which all need a dominator tree), leaving only path-existence and
/// timeliness.
pub fn evaluate_plan(
    cfg: &Cfg,
    entry: Option<BlockId>,
    plan: &Plan,
    config: &CoverageConfig,
) -> PlanEvaluation {
    let dom = entry.map(|e| DomTree::dominators(cfg, e));
    let loops = dom.as_ref().map(|d| LoopForest::detect(cfg, d));

    let mut dist_cache: HashMap<u64, Option<Vec<Option<u64>>>> = HashMap::new();
    // Per-loop set-pressure maps, built lazily: loop index → (L1-I set →
    // distinct lines the loop body touches in that set).
    let mut loop_lines: HashMap<BlockId, HashMap<u64, HashSet<u64>>> = HashMap::new();

    // The duplicate model reasons in the *rewritten* address space: the
    // plan's own insertions shift every later address, moving lines across
    // cache sets exactly as reassembly would ("shifting the cache lines'
    // contents", the paper's bloat effect). Classification above stays in
    // the original space — D-rules are claims about the plan as written.
    let shift = ShiftMap::from_plan(plan);
    // Per-line touch counts and per-set membership (rewritten space), the
    // inputs to the gap/churn residency estimate (DESIGN.md §14).
    let mut line_exec: HashMap<u64, u64> = HashMap::new();
    if !plan.insertions.is_empty() {
        for (_, block) in cfg.blocks() {
            for pc in &block.pcs {
                let line = shift.remap_pc(*pc).line().number();
                let e = line_exec.entry(line).or_insert(0);
                *e = (*e).max(block.exec_count);
            }
        }
    }
    let mut set_lines: HashMap<u64, Vec<u64>> = HashMap::new();
    for &line in line_exec.keys() {
        set_lines
            .entry(line % config.l1i_sets)
            .or_default()
            .push(line);
    }
    // Prefetch pressure per (rewritten) target line: execution weight from
    // sites already known resident (redundant) vs the rest.
    let mut line_weights: HashMap<u64, (u64, u64)> = HashMap::new();

    let mut classes = Vec::with_capacity(plan.insertions.len());
    let mut diagnostics = Vec::new();
    let mut useful_lines: HashSet<u64> = HashSet::new();
    let mut all_lines: HashSet<u64> = HashSet::new();
    let mut coverage = PredictedCoverage::default();
    let mut duplicate_weight = 0.0f64;

    for (idx, ins) in plan.insertions.iter().enumerate() {
        let loc = Location::Insertion(idx as u64);
        let target_line = ins.target_pc.line().number();
        all_lines.insert(target_line);

        let anchor_block = cfg.block_of(ins.anchor);
        let weight = anchor_block.map_or(0, |b| cfg.block(b).exec_count);

        let (class, why) = classify(
            cfg,
            dom.as_ref(),
            loops.as_ref(),
            &mut dist_cache,
            &mut loop_lines,
            config,
            ins,
            anchor_block,
            target_line,
        );

        match class {
            InsertionClass::Useful => {
                coverage.useful_sites += 1;
                coverage.useful_executions += weight;
                useful_lines.insert(target_line);
            }
            InsertionClass::Dead => {
                coverage.dead_sites += 1;
                coverage.dead_executions += weight;
                diagnostics.push(Diagnostic::new("D001", Severity::Error, loc, why));
            }
            InsertionClass::Redundant => {
                coverage.redundant_sites += 1;
                coverage.redundant_executions += weight;
                diagnostics.push(Diagnostic::new("D002", Severity::Warn, loc, why));
            }
            InsertionClass::Late => {
                coverage.late_sites += 1;
                coverage.late_executions += weight;
                diagnostics.push(Diagnostic::new("D003", Severity::Warn, loc, why));
            }
            InsertionClass::Clobbering => {
                coverage.clobbering_sites += 1;
                coverage.clobbering_executions += weight;
                diagnostics.push(Diagnostic::new("D004", Severity::Warn, loc, why));
            }
        }
        // Group live sites by their rewritten-space target line for the
        // duplicate model below: a redundant site's line is resident on
        // every reaching path by construction; the rest get the
        // steady-state gap/churn residency estimate.
        if class != InsertionClass::Dead {
            let line = shift.remap_target(ins.target_pc).line().number();
            let w = line_weights.entry(line).or_insert((0, 0));
            if class == InsertionClass::Redundant {
                w.0 += weight;
            } else {
                w.1 += weight;
            }
        }
        coverage.sites += 1;
        coverage.predicted_executions += weight;
        classes.push(class);
    }

    for (&line, &(w_redundant, w_other)) in &line_weights {
        duplicate_weight += w_redundant as f64;
        if w_other == 0 {
            continue;
        }
        let r = residency(&line_exec, &set_lines, config, line, w_redundant + w_other);
        duplicate_weight += w_other as f64 * r;
    }
    coverage.duplicate_executions = duplicate_weight.round() as u64;
    coverage.targeted_lines = all_lines.len() as u64;
    coverage.covered_lines = useful_lines.len() as u64;

    PlanEvaluation {
        classes,
        coverage,
        diagnostics,
    }
}

/// Classifies one insertion; returns the class and a diagnostic message
/// (empty for `Useful`).
#[allow(clippy::too_many_arguments)]
fn classify(
    cfg: &Cfg,
    dom: Option<&DomTree>,
    loops: Option<&LoopForest>,
    dist_cache: &mut HashMap<u64, Option<Vec<Option<u64>>>>,
    loop_lines: &mut HashMap<BlockId, HashMap<u64, HashSet<u64>>>,
    config: &CoverageConfig,
    ins: &swip_asmdb::Insertion,
    anchor_block: Option<BlockId>,
    target_line: u64,
) -> (InsertionClass, String) {
    // Dead: anchor never executed.
    let Some(anchor_block) = anchor_block else {
        return (
            InsertionClass::Dead,
            format!("dead insertion: anchor {} is not in the CFG", ins.anchor),
        );
    };
    // Dead: anchor off every path from the entry.
    if let Some(dom) = dom {
        if !dom.is_reachable(anchor_block) {
            return (
                InsertionClass::Dead,
                format!(
                    "dead insertion: anchor {} (block {anchor_block}) is unreachable \
                     from the entry",
                    ins.anchor
                ),
            );
        }
    }
    // Dead: target never executed, or no forward path anchor → target.
    let dists = dist_cache
        .entry(ins.target_pc.raw())
        .or_insert_with(|| target_entry_distances(cfg, ins.target_pc));
    let min_d = match dists {
        None => None,
        Some(dist) => cfg
            .block(anchor_block)
            .succs
            .iter()
            .filter(|&&(s, _)| s < cfg.len())
            .filter_map(|&(s, _)| dist[s])
            .min(),
    };
    let Some(min_d) = min_d else {
        return (
            InsertionClass::Dead,
            format!(
                "dead insertion: no path from anchor {} to target {}",
                ins.anchor, ins.target_pc
            ),
        );
    };

    // Redundant: a dominating block already touched the target line close
    // enough that it is still resident. The dominator chain understates
    // true path length, so the accumulated distance is a lower bound —
    // conservative in the right direction (claims redundancy only when the
    // touch is provably on every path and plausibly recent).
    if let Some(dom) = dom {
        let mut acc: u64 = 0;
        let mut cur = Some(anchor_block);
        while let Some(b) = cur {
            if acc > config.reuse_window {
                break;
            }
            let touches = cfg
                .block(b)
                .pcs
                .iter()
                .any(|pc| pc.line().number() == target_line);
            if touches {
                return (
                    InsertionClass::Redundant,
                    format!(
                        "redundant insertion: dominating block {b} touches line \
                         {target_line:#x} ~{acc} instructions before anchor {}",
                        ins.anchor
                    ),
                );
            }
            acc += cfg.block(b).len() as u64;
            cur = dom.idom(b);
        }
    }

    // Late: even the shortest path to the target is within the miss
    // latency; the demand fetch wins the race.
    if min_d < config.miss_latency {
        return (
            InsertionClass::Late,
            format!(
                "late insertion: target {} is only {min_d} instructions ahead of \
                 anchor {} (< miss latency {})",
                ins.target_pc, ins.anchor, config.miss_latency
            ),
        );
    }

    // Clobbering: the innermost loop around the anchor already saturates
    // the target's L1-I set with lines it re-touches every iteration, and
    // the target is not one of them.
    if let Some(loops) = loops {
        if let Some(l) = loops.innermost(anchor_block) {
            let sets = loop_lines
                .entry(l.header)
                .or_insert_with(|| loop_set_lines(cfg, l, config.l1i_sets));
            let target_set = target_line % config.l1i_sets;
            if let Some(lines) = sets.get(&target_set) {
                if lines.len() >= config.l1i_ways && !lines.contains(&target_line) {
                    return (
                        InsertionClass::Clobbering,
                        format!(
                            "clobbering insertion: the loop at block {} re-touches \
                             {} lines in L1-I set {target_set} (≥ {} ways); \
                             prefetching line {target_line:#x} evicts one",
                            l.header,
                            lines.len(),
                            config.l1i_ways
                        ),
                    );
                }
            }
        }
    }

    (InsertionClass::Useful, String::new())
}

/// Distinct executed lines per L1-I set across the body of loop `l`.
fn loop_set_lines(cfg: &Cfg, l: &NaturalLoop, sets: u64) -> HashMap<u64, HashSet<u64>> {
    let mut by_set: HashMap<u64, HashSet<u64>> = HashMap::new();
    for &b in &l.blocks {
        for pc in &cfg.block(b).pcs {
            let line = pc.line().number();
            by_set.entry(line % sets).or_default().insert(line);
        }
    }
    by_set
}

/// Steady-state probability that a prefetch of `line` (issued `weight`
/// times across all its anchors) finds it already resident.
///
/// Between two consecutive prefetches of the line, every other line of its
/// L1-I set is touched in proportion to its own execution count; the
/// expected distinct-line churn in that gap is `C = Σ min(1, exec(ℓ) /
/// weight)` over the set's other lines. Under LRU the line survives a gap
/// when fewer than `ways` distinct lines intervene, so residency is
/// `min(1, ways / C)` — 1.0 when the set churns slower than the prefetch
/// cadence, decaying once the set cycles faster than the line is renewed.
fn residency(
    line_exec: &HashMap<u64, u64>,
    set_lines: &HashMap<u64, Vec<u64>>,
    config: &CoverageConfig,
    line: u64,
    weight: u64,
) -> f64 {
    let churn: f64 = set_lines
        .get(&(line % config.l1i_sets))
        .map_or(0.0, |lines| {
            lines
                .iter()
                .filter(|&&l| l != line)
                .map(|l| (line_exec[l] as f64 / weight.max(1) as f64).min(1.0))
                .sum()
        });
    if churn <= config.l1i_ways as f64 {
        1.0
    } else {
        config.l1i_ways as f64 / churn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_asmdb::{CfgBlock, Insertion};
    use swip_types::Addr;

    /// Block `i` starts at `base[i]` and holds `lens[i]` instructions at
    /// 4-byte stride.
    fn cfg_of(bases: &[u64], lens: &[usize], edges: &[(usize, usize)]) -> Cfg {
        let mut blocks: Vec<CfgBlock> = bases
            .iter()
            .zip(lens)
            .map(|(&base, &len)| CfgBlock {
                start: Addr::new(base),
                pcs: (0..len).map(|k| Addr::new(base + 4 * k as u64)).collect(),
                exec_count: 10,
                succs: Vec::new(),
                preds: Vec::new(),
                ends_with_branch: false,
            })
            .collect();
        for &(a, b) in edges {
            blocks[a].succs.push((b, 1));
            blocks[b].preds.push((a, 1));
        }
        Cfg::from_parts(blocks)
    }

    fn ins(anchor: u64, target: u64) -> Insertion {
        Insertion {
            anchor: Addr::new(anchor),
            before: true,
            target_pc: Addr::new(target),
            distance: 16,
            reach: 0.9,
        }
    }

    fn plan_of(insertions: Vec<Insertion>) -> Plan {
        Plan {
            targeted_lines: insertions.len(),
            insertions,
            uncovered_lines: 0,
        }
    }

    fn classify_one(cfg: &Cfg, entry: BlockId, i: Insertion) -> (InsertionClass, PlanEvaluation) {
        let eval = evaluate_plan(
            cfg,
            Some(entry),
            &plan_of(vec![i]),
            &CoverageConfig::default(),
        );
        (eval.classes[0], eval)
    }

    /// 0 (32 instrs at 0x0) → 1 (32 at 0x1000) → 2 (32 at 0x2000); 3 is
    /// disconnected at 0x9000.
    fn line_chain() -> Cfg {
        cfg_of(
            &[0x0, 0x1000, 0x2000, 0x9000],
            &[32, 32, 32, 4],
            &[(0, 1), (1, 2)],
        )
    }

    /// Last pc of a 32-instruction block starting at `base`.
    fn block_end(base: u64) -> u64 {
        base + 4 * 31
    }

    #[test]
    fn unknown_anchor_is_dead() {
        let cfg = line_chain();
        let (class, eval) = classify_one(&cfg, 0, ins(0xdead0, 0x2000));
        assert_eq!(class, InsertionClass::Dead);
        assert_eq!(eval.fatal_rules(), vec!["D001"]);
        assert_eq!(eval.coverage.dead_sites, 1);
        assert_eq!(eval.coverage.predicted_executions, 0);
    }

    #[test]
    fn unreachable_anchor_is_dead() {
        let cfg = line_chain();
        // Block 3 (0x9000) has no path from the entry.
        let (class, eval) = classify_one(&cfg, 0, ins(0x900c, 0x2000));
        assert_eq!(class, InsertionClass::Dead);
        assert!(eval.diagnostics[0].message.contains("unreachable"));
    }

    #[test]
    fn pathless_target_is_dead() {
        let cfg = line_chain();
        // Anchor at the end of block 2, target back at block 0 start: no
        // forward path (the chain does not loop).
        let (class, _) = classify_one(&cfg, 0, ins(block_end(0x2000), 0x0));
        assert_eq!(class, InsertionClass::Dead);
    }

    #[test]
    fn far_target_is_useful() {
        let cfg = line_chain();
        // Anchor ends block 0; target is block 2's last instruction: all of
        // block 1 (32) plus block 2's offset (31) = 63 instructions ahead,
        // comfortably past the 34-instruction miss latency.
        let anchor = block_end(0x0);
        let (class, eval) = classify_one(&cfg, 0, ins(anchor, block_end(0x2000)));
        assert_eq!(class, InsertionClass::Useful, "{:?}", eval.diagnostics);
        assert_eq!(eval.coverage.useful_sites, 1);
        assert_eq!(eval.coverage.covered_lines, 1);
        assert_eq!(eval.coverage.predicted_executions, 10);
        assert!(eval.fatal_rules().is_empty());
    }

    #[test]
    fn close_target_is_late() {
        let cfg = line_chain();
        // Anchor ends block 0, target is block 1's start: 0 instructions
        // ahead of the fall-through, well under the miss latency.
        let anchor = block_end(0x0);
        let (class, eval) = classify_one(&cfg, 0, ins(anchor, 0x1000));
        assert_eq!(class, InsertionClass::Late);
        assert_eq!(eval.diagnostics[0].rule, "D003");
        assert_eq!(eval.coverage.late_executions, 10);
    }

    #[test]
    fn dominated_touch_is_redundant() {
        // 0 → 1 → 2 where block 2 jumps back to a line block 1 sits on:
        // prefetching block 1's line from block 2's end is redundant (block
        // 1 dominates block 2 and is ~16 instructions back).
        let cfg = cfg_of(
            &[0x0, 0x1000, 0x2000],
            &[16, 16, 16],
            &[(0, 1), (1, 2), (2, 1)],
        );
        let anchor = 0x2000 + 4 * 15;
        let (class, eval) = classify_one(&cfg, 0, ins(anchor, 0x1000));
        assert_eq!(class, InsertionClass::Redundant);
        assert_eq!(eval.diagnostics[0].rule, "D002");
        assert_eq!(
            eval.coverage.redundant_executions,
            eval.coverage.predicted_executions
        );
        assert!(eval.coverage.predicted_executions > 0);
    }

    #[test]
    fn saturated_loop_set_is_clobbering() {
        // A loop whose body touches `ways` distinct lines that all map to
        // the same set as the (loop-external, far away) target line.
        let config = CoverageConfig {
            l1i_sets: 4,
            l1i_ways: 2,
            miss_latency: 8,
            reuse_window: 0, // disable the redundancy argument
        };
        // Lines are 64 bytes; set = line % 4. Blocks at 0x000 (line 0, set
        // 0), 0x400 (line 16, set 0): both in the loop. Target 0x2000 (line
        // 128, set 0) lives in block 2 outside the loop.
        let cfg = cfg_of(
            &[0x0, 0x400, 0x2000],
            &[16, 16, 16],
            &[(0, 1), (1, 0), (1, 2)],
        );
        let anchor = 0x400 + 4 * 15;
        let plan = plan_of(vec![ins(anchor, 0x2000 + 4 * 8)]);
        let eval = evaluate_plan(&cfg, Some(0), &plan, &config);
        assert_eq!(
            eval.classes[0],
            InsertionClass::Clobbering,
            "{:?}",
            eval.diagnostics
        );
        assert_eq!(eval.diagnostics[0].rule, "D004");
        assert_eq!(eval.coverage.clobbering_sites, 1);
    }

    #[test]
    fn counter_pairs_round_trip() {
        let cfg = line_chain();
        let plan = plan_of(vec![
            ins(block_end(0x0), block_end(0x2000)),
            ins(block_end(0x0), 0x1000),
        ]);
        let eval = evaluate_plan(&cfg, Some(0), &plan, &CoverageConfig::default());
        let pairs = eval.coverage.counter_pairs();
        let back = PredictedCoverage::from_counter_pairs(&pairs);
        assert_eq!(back, eval.coverage);
        assert_eq!(eval.coverage.sites, 2);
    }

    #[test]
    fn empty_plan_has_full_coverage() {
        let cov = PredictedCoverage::default();
        assert!((cov.coverage_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(cov.redundant_executions, 0);
        assert_eq!(cov.predicted_executions, 0);
    }

    #[test]
    fn no_entry_still_finds_dead_and_late() {
        let cfg = line_chain();
        let plan = plan_of(vec![ins(block_end(0x0), 0x1000), ins(0xdead0, 0x0)]);
        let eval = evaluate_plan(&cfg, None, &plan, &CoverageConfig::default());
        assert_eq!(eval.classes[0], InsertionClass::Late);
        assert_eq!(eval.classes[1], InsertionClass::Dead);
    }
}
