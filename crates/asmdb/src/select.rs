//! Target selection and insertion-site planning (AsmDB's analysis core).

use std::cmp::Reverse;
use std::collections::HashMap;

use swip_types::{Addr, IntMap, IntSet, LineAddr, CACHE_LINE_SIZE};

use crate::plan::{Insertion, Plan};
use crate::{BlockId, Cfg};

/// One high-impact miss line chosen for prefetching.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MissTarget {
    /// The missing code line.
    pub line: LineAddr,
    /// Profiled L1-I demand misses attributed to the line.
    pub misses: u64,
    /// First executed instruction address within the line.
    pub first_pc: Addr,
    /// Block containing `first_pc`.
    pub block: BlockId,
}

/// Ranks profiled miss lines and keeps the high-impact ones.
///
/// AsmDB "generates an ordered list of potential prefetch targets by ranking
/// the instructions based on their misses" and selects the highest-ranked.
/// We keep lines with at least `min_misses` misses, in rank order, until
/// `coverage` of all profiled misses is covered or `max_targets` is reached.
pub fn select_targets(
    cfg: &Cfg,
    line_misses: &HashMap<u64, u64>,
    min_misses: u64,
    coverage: f64,
    max_targets: usize,
) -> Vec<MissTarget> {
    let total: u64 = line_misses.values().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut ranked: Vec<(u64, u64)> = line_misses
        .iter()
        .map(|(&line, &misses)| (line, misses))
        .collect();
    ranked.sort_by_key(|&(line, misses)| (Reverse(misses), line));

    let mut targets = Vec::new();
    let mut covered = 0u64;
    for (line_number, misses) in ranked {
        if misses < min_misses || targets.len() >= max_targets {
            break;
        }
        if (covered as f64) / (total as f64) >= coverage {
            break;
        }
        covered += misses;
        let line = LineAddr::from_line_number(line_number);
        // First executed pc within the line (instructions are 4-byte).
        let Some((first_pc, block)) = (0..CACHE_LINE_SIZE / 4)
            .map(|k| line.base().add(k * 4))
            .find_map(|pc| cfg.block_of(pc).map(|b| (pc, b)))
        else {
            continue; // profiled line never executed (should not happen)
        };
        targets.push(MissTarget {
            line,
            misses,
            first_pc,
            block,
        });
    }
    targets
}

/// A candidate insertion block discovered by the backward walk.
#[derive(Copy, Clone, Debug)]
struct Candidate {
    distance: u64,
    reach: f64,
}

/// Plans prefetch insertions for the selected targets.
///
/// For each target, the CFG is walked backward (shortest-distance first).
/// The prefetch is conceptually placed at the *end* of a candidate block, so
/// a candidate's distance to the target is the distance accumulated at its
/// successor on the discovered path. Following AsmDB:
///
/// * the candidate must be at least `min_distance` instructions ahead of the
///   miss (distance ≈ IPC × LLC latency, so the fill completes in time);
/// * no further than `window` instructions (past that the prefetched line
///   risks eviction before use, and path probability decays);
/// * its *reach* — the estimated probability that execution at the candidate
///   arrives at the target within the window, the complement of AsmDB's
///   fanout criterion — must be at least `min_reach`.
///
/// Up to `max_sites` candidates (highest reach first) are chosen per target.
pub fn plan_insertions(
    cfg: &Cfg,
    targets: &[MissTarget],
    min_distance: u64,
    window: u64,
    min_reach: f64,
    max_sites: usize,
) -> Plan {
    let mut plan = Plan::default();
    let mut dedup: IntSet<(u64, u64)> = IntSet::default();
    let mut walk = Walk::new(cfg, min_distance, window, min_reach);

    for target in targets {
        // Each block's best eligible candidate, ranked best first.
        let mut eligible = walk.run(cfg, target);
        eligible.sort_by(|a, b| {
            // total_cmp: reach is a product of edge probabilities and cannot
            // be NaN, but the plan is safety-checked downstream (P005), so
            // keep the comparator total rather than panicking.
            b.1.reach
                .total_cmp(&a.1.reach)
                .then(a.1.distance.cmp(&b.1.distance))
                .then(a.0.cmp(&b.0))
        });
        if eligible.is_empty() {
            plan.uncovered_lines += 1;
            continue;
        }
        plan.targeted_lines += 1;
        for (block, cand) in eligible.into_iter().take(max_sites) {
            let anchor = cfg.block(block).last_pc();
            if !dedup.insert((anchor.raw(), target.line.number())) {
                continue;
            }
            plan.insertions.push(Insertion {
                anchor,
                before: cfg.block(block).ends_with_branch,
                target_pc: target.first_pc,
                distance: cand.distance,
                reach: cand.reach,
            });
        }
    }
    plan.insertions.sort_by_key(|i| (i.anchor, i.target_pc));
    plan
}

/// How many distinct distances per block the backward walk explores.
///
/// Allowing revisits lets the walk wrap around loop back-edges and discover
/// insertion points a full iteration (or more) before the miss — exactly the
/// Figure-3 analysis in the paper, where a block that is "not the minimum
/// distance away" on the short path can still qualify via a longer path.
const MAX_VISITS_PER_BLOCK: u32 = 4;

/// Bounded best-first search over reversed edges from a target block.
///
/// A state `(B, d, r)` means: execution entering block `B` reaches the
/// target `d` instructions later with estimated probability `r`. A
/// predecessor `P` of `B` can host a prefetch at its *end*, `d` instructions
/// ahead of the miss, reaching it with probability `r × p(P→B)`; the state
/// propagated to `P` adds `len(P)`. Cycles are explored up to
/// [`MAX_VISITS_PER_BLOCK`] distinct distances per block, bounded by
/// `window`.
///
/// States are expanded in `(distance, block)` order from a bucket queue
/// indexed by distance. Blocks are never empty, so a state pushes only into
/// later buckets, and a bucket is complete when the walk reaches it: sorted
/// by block, it pops in a binary heap's order, a state pushed again with a
/// better reach included. One `Walk` serves every target of a plan and is
/// left empty after each.
struct Walk {
    min_distance: u64,
    window: u64,
    min_reach: f64,
    /// Summed out-edge counts per block: the denominator of `p(P→B)`.
    out_totals: Vec<u64>,
    /// States expanded per block, and the blocks with a nonzero count.
    visits: Vec<u32>,
    visited: Vec<BlockId>,
    /// Best reach pushed per `(block << 32) | distance`.
    reaches: IntMap<u64, f64>,
    /// Blocks waiting to expand, indexed by distance.
    buckets: Vec<Vec<BlockId>>,
    /// Best eligible candidate per block, and the blocks that have one in
    /// discovery order.
    best: Vec<Option<Candidate>>,
    found: Vec<BlockId>,
}

impl Walk {
    fn new(cfg: &Cfg, min_distance: u64, window: u64, min_reach: f64) -> Walk {
        Walk {
            min_distance,
            window,
            min_reach,
            out_totals: cfg
                .blocks()
                .map(|(_, b)| b.succs.iter().map(|&(_, c)| c).sum())
                .collect(),
            visits: vec![0; cfg.len()],
            visited: Vec::new(),
            reaches: IntMap::default(),
            buckets: Vec::new(),
            best: vec![None; cfg.len()],
            found: Vec::new(),
        }
    }

    /// Walks back from `target` and returns each block's best eligible
    /// candidate, in discovery order.
    fn run(&mut self, cfg: &Cfg, target: &MissTarget) -> Vec<(BlockId, Candidate)> {
        let offset_in_block = cfg
            .block(target.block)
            .pcs
            .iter()
            .position(|&pc| pc == target.first_pc)
            .expect("target pc is in its block") as u64;
        if offset_in_block <= self.window {
            self.push(target.block, offset_in_block, 1.0);
        }
        let mut d = offset_in_block as usize;
        while d < self.buckets.len() {
            let mut states = std::mem::take(&mut self.buckets[d]);
            states.sort_unstable();
            for &block in &states {
                self.expand(cfg, block, d as u64);
            }
            states.clear();
            self.buckets[d] = states;
            d += 1;
        }

        for block in self.visited.drain(..) {
            self.visits[block] = 0;
        }
        self.reaches.clear();
        self.found
            .drain(..)
            .filter_map(|block| self.best[block].take().map(|c| (block, c)))
            .collect()
    }

    fn push(&mut self, block: BlockId, dist: u64, reach: f64) {
        let known = self.reaches.entry(state_key(block, dist)).or_insert(0.0);
        if reach > *known {
            *known = reach;
            let d = dist as usize;
            if d >= self.buckets.len() {
                self.buckets.resize_with(d + 1, Vec::new);
            }
            self.buckets[d].push(block);
        }
    }

    fn expand(&mut self, cfg: &Cfg, block: BlockId, d: u64) {
        if self.visits[block] >= MAX_VISITS_PER_BLOCK {
            return;
        }
        if self.visits[block] == 0 {
            self.visited.push(block);
        }
        self.visits[block] += 1;
        let r = self.reaches[&state_key(block, d)];
        for &(pred, edge_count) in &cfg.block(block).preds {
            let out_total = self.out_totals[pred];
            if out_total == 0 {
                continue;
            }
            let prob = edge_count as f64 / out_total as f64;
            let reach = r * prob;
            // Candidate: a prefetch at the end of `pred`, `d` instructions
            // ahead of the miss. The first of equally good ones stays.
            if d >= self.min_distance && reach >= self.min_reach {
                match &mut self.best[pred] {
                    Some(best) if reach > best.reach => {
                        *best = Candidate { distance: d, reach };
                    }
                    Some(_) => {}
                    slot @ None => {
                        *slot = Some(Candidate { distance: d, reach });
                        self.found.push(pred);
                    }
                }
            }
            let pred_len = cfg.block(pred).len() as u64;
            debug_assert!(pred_len > 0, "blocks are never empty");
            let nd = d + pred_len;
            if nd <= self.window && reach > 1e-4 {
                self.push(pred, nd, reach);
            }
        }
    }
}

/// The `reaches` key of a walk state.
fn state_key(block: BlockId, dist: u64) -> u64 {
    debug_assert!(block >> 32 == 0 && dist >> 32 == 0);
    ((block as u64) << 32) | dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_trace::TraceBuilder;
    use swip_types::Addr;

    /// A chain of blocks A(0x0..) -> B(0x100..) -> C(0x200..), each 8
    /// instructions ending in a jump, executed `reps` times.
    fn chain_trace(reps: usize) -> swip_trace::Trace {
        let mut b = TraceBuilder::new("chain");
        for _ in 0..reps {
            b.set_pc(Addr::new(0x0));
            for _ in 0..7 {
                b.alu();
            }
            b.jump(Addr::new(0x100));
            for _ in 0..7 {
                b.alu();
            }
            b.jump(Addr::new(0x200));
            for _ in 0..7 {
                b.alu();
            }
            b.jump(Addr::new(0x0));
        }
        b.finish()
    }

    fn misses_at(line: Addr, count: u64) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        m.insert(line.line().number(), count);
        m
    }

    #[test]
    fn select_targets_ranks_and_filters() {
        let trace = chain_trace(4);
        let cfg = Cfg::from_trace(&trace);
        let mut misses = HashMap::new();
        misses.insert(Addr::new(0x200).line().number(), 100);
        misses.insert(Addr::new(0x100).line().number(), 50);
        misses.insert(Addr::new(0x0).line().number(), 1); // below min_misses
        let targets = select_targets(&cfg, &misses, 8, 1.0, 16);
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].line, Addr::new(0x200).line());
        assert_eq!(targets[0].misses, 100);
        assert_eq!(targets[1].line, Addr::new(0x100).line());
    }

    #[test]
    fn coverage_cuts_the_tail() {
        let trace = chain_trace(4);
        let cfg = Cfg::from_trace(&trace);
        let mut misses = HashMap::new();
        misses.insert(Addr::new(0x200).line().number(), 90);
        misses.insert(Addr::new(0x100).line().number(), 10);
        let targets = select_targets(&cfg, &misses, 1, 0.85, 16);
        assert_eq!(targets.len(), 1, "90% coverage met by the top line");
    }

    #[test]
    fn insertion_respects_min_distance() {
        let trace = chain_trace(8);
        let cfg = Cfg::from_trace(&trace);
        let targets = select_targets(&cfg, &misses_at(Addr::new(0x200), 100), 1, 1.0, 4);
        assert_eq!(targets.len(), 1);
        // Chain with a back edge: end-of-B sits 0 instructions from C (too
        // close); end-of-A sits 8 away; wrap-around candidates sit a full
        // cycle (24) further. Everything selected must respect the minimum.
        let plan = plan_insertions(&cfg, &targets, 5, 100, 0.5, 4);
        assert!(!plan.is_empty());
        assert!(
            plan.insertions.iter().any(|i| i.anchor == Addr::new(7 * 4)),
            "A's jump qualifies at distance 8"
        );
        for ins in &plan.insertions {
            assert!(ins.before);
            assert_eq!(ins.target_pc, Addr::new(0x200));
            assert!(ins.distance >= 5);
        }
    }

    #[test]
    fn unreachable_min_distance_reports_uncovered() {
        let trace = chain_trace(8);
        let cfg = Cfg::from_trace(&trace);
        let targets = select_targets(&cfg, &misses_at(Addr::new(0x200), 100), 1, 1.0, 4);
        // min_distance beyond the window: nothing qualifies... window too
        // small to reach any block that far back.
        let plan = plan_insertions(&cfg, &targets, 50, 60, 0.5, 4);
        // The loop back-edge lets distance grow: A->B->C->A->B->C... so 50+
        // is reachable around the cycle, but reach decays only at branch
        // points (all jumps are unconditional => prob 1). Either outcome is
        // structurally valid; just assert accounting is consistent.
        assert_eq!(plan.targeted_lines + plan.uncovered_lines, 1);
    }

    #[test]
    fn low_probability_paths_fail_fanout() {
        // Entry block branches to the target only 10% of the time.
        let mut b = TraceBuilder::new("fanout");
        for i in 0..40 {
            let to_target = i % 10 == 0;
            b.set_pc(Addr::new(0x0));
            for _ in 0..7 {
                b.alu();
            }
            b.cond_branch(Addr::new(0x200), to_target);
            if !to_target {
                // fall-through block
                for _ in 0..7 {
                    b.alu();
                }
                b.jump(Addr::new(0x0));
            } else {
                for _ in 0..7 {
                    b.alu();
                }
                b.jump(Addr::new(0x0));
                // jump back from target block
            }
        }
        let trace = b.finish();
        let cfg = Cfg::from_trace(&trace);
        let targets = select_targets(&cfg, &misses_at(Addr::new(0x200), 100), 1, 1.0, 4);
        assert_eq!(targets.len(), 1);
        let strict = plan_insertions(&cfg, &targets, 4, 64, 0.5, 4);
        assert!(
            strict.is_empty(),
            "10% path must fail a 50% reach threshold"
        );
        let lax = plan_insertions(&cfg, &targets, 4, 64, 0.05, 4);
        assert!(!lax.is_empty(), "10% path passes a 5% reach threshold");
    }

    #[test]
    fn empty_profile_plans_nothing() {
        let trace = chain_trace(2);
        let cfg = Cfg::from_trace(&trace);
        let targets = select_targets(&cfg, &HashMap::new(), 1, 1.0, 4);
        assert!(targets.is_empty());
        let plan = plan_insertions(&cfg, &targets, 4, 64, 0.5, 4);
        assert!(plan.is_empty());
    }
}
