//! Target selection and insertion-site planning (AsmDB's analysis core).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use swip_types::{Addr, LineAddr, CACHE_LINE_SIZE};

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
    let mut dedup: HashSet<(u64, u64)> = HashSet::new();

    for target in targets {
        let candidates = backward_walk(cfg, target, window);
        // Aggregate per block: best reach among eligible discoveries.
        let mut per_block: HashMap<BlockId, Candidate> = HashMap::new();
        for (block, c) in candidates {
            if c.distance < min_distance || c.reach < min_reach {
                continue;
            }
            per_block
                .entry(block)
                .and_modify(|e| {
                    if c.reach > e.reach {
                        *e = c;
                    }
                })
                .or_insert(c);
        }
        let mut eligible: Vec<(BlockId, Candidate)> = per_block.into_iter().collect();
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

/// Bounded best-first search over reversed edges from the target block.
///
/// A state `(B, d, r)` means: execution entering block `B` reaches the
/// target `d` instructions later with estimated probability `r`. A
/// predecessor `P` of `B` can host a prefetch at its *end*, `d` instructions
/// ahead of the miss, reaching it with probability `r × p(P→B)`; the state
/// propagated to `P` adds `len(P)`. Cycles are explored up to
/// [`MAX_VISITS_PER_BLOCK`] distinct distances per block, bounded by
/// `window`.
fn backward_walk(cfg: &Cfg, target: &MissTarget, window: u64) -> Vec<(BlockId, Candidate)> {
    let target_block = cfg.block(target.block);
    let offset_in_block = target_block
        .pcs
        .iter()
        .position(|&pc| pc == target.first_pc)
        .expect("target pc is in its block") as u64;

    // Heap orders by distance; reach rides along via a parallel encoding
    // (f64 bits are not Ord, so states carry reach separately).
    struct State {
        dist: u64,
        block: BlockId,
        reach: f64,
    }
    let mut frontier: BinaryHeap<Reverse<(u64, BlockId, u64)>> = BinaryHeap::new();
    let mut reaches: HashMap<(BlockId, u64), f64> = HashMap::new();
    let mut visits: HashMap<BlockId, u32> = HashMap::new();
    let mut candidates: Vec<(BlockId, Candidate)> = Vec::new();

    let push = |frontier: &mut BinaryHeap<Reverse<(u64, BlockId, u64)>>,
                reaches: &mut HashMap<(BlockId, u64), f64>,
                s: State| {
        let key = (s.block, s.dist);
        let known = reaches.entry(key).or_insert(0.0);
        if s.reach > *known {
            *known = s.reach;
            frontier.push(Reverse((s.dist, s.block, s.dist)));
        }
    };
    push(
        &mut frontier,
        &mut reaches,
        State {
            dist: offset_in_block,
            block: target.block,
            reach: 1.0,
        },
    );

    while let Some(Reverse((d, block, _))) = frontier.pop() {
        if d > window {
            break;
        }
        let count = visits.entry(block).or_insert(0);
        if *count >= MAX_VISITS_PER_BLOCK {
            continue;
        }
        *count += 1;
        let r = reaches[&(block, d)];
        for &(pred, edge_count) in &cfg.block(block).preds {
            let pred_block = cfg.block(pred);
            let out_total: u64 = pred_block.succs.iter().map(|&(_, c)| c).sum();
            if out_total == 0 {
                continue;
            }
            let prob = edge_count as f64 / out_total as f64;
            let reach = r * prob;
            // Candidate: a prefetch at the end of `pred`, `d` instructions
            // ahead of the miss.
            candidates.push((pred, Candidate { distance: d, reach }));
            let nd = d + pred_block.len() as u64;
            if nd <= window && reach > 1e-4 {
                push(
                    &mut frontier,
                    &mut reaches,
                    State {
                        dist: nd,
                        block: pred,
                        reach,
                    },
                );
            }
        }
    }
    candidates
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
