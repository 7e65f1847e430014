//! An entangling instruction prefetcher (EIP-like).
//!
//! The paper's Figure 1 caption references EIP — the Entangling Instruction
//! Prefetcher (Ros & Jimborean), winner of the first Instruction Prefetching
//! Championship — as the hardware point of comparison for an
//! industry-standard front-end. This module implements the core entangling
//! idea at the scale our model needs:
//!
//! * every L1-I *demand* access is remembered in a short timestamped
//!   history;
//! * when a demand access misses, the prefetcher picks as its *entangling
//!   source* the youngest historical access old enough to have covered the
//!   miss latency, and records `source → missing line`;
//! * every later access to a source line prefetches its entangled
//!   destinations, ideally arriving exactly when the original miss would
//!   have.
//!
//! It is a member of the prefetcher zoo (DESIGN.md §16) and sees the
//! demand stream through
//! [`on_demand_fetch`](InstructionPrefetcher::on_demand_fetch).

use std::collections::VecDeque;

use swip_cache::{AccessResult, Level, MemoryHierarchy};
use swip_types::{Cycle, LineAddr};

use crate::prefetch::InstructionPrefetcher;

/// log2 of the entangling-table entry count.
const TABLE_LOG2: u32 = 12;
/// Destinations remembered per source line.
const DSTS_PER_SRC: usize = 2;
/// Length of the timestamped access history.
const HISTORY_LEN: usize = 64;

/// A source line's entangled destinations, oldest first.
#[derive(Copy, Clone, Debug, Default)]
struct Dsts {
    lines: [LineAddr; DSTS_PER_SRC],
    len: usize,
}

impl Dsts {
    fn as_slice(&self) -> &[LineAddr] {
        &self.lines[..self.len]
    }
}

/// Direct-mapped entangling-table slot: a source line and its
/// destinations.
#[derive(Copy, Clone, Debug)]
struct EntEntry {
    tag: u64,
    dsts: Dsts,
}

/// The entangling prefetcher: on each demand fetch that does not merge
/// with an in-flight miss, it looks up the destinations entangled with the
/// line, entangles the line with an earlier access if it missed, then
/// prefetches the destinations.
///
/// All storage is pre-allocated at construction; the hook does not
/// allocate (pinned by the counting-allocator test).
pub struct EntanglingPrefetcher {
    table: Vec<Option<EntEntry>>,
    history: VecDeque<(LineAddr, Cycle)>,
}

impl Default for EntanglingPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl EntanglingPrefetcher {
    /// Creates an empty entangling table (all storage pre-allocated).
    pub fn new() -> Self {
        EntanglingPrefetcher {
            table: vec![None; 1 << TABLE_LOG2],
            history: VecDeque::with_capacity(HISTORY_LEN),
        }
    }

    fn index_and_tag(line: LineAddr) -> (usize, u64) {
        let n = line.number();
        let mixed = n ^ (n >> TABLE_LOG2);
        ((mixed & ((1u64 << TABLE_LOG2) - 1)) as usize, n)
    }

    /// Notes a demand access to `line` at `now`; returns the entangled
    /// destinations to prefetch.
    fn on_demand_access(&mut self, line: LineAddr, now: Cycle) -> Dsts {
        let (idx, tag) = Self::index_and_tag(line);
        let dsts = match self.table[idx] {
            Some(e) if e.tag == tag => e.dsts,
            _ => Dsts::default(),
        };
        if self.history.len() == HISTORY_LEN {
            self.history.pop_front();
        }
        self.history.push_back((line, now));
        dsts
    }

    /// Notes that the demand access to `line` at `now` missed with the given
    /// fill latency; entangles it with the youngest access old enough to
    /// have hidden that latency.
    fn on_demand_miss(&mut self, line: LineAddr, now: Cycle, latency: u64) {
        let need_by = now.saturating_sub(latency);
        // Youngest history entry with timestamp <= need_by; fall back to the
        // oldest (the best available) when none is old enough.
        let src = self
            .history
            .iter()
            .rev()
            .find(|&&(l, t)| t <= need_by && l != line)
            .or_else(|| self.history.iter().find(|&&(l, _)| l != line))
            .map(|&(l, _)| l);
        let Some(src) = src else {
            return;
        };
        let (idx, tag) = Self::index_and_tag(src);
        // A cold or conflicting slot: the new source evicts it.
        let mut dsts = match self.table[idx] {
            Some(e) if e.tag == tag => e.dsts,
            _ => Dsts::default(),
        };
        if !dsts.as_slice().contains(&line) {
            if dsts.len == DSTS_PER_SRC {
                dsts.lines.copy_within(1.., 0);
                dsts.len -= 1;
            }
            dsts.lines[dsts.len] = line;
            dsts.len += 1;
        }
        self.table[idx] = Some(EntEntry { tag, dsts });
    }
}

impl InstructionPrefetcher for EntanglingPrefetcher {
    /// Looks up `line`'s destinations, trains on a miss (with the fill
    /// latency the hierarchy reported), then prefetches the destinations.
    /// A fetch that merged with an in-flight miss is not an access of its
    /// own and is ignored.
    fn on_demand_fetch(
        &mut self,
        line: LineAddr,
        now: Cycle,
        result: AccessResult,
        mem: &mut MemoryHierarchy,
    ) {
        if result.merged {
            return;
        }
        let dsts = self.on_demand_access(line, now);
        if result.level != Level::L1 {
            self.on_demand_miss(line, now, result.complete_at - now);
        }
        for &dst in dsts.as_slice() {
            mem.prefetch_instr(dst, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_cache::HierarchyConfig;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    /// A demand fetch of `line`, shown to `p` when the hierarchy accepts
    /// it, as the front-end does.
    fn fetch(
        p: &mut EntanglingPrefetcher,
        m: &mut MemoryHierarchy,
        line: LineAddr,
        now: Cycle,
    ) -> AccessResult {
        let r = m.fetch_instr(line, now);
        if r.complete_at != Cycle::MAX {
            p.on_demand_fetch(line, now, r, m);
        }
        r
    }

    #[test]
    fn entangles_with_a_source_old_enough() {
        let mut p = EntanglingPrefetcher::new();
        p.on_demand_access(line(1), 0);
        p.on_demand_access(line(2), 50);
        p.on_demand_access(line(3), 100);
        // Miss at t=100 with latency 80 → need_by=20 → source is line 1.
        p.on_demand_miss(line(9), 100, 80);
        // A later access to line 1 prefetches line 9.
        let out = p.on_demand_access(line(1), 200);
        assert_eq!(out.as_slice(), [line(9)]);
    }

    #[test]
    fn falls_back_to_oldest_when_nothing_is_old_enough() {
        let mut p = EntanglingPrefetcher::new();
        p.on_demand_access(line(4), 95);
        p.on_demand_miss(line(9), 100, 80); // need_by=20, nothing qualifies
        let out = p.on_demand_access(line(4), 200);
        assert_eq!(out.as_slice(), [line(9)]);
    }

    #[test]
    fn dst_list_is_bounded_fifo() {
        let mut p = EntanglingPrefetcher::new();
        p.on_demand_access(line(1), 0);
        for (i, t) in [(10u64, 300u64), (11, 301), (12, 302)] {
            p.on_demand_miss(line(i), t, 250);
        }
        let out = p.on_demand_access(line(1), 400);
        assert_eq!(
            out.as_slice(),
            [line(11), line(12)],
            "oldest destination evicted"
        );
    }

    #[test]
    fn never_entangles_a_line_with_itself() {
        let mut p = EntanglingPrefetcher::new();
        p.on_demand_access(line(5), 0);
        p.on_demand_miss(line(5), 100, 80);
        assert!(p.on_demand_access(line(5), 200).as_slice().is_empty());
    }

    #[test]
    fn duplicate_entangles_are_ignored() {
        let mut p = EntanglingPrefetcher::new();
        p.on_demand_access(line(1), 0);
        p.on_demand_miss(line(9), 100, 80);
        p.on_demand_miss(line(9), 200, 80);
        assert_eq!(p.on_demand_access(line(1), 300).as_slice(), [line(9)]);
    }

    #[test]
    fn entangling_learns_miss_pairs_end_to_end() {
        let mut p = EntanglingPrefetcher::new();
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        // Recurring pattern: access line 1, then (80+ cycles later) miss
        // line 50. After training, accessing line 1 should prefetch line 50.
        let mut now = 0;
        for _ in 0..3 {
            fetch(&mut p, &mut m, line(1), now);
            now += 200;
            fetch(&mut p, &mut m, line(50), now);
            now += 200;
            // Evict-ish: touch unrelated lines so 50 misses again next round.
            for k in 100..180 {
                fetch(&mut p, &mut m, line(k), now);
                now += 100;
            }
        }
        assert!(!m.l1i_contains(line(50)), "line 50 must be evicted");
        fetch(&mut p, &mut m, line(1), now);
        assert!(m.l1i_contains(line(50)), "line 1 did not prefetch line 50");
    }

    #[test]
    fn entangled_prefetches_leave_the_demand_its_mshr() {
        let mut p = EntanglingPrefetcher::new();
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny()); // 4 L1-I MSHRs
        let (src, dst) = (line(1), line(2));
        // Train src → dst: dst misses long enough after src's access.
        fetch(&mut p, &mut m, src, 0);
        fetch(&mut p, &mut m, dst, 1000);
        // Stream through unrelated lines until both leave the L1-I.
        let mut now = 2000;
        for n in 100..200 {
            fetch(&mut p, &mut m, line(n), now);
            now += 100;
        }
        assert!(!m.l1i_contains(src) && !m.l1i_contains(dst));
        // Three misses in flight leave one MSHR, promised to src's miss;
        // the entangled prefetch of dst must not take it.
        for n in [1000, 1001, 1002] {
            assert!(!fetch(&mut p, &mut m, line(n), now).merged);
        }
        assert_eq!(m.i_mshrs_in_flight(now), 3);
        let first = fetch(&mut p, &mut m, src, now);
        assert_ne!(first.level, Level::L1, "src must miss");
        let again = fetch(&mut p, &mut m, src, now + 1);
        assert!(again.merged, "src's miss holds no MSHR: {again:?}");
        assert_eq!(again.complete_at, first.complete_at);
        assert!(!m.l1i_contains(dst), "the prefetch of dst had no MSHR left");
    }
}
