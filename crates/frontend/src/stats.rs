//! Front-end statistics: the paper's taxonomy and per-figure counters.

use swip_types::{Counter, RunningMean};

/// The three FTQ states of Section III, plus the empty queue.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Scenario 1 — "shoot through": the head entry has completed its fetch;
    /// decode is limited only by its own bandwidth.
    ShootThrough,
    /// Scenario 2 — "stalling head": the head entry is still fetching while
    /// every entry behind it has completed.
    StallingHead,
    /// Scenario 3 — "shadow stalls": the head entry is still fetching and at
    /// least one entry behind it is also still fetching (its latency only
    /// partially covered by the head's).
    ShadowStall,
    /// The FTQ holds no entries (fill blocked or drained).
    Empty,
}

/// Every counter the paper's figures are built from.
///
/// Counter semantics (figure mapping in parentheses):
///
/// * `head_stall_cycles` — cycles the head entry was present but not fetch
///   complete (Fig 9).
/// * `entries_waiting_on_head` — cycle-sum of fetch-complete entries queued
///   behind a stalling head (one count per entry per stall cycle, matching
///   the paper's millions-per-run magnitudes) (Fig 10).
/// * `partially_covered_entries` — entries promoted to the head position
///   before their fetch completed (Fig 11).
/// * `head_fetch_cycles` / `nonhead_fetch_cycles` — per-entry fetch latency,
///   bucketed by whether the entry ever stalled the head (Fig 8).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FtqStats {
    /// Total front-end cycles observed.
    pub cycles: Counter,
    /// Cycles classified Scenario 1.
    pub s1_cycles: Counter,
    /// Cycles classified Scenario 2.
    pub s2_cycles: Counter,
    /// Cycles classified Scenario 3.
    pub s3_cycles: Counter,
    /// Cycles with an empty FTQ.
    pub empty_cycles: Counter,
    /// Cycles the fill engine was blocked on a redirect.
    pub fill_blocked_cycles: Counter,

    /// Fig 9: cycles a not-yet-fetched head entry stalled the FTQ.
    pub head_stall_cycles: Counter,
    /// Fig 10: cycle-sum of fetch-complete entries waiting behind a
    /// stalling head.
    pub entries_waiting_on_head: Counter,
    /// Fig 11: entries that reached the head position while still fetching.
    pub partially_covered_entries: Counter,
    /// Fig 8: fetch latency of entries that stalled the head.
    pub head_fetch_cycles: RunningMean,
    /// Fig 8: fetch latency of entries that completed before reaching the head.
    pub nonhead_fetch_cycles: RunningMean,

    /// Basic blocks enqueued.
    pub blocks_enqueued: Counter,
    /// Instructions enqueued.
    pub instrs_enqueued: Counter,
    /// Instructions promoted to decode.
    pub instrs_decoded: Counter,
    /// L1-I line requests actually issued to the cache hierarchy.
    pub line_requests: Counter,
    /// Line requests satisfied by merging with a line already tracked by the
    /// FTQ (the paper's positive aliasing).
    pub aliased_line_requests: Counter,
    /// Issue attempts rejected by a full MSHR file (retried later).
    pub mshr_stalls: Counter,

    /// Fill redirects caused by direction/target mispredictions (resolved at
    /// execute).
    pub redirects_execute: Counter,
    /// Execute redirects from conditional-direction mispredictions.
    pub mispredicts_cond: Counter,
    /// Execute redirects from indirect-target mispredictions (jumps/calls).
    pub mispredicts_indirect: Counter,
    /// Execute redirects from return-target mispredictions.
    pub mispredicts_return: Counter,
    /// Execute redirects from stale direct-branch targets.
    pub mispredicts_other: Counter,
    /// Fill redirects caused by BTB-missed taken branches corrected at
    /// pre-decode (post-fetch correction).
    pub redirects_predecode: Counter,
    /// Software instruction prefetches triggered by `prefetch.i`
    /// instructions at pre-decode.
    pub swpf_executed: Counter,
    /// Software instruction prefetches triggered by no-overhead hints at
    /// FTQ-insert time.
    pub swpf_hinted: Counter,
    /// Prefetches triggered by the §VI metadata-preloading extension.
    pub swpf_preloaded: Counter,
    /// Metadata-preload lookups that hit the L1-side metadata cache.
    pub preload_l1_hits: Counter,
    /// Metadata requests sent to the LLC-side table.
    pub preload_metadata_requests: Counter,
}

impl FtqStats {
    /// Fraction of cycles in each scenario `(s1, s2, s3, empty)`.
    pub fn scenario_fractions(&self) -> (f64, f64, f64, f64) {
        let total = self.cycles.get().max(1) as f64;
        (
            self.s1_cycles.get() as f64 / total,
            self.s2_cycles.get() as f64 / total,
            self.s3_cycles.get() as f64 / total,
            self.empty_cycles.get() as f64 / total,
        )
    }

    /// Fraction of line requests saved by FTQ-level aliasing.
    pub fn alias_fraction(&self) -> f64 {
        let total = self.line_requests.get() + self.aliased_line_requests.get();
        if total == 0 {
            0.0
        } else {
            self.aliased_line_requests.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_at_most_one() {
        let mut s = FtqStats::default();
        s.cycles.add(100);
        s.s1_cycles.add(50);
        s.s2_cycles.add(25);
        s.s3_cycles.add(5);
        s.empty_cycles.add(20);
        let (a, b, c, d) = s.scenario_fractions();
        assert!((a + b + c + d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alias_fraction_handles_zero() {
        let s = FtqStats::default();
        assert_eq!(s.alias_fraction(), 0.0);
    }

    #[test]
    fn alias_fraction_counts_merges() {
        let mut s = FtqStats::default();
        s.line_requests.add(86);
        s.aliased_line_requests.add(14);
        assert!((s.alias_fraction() - 0.14).abs() < 1e-12);
    }
}
