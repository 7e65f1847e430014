//! FTQ entries: basic blocks awaiting fetch.

use swip_types::{Cycle, LineAddr, SeqNum};

/// Fetch progress of one cache line needed by an FTQ entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LineState {
    /// No request issued yet (bandwidth or MSHR limits).
    Pending,
    /// Request issued (or merged with an FTQ-tracked line); data arrives at
    /// the given cycle.
    InFlight {
        /// Completion cycle of the fill.
        done: Cycle,
        /// True if this request merged with another FTQ entry's request and
        /// generated no L1-I access of its own.
        aliased: bool,
    },
}

/// One FTQ entry: a basic block of consecutive trace instructions plus the
/// fetch state of the cache line(s) it spans.
#[derive(Clone, Debug)]
pub struct FtqEntry {
    /// Trace index of the first instruction in the block.
    pub(crate) start_seq: SeqNum,
    /// Number of instructions in the block.
    pub(crate) count: u32,
    /// Instructions already promoted to decode.
    pub(crate) consumed: u32,
    /// The distinct cache lines the block spans (1 or 2 for 8 × 4-byte
    /// instructions), with per-line fetch state. The front-end hands a
    /// retired entry's list, cleared, to the next block it forms.
    pub(crate) lines: Vec<(LineAddr, LineState)>,
    /// The block ends with a taken branch the BTB did not predict; the
    /// pre-decoder must confirm it (post-fetch correction).
    pub(crate) pfc_pending: bool,
    /// Pre-decode (prefetch triggering + PFC) has run for this entry.
    pub(crate) predecoded: bool,
    /// Cycle the entry entered the FTQ.
    pub(crate) enqueued_at: Cycle,
    /// Cycle the entry's last line completed, once known.
    pub(crate) fetch_done_at: Option<Cycle>,
    /// The entry has (so far) spent at least one cycle stalling at the FTQ
    /// head while its fetch was incomplete.
    pub(crate) stalled_at_head: bool,
    /// The entry has been counted in the Fig-10 "waiting on a stalling
    /// head" statistic (counted at most once per entry).
    pub(crate) counted_waiting: bool,
    /// Sequence number of a front-end-mispredicted branch inside the block
    /// (at most the final instruction).
    pub(crate) mispredicted_seq: Option<SeqNum>,
}

impl FtqEntry {
    /// An empty block at `start_seq` whose lines go in `lines`, which must
    /// be empty.
    pub(crate) fn new(
        start_seq: SeqNum,
        enqueued_at: Cycle,
        lines: Vec<(LineAddr, LineState)>,
    ) -> Self {
        debug_assert!(lines.is_empty());
        FtqEntry {
            start_seq,
            count: 0,
            consumed: 0,
            lines,
            pfc_pending: false,
            predecoded: false,
            enqueued_at,
            fetch_done_at: None,
            stalled_at_head: false,
            counted_waiting: false,
            mispredicted_seq: None,
        }
    }

    /// Sequence range `[start, end)` of the block's instructions.
    pub fn seq_range(&self) -> (SeqNum, SeqNum) {
        (self.start_seq, self.start_seq + self.count as u64)
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True for a (degenerate) zero-instruction entry; never enqueued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Registers that the block needs `line`; deduplicates.
    pub(crate) fn add_line(&mut self, line: LineAddr) {
        if !self.lines.iter().any(|(l, _)| *l == line) {
            self.lines.push((line, LineState::Pending));
        }
    }

    /// True once every line has been issued and has arrived by `now`.
    pub fn is_fetch_complete(&self, now: Cycle) -> bool {
        self.lines.iter().all(|(_, s)| match s {
            LineState::Pending => false,
            LineState::InFlight { done, .. } => *done <= now,
        })
    }

    /// Latest completion cycle across lines, if all are issued.
    pub(crate) fn completion_cycle(&self) -> Option<Cycle> {
        let mut max = 0;
        for (_, s) in &self.lines {
            match s {
                LineState::Pending => return None,
                LineState::InFlight { done, .. } => max = max.max(*done),
            }
        }
        Some(max)
    }

    /// Instructions not yet promoted to decode.
    pub(crate) fn remaining(&self) -> u32 {
        self.count - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn add_line_dedups() {
        let mut e = FtqEntry::new(0, 0, Vec::new());
        e.add_line(line(1));
        e.add_line(line(1));
        e.add_line(line(2));
        assert_eq!(e.lines.len(), 2);
    }

    #[test]
    fn fetch_completion_requires_all_lines() {
        let mut e = FtqEntry::new(0, 0, Vec::new());
        e.add_line(line(1));
        e.add_line(line(2));
        assert!(!e.is_fetch_complete(100));
        e.lines[0].1 = LineState::InFlight {
            done: 10,
            aliased: false,
        };
        assert!(!e.is_fetch_complete(100));
        assert_eq!(e.completion_cycle(), None);
        e.lines[1].1 = LineState::InFlight {
            done: 50,
            aliased: true,
        };
        assert!(!e.is_fetch_complete(49));
        assert!(e.is_fetch_complete(50));
        assert_eq!(e.completion_cycle(), Some(50));
    }

    #[test]
    fn seq_range_and_remaining() {
        let mut e = FtqEntry::new(100, 0, Vec::new());
        e.count = 8;
        e.consumed = 3;
        assert_eq!(e.seq_range(), (100, 108));
        assert_eq!(e.remaining(), 5);
        assert_eq!(e.len(), 8);
        assert!(!e.is_empty());
    }
}
