//! The insertion plan: where prefetches go and what they target.

use std::collections::HashMap;

use swip_types::Addr;

/// One planned software-prefetch insertion.
#[derive(Clone, PartialEq, Debug)]
pub struct Insertion {
    /// Static PC of the *anchor* instruction: the last instruction of the
    /// insertion block. The prefetch is placed immediately before the anchor
    /// when the anchor is a branch (so control flow still leaves the block
    /// last), immediately after it otherwise.
    pub anchor: Addr,
    /// True when the prefetch goes before the anchor.
    pub before: bool,
    /// First executed instruction of the missing code line (original
    /// address space); the prefetch targets the line containing it.
    pub target_pc: Addr,
    /// Estimated distance (instructions) from the insertion to the target.
    pub distance: u64,
    /// Estimated probability that execution reaches the target within the
    /// window (AsmDB's fanout criterion).
    pub reach: f64,
}

/// The complete insertion plan for one trace.
#[derive(Clone, Default, Debug)]
pub struct Plan {
    /// All insertions, deduplicated on (anchor, target).
    pub insertions: Vec<Insertion>,
    /// Number of distinct miss lines targeted.
    pub targeted_lines: usize,
    /// Number of profiled miss lines that had no eligible insertion site
    /// (too close to every entry path, or fanout below threshold).
    pub uncovered_lines: usize,
}

impl Plan {
    /// True when no insertions were planned.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty()
    }

    /// Number of planned insertions.
    pub fn len(&self) -> usize {
        self.insertions.len()
    }

    /// Converts the plan into no-overhead hints on the *original* trace:
    /// trigger PC → target addresses. Used for the paper's
    /// "No Insertion Overhead" configurations.
    pub fn to_hints(&self) -> HashMap<Addr, Vec<Addr>> {
        let mut hints: HashMap<Addr, Vec<Addr>> = HashMap::new();
        for ins in &self.insertions {
            hints.entry(ins.anchor).or_default().push(ins.target_pc);
        }
        hints
    }

    /// Converts the plan into §VI preload metadata on the *original* trace:
    /// the trigger is the cache line of each insertion anchor, so the
    /// prefetch fires when the front-end requests that line from the L1-I.
    pub fn to_preload_metadata(&self) -> HashMap<u64, Vec<Addr>> {
        let mut meta: HashMap<u64, Vec<Addr>> = HashMap::new();
        for ins in &self.insertions {
            let targets = meta.entry(ins.anchor.line().number()).or_default();
            if !targets.contains(&ins.target_pc) {
                targets.push(ins.target_pc);
            }
        }
        meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insertion(anchor: u64, target: u64) -> Insertion {
        Insertion {
            anchor: Addr::new(anchor),
            before: true,
            target_pc: Addr::new(target),
            distance: 64,
            reach: 0.9,
        }
    }

    #[test]
    fn hints_group_by_anchor() {
        let plan = Plan {
            insertions: vec![
                insertion(0x10, 0x1000),
                insertion(0x10, 0x2000),
                insertion(0x20, 0x3000),
            ],
            targeted_lines: 3,
            uncovered_lines: 0,
        };
        let hints = plan.to_hints();
        assert_eq!(hints.len(), 2);
        assert_eq!(hints[&Addr::new(0x10)].len(), 2);
        assert_eq!(hints[&Addr::new(0x20)], vec![Addr::new(0x3000)]);
    }

    #[test]
    fn empty_plan() {
        let plan = Plan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.to_hints().is_empty());
    }
}
