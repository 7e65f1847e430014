//! The [`InstructionPrefetcher`] trait: the L1I/front-end prefetch seam.
//!
//! The paper compares exactly two prefetch mechanisms — FDP's decoupled
//! run-ahead and AsmDB's software hints — but the design space is wider
//! (MANA's metadata record-and-replay, shadow-branch BTB pre-fill, …).
//! This module turns the hard-wired special cases into implementations of
//! one trait so the whole space is sweepable from `swip bench
//! --prefetcher`.
//!
//! # Hook order within a cycle
//!
//! [`Frontend::cycle`](crate::Frontend::cycle) drives the hooks in a fixed
//! order (DESIGN.md §16):
//!
//! 1. **`train_on_fetch`** — once per instruction the fill engine walks
//!    past, *before* the instruction is appended to its FTQ entry. This is
//!    where AsmDB hints fire and where MANA observes line successions.
//! 2. **`train_on_btb_miss`** — when fill walks past a taken branch the
//!    BTB does not know. Shadow-branch prefetching records the branch here.
//! 3. **`issue_prefetch`** — once per *demand* line fetch the front-end is
//!    about to issue (aliased lines excluded), immediately before the L1-I
//!    access. Metadata-directed prefetchers react to the miss stream here.
//! 4. **`tick`** — once per cycle, after fetch issue. Latency-delayed
//!    work (metadata arrivals, replay queues) drains here.
//!
//! The simulation loop skips cycles in which nothing but counting would
//! happen, so `tick` is not called on every cycle: a mechanism with
//! latency-delayed work must report the cycle it falls due through
//! **`next_tick`**, or the loop may jump past it.
//!
//! Implementations may touch only their own state plus the arguments each
//! hook hands them; the per-cycle hooks must be allocation-free in steady
//! state (pinned by the counting-allocator test in `swip-tests`).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use swip_branch::BranchUnit;
use swip_cache::MemoryHierarchy;
use swip_types::{Addr, BranchKind, Cycle, LineAddr};

use crate::hints::HintTable;
use crate::stats::FtqStats;
use crate::PreloadConfig;

/// A monotone summary of what a prefetcher has done so far.
///
/// Every counter only ever grows over a run (the trait-conformance suite
/// asserts this); the fields are deliberately mechanism-neutral so the
/// report layer can print any implementation the same way.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PrefetcherSnapshot {
    /// Training events absorbed (hint anchors seen, successions recorded,
    /// shadow branches captured).
    pub trained: u64,
    /// Prefetches actually issued into the memory hierarchy.
    pub issued: u64,
    /// Metadata requests sent (zero for mechanisms without a metadata
    /// store).
    pub metadata_requests: u64,
}

/// An instruction-prefetch mechanism plugged in at the L1I/front-end
/// boundary.
///
/// All hooks default to no-ops so a mechanism only implements the seams
/// it uses; `snapshot`/`set_enabled`/`enabled` are the mandatory surface.
/// See the module docs for the in-cycle hook order and the state each
/// hook may touch.
pub trait InstructionPrefetcher: Send {
    /// Per-cycle maintenance, after fetch issue: complete latency-delayed
    /// metadata arrivals and fire their prefetches.
    fn tick(&mut self, now: Cycle, mem: &mut MemoryHierarchy, stats: &mut FtqStats) {
        let _ = (now, mem, stats);
    }

    /// The earliest cycle at which [`tick`](Self::tick) would do anything,
    /// or `None` if it has nothing pending. A `tick` at any earlier cycle
    /// must change no state and fire nothing, because the simulation loop
    /// may skip those cycles without calling it.
    fn next_tick(&self) -> Option<Cycle> {
        None
    }

    /// Observes one instruction the fill engine walks past (called before
    /// the instruction enters its FTQ entry).
    fn train_on_fetch(
        &mut self,
        pc: Addr,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        stats: &mut FtqStats,
    ) {
        let _ = (pc, now, mem, stats);
    }

    /// Observes a taken branch the BTB did not know about.
    fn train_on_btb_miss(&mut self, pc: Addr, kind: BranchKind, target: Addr, now: Cycle) {
        let _ = (pc, kind, target, now);
    }

    /// Reacts to a demand line fetch the front-end is about to issue.
    fn issue_prefetch(
        &mut self,
        line: LineAddr,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        branch: &mut BranchUnit,
        stats: &mut FtqStats,
    ) {
        let _ = (line, now, mem, branch, stats);
    }

    /// The mechanism's monotone activity counters.
    fn snapshot(&self) -> PrefetcherSnapshot;

    /// Enables or disables the mechanism. While disabled, no hook may
    /// train state or issue a prefetch.
    fn set_enabled(&mut self, enabled: bool);

    /// True when the mechanism is active (the default).
    fn enabled(&self) -> bool;
}

/// Fetch-directed prefetching: the decoupled FTQ run-ahead *is* the
/// prefetcher, so this implementation is a stateless no-op — it exists so
/// the baseline and FDP configurations route through the same seam as
/// everything else.
#[derive(Debug, Default)]
pub struct FdpPrefetcher {
    disabled: bool,
}

impl FdpPrefetcher {
    /// Creates the (stateless) FDP prefetcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InstructionPrefetcher for FdpPrefetcher {
    fn snapshot(&self) -> PrefetcherSnapshot {
        PrefetcherSnapshot::default()
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.disabled = !enabled;
    }

    fn enabled(&self) -> bool {
        !self.disabled
    }
}

/// AsmDB-style software hints with no insertion overhead: when the fill
/// engine walks past a trigger PC, the planted target lines are
/// prefetched immediately (the paper's "AsmDB — No Insertion Overhead"
/// configuration).
pub struct AsmdbHintPrefetcher {
    /// Trigger PC → target lines, shared across the runs of a sweep.
    table: Arc<HintTable>,
    enabled: bool,
    trained: u64,
    issued: u64,
}

impl AsmdbHintPrefetcher {
    /// Wraps a shared hint table (keyed by trigger PC, as built by
    /// [`HintTable::from_pc_map`]).
    pub fn new(table: Arc<HintTable>) -> Self {
        AsmdbHintPrefetcher {
            table,
            enabled: true,
            trained: 0,
            issued: 0,
        }
    }
}

impl InstructionPrefetcher for AsmdbHintPrefetcher {
    fn train_on_fetch(
        &mut self,
        pc: Addr,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        stats: &mut FtqStats,
    ) {
        if !self.enabled {
            return;
        }
        // The table lookup borrows the shared targets slice — no clone.
        if let Some(targets) = self.table.get(pc.raw()) {
            self.trained += 1;
            for t in targets {
                mem.prefetch_instr(t.line(), now);
                stats.swpf_hinted.incr();
                self.issued += 1;
            }
        }
    }

    fn snapshot(&self) -> PrefetcherSnapshot {
        PrefetcherSnapshot {
            trained: self.trained,
            issued: self.issued,
            metadata_requests: 0,
        }
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// The §VI metadata-preloading extension behind the trait seam: an
/// LLC-side table of trigger line → targets, a small L1-side metadata
/// cache (FIFO), and latency-delayed metadata requests.
pub struct PreloadPrefetcher {
    config: PreloadConfig,
    /// The LLC-side table, preloaded at program start. Shared (not
    /// cloned) across the runs of a sweep.
    llc_table: Arc<HintTable>,
    /// The L1-side metadata cache (FIFO over trigger line numbers).
    l1_cache: VecDeque<u64>,
    /// Triggers with an outstanding metadata request: line → ready cycle.
    pending: HashMap<u64, Cycle>,
    /// Reused per-cycle scratch for the drained trigger lines (avoids a
    /// fresh `Vec` allocation on every `tick`).
    ready: Vec<u64>,
    enabled: bool,
    issued: u64,
    metadata_requests: u64,
}

impl PreloadPrefetcher {
    /// Wraps a shared LLC-side table (keyed by trigger line number, as
    /// built by [`HintTable::from_line_map`]).
    pub fn new(table: Arc<HintTable>, config: PreloadConfig) -> Self {
        PreloadPrefetcher {
            config,
            llc_table: table,
            l1_cache: VecDeque::new(),
            pending: HashMap::new(),
            ready: Vec::new(),
            enabled: true,
            issued: 0,
            metadata_requests: 0,
        }
    }
}

impl InstructionPrefetcher for PreloadPrefetcher {
    /// Consults the metadata structures for an L1-I access to `line`: an
    /// L1-side hit fires the prefetches immediately; otherwise a metadata
    /// request is sent to the LLC-side table (if it has an entry).
    fn issue_prefetch(
        &mut self,
        line: LineAddr,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        _branch: &mut BranchUnit,
        stats: &mut FtqStats,
    ) {
        if !self.enabled {
            return;
        }
        let key = line.number();
        if !self.llc_table.contains(key) {
            return;
        }
        if self.l1_cache.contains(&key) {
            stats.preload_l1_hits.incr();
            if let Some(targets) = self.llc_table.get(key) {
                for t in targets {
                    if mem.prefetch_instr(t.line(), now).is_some() {
                        stats.swpf_preloaded.incr();
                        self.issued += 1;
                    }
                }
            }
        } else if !self.pending.contains_key(&key) {
            stats.preload_metadata_requests.incr();
            self.metadata_requests += 1;
            self.pending.insert(key, now + self.config.metadata_latency);
        }
    }

    /// Completes outstanding metadata requests: installs their entries in
    /// the L1-side metadata cache and fires their prefetches.
    fn tick(&mut self, now: Cycle, mem: &mut MemoryHierarchy, stats: &mut FtqStats) {
        if !self.enabled {
            return;
        }
        // Reuse the scratch buffer for the drained lines; the shared
        // table lookup borrows its targets slice — no clones.
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        ready.extend(
            self.pending
                .iter()
                .filter(|&(_, &at)| at <= now)
                .map(|(&l, _)| l),
        );
        ready.sort_unstable();
        for &line in &ready {
            self.pending.remove(&line);
            if self.l1_cache.len() >= self.config.l1_entries {
                self.l1_cache.pop_front();
            }
            self.l1_cache.push_back(line);
            if let Some(targets) = self.llc_table.get(line) {
                for t in targets {
                    if mem.prefetch_instr(t.line(), now).is_some() {
                        stats.swpf_preloaded.incr();
                        self.issued += 1;
                    }
                }
            }
        }
        self.ready = ready;
    }

    /// The earliest outstanding metadata arrival.
    fn next_tick(&self) -> Option<Cycle> {
        if !self.enabled {
            return None;
        }
        self.pending.values().min().copied()
    }

    fn snapshot(&self) -> PrefetcherSnapshot {
        PrefetcherSnapshot {
            trained: 0,
            issued: self.issued,
            metadata_requests: self.metadata_requests,
        }
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Direct-mapped MANA record slot: one observed trigger line and the
/// successor lines recorded behind it.
#[derive(Copy, Clone, Debug)]
struct ManaRecord {
    tag: u64,
    targets: [u64; MANA_TARGETS],
    len: u8,
}

/// An in-flight MANA metadata arrival: the recorded targets, replayable
/// once the metadata latency elapses.
#[derive(Copy, Clone, Debug)]
struct ManaReplay {
    ready: Cycle,
    targets: [u64; MANA_TARGETS],
    len: u8,
}

/// Successor lines recorded per trigger (MANA packs a handful of spatial
/// regions per record; three successors approximates that footprint).
const MANA_TARGETS: usize = 3;
/// Direct-mapped record-table size (power of two).
const MANA_TABLE: usize = 1024;
/// In-flight metadata arrivals tracked at once.
const MANA_REPLAYS: usize = 16;
/// Cycles between a record-table hit and its replay firing, modeling the
/// metadata access.
const MANA_METADATA_LATENCY: Cycle = 24;

/// MANA-style record-and-replay (Ansari et al.): the fill stream trains a
/// record table of line→successor-lines successions; a demand fetch that
/// hits the table replays the recorded successors as prefetches after a
/// metadata access latency.
///
/// All storage is pre-allocated at construction; the per-cycle hooks do
/// not allocate (pinned by the counting-allocator test).
pub struct ManaPrefetcher {
    records: Vec<Option<ManaRecord>>,
    replays: Vec<Option<ManaReplay>>,
    /// The last instruction line the fill engine walked, i.e. the
    /// predecessor of the next observed succession.
    last_line: Option<u64>,
    enabled: bool,
    trained: u64,
    issued: u64,
    metadata_requests: u64,
}

impl Default for ManaPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ManaPrefetcher {
    /// Creates an empty record table (all storage pre-allocated).
    pub fn new() -> Self {
        ManaPrefetcher {
            records: vec![None; MANA_TABLE],
            replays: vec![None; MANA_REPLAYS],
            last_line: None,
            enabled: true,
            trained: 0,
            issued: 0,
            metadata_requests: 0,
        }
    }

    fn slot(line: u64) -> usize {
        (line as usize) & (MANA_TABLE - 1)
    }
}

impl InstructionPrefetcher for ManaPrefetcher {
    /// Records line successions along the fill path: when the walked line
    /// changes, the new line is appended to the record of the previous one.
    fn train_on_fetch(
        &mut self,
        pc: Addr,
        _now: Cycle,
        _mem: &mut MemoryHierarchy,
        _stats: &mut FtqStats,
    ) {
        if !self.enabled {
            return;
        }
        let line = pc.line().number();
        let Some(last) = self.last_line else {
            self.last_line = Some(line);
            return;
        };
        if last == line {
            return;
        }
        self.last_line = Some(line);
        let rec = &mut self.records[Self::slot(last)];
        let rec = match rec {
            Some(r) if r.tag == last => r,
            _ => {
                // Cold or conflicting slot: the new trigger evicts it.
                *rec = Some(ManaRecord {
                    tag: last,
                    targets: [0; MANA_TARGETS],
                    len: 0,
                });
                rec.as_mut().unwrap()
            }
        };
        let known = rec.targets[..rec.len as usize].contains(&line);
        if !known && (rec.len as usize) < MANA_TARGETS {
            rec.targets[rec.len as usize] = line;
            rec.len += 1;
            self.trained += 1;
        }
    }

    /// A demand fetch that hits the record table requests the record's
    /// replay (modeled as a metadata access of fixed latency).
    fn issue_prefetch(
        &mut self,
        line: LineAddr,
        now: Cycle,
        _mem: &mut MemoryHierarchy,
        _branch: &mut BranchUnit,
        stats: &mut FtqStats,
    ) {
        if !self.enabled {
            return;
        }
        let key = line.number();
        let Some(rec) = &self.records[Self::slot(key)] else {
            return;
        };
        if rec.tag != key || rec.len == 0 {
            return;
        }
        // One outstanding replay per trigger; drop when the queue is full
        // (fixed capacity keeps the hook allocation-free).
        let mut free = None;
        for (i, slot) in self.replays.iter().enumerate() {
            match slot {
                Some(r) if r.targets == rec.targets && r.len == rec.len => return,
                None if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        let Some(free) = free else {
            return;
        };
        self.replays[free] = Some(ManaReplay {
            ready: now + MANA_METADATA_LATENCY,
            targets: rec.targets,
            len: rec.len,
        });
        stats.preload_metadata_requests.incr();
        self.metadata_requests += 1;
    }

    /// Fires the prefetches of every replay whose metadata has arrived.
    fn tick(&mut self, now: Cycle, mem: &mut MemoryHierarchy, stats: &mut FtqStats) {
        if !self.enabled {
            return;
        }
        for slot in self.replays.iter_mut() {
            let Some(replay) = slot else {
                continue;
            };
            if replay.ready > now {
                continue;
            }
            for &target in &replay.targets[..replay.len as usize] {
                if mem
                    .prefetch_instr(LineAddr::from_line_number(target), now)
                    .is_some()
                {
                    stats.swpf_preloaded.incr();
                    self.issued += 1;
                }
            }
            *slot = None;
        }
    }

    /// The earliest in-flight replay's arrival.
    fn next_tick(&self) -> Option<Cycle> {
        if !self.enabled {
            return None;
        }
        self.replays.iter().flatten().map(|r| r.ready).min()
    }

    fn snapshot(&self) -> PrefetcherSnapshot {
        PrefetcherSnapshot {
            trained: self.trained,
            issued: self.issued,
            metadata_requests: self.metadata_requests,
        }
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Direct-mapped shadow-branch slot: a branch discovered past a BTB miss,
/// keyed by the line it lives in.
#[derive(Copy, Clone, Debug)]
struct ShadowEntry {
    tag: u64,
    pc: Addr,
    kind: BranchKind,
    target: Addr,
}

/// Direct-mapped shadow-branch table size (power of two).
const SHADOW_TABLE: usize = 512;

/// Shadow-branch BTB pre-fill ("Exposing Shadow Branches"): taken
/// branches the BTB missed are recorded by line; the next demand fetch of
/// that line replays the branch into the BTB ahead of decode and prefetches
/// its target line, so the front-end no longer runs straight past it.
///
/// Entries are consumed on replay — the BTB owns the branch from then on,
/// so a stale shadow copy can never fight later BTB updates.
pub struct ShadowBtbPrefetcher {
    entries: Vec<Option<ShadowEntry>>,
    enabled: bool,
    trained: u64,
    issued: u64,
}

impl Default for ShadowBtbPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowBtbPrefetcher {
    /// Creates an empty shadow table (all storage pre-allocated).
    pub fn new() -> Self {
        ShadowBtbPrefetcher {
            entries: vec![None; SHADOW_TABLE],
            enabled: true,
            trained: 0,
            issued: 0,
        }
    }

    fn slot(line: u64) -> usize {
        (line as usize) & (SHADOW_TABLE - 1)
    }
}

impl InstructionPrefetcher for ShadowBtbPrefetcher {
    /// Records a taken branch the BTB ran past, keyed by its line.
    fn train_on_btb_miss(&mut self, pc: Addr, kind: BranchKind, target: Addr, _now: Cycle) {
        if !self.enabled {
            return;
        }
        let tag = pc.line().number();
        self.entries[Self::slot(tag)] = Some(ShadowEntry {
            tag,
            pc,
            kind,
            target,
        });
        self.trained += 1;
    }

    /// Replays the recorded branch (if any) for a demand-fetched line:
    /// pre-fills the BTB and prefetches the branch target's line.
    fn issue_prefetch(
        &mut self,
        line: LineAddr,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        branch: &mut BranchUnit,
        stats: &mut FtqStats,
    ) {
        if !self.enabled {
            return;
        }
        let key = line.number();
        let slot = &mut self.entries[Self::slot(key)];
        let Some(entry) = slot else {
            return;
        };
        if entry.tag != key {
            return;
        }
        branch.train_btb_from_predecode(entry.pc, entry.kind, entry.target);
        if mem.prefetch_instr(entry.target.line(), now).is_some() {
            stats.swpf_hinted.incr();
            self.issued += 1;
        }
        *slot = None;
    }

    fn snapshot(&self) -> PrefetcherSnapshot {
        PrefetcherSnapshot {
            trained: self.trained,
            issued: self.issued,
            metadata_requests: 0,
        }
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_branch::BranchConfig;
    use swip_cache::HierarchyConfig;

    #[test]
    fn same_cycle_metadata_arrivals_fill_the_l1_fifo_in_line_order() {
        let lines: Vec<u64> = (0..32).map(|i| 0x4000 + i * 3).collect();
        let metadata: HashMap<u64, Vec<Addr>> = lines
            .iter()
            .map(|&l| (l, vec![Addr::new(l << 7)]))
            .collect();
        let table = Arc::new(HintTable::from_line_map(&metadata));
        let mut p = PreloadPrefetcher::new(table, PreloadConfig::default());
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut branch = BranchUnit::new(BranchConfig::default());
        let mut stats = FtqStats::default();
        // All requested in cycle 0, in descending order, so all complete in
        // the same later cycle.
        for &l in lines.iter().rev() {
            let line = LineAddr::from_line_number(l);
            p.issue_prefetch(line, 0, &mut mem, &mut branch, &mut stats);
        }
        p.tick(p.config.metadata_latency, &mut mem, &mut stats);
        assert_eq!(p.l1_cache.iter().copied().collect::<Vec<_>>(), lines);
    }
}
