//! The multi-level memory hierarchy walked by instruction and data requests.

use swip_types::{Counter, Cycle, LineAddr};

use crate::{Cache, CacheStats, HierarchyConfig, Outstanding};

/// The level that satisfied a request.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// First-level cache (L1-I for instruction requests, L1-D for data).
    L1,
    /// Unified second-level cache.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Memory,
}

/// The outcome of a hierarchy access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Cycle at which the requested line is available to the requester.
    pub complete_at: Cycle,
    /// Where the request was satisfied.
    pub level: Level,
    /// True if the request merged with an already-outstanding miss (no new
    /// traffic was generated; `level` reports [`Level::L1`] conventionally).
    pub merged: bool,
}

/// Aggregate hierarchy statistics beyond the per-level cache counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct HierarchyStats {
    /// Instruction fetches satisfied by the L1-I.
    pub instr_l1_hits: Counter,
    /// Instruction fetches satisfied by the L2.
    pub instr_l2_hits: Counter,
    /// Instruction fetches satisfied by the LLC.
    pub instr_llc_hits: Counter,
    /// Instruction fetches that went to memory.
    pub instr_memory: Counter,
    /// Instruction fetches that merged with an in-flight miss.
    pub instr_merged: Counter,
    /// Software/hardware instruction prefetches issued into the hierarchy.
    pub instr_prefetches: Counter,
    /// Data accesses that went past the L1-D.
    pub data_l1_misses: Counter,
}

/// A latency-accurate (tag-only) L1-I/L1-D + L2 + LLC + DRAM hierarchy.
///
/// Every access walks the levels, accumulating each level's latency until it
/// hits, fills the missing levels on the way back, and reports the
/// completion cycle. MSHR files merge requests to in-flight lines and bound
/// the number of outstanding instruction misses, providing the back-pressure
/// that throttles an aggressive FDP engine.
///
/// See the crate docs for an end-to-end example.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    dram_latency: u64,
    i_mshrs: Outstanding,
    d_mshrs: Outstanding,
    stats: HierarchyStats,
    line_profile: Option<std::collections::HashMap<u64, u64>>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from `config`.
    ///
    /// # Panics
    ///
    /// Panics if any level has invalid geometry;
    /// [`MemoryHierarchy::try_new`] is the fallible variant.
    pub fn new(config: HierarchyConfig) -> Self {
        match Self::try_new(config) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the hierarchy from `config`, rejecting invalid geometry with
    /// a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::ConfigError`] from
    /// [`HierarchyConfig::validate`], naming the offending structure.
    pub fn try_new(config: HierarchyConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        Ok(MemoryHierarchy {
            i_mshrs: Outstanding::new(config.l1i.mshrs),
            d_mshrs: Outstanding::new(config.l1d.mshrs),
            l1i: Cache::try_new(config.l1i)?,
            l1d: Cache::try_new(config.l1d)?,
            l2: Cache::try_new(config.l2)?,
            llc: Cache::try_new(config.llc)?,
            dram_latency: config.dram_latency,
            stats: HierarchyStats::default(),
            line_profile: None,
        })
    }

    /// Starts recording per-line L1-I demand-miss counts (the raw input to
    /// AsmDB's profiling stage).
    pub fn enable_line_profile(&mut self) {
        self.line_profile = Some(std::collections::HashMap::new());
    }

    /// Per-line L1-I demand-miss counts (line number → misses); empty unless
    /// [`MemoryHierarchy::enable_line_profile`] was called.
    pub fn line_profile(&self) -> std::collections::HashMap<u64, u64> {
        self.line_profile.clone().unwrap_or_default()
    }

    /// Statistics for the L1 instruction cache.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// Statistics for the L2.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Statistics for the LLC.
    pub fn llc_stats(&self) -> &CacheStats {
        self.llc.stats()
    }

    /// Aggregate hierarchy statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// True if `line` currently resides in the L1-I (inspection helper).
    pub fn l1i_contains(&self, line: LineAddr) -> bool {
        self.l1i.contains(line)
    }

    /// Instruction-side MSHR entries still in flight as of `now`
    /// (inspection helper; entries retire lazily as `now` advances).
    pub fn i_mshrs_in_flight(&mut self, now: Cycle) -> usize {
        self.i_mshrs.len(now)
    }

    /// Walks L2 → LLC → DRAM after an L1 miss, filling on the way back.
    /// Returns the latency beyond the L1 lookup plus the satisfying level.
    fn walk_beyond_l1(&mut self, line: LineAddr, is_prefetch: bool) -> (u64, Level) {
        if self.l2.access(line, is_prefetch) {
            return (self.l2.latency(), Level::L2);
        }
        if self.llc.access(line, is_prefetch) {
            self.l2.fill(line, is_prefetch);
            return (self.l2.latency() + self.llc.latency(), Level::Llc);
        }
        self.llc.fill(line, is_prefetch);
        self.l2.fill(line, is_prefetch);
        (
            self.l2.latency() + self.llc.latency() + self.dram_latency,
            Level::Memory,
        )
    }

    /// Issues a demand instruction fetch for `line` at cycle `now`.
    ///
    /// When the L1-I MSHR file is full the request cannot be issued:
    /// `complete_at` is [`Cycle::MAX`] and the fetch engine must retry on a
    /// later cycle. Otherwise the line is guaranteed present in the L1-I for
    /// subsequent accesses.
    pub fn fetch_instr(&mut self, line: LineAddr, now: Cycle) -> AccessResult {
        if let Some(done) = self.i_mshrs.lookup(line, now) {
            self.stats.instr_merged.incr();
            return AccessResult {
                complete_at: done,
                level: Level::L1,
                merged: true,
            };
        }
        // A miss needs an MSHR; refuse before touching any statistics so a
        // retried request is not double-counted as a demand access.
        if !self.l1i.contains(line) && self.i_mshrs.is_full(now) {
            return AccessResult {
                // MSHR full: the request cannot be issued this cycle. Callers
                // treat `complete_at == Cycle::MAX` as "retry later".
                complete_at: Cycle::MAX,
                level: Level::Memory,
                merged: false,
            };
        }
        if self.l1i.access(line, false) {
            self.stats.instr_l1_hits.incr();
            return AccessResult {
                complete_at: now + self.l1i.latency(),
                level: Level::L1,
                merged: false,
            };
        }
        let (beyond, level) = self.walk_beyond_l1(line, false);
        let done = now + self.l1i.latency() + beyond;
        let allocated = self.i_mshrs.allocate(line, done, now);
        debug_assert!(allocated, "mshr availability was checked above");
        self.l1i.fill(line, false);
        if let Some(profile) = self.line_profile.as_mut() {
            *profile.entry(line.number()).or_insert(0) += 1;
        }
        match level {
            Level::L2 => self.stats.instr_l2_hits.incr(),
            Level::Llc => self.stats.instr_llc_hits.incr(),
            Level::Memory => self.stats.instr_memory.incr(),
            Level::L1 => unreachable!(),
        }
        AccessResult {
            complete_at: done,
            level,
            merged: false,
        }
    }

    /// Issues an instruction prefetch for `line` at cycle `now`.
    ///
    /// Prefetches are dropped (returning `None`) when the MSHR file is full;
    /// they never back-pressure the requester.
    pub fn prefetch_instr(&mut self, line: LineAddr, now: Cycle) -> Option<AccessResult> {
        self.stats.instr_prefetches.incr();
        if let Some(done) = self.i_mshrs.lookup(line, now) {
            return Some(AccessResult {
                complete_at: done,
                level: Level::L1,
                merged: true,
            });
        }
        // Dropped prefetches must not perturb any cache state or statistics.
        if !self.l1i.contains(line) && self.i_mshrs.is_full(now) {
            return None;
        }
        if self.l1i.access(line, true) {
            return Some(AccessResult {
                complete_at: now + self.l1i.latency(),
                level: Level::L1,
                merged: false,
            });
        }
        let (beyond, level) = self.walk_beyond_l1(line, true);
        let done = now + self.l1i.latency() + beyond;
        let allocated = self.i_mshrs.allocate(line, done, now);
        debug_assert!(allocated, "mshr availability was checked above");
        self.l1i.fill(line, true);
        Some(AccessResult {
            complete_at: done,
            level,
            merged: false,
        })
    }

    /// Issues a data access (load or store) for `line` at cycle `now`.
    ///
    /// Data requests always succeed; a full L1-D MSHR file adds one L1 round
    /// trip of penalty rather than refusing (the backend model does not
    /// replay).
    pub fn access_data(&mut self, line: LineAddr, now: Cycle) -> AccessResult {
        if let Some(done) = self.d_mshrs.lookup(line, now) {
            return AccessResult {
                complete_at: done,
                level: Level::L1,
                merged: true,
            };
        }
        if self.l1d.access(line, false) {
            return AccessResult {
                complete_at: now + self.l1d.latency(),
                level: Level::L1,
                merged: false,
            };
        }
        self.stats.data_l1_misses.incr();
        let (beyond, level) = self.walk_beyond_l1(line, false);
        let full_penalty = if self.d_mshrs.len(now) >= 16 {
            self.l1d.latency()
        } else {
            0
        };
        let done = now + self.l1d.latency() + beyond + full_penalty;
        let _ = self.d_mshrs.allocate(line, done, now);
        self.l1d.fill(line, false);
        AccessResult {
            complete_at: done,
            level,
            merged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn cold_miss_pays_full_latency_then_hits() {
        let mut m = mem();
        let cfg = HierarchyConfig::tiny();
        let r = m.fetch_instr(line(1), 0);
        assert_eq!(r.level, Level::Memory);
        assert_eq!(
            r.complete_at,
            cfg.l1i.latency + cfg.l2.latency + cfg.llc.latency + cfg.dram_latency
        );
        let r2 = m.fetch_instr(line(1), r.complete_at);
        assert_eq!(r2.level, Level::L1);
        assert_eq!(r2.complete_at, r.complete_at + cfg.l1i.latency);
    }

    #[test]
    fn merge_with_inflight_miss() {
        let mut m = mem();
        let r1 = m.fetch_instr(line(1), 0);
        let r2 = m.fetch_instr(line(1), 1);
        assert!(r2.merged);
        assert_eq!(r2.complete_at, r1.complete_at);
        assert_eq!(m.stats().instr_merged.get(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = mem();
        // Fill L1I (4 KiB = 64 lines) far past capacity; early lines fall to L2.
        for n in 0..256 {
            let r = m.fetch_instr(line(n), n * 1000);
            assert!(!r.merged);
        }
        let t = 10_000_000;
        let r = m.fetch_instr(line(0), t);
        assert!(
            r.level == Level::L2 || r.level == Level::Llc,
            "expected inner-cache hit, got {:?}",
            r.level
        );
        assert!(r.complete_at < t + HierarchyConfig::tiny().worst_case_latency());
    }

    #[test]
    fn mshr_exhaustion_backpressures_fetch() {
        let mut m = mem(); // 4 L1-I MSHRs
        for n in 0..4 {
            assert!(m.fetch_instr(line(n * 100), 0).complete_at < Cycle::MAX);
        }
        let blocked = m.fetch_instr(line(999), 0);
        assert_eq!(blocked.complete_at, Cycle::MAX);
        // Once earlier misses retire, the request can issue.
        let later = m.fetch_instr(line(999), 1000);
        assert!(later.complete_at < Cycle::MAX);
    }

    #[test]
    fn prefetch_fills_l1i() {
        let mut m = mem();
        let r = m.prefetch_instr(line(7), 0).unwrap();
        assert_eq!(r.level, Level::Memory);
        assert!(m.l1i_contains(line(7)));
        // Demand fetch before completion merges with the prefetch.
        let d = m.fetch_instr(line(7), 1);
        assert!(d.merged);
        assert_eq!(d.complete_at, r.complete_at);
    }

    #[test]
    fn prefetch_dropped_when_mshrs_full() {
        let mut m = mem();
        for n in 0..4 {
            m.fetch_instr(line(n * 100), 0);
        }
        assert!(m.prefetch_instr(line(999), 0).is_none());
    }

    #[test]
    fn data_path_independent_of_instruction_path() {
        let mut m = mem();
        let r = m.access_data(line(5), 0);
        assert_eq!(r.level, Level::Memory);
        assert!(!m.l1i_contains(line(5)));
        let r2 = m.access_data(line(5), r.complete_at + 1);
        assert_eq!(r2.level, Level::L1);
    }

    #[test]
    fn instr_level_counters_sum_to_fetches() {
        let mut m = mem();
        for n in 0..10 {
            m.fetch_instr(line(n), n * 1000);
        }
        let s = m.stats();
        assert_eq!(
            s.instr_l1_hits.get()
                + s.instr_l2_hits.get()
                + s.instr_llc_hits.get()
                + s.instr_memory.get()
                + s.instr_merged.get(),
            10
        );
    }
}
