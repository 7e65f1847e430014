//! A tag-only set-associative cache.

use swip_types::{Counter, LineAddr, Ratio};

use crate::CacheConfig;
#[cfg(test)]
use crate::ReplacementKind;

/// One way of one set: tag, replacement metadata, and the prefetched bit
/// (folded in so the hot path touches a single contiguous array).
///
/// Shared with [`crate::ReplacementKind`], whose victim selection operates
/// on a borrowed set slice in place — no per-fill scratch allocation.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Way {
    pub(crate) tag: u64,
    pub(crate) meta: u64,
    pub(crate) valid: bool,
    pub(crate) prefetched: bool,
}

impl Way {
    pub(crate) const EMPTY: Way = Way {
        tag: 0,
        meta: 0,
        valid: false,
        prefetched: false,
    };
}

/// Per-level access statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Demand accesses (hit or miss).
    pub demand: Ratio,
    /// Prefetch accesses (hit or miss).
    pub prefetch: Ratio,
    /// Lines evicted to make room for fills.
    pub evictions: Counter,
    /// Fills whose line was first brought in by a prefetch and hit by demand
    /// before eviction (useful prefetches).
    pub useful_prefetches: Counter,
}

impl CacheStats {
    /// Demand misses per `per` of `denom` (e.g. MPKI with `denom` =
    /// instructions, `per` = 1000).
    pub fn demand_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.demand.misses() as f64 * 1000.0 / instructions as f64
        }
    }
}

/// A tag-only set-associative cache with pluggable replacement.
///
/// Data values are never stored — the simulator only needs presence and
/// timing. Fills track whether the line arrived via prefetch so prefetch
/// usefulness can be reported.
///
/// # Examples
///
/// ```
/// use swip_types::Addr;
/// use swip_cache::{Cache, CacheConfig, ReplacementKind};
///
/// let mut c = Cache::new(CacheConfig::with_capacity_kib(
///     "L1I", 4, 4, 2, 4, ReplacementKind::Lru,
/// ));
/// let line = Addr::new(0x80).line();
/// assert!(!c.access(line, false));
/// c.fill(line, false);
/// assert!(c.access(line, false));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// All ways of all sets in one contiguous allocation, indexed by
    /// `set * config.ways + way` — one cache line of `Way`s per lookup
    /// instead of a pointer chase through nested `Vec`s.
    ways: Vec<Way>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates a cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two or `config.ways` is 0;
    /// [`Cache::try_new`] is the fallible variant.
    pub fn new(config: CacheConfig) -> Self {
        match Self::try_new(config) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a cache from `config`, rejecting invalid geometry with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::ConfigError`] from [`CacheConfig::validate`].
    pub fn try_new(config: CacheConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        // `validate` guarantees `sets * ways` fits in `usize` (checked in
        // u64 space), so the flat index below can never truncate.
        Ok(Cache {
            ways: vec![Way::EMPTY; config.sets * config.ways],
            config,
            stats: CacheStats::default(),
            tick: 0,
        })
    }

    /// The configuration of this level.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Hit latency of this level.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    fn index_and_tag(&self, line: LineAddr) -> (usize, u64) {
        let n = line.number();
        let idx = (n & (self.config.sets as u64 - 1)) as usize;
        (idx, n >> self.config.sets.trailing_zeros())
    }

    /// The ways of set `idx` as a contiguous slice.
    fn set(&self, idx: usize) -> &[Way] {
        let base = idx * self.config.ways;
        &self.ways[base..base + self.config.ways]
    }

    /// The ways of set `idx` as a contiguous mutable slice.
    fn set_mut(&mut self, idx: usize) -> &mut [Way] {
        let base = idx * self.config.ways;
        &mut self.ways[base..base + self.config.ways]
    }

    /// Performs a (demand or prefetch) lookup, updating replacement and
    /// statistics. Returns `true` on hit.
    pub fn access(&mut self, line: LineAddr, is_prefetch: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.config.replacement;
        let (idx, tag) = self.index_and_tag(line);
        let mut hit = false;
        let mut useful = false;
        for way in self.set_mut(idx) {
            if way.valid && way.tag == tag {
                policy.on_hit(&mut way.meta, tick);
                hit = true;
                if !is_prefetch && way.prefetched {
                    useful = true;
                    way.prefetched = false;
                }
                break;
            }
        }
        if useful {
            self.stats.useful_prefetches.incr();
        }
        if is_prefetch {
            self.stats.prefetch.record(hit);
        } else {
            self.stats.demand.record(hit);
        }
        hit
    }

    /// Checks for presence without touching replacement or statistics.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (idx, tag) = self.index_and_tag(line);
        self.set(idx).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs `line`, evicting if necessary. Returns the evicted line.
    /// Filling a line that is already present refreshes it in place.
    pub fn fill(&mut self, line: LineAddr, via_prefetch: bool) -> Option<LineAddr> {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.config.replacement;
        let (idx, tag) = self.index_and_tag(line);
        let set_bits = self.config.sets.trailing_zeros();
        let set = {
            let base = idx * self.config.ways;
            &mut self.ways[base..base + self.config.ways]
        };

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            policy.on_hit(&mut way.meta, tick);
            way.prefetched = via_prefetch && way.prefetched;
            return None;
        }

        // Prefer an invalid way.
        if let Some(way) = set.iter_mut().find(|w| !w.valid) {
            *way = Way {
                tag,
                meta: policy.on_fill(tick),
                valid: true,
                prefetched: via_prefetch,
            };
            return None;
        }

        // Victim selection runs in place on the borrowed set slice (SRRIP
        // ages metadata there as a side effect) — nothing is allocated.
        let victim = policy.victim(set);
        let evicted_tag = set[victim].tag;
        let evicted = LineAddr::from_line_number((evicted_tag << set_bits) | idx as u64);
        set[victim] = Way {
            tag,
            meta: policy.on_fill(tick),
            valid: true,
            prefetched: via_prefetch,
        };
        self.stats.evictions.incr();
        Some(evicted)
    }

    /// Number of currently valid lines (test/inspection helper).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(replacement: ReplacementKind) -> Cache {
        Cache::new(CacheConfig {
            name: "t".into(),
            sets: 2,
            ways: 2,
            latency: 1,
            mshrs: 4,
            replacement,
        })
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small(ReplacementKind::Lru);
        assert!(!c.access(line(0), false));
        assert_eq!(c.fill(line(0), false), None);
        assert!(c.access(line(0), false));
        assert_eq!(c.stats().demand.hits(), 1);
        assert_eq!(c.stats().demand.misses(), 1);
    }

    #[test]
    fn eviction_returns_correct_line_address() {
        let mut c = small(ReplacementKind::Lru);
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.fill(line(0), false);
        c.fill(line(2), false);
        c.access(line(0), false); // refresh 0 -> 2 is LRU
        let evicted = c.fill(line(4), false);
        assert_eq!(evicted, Some(line(2)));
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn refill_of_present_line_does_not_evict() {
        let mut c = small(ReplacementKind::Lru);
        c.fill(line(0), false);
        c.fill(line(2), false);
        assert_eq!(c.fill(line(0), false), None);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn useful_prefetch_accounting() {
        let mut c = small(ReplacementKind::Lru);
        c.fill(line(0), true);
        assert!(c.access(line(0), false));
        assert_eq!(c.stats().useful_prefetches.get(), 1);
        // Second demand hit no longer counts it.
        c.access(line(0), false);
        assert_eq!(c.stats().useful_prefetches.get(), 1);
    }

    #[test]
    fn prefetch_accesses_counted_separately() {
        let mut c = small(ReplacementKind::Lru);
        c.access(line(9), true);
        assert_eq!(c.stats().prefetch.total(), 1);
        assert_eq!(c.stats().demand.total(), 0);
    }

    #[test]
    fn srrip_cache_works_end_to_end() {
        let mut c = small(ReplacementKind::Srrip);
        for n in 0..8 {
            c.fill(line(n), false);
        }
        assert_eq!(c.occupancy(), 4); // 2 sets x 2 ways
    }

    #[test]
    fn mpki_helper() {
        let mut c = small(ReplacementKind::Lru);
        c.access(line(0), false); // miss
        assert_eq!(c.stats().demand_mpki(1000), 1.0);
        assert_eq!(c.stats().demand_mpki(0), 0.0);
    }
}
