//! Cache and hierarchy configuration.

use std::fmt;

use swip_types::CACHE_LINE_SIZE;

use crate::ReplacementKind;

/// A typed rejection of an invalid cache geometry.
///
/// Set indices are computed with `line & (sets - 1)`, so a non-power-of-two
/// set count silently aliases distinct sets instead of failing — every
/// constructor in this crate therefore validates geometry up front and
/// reports the offending structure by name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// The set count is zero or not a power of two.
    NonPowerOfTwoSets {
        /// Structure name (`L1I`, `L2`, …).
        name: String,
        /// The rejected set count.
        sets: usize,
    },
    /// The associativity is zero.
    ZeroWays {
        /// Structure name.
        name: String,
    },
    /// A capacity/associativity pair yields a non-power-of-two set count.
    BadCapacity {
        /// Structure name.
        name: String,
        /// Requested capacity in KiB.
        capacity_kib: usize,
        /// Requested associativity.
        ways: usize,
        /// The set count the pair works out to.
        sets: usize,
    },
    /// A sampling stride of zero (e.g. the scenario timeline's cycle
    /// stride): every downstream consumer divides or steps by the stride,
    /// so zero must be rejected as configuration, not normalized at use.
    ZeroStride {
        /// Structure name (`timeline`, …).
        name: String,
    },
    /// `sets * ways` does not fit the platform's `usize`: the flat backing
    /// store (one contiguous `Vec` indexed by `set * ways + way`) could not
    /// be addressed without truncation.
    CapacityOverflow {
        /// Structure name.
        name: String,
        /// The rejected set count.
        sets: usize,
        /// The rejected associativity.
        ways: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPowerOfTwoSets { name, sets } => write!(
                f,
                "{name}: set count {sets} is not a positive power of two \
                 (indexing would alias sets)"
            ),
            ConfigError::ZeroWays { name } => {
                write!(f, "{name}: associativity must be nonzero")
            }
            ConfigError::BadCapacity {
                name,
                capacity_kib,
                ways,
                sets,
            } => write!(
                f,
                "{name}: capacity {capacity_kib} KiB / {ways} ways gives \
                 non-power-of-two set count {sets}"
            ),
            ConfigError::ZeroStride { name } => {
                write!(f, "{name}: sampling stride must be positive (got 0)")
            }
            ConfigError::CapacityOverflow { name, sets, ways } => write!(
                f,
                "{name}: {sets} sets x {ways} ways overflows the flat \
                 backing store's address space"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Total way-slot count of a `sets × ways` geometry, computed in u64 space.
///
/// Returns `None` when the product overflows u64 or does not fit the
/// platform's `usize` (possible on 32-bit targets, where `usize` math on
/// the operands would silently truncate before the comparison). The flat
/// cache backing store indexes by `set * ways + way`, so any geometry
/// accepted here is guaranteed addressable without wrap-around.
pub(crate) fn flat_slots(sets: usize, ways: usize) -> Option<usize> {
    let slots = (sets as u64).checked_mul(ways as u64)?;
    if slots > usize::MAX as u64 {
        return None;
    }
    Some(slots as usize)
}

/// Geometry and timing of one cache level.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Human-readable level name (appears in reports).
    pub name: String,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Cycles added when a request is satisfied at this level (beyond the
    /// cycles already spent reaching it).
    pub latency: u64,
    /// Maximum outstanding misses (MSHR count); `0` means unlimited.
    pub mshrs: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Creates a config sized by capacity in KiB instead of set count.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a positive power of two;
    /// [`CacheConfig::try_with_capacity_kib`] is the fallible variant.
    pub fn with_capacity_kib(
        name: impl Into<String>,
        capacity_kib: usize,
        ways: usize,
        latency: u64,
        mshrs: usize,
        replacement: ReplacementKind,
    ) -> Self {
        match Self::try_with_capacity_kib(name, capacity_kib, ways, latency, mshrs, replacement) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a config sized by capacity in KiB, rejecting geometries whose
    /// set count would not be a positive power of two.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadCapacity`] (or [`ConfigError::ZeroWays`])
    /// instead of panicking deep inside construction, so callers like
    /// `swip bench` can exit with a message rather than a backtrace.
    pub fn try_with_capacity_kib(
        name: impl Into<String>,
        capacity_kib: usize,
        ways: usize,
        latency: u64,
        mshrs: usize,
        replacement: ReplacementKind,
    ) -> Result<Self, ConfigError> {
        let name = name.into();
        if ways == 0 {
            return Err(ConfigError::ZeroWays { name });
        }
        let lines = capacity_kib * 1024 / CACHE_LINE_SIZE as usize;
        let sets = lines / ways;
        if sets == 0 || !sets.is_power_of_two() {
            return Err(ConfigError::BadCapacity {
                name,
                capacity_kib,
                ways,
                sets,
            });
        }
        Ok(CacheConfig {
            name,
            sets,
            ways,
            latency,
            mshrs,
            replacement,
        })
    }

    /// Validates the geometry: positive power-of-two sets, nonzero ways.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming this level on invalid geometry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(ConfigError::NonPowerOfTwoSets {
                name: self.name.clone(),
                sets: self.sets,
            });
        }
        if self.ways == 0 {
            return Err(ConfigError::ZeroWays {
                name: self.name.clone(),
            });
        }
        if flat_slots(self.sets, self.ways).is_none() {
            return Err(ConfigError::CapacityOverflow {
                name: self.name.clone(),
                sets: self.sets,
                ways: self.ways,
            });
        }
        Ok(())
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * CACHE_LINE_SIZE as usize
    }
}

/// Configuration for the full memory hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// Cycles added by a DRAM access (after missing the LLC).
    pub dram_latency: u64,
}

impl HierarchyConfig {
    /// A Sunny-Cove-like hierarchy matching the paper's Table I scale:
    /// 32 KiB/8-way L1-I (4-cycle), 48 KiB/12-way L1-D (5-cycle),
    /// 512 KiB/8-way L2 (+10), 2 MiB/16-way LLC (+20), 200-cycle DRAM.
    pub fn sunny_cove_like() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::with_capacity_kib("L1I", 32, 8, 4, 8, ReplacementKind::Lru),
            l1d: CacheConfig::with_capacity_kib("L1D", 48, 12, 5, 16, ReplacementKind::Lru),
            l2: CacheConfig::with_capacity_kib("L2", 512, 8, 10, 32, ReplacementKind::Lru),
            llc: CacheConfig::with_capacity_kib("LLC", 2048, 16, 20, 64, ReplacementKind::Srrip),
            dram_latency: 200,
        }
    }

    /// A small hierarchy for fast tests: 4 KiB L1s, 16 KiB L2, 64 KiB LLC.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::with_capacity_kib("L1I", 4, 4, 2, 4, ReplacementKind::Lru),
            l1d: CacheConfig::with_capacity_kib("L1D", 4, 4, 2, 4, ReplacementKind::Lru),
            l2: CacheConfig::with_capacity_kib("L2", 16, 4, 6, 8, ReplacementKind::Lru),
            llc: CacheConfig::with_capacity_kib("LLC", 64, 8, 12, 16, ReplacementKind::Srrip),
            dram_latency: 60,
        }
    }

    /// Total round-trip latency of a request that misses every level.
    pub fn worst_case_latency(&self) -> u64 {
        self.l1i.latency + self.l2.latency + self.llc.latency + self.dram_latency
    }

    /// Latency of a request satisfied by the LLC (the distance heuristic
    /// AsmDB multiplies by IPC).
    pub fn llc_round_trip(&self) -> u64 {
        self.l1i.latency + self.l2.latency + self.llc.latency
    }

    /// Validates every level.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`], naming the offending structure.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2.validate()?;
        self.llc.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_sizing() {
        let c = CacheConfig::with_capacity_kib("L1I", 32, 8, 4, 8, ReplacementKind::Lru);
        assert_eq!(c.sets, 64);
        assert_eq!(c.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "non-power-of-two")]
    fn bad_geometry_panics() {
        let _ = CacheConfig::with_capacity_kib("x", 48, 8, 4, 8, ReplacementKind::Lru);
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        // Regression: 48 KiB / 8 ways = 96 sets used to panic deep inside
        // construction; the fallible path names the level and the numbers.
        let err = CacheConfig::try_with_capacity_kib("L2", 48, 8, 4, 8, ReplacementKind::Lru)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadCapacity {
                name: "L2".into(),
                capacity_kib: 48,
                ways: 8,
                sets: 96
            }
        );
        assert!(err.to_string().contains("L2"), "{err}");
        let err =
            CacheConfig::try_with_capacity_kib("x", 32, 0, 4, 8, ReplacementKind::Lru).unwrap_err();
        assert_eq!(err, ConfigError::ZeroWays { name: "x".into() });
    }

    #[test]
    fn validate_rejects_aliasing_set_counts() {
        let mut c = CacheConfig::with_capacity_kib("L1I", 32, 8, 4, 8, ReplacementKind::Lru);
        assert_eq!(c.validate(), Ok(()));
        c.sets = 96;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPowerOfTwoSets {
                name: "L1I".into(),
                sets: 96
            })
        );
    }

    #[test]
    fn hierarchy_validate_names_the_offending_level() {
        let mut h = HierarchyConfig::sunny_cove_like();
        assert_eq!(h.validate(), Ok(()));
        h.l2.sets = 12;
        let err = h.validate().unwrap_err();
        assert!(err.to_string().contains("L2"), "{err}");
    }

    #[test]
    fn flat_capacity_math_survives_the_32_bit_boundary() {
        // Regression (mirrors the PR 3 fill-cursor test): the flat backing
        // store is indexed by `set * ways + way`. Computing the slot count
        // in `usize` space truncates on a 32-bit target once `sets * ways`
        // crosses 2^32, which would wrap indices back into bounds and alias
        // distinct sets. `flat_slots` multiplies in u64 space and rejects
        // anything `usize` cannot address; exercise the boundary values.
        assert_eq!(flat_slots(64, 8), Some(512));
        assert_eq!(flat_slots(1, 1), Some(1));
        // 2^31 x 4 = 2^33: representable in u64 on every target; a 32-bit
        // `usize` multiply would truncate it to 0.
        let big = 1usize << 31;
        match flat_slots(big, 4) {
            Some(slots) => assert_eq!(slots as u64, 1u64 << 33), // 64-bit host
            None => assert!((usize::MAX as u64) < (1u64 << 33)), // 32-bit host
        }
        // 2^62 x 4 = 2^64 overflows even u64's checked multiply.
        assert_eq!(flat_slots(1usize << 62, 4), None);
        assert_eq!(flat_slots(usize::MAX, 2), None);

        // `validate` surfaces the rejection as a typed error.
        let mut c = CacheConfig::with_capacity_kib("L1I", 32, 8, 4, 8, ReplacementKind::Lru);
        c.sets = 1usize << 62;
        c.ways = 4;
        assert_eq!(
            c.validate(),
            Err(ConfigError::CapacityOverflow {
                name: "L1I".into(),
                sets: 1usize << 62,
                ways: 4
            })
        );
    }

    #[test]
    fn sunny_cove_shape() {
        let h = HierarchyConfig::sunny_cove_like();
        assert_eq!(h.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(h.l1d.capacity_bytes(), 48 * 1024);
        assert_eq!(h.llc.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(h.worst_case_latency(), 4 + 10 + 20 + 200);
        assert_eq!(h.llc_round_trip(), 34);
    }
}
