//! Cache and memory-hierarchy model for `swip-fe`.
//!
//! The simulator's memory system is a tag-only, latency-accurate model of a
//! ChampSim-style hierarchy: per-level set-associative [`Cache`]s with
//! pluggable replacement ([`ReplacementKind`]), miss-status holding registers
//! ([`Outstanding`]) that merge requests to in-flight lines, and a
//! [`MemoryHierarchy`] that walks L1 → L2 → LLC → DRAM and reports the cycle
//! at which a request completes.
//!
//! Bandwidth contention inside the memory controllers is not modeled (the
//! paper's characterization depends on *latency* structure — which FTQ entry
//! stalls, and for how long — not on DRAM scheduling).
//!
//! # Examples
//!
//! ```
//! use swip_types::Addr;
//! use swip_cache::{HierarchyConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::sunny_cove_like());
//! let line = Addr::new(0x4000).line();
//! let first = mem.fetch_instr(line, 0);
//! assert!(first.complete_at > 0); // cold miss goes to DRAM
//! let again = mem.fetch_instr(line, first.complete_at + 1);
//! assert!(again.complete_at - (first.complete_at + 1) < first.complete_at); // now an L1-I hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod outstanding;
mod replacement;

pub use cache::{Cache, CacheStats};
pub use config::{CacheConfig, ConfigError, HierarchyConfig};
pub use hierarchy::{AccessResult, HierarchyStats, Level, MemoryHierarchy};
pub use outstanding::Outstanding;
pub use replacement::ReplacementKind;
