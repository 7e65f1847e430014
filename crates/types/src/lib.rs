//! Common vocabulary types for the `swip-fe` front-end characterization suite.
//!
//! This crate defines the datatypes shared by every other crate in the
//! workspace: virtual [`Addr`]esses and cache-[`LineAddr`]esses, the dynamic
//! [`Instruction`] model consumed by the simulator, architectural registers,
//! and small counting utilities used by statistics reporting.
//!
//! The types here are deliberately plain — they are the "ISA" of the
//! simulator. All behavior (prediction, caching, fetch) lives in the
//! downstream crates.
//!
//! # Examples
//!
//! ```
//! use swip_types::{Addr, Instruction};
//!
//! let i = Instruction::cond_branch(Addr::new(0x1000), Addr::new(0x2000), true);
//! assert!(i.is_branch());
//! assert_eq!(i.pc.line().base(), Addr::new(0x1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod fingerprint;
mod instr;
mod inthash;
mod prefetcher;
mod reg;
mod stats;

pub use addr::{Addr, LineAddr, CACHE_LINE_SIZE};
pub use fingerprint::Fnv1a;
pub use instr::{BranchKind, InstrKind, Instruction};
pub use inthash::{IntHasher, IntMap, IntSet};
pub use prefetcher::{PrefetcherId, PrefetcherParseError};
pub use reg::Reg;
pub use stats::{geomean, Counter, Ratio, RunningMean};

/// A simulator cycle count.
///
/// Cycles are monotonically increasing and start at zero when a simulation
/// begins. A plain integer alias keeps arithmetic ergonomic across crates.
pub type Cycle = u64;

/// A dynamic-instruction sequence number.
///
/// Assigned in trace order; used to enforce in-order decode/retire.
pub type SeqNum = u64;
