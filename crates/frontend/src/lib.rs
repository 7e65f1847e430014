//! The decoupled, fetch-directed-prefetching front-end model.
//!
//! This crate implements the paper's simulation subject: an
//! industry-standard FDP front-end in the style of Ishii et al. (ISPASS'21),
//! as modified by Chacon et al. for their characterization. The moving
//! parts:
//!
//! * a [`Ftq`] (fetch target queue) of basic-block entries (≤ 8
//!   instructions each) filled speculatively by the branch-prediction unit;
//! * out-of-order issue of the FTQ entries' cache-line fetches to the L1-I,
//!   with merging of requests to lines already tracked by the FTQ
//!   (the "positive aliasing" that gives deeper FTQs fewer L1-I accesses);
//! * strictly in-order promotion of fetched instructions to decode;
//! * post-fetch correction: taken branches the BTB did not know about are
//!   discovered when their block's line arrives and redirect the fill engine
//!   without waiting for execute;
//! * the paper's FTQ-state taxonomy (Scenarios 1/2/3) measured per cycle,
//!   plus every per-figure counter (head stalls, waiting entries, partially
//!   covered entries, head vs non-head fetch latency).
//!
//! The front-end is trace-driven and correct-path-only: a misprediction
//! stops FTQ fill until the branch resolves (or pre-decode corrects it)
//! rather than fetching wrong-path instructions. This matches the ChampSim
//! methodology the paper uses.
//!
//! # Examples
//!
//! ```
//! use swip_trace::TraceBuilder;
//! use swip_types::Addr;
//! use swip_cache::{HierarchyConfig, MemoryHierarchy};
//! use swip_frontend::{Frontend, FrontendConfig};
//!
//! let mut b = TraceBuilder::new("tiny");
//! for _ in 0..32 { b.alu(); }
//! let trace = b.finish();
//!
//! let mut fe = Frontend::new(FrontendConfig::industry_standard());
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
//! let mut decoded = Vec::new();
//! let mut now = 0;
//! while !fe.is_done(&trace) && now < 10_000 {
//!     fe.cycle(now, &trace, &mut mem, usize::MAX, &mut decoded);
//!     now += 1;
//! }
//! assert_eq!(decoded.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod entangling;
mod entry;
mod frontend;
mod hints;
mod prefetch;
mod stats;
mod timeline;

pub use config::{FrontendConfig, PreloadConfig};
pub use entangling::EntanglingPrefetcher;
pub use entry::{FtqEntry, LineState};
pub use frontend::{DecodedInstr, Frontend, Ftq};
pub use hints::HintTable;
pub use prefetch::{
    AsmdbHintPrefetcher, FdpPrefetcher, InstructionPrefetcher, ManaPrefetcher, NextLinePrefetcher,
    PreloadPrefetcher, ShadowBtbPrefetcher,
};
pub use stats::{FtqStats, Scenario};
pub use timeline::{ScenarioTimeline, TimelineConfig, TimelineSample};
