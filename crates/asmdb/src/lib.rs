//! AsmDB-style software instruction prefetching for `swip-fe`.
//!
//! This crate reimplements the pipeline the paper evaluates: the
//! state-of-the-art software instruction prefetcher **AsmDB** (Ayers et al.,
//! ISCA'19), as modeled by Chacon et al. on a trace-based simulator:
//!
//! 1. **Profile** — run the trace once and collect per-line L1-I miss
//!    counts, the achieved IPC, and basic-block behavior
//!    ([`swip_core::SimReport`] with `collect_line_profile`).
//! 2. **CFG reconstruction** ([`Cfg`]) — recover basic blocks and weighted
//!    control-flow edges from the dynamic trace, exactly as the paper does
//!    ("We use these results to recreate the application's CFG").
//! 3. **Target selection** ([`select_targets`]) — rank miss lines by miss
//!    count and keep the high-impact ones.
//! 4. **Insertion-site selection** ([`plan_insertions`]) — walk the CFG
//!    backward from each target; a candidate block is eligible when its
//!    distance (in instructions) lies between the *minimum distance*
//!    (IPC × LLC round-trip latency) and the *window*, and its *fanout*
//!    (probability that execution from the candidate reaches the target
//!    within the window) clears the threshold.
//! 5. **Rewrite** ([`rewrite_trace`]) — produce a new trace with
//!    `prefetch.i` instructions appended to the chosen blocks, shifting all
//!    later static addresses (code bloat) and remapping branch targets; or
//!    produce no-overhead hints ([`Plan::to_hints`]) for the idealized
//!    configurations.
//!
//! [`Asmdb`] packages the whole pipeline.
//!
//! # Examples
//!
//! ```
//! use swip_asmdb::{Asmdb, AsmdbConfig};
//! use swip_core::SimConfig;
//! use swip_trace::TraceBuilder;
//! use swip_types::Addr;
//!
//! // A trivially small trace: the pipeline runs end to end even when there
//! // is nothing worth prefetching.
//! let mut b = TraceBuilder::new("demo");
//! for _ in 0..64 { b.alu(); }
//! let trace = b.finish();
//!
//! let asmdb = Asmdb::new(AsmdbConfig::default());
//! let out = asmdb.run(&trace, &SimConfig::test_scale());
//! assert!(out.report.dynamic_bloat >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg;
mod pipeline;
mod plan;
mod rewrite;
mod select;

pub use cfg::{BlockId, Cfg, CfgBlock};
pub use pipeline::{Asmdb, AsmdbConfig, AsmdbOutput};
pub use plan::{Insertion, Plan};
pub use rewrite::{rewrite_trace, RewriteReport, ShiftMap};
pub use select::{plan_insertions, select_targets, MissTarget};
