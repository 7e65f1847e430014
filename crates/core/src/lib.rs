//! The `swip-fe` cycle-level core simulator and characterization API.
//!
//! This is the workspace's primary crate: it binds the decoupled front-end
//! ([`swip_frontend`]), the branch-prediction complex ([`swip_branch`]) and
//! the memory hierarchy ([`swip_cache`]) to an out-of-order-lite backend and
//! runs instruction traces through the whole pipeline, producing a
//! [`SimReport`] with every statistic the paper's figures are built from.
//!
//! The model is the paper's: a Sunny-Cove-like superscalar core whose
//! front-end implements aggressive fetch-directed prefetching with a
//! configurable FTQ depth (2-entry conservative vs. 24-entry
//! industry-standard), evaluated trace-driven over 48 workloads.
//!
//! # Quick start
//!
//! ```
//! use swip_core::{SimConfig, Simulator};
//! use swip_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new("demo");
//! for _ in 0..1000 { b.alu(); }
//! let trace = b.finish();
//!
//! let report = Simulator::new(SimConfig::test_scale()).run(&trace);
//! assert!(report.completed);
//! assert!(report.ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod report;
mod simulator;

pub use backend::{Backend, BackendConfig, BackendStats, ResolvedBranch};
pub use config::SimConfig;
pub use report::SimReport;
pub use simulator::Simulator;
pub use swip_cache::ConfigError;
// Re-exported so `SimConfig::timeline` is configurable (and the resulting
// `SimReport::timeline` consumable) without a direct swip-frontend dep.
pub use swip_frontend::{HintTable, TimelineConfig, TimelineSample};

// The bench crate's parallel experiment engine shares `Simulator`s and
// `SimConfig`s across worker threads; keep them (and everything a job
// returns) thread-safe by construction. A non-`Send` field added anywhere
// in the simulator tree fails compilation here, not at the first parallel
// run.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
    assert_send_sync::<SimConfig>();
    assert_send_sync::<SimReport>();
};
