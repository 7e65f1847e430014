//! Branch prediction structures for the `swip-fe` decoupled front-end.
//!
//! Fetch-directed prefetching (FDP) relies on the branch-prediction
//! structures to run ahead of fetch: the branch target buffer ([`Btb`])
//! discovers where branches are, the direction predictors
//! ([`Gshare`], [`HashedPerceptron`], [`TageLite`]) decide conditional
//! outcomes, the return-address stack ([`Ras`]) supplies return targets, and
//! the [`IndirectPredictor`] supplies register-indirect targets. The
//! [`GlobalHistory`] register threads path context through the predictors and
//! supports the Ishii et al. improvement of tracking only taken branches.
//!
//! [`BranchUnit`] composes all of the above behind the interface the
//! front-end crate drives each cycle.
//!
//! # Examples
//!
//! ```
//! use swip_types::{Addr, BranchKind};
//! use swip_branch::{BranchConfig, BranchUnit};
//!
//! let mut unit = BranchUnit::new(BranchConfig::default());
//! // Front-end start-up: nothing known about pc 0x40 yet.
//! assert!(unit.predict_at(Addr::new(0x40)).is_none());
//! // After resolution the BTB learns the branch.
//! unit.resolve(Addr::new(0x40), BranchKind::CondDirect, Addr::new(0x80), true, false);
//! assert!(unit.predict_at(Addr::new(0x40)).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod direction;
mod ghr;
mod indirect;
mod ras;
mod tage;
mod unit;

pub use btb::{Btb, BtbEntry};
pub use direction::{DirectionKind, DirectionPredictor, Gshare, HashedPerceptron};
pub use ghr::GlobalHistory;
pub use indirect::IndirectPredictor;
pub use ras::Ras;
pub use tage::TageLite;
pub use unit::{BranchConfig, BranchStats, BranchUnit, Checkpoint, HistoryMode, Prediction};
