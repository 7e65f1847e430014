//! `swip serve`: the experiment engine as a dependency-free HTTP/1.1
//! service.
//!
//! One process holds one warm [`Session`](swip_bench::Session) for its
//! whole lifetime, so every job after the first reuses the session's
//! memoized traces and AsmDB pipeline outputs — the serving analogue of
//! a long-lived `swip bench` sweep. Everything is `std`: the listener is
//! a [`TcpListener`](std::net::TcpListener), the HTTP/1.1 subset is
//! hand-rolled, readiness comes from a minimal `poll(2)` shim, and JSON
//! goes through `swip-report`'s value type.
//!
//! I/O is a single-threaded readiness loop over nonblocking sockets:
//! connections are kept alive across requests (HTTP/1.1 negotiation,
//! pipelining included), the connection table is bounded by
//! `max_conns` with accept-time `503` shedding, and per-connection
//! idle/read deadlines evict stalled peers (`408` mid-request). Only
//! job execution leaves the loop thread, via the bounded queue and the
//! fixed worker pool — client count never grows the thread count.
//!
//! # API
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | Submit a plan (`{"workloads": […], "configs": […], "prefetchers": […], "insertions": […]}`, empty axes = the paper six) → job id |
//! | `GET /v1/jobs/{id}` | Job state machine `queued → running → done \| failed` + timings |
//! | `GET /v1/jobs/{id}/report` | The finished job's deterministic `RunReport` |
//! | `GET /healthz` | Liveness + drain flag |
//! | `GET /metrics` | Queue depth, jobs by state, session counters, uptime |
//! | `POST /v1/shutdown` | Begin graceful drain (what SIGINT does, but testable) |
//!
//! # Contracts
//!
//! * **Backpressure is typed**: the queue is bounded; a full queue
//!   answers `429` with `Retry-After`, never unbounded buffering.
//! * **Admission is static**: before queueing, the plan's prefetch
//!   insertions (custom ones from the spec, and the session's own AsmDB
//!   plan for AsmDB configurations) are evaluated against each selected
//!   workload's CFG with `swip-analyze`'s coverage rules; fatal
//!   diagnostics (`D001`, provably dead) are a `400` carrying the rule
//!   ids.
//! * **Reports are deterministic**: a job's report is built with
//!   [`build_plan_report`](swip_bench::build_plan_report), byte-identical
//!   to an offline run of the same plan at the same session knobs.
//!   Wall-clock lives on the job resource, live counters on `/metrics`.
//! * **Panics are contained**: a poisoned job becomes a `failed` record,
//!   not a dead server.
//! * **Connections are bounded**: the table caps at `max_conns`;
//!   accepts past it are shed immediately with `503` +
//!   `Connection: close`, never queued or threaded.
//! * **Shutdown drains**: SIGINT/SIGTERM (or `POST /v1/shutdown`) stops
//!   admission with `503`, closes (and stops reading) idle kept-alive
//!   connections, finishes accepted jobs, then exits 0.
//!
//! ```no_run
//! use swip_serve::{ServeConfig, Server};
//!
//! let session = swip_bench::SessionBuilder::new().build()?;
//! let server = Server::bind(&ServeConfig::default(), session)?;
//! println!("listening on {}", server.local_addr());
//! server.run()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than the workspace's usual `forbid`: the `signal(2)`
// shim in `shutdown` and the `poll(2)` shim in `poll` are the two
// places allowed to override it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod admit;
pub mod client;
mod conn;
mod http;
mod job;
mod metrics;
mod poll;
mod queue;
mod router;
mod server;
pub mod shutdown;
mod worker;

pub use http::{HttpError, Request, RequestParser, Response};
pub use job::{JobRecord, JobRegistry, JobState};
pub use queue::{BoundedQueue, SubmitError};
pub use server::{ServeConfig, ServeContext, Server};
