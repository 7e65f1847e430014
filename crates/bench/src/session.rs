//! The redesigned experiment-session API: [`SessionBuilder`] → [`Session`].
//!
//! A `Session` owns the scale knobs (instructions, stride), the AsmDB
//! tuning, the thread count, and three memoization layers:
//!
//! * generated [`Trace`]s, keyed by workload name (optionally persisted to
//!   a cache directory in the `SWIP` binary format),
//! * AsmDB pipeline outputs ([`AsmdbOutput`]: profile, plan, rewritten
//!   trace, hints), keyed by workload name, and
//! * the static coverage evaluation of each AsmDB plan
//!   ([`PlanEvaluation`]), keyed by workload name.
//!
//! Because every (workload, configuration) job goes through these memos,
//! an [`ExperimentPlan`](crate::ExperimentPlan) with all six paper
//! configurations still performs exactly **one** trace generation and
//! **one** AsmDB profile pass per workload, no matter how many threads are
//! racing — verified by the [`SessionCounters`] the session exposes.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use swip_analyze::{evaluate_plan, CoverageConfig, PlanEvaluation};
use swip_asmdb::{Asmdb, AsmdbConfig, AsmdbOutput, Cfg, Plan};
use swip_cache::ConfigError;
use swip_core::{SimConfig, SimReport, Simulator};
use swip_trace::Trace;
use swip_types::Fnv1a;
use swip_workloads::{cvp1_suite, generate, WorkloadSpec};

use crate::{AsmdbTuning, ConfigId};

/// A typed rejection from [`SessionBuilder::build`].
///
/// Invalid knobs are errors, not silent clamps: a stride of zero would
/// select no workloads, zero instructions would generate empty traces, and
/// zero threads cannot execute anything. Simulation configurations are
/// validated up front too ([`BuildError::Config`]), so a bad cache
/// geometry surfaces as one message before any trace is generated instead
/// of a panic on a worker thread mid-run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// `instructions == 0`.
    ZeroInstructions,
    /// `stride == 0`.
    ZeroStride,
    /// `threads == 0`.
    ZeroThreads,
    /// A simulation configuration the session would run is geometrically
    /// invalid (see [`ConfigError`]).
    Config(ConfigError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroInstructions => {
                write!(f, "instructions must be positive (got 0)")
            }
            BuildError::ZeroStride => write!(f, "stride must be positive (got 0)"),
            BuildError::ZeroThreads => write!(f, "threads must be positive (got 0)"),
            BuildError::Config(e) => write!(f, "invalid simulation configuration: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

/// Builder for a [`Session`]: scale, tuning, parallelism, and caching.
///
/// Knobs are explicit (`swip bench --instructions N --threads K`); the
/// old env-var-only `Harness::from_env` and its deprecated `SWIP_*` shim
/// are gone.
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    instructions: u64,
    stride: usize,
    asmdb: AsmdbConfig,
    threads: usize,
    cache_dir: Option<PathBuf>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            instructions: 300_000,
            stride: 1,
            asmdb: AsmdbConfig::default(),
            threads: default_threads(),
            cache_dir: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl SessionBuilder {
    /// A builder with the defaults (300 k instructions, full suite,
    /// default AsmDB tuning, one thread per available core, no disk cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic instructions per workload.
    #[must_use]
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Take every n-th workload of the 48.
    #[must_use]
    pub fn stride(mut self, n: usize) -> Self {
        self.stride = n;
        self
    }

    /// Worker threads for plan execution.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// AsmDB tuning by name.
    #[must_use]
    pub fn tuning(mut self, t: AsmdbTuning) -> Self {
        self.asmdb = t.config();
        self
    }

    /// Fully custom AsmDB knobs.
    #[must_use]
    pub fn asmdb_config(mut self, c: AsmdbConfig) -> Self {
        self.asmdb = c;
        self
    }

    /// Directory where generated traces are cached in the `SWIP` binary
    /// format, so a second session (or process) skips generation entirely.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Validates the knobs and builds the session.
    ///
    /// Miss-count thresholds are absolute, so AsmDB's `min_misses` is
    /// scaled with the run length (as the old harness did) to keep short
    /// calibration runs seeing insertions.
    ///
    /// # Errors
    ///
    /// Returns a typed [`BuildError`] for any zero-valued knob.
    pub fn build(self) -> Result<Session, BuildError> {
        if self.instructions == 0 {
            return Err(BuildError::ZeroInstructions);
        }
        if self.stride == 0 {
            return Err(BuildError::ZeroStride);
        }
        if self.threads == 0 {
            return Err(BuildError::ZeroThreads);
        }
        for id in ConfigId::ALL {
            id.sim_config().validate()?;
        }
        SimConfig::conservative().validate()?;
        let mut asmdb = self.asmdb;
        asmdb.min_misses = asmdb.min_misses.max(self.instructions / 100_000);
        Ok(Session {
            instructions: self.instructions,
            stride: self.stride,
            asmdb_config: asmdb,
            threads: self.threads,
            cache_dir: self.cache_dir,
            traces: Memo::new(),
            asmdb_outs: Memo::new(),
            coverage: Memo::new(),
            counters: AtomicCounters::default(),
        })
    }
}

/// A snapshot of a session's cache and work counters.
///
/// The acceptance property of the engine is visible here: after executing
/// a six-configuration plan, `trace_generations` and `asmdb_profiles` both
/// equal the number of workloads — every extra lookup is a cache hit.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SessionCounters {
    /// Traces generated from scratch.
    pub trace_generations: u64,
    /// Trace lookups served from the in-memory memo.
    pub trace_cache_hits: u64,
    /// Trace lookups served from the on-disk cache directory.
    pub trace_disk_hits: u64,
    /// AsmDB profile→plan→rewrite pipeline executions.
    pub asmdb_profiles: u64,
    /// AsmDB lookups served from the in-memory memo.
    pub asmdb_cache_hits: u64,
    /// Simulator runs executed by plan jobs (excludes AsmDB's internal
    /// profiling run).
    pub sim_runs: u64,
}

#[derive(Default)]
struct AtomicCounters {
    trace_generations: AtomicU64,
    trace_cache_hits: AtomicU64,
    trace_disk_hits: AtomicU64,
    asmdb_profiles: AtomicU64,
    asmdb_cache_hits: AtomicU64,
    sim_runs: AtomicU64,
}

/// A by-name memo where the first requester computes and every concurrent
/// requester blocks on the same cell instead of recomputing.
///
/// Every lookup that does not run `init` counts as a hit, including one
/// that waited on another thread's in-flight `init`, so the hit counters
/// do not depend on thread timing.
struct Memo<V> {
    map: Mutex<HashMap<String, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> Memo<V> {
    fn new() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
        }
    }

    fn get_or_init(&self, key: &str, on_hit: impl FnOnce(), init: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            map.entry(key.to_string()).or_default().clone()
        };
        let mut ran = false;
        let v = Arc::clone(cell.get_or_init(|| {
            ran = true;
            Arc::new(init())
        }));
        if !ran {
            on_hit();
        }
        v
    }
}

/// An experiment session: validated knobs, the worker pool, and the
/// memoized trace / AsmDB artifacts shared by all jobs.
///
/// Construct via [`SessionBuilder`]; execute an
/// [`ExperimentPlan`](crate::ExperimentPlan) with
/// [`Session::run`](crate::Session::run) /
/// [`Session::run_streaming`](crate::Session::run_streaming), or map an
/// arbitrary per-workload closure over the pool with
/// [`Session::par_map`](crate::Session::par_map).
pub struct Session {
    pub(crate) instructions: u64,
    pub(crate) stride: usize,
    pub(crate) asmdb_config: AsmdbConfig,
    pub(crate) threads: usize,
    cache_dir: Option<PathBuf>,
    traces: Memo<Trace>,
    asmdb_outs: Memo<AsmdbOutput>,
    coverage: Memo<PlanEvaluation>,
    counters: AtomicCounters,
}

impl Session {
    /// Dynamic instructions per workload.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Workload stride over the 48-trace suite.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Worker threads used for plan execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The AsmDB tuning (with `min_misses` already scaled to the run
    /// length).
    pub fn asmdb_config(&self) -> &AsmdbConfig {
        &self.asmdb_config
    }

    /// The workload subset this session runs.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        cvp1_suite(self.instructions)
            .into_iter()
            .step_by(self.stride)
            .collect()
    }

    /// The memoized trace for `spec`: generated at most once per session
    /// (or loaded from the cache directory, when configured).
    pub fn trace(&self, spec: &WorkloadSpec) -> Arc<Trace> {
        self.traces.get_or_init(
            &spec.name,
            || {
                self.counters
                    .trace_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
            },
            || {
                if let Some(t) = self.load_cached_trace(spec) {
                    self.counters
                        .trace_disk_hits
                        .fetch_add(1, Ordering::Relaxed);
                    return t;
                }
                self.counters
                    .trace_generations
                    .fetch_add(1, Ordering::Relaxed);
                let t = generate(spec);
                self.store_cached_trace(spec, &t);
                t
            },
        )
    }

    /// The memoized AsmDB pipeline output for `spec`: profiled at most
    /// once per session, on the conservative front-end (the paper profiles
    /// on the front-end AsmDB was designed against and evaluates the same
    /// rewritten binary everywhere).
    pub fn asmdb(&self, spec: &WorkloadSpec) -> Arc<AsmdbOutput> {
        self.asmdb_outs.get_or_init(
            &spec.name,
            || {
                self.counters
                    .asmdb_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
            },
            || {
                let trace = self.trace(spec);
                self.counters.asmdb_profiles.fetch_add(1, Ordering::Relaxed);
                Asmdb::new(self.asmdb_config.clone()).run(&trace, &SimConfig::conservative())
            },
        )
    }

    /// Evaluates `plan` on the CFG of `spec`'s trace with the static
    /// coverage rules (DESIGN.md §14), entering at the first instruction.
    pub fn evaluate_plan(&self, spec: &WorkloadSpec, plan: &Plan) -> PlanEvaluation {
        let trace = self.trace(spec);
        let cfg = Cfg::from_trace(&trace);
        let entry = trace
            .instructions()
            .first()
            .and_then(|i| cfg.block_of(i.pc));
        evaluate_plan(&cfg, entry, plan, &CoverageConfig::default())
    }

    /// [`Session::evaluate_plan`] of the session's own AsmDB plan for
    /// `spec`, made at most once per session: the run report embeds its
    /// predicted coverage and `swip serve` admission checks its fatal
    /// rules. Its lookups are counted in no [`SessionCounters`] field, so
    /// the report's session block does not depend on how often a report
    /// was built.
    pub fn plan_coverage(&self, spec: &WorkloadSpec) -> Arc<PlanEvaluation> {
        self.coverage.get_or_init(
            &spec.name,
            || {},
            || self.evaluate_plan(spec, &self.asmdb(spec).plan),
        )
    }

    /// A snapshot of the cache/work counters.
    pub fn counters(&self) -> SessionCounters {
        SessionCounters {
            trace_generations: self.counters.trace_generations.load(Ordering::Relaxed),
            trace_cache_hits: self.counters.trace_cache_hits.load(Ordering::Relaxed),
            trace_disk_hits: self.counters.trace_disk_hits.load(Ordering::Relaxed),
            asmdb_profiles: self.counters.asmdb_profiles.load(Ordering::Relaxed),
            asmdb_cache_hits: self.counters.asmdb_cache_hits.load(Ordering::Relaxed),
            sim_runs: self.counters.sim_runs.load(Ordering::Relaxed),
        }
    }

    /// Executes one (workload, configuration) job.
    pub(crate) fn run_job(&self, spec: &WorkloadSpec, id: ConfigId) -> SimReport {
        let sim = Simulator::new(id.sim_config());
        let report = match id {
            ConfigId::Base | ConfigId::Fdp => sim.run(&self.trace(spec)),
            // Zoo configurations run the original trace; the hardware
            // prefetcher is selected by `sim_config().prefetcher`.
            ConfigId::Mana | ConfigId::ShadowBtb => sim.run(&self.trace(spec)),
            ConfigId::AsmdbCons | ConfigId::AsmdbFdp => sim.run(&self.asmdb(spec).rewritten),
            ConfigId::AsmdbConsNoov | ConfigId::AsmdbFdpNoov => {
                // The memoized pipeline output carries a prebuilt shared
                // hint table; every no-overhead run of this workload shares
                // it by `Arc` instead of cloning the hint map.
                let out = self.asmdb(spec);
                sim.run_with_hint_table(&self.trace(spec), out.hint_table.clone())
            }
        };
        self.counters.sim_runs.fetch_add(1, Ordering::Relaxed);
        report
    }

    /// The configured trace cache directory, if any.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// The content address of `spec`'s trace: an FNV-1a hash over every
    /// generator parameter (plus the cache format version), as 16 hex
    /// digits. A workload spec fully determines its trace, so two specs
    /// with equal fingerprints generate byte-identical traces — and two
    /// sessions with *different* generator tunings sharing one cache
    /// directory get disjoint filenames instead of reading each other's
    /// stale artifacts.
    pub fn trace_fingerprint(&self, spec: &WorkloadSpec) -> String {
        let mut h = Fnv1a::new();
        h.field(TRACE_CACHE_FORMAT.to_le_bytes().as_slice());
        h.field(spec.name.as_bytes());
        h.field(format!("{:?}", spec.family).as_bytes());
        h.field(&spec.seed.to_le_bytes());
        h.field(&(spec.functions as u64).to_le_bytes());
        h.field(&(spec.avg_blocks as u64).to_le_bytes());
        h.field(&(spec.avg_block_instrs as u64).to_le_bytes());
        h.field(&(spec.max_call_depth as u64).to_le_bytes());
        h.field(&spec.predictable_branch_fraction.to_bits().to_le_bytes());
        h.field(&spec.indirect_call_fraction.to_bits().to_le_bytes());
        h.field(&spec.load_fraction.to_bits().to_le_bytes());
        h.field(&spec.store_fraction.to_bits().to_le_bytes());
        h.field(&spec.hot_exponent.to_bits().to_le_bytes());
        h.field(&spec.loop_fraction.to_bits().to_le_bytes());
        h.field(&spec.root_persistence.to_bits().to_le_bytes());
        h.field(&spec.instructions.to_le_bytes());
        h.finish()
    }

    /// Where `spec`'s trace lives in the disk cache (whether or not it has
    /// been materialized yet); `None` without a cache directory. The
    /// filename is content-addressed: `{name}-{fingerprint}.swip`.
    pub fn trace_cache_path(&self, spec: &WorkloadSpec) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{}.swip",
                spec.name,
                self.trace_fingerprint(spec)
            ))
        })
    }

    /// Resolves a trace fingerprint back to the session workload that owns
    /// it, for the `GET`/`PUT /v1/cache/{fingerprint}` routes.
    pub fn spec_for_fingerprint(&self, fingerprint: &str) -> Option<WorkloadSpec> {
        self.workloads()
            .into_iter()
            .find(|spec| self.trace_fingerprint(spec) == fingerprint)
    }

    /// Installs externally supplied trace bytes into the disk cache under
    /// `spec`'s content address, validating that they decode to a trace
    /// for that workload first. Used by the fleet coordinator to ship a
    /// warm cache to cold workers.
    ///
    /// # Errors
    ///
    /// Returns a message when no cache directory is configured, the bytes
    /// do not decode, the decoded trace names a different workload, or the
    /// write fails.
    pub fn import_cached_trace(&self, spec: &WorkloadSpec, bytes: &[u8]) -> Result<(), String> {
        let path = self
            .trace_cache_path(spec)
            .ok_or_else(|| "no cache directory configured".to_string())?;
        let trace = Trace::read_from(bytes).map_err(|e| format!("trace does not decode: {e}"))?;
        if trace.name() != spec.name {
            return Err(format!(
                "trace is for workload {:?}, expected {:?}",
                trace.name(),
                spec.name
            ));
        }
        let dir = path
            .parent()
            .ok_or_else(|| "cache path has no parent".to_string())?;
        fs::create_dir_all(dir).map_err(|e| format!("creating cache dir: {e}"))?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, bytes).map_err(|e| format!("writing cache file: {e}"))?;
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            format!("installing cache file: {e}")
        })
    }

    fn load_cached_trace(&self, spec: &WorkloadSpec) -> Option<Trace> {
        let path = self.trace_cache_path(spec)?;
        let file = fs::File::open(path).ok()?;
        let trace = Trace::read_from(file).ok()?;
        // The content address makes cross-spec collisions impossible for
        // honestly stored files; the name check guards against a corrupt
        // or hand-renamed cache entry.
        (trace.name() == spec.name).then_some(trace)
    }

    /// Best-effort disk-cache store: written to a temporary name and
    /// renamed, so concurrent sessions never observe a partial file.
    fn store_cached_trace(&self, spec: &WorkloadSpec, trace: &Trace) {
        let Some(path) = self.trace_cache_path(spec) else {
            return;
        };
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let Ok(file) = fs::File::create(&tmp) else {
            return;
        };
        if trace.write_to(file).is_ok() {
            let _ = fs::rename(&tmp, &path);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

/// Version stamp folded into every trace-cache fingerprint; bump when the
/// `SWIP` binary format or the generator algorithm changes so stale cache
/// files from older builds miss instead of decoding into wrong results.
const TRACE_CACHE_FORMAT: u64 = 1;

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("instructions", &self.instructions)
            .field("stride", &self.stride)
            .field("threads", &self.threads)
            .field("cache_dir", &self.cache_dir)
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_zero_knobs_with_typed_errors() {
        assert_eq!(
            SessionBuilder::new().instructions(0).build().unwrap_err(),
            BuildError::ZeroInstructions
        );
        assert_eq!(
            SessionBuilder::new().stride(0).build().unwrap_err(),
            BuildError::ZeroStride
        );
        assert_eq!(
            SessionBuilder::new().threads(0).build().unwrap_err(),
            BuildError::ZeroThreads
        );
    }

    #[test]
    fn invalid_sim_configs_surface_as_build_errors() {
        // The built-in configurations are valid, so build() succeeds...
        assert!(SessionBuilder::new().build().is_ok());
        // ...and a geometry rejection threads through to BuildError with
        // the offending level's name in the message.
        let mut bad = SimConfig::sunny_cove_like();
        bad.memory.l1i.sets = 48;
        let err: BuildError = bad.validate().unwrap_err().into();
        assert!(matches!(err, BuildError::Config(_)));
        let msg = err.to_string();
        assert!(msg.contains("invalid simulation configuration"), "{msg}");
        assert!(msg.contains("L1I") && msg.contains("48"), "{msg}");
    }

    #[test]
    fn builder_scales_min_misses_with_run_length() {
        let s = SessionBuilder::new()
            .instructions(1_000_000)
            .build()
            .unwrap();
        assert_eq!(s.asmdb_config().min_misses, 10);
        let s = SessionBuilder::new().instructions(20_000).build().unwrap();
        assert_eq!(
            s.asmdb_config().min_misses,
            AsmdbConfig::default().min_misses
        );
    }

    #[test]
    fn stride_subsets_workloads() {
        let s = SessionBuilder::new()
            .instructions(10_000)
            .stride(16)
            .build()
            .unwrap();
        let w = s.workloads();
        assert_eq!(w.len(), 3); // 48 / 16
        assert_eq!(w[0].instructions, 10_000);
    }

    #[test]
    fn trace_fingerprint_covers_generator_tunings() {
        let s = SessionBuilder::new().instructions(5_000).build().unwrap();
        let spec = &s.workloads()[0];
        let base = s.trace_fingerprint(spec);
        assert_eq!(base, s.trace_fingerprint(spec));
        let mut tuned = spec.clone();
        tuned.seed ^= 1;
        assert_ne!(base, s.trace_fingerprint(&tuned));
        let mut tuned = spec.clone();
        tuned.hot_exponent += 0.125;
        assert_ne!(base, s.trace_fingerprint(&tuned));
        let mut tuned = spec.clone();
        tuned.instructions += 1;
        assert_ne!(base, s.trace_fingerprint(&tuned));
    }

    #[test]
    fn shared_cache_dir_does_not_cross_hit_between_tunings() {
        // Two sessions share one cache directory and ask for a workload
        // with the same name and instruction count but different generator
        // seeds. Before content addressing, the second session would read
        // the first session's trace (the filename was name+instructions
        // only); now the filenames differ and each session generates its
        // own trace.
        let dir = std::env::temp_dir().join(format!("swip-cache-collision-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let make = || {
            SessionBuilder::new()
                .instructions(5_000)
                .stride(48)
                .cache_dir(&dir)
                .build()
                .unwrap()
        };
        let warm = make();
        let spec = warm.workloads()[0].clone();
        let mut tuned = spec.clone();
        tuned.seed ^= 0xdead_beef;
        assert_ne!(
            warm.trace_cache_path(&spec),
            warm.trace_cache_path(&tuned),
            "different tunings must get disjoint cache filenames"
        );

        warm.trace(&spec); // generates and stores spec's trace
        let cold = make();
        let imposter = cold.trace(&tuned);
        let counters = cold.counters();
        assert_eq!(
            counters.trace_disk_hits, 0,
            "a differently-tuned spec must not hit the other tuning's cache file"
        );
        assert_eq!(counters.trace_generations, 1);
        // And the honest spec *does* hit disk in a fresh session.
        let reuse = make();
        let cached = reuse.trace(&spec);
        assert_eq!(reuse.counters().trace_disk_hits, 1);
        assert_eq!(cached.name(), spec.name);
        assert_eq!(imposter.name(), tuned.name);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_cached_trace_validates_and_installs() {
        let dir = std::env::temp_dir().join(format!("swip-cache-import-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let donor = SessionBuilder::new()
            .instructions(5_000)
            .stride(48)
            .cache_dir(dir.join("donor"))
            .build()
            .unwrap();
        let spec = donor.workloads()[0].clone();
        donor.trace(&spec);
        let bytes = fs::read(donor.trace_cache_path(&spec).unwrap()).unwrap();

        let cold = SessionBuilder::new()
            .instructions(5_000)
            .stride(48)
            .cache_dir(dir.join("cold"))
            .build()
            .unwrap();
        assert!(cold.import_cached_trace(&spec, &bytes).is_ok());
        assert_eq!(cold.counters().trace_generations, 0);
        cold.trace(&spec);
        let counters = cold.counters();
        assert_eq!(
            counters.trace_disk_hits, 1,
            "imported bytes must serve the lookup"
        );
        assert_eq!(counters.trace_generations, 0);

        // Garbage bytes and mismatched workloads are rejected.
        assert!(cold.import_cached_trace(&spec, b"not a trace").is_err());
        let mut other = cold.workloads()[0].clone();
        other.name = "someone_else".to_string();
        assert!(cold.import_cached_trace(&other, &bytes).is_err());

        // No cache dir configured → typed refusal.
        let no_cache = SessionBuilder::new().instructions(5_000).build().unwrap();
        assert!(no_cache.import_cached_trace(&spec, &bytes).is_err());

        // Fingerprint → spec resolution round-trips.
        let fp = cold.trace_fingerprint(&spec);
        assert_eq!(cold.spec_for_fingerprint(&fp).unwrap().name, spec.name);
        assert!(cold.spec_for_fingerprint("0000000000000000").is_none());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_memo_generates_once() {
        let s = SessionBuilder::new()
            .instructions(5_000)
            .stride(48)
            .build()
            .unwrap();
        let spec = &s.workloads()[0];
        let a = s.trace(spec);
        let b = s.trace(spec);
        assert!(Arc::ptr_eq(&a, &b));
        let c = s.counters();
        assert_eq!(c.trace_generations, 1);
        assert_eq!(c.trace_cache_hits, 1);
    }

    #[test]
    fn memo_counts_waiting_on_an_in_flight_init_as_a_hit() {
        const THREADS: u64 = 4;
        let memo = Memo::new();
        let inits = AtomicU64::new(0);
        let hits = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    memo.get_or_init(
                        "w",
                        || {
                            hits.fetch_add(1, Ordering::Relaxed);
                        },
                        || {
                            inits.fetch_add(1, Ordering::Relaxed);
                            // Keeps the init in flight while the other
                            // threads arrive; the counts must hold in any
                            // interleaving.
                            std::thread::sleep(std::time::Duration::from_millis(200));
                        },
                    );
                });
            }
        });
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(hits.load(Ordering::Relaxed), THREADS - 1);
    }
}
