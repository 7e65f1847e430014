//! The versioned, structured run report.
//!
//! A [`RunReport`] is the machine-readable sibling of the TSV figures: one
//! JSON document per `swip bench` invocation carrying the run's
//! configuration fingerprint, the session's cache/work counters, and —
//! per workload, per simulated configuration — every counter and derived
//! value the figures are built from. Figure TSVs can be recomputed from a
//! report, which is exactly what the golden integration test does.

use std::fmt;

use swip_core::SimReport;
use swip_types::Fnv1a;

use crate::json::{Json, JsonError};

/// Schema version emitted by this crate; readers reject anything newer.
///
/// v1 → v2 (DESIGN.md §16): per-config entries gained an optional
/// `prefetcher` label (`fdp` / `asmdb` / `mana` / `shadow_btb`). v1
/// documents — which simply lack the key — still parse; the field
/// defaults to empty and is omitted on re-serialization, so a v1 document
/// round-trips unchanged apart from its version stamp.
pub const SCHEMA_VERSION: u64 = 2;

/// A failure loading a [`RunReport`] from JSON.
#[derive(Clone, PartialEq, Debug)]
pub enum ReportError {
    /// The text was not valid JSON.
    Json(JsonError),
    /// The JSON was valid but did not match the schema.
    Schema(String),
    /// The document's schema version is newer than this reader.
    Version(u64),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Schema(what) => write!(f, "malformed run report: {what}"),
            ReportError::Version(v) => write!(
                f,
                "run report has schema version {v}, this reader supports <= {SCHEMA_VERSION}"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

/// Counters and derived values for one (workload, configuration) run.
#[derive(Clone, PartialEq, Debug)]
pub struct ConfigReport {
    /// Configuration label (e.g. `ftq24_asmdb`).
    pub config: String,
    /// Prefetch-mechanism label (`fdp`, `asmdb`, `mana`, `shadow_btb`);
    /// empty when unknown (v1 documents). Omitted from JSON when empty,
    /// so v1 documents round-trip without growing the key.
    pub prefetcher: String,
    /// Exact integer counters, flattened to stable dotted names.
    pub counters: Vec<(String, u64)>,
    /// Derived floating-point values (rates, means, MPKI).
    pub values: Vec<(String, f64)>,
}

impl ConfigReport {
    /// Flattens a [`SimReport`] into named counters and values.
    ///
    /// The counter list is the contract the golden tests pin: every
    /// integer the figure emitters read appears here under a stable name.
    pub fn from_sim(config: impl Into<String>, r: &SimReport) -> Self {
        let f = &r.frontend;
        let b = &r.branch;
        let h = &r.hierarchy;
        let be = &r.backend;
        let cache = |prefix: &str, s: &swip_cache::CacheStats| {
            vec![
                (format!("{prefix}.demand_hits"), s.demand.hits()),
                (format!("{prefix}.demand_misses"), s.demand.misses()),
                (format!("{prefix}.prefetch_hits"), s.prefetch.hits()),
                (format!("{prefix}.prefetch_misses"), s.prefetch.misses()),
                (format!("{prefix}.evictions"), s.evictions.get()),
                (
                    format!("{prefix}.useful_prefetches"),
                    s.useful_prefetches.get(),
                ),
            ]
        };
        let mut counters: Vec<(String, u64)> = vec![
            ("instructions".into(), r.instructions),
            ("prefetch_instructions".into(), r.prefetch_instructions),
            ("cycles".into(), r.cycles),
            ("completed".into(), r.completed as u64),
            ("ftq.cycles".into(), f.cycles.get()),
            ("ftq.s1_cycles".into(), f.s1_cycles.get()),
            ("ftq.s2_cycles".into(), f.s2_cycles.get()),
            ("ftq.s3_cycles".into(), f.s3_cycles.get()),
            ("ftq.empty_cycles".into(), f.empty_cycles.get()),
            (
                "ftq.fill_blocked_cycles".into(),
                f.fill_blocked_cycles.get(),
            ),
            ("ftq.head_stall_cycles".into(), f.head_stall_cycles.get()),
            (
                "ftq.entries_waiting_on_head".into(),
                f.entries_waiting_on_head.get(),
            ),
            (
                "ftq.partially_covered_entries".into(),
                f.partially_covered_entries.get(),
            ),
            ("ftq.head_fetch_count".into(), f.head_fetch_cycles.count()),
            ("ftq.head_fetch_max".into(), f.head_fetch_cycles.max()),
            (
                "ftq.nonhead_fetch_count".into(),
                f.nonhead_fetch_cycles.count(),
            ),
            ("ftq.nonhead_fetch_max".into(), f.nonhead_fetch_cycles.max()),
            ("ftq.blocks_enqueued".into(), f.blocks_enqueued.get()),
            ("ftq.instrs_enqueued".into(), f.instrs_enqueued.get()),
            ("ftq.instrs_decoded".into(), f.instrs_decoded.get()),
            ("ftq.line_requests".into(), f.line_requests.get()),
            (
                "ftq.aliased_line_requests".into(),
                f.aliased_line_requests.get(),
            ),
            ("ftq.mshr_stalls".into(), f.mshr_stalls.get()),
            ("ftq.redirects_execute".into(), f.redirects_execute.get()),
            (
                "ftq.redirects_predecode".into(),
                f.redirects_predecode.get(),
            ),
            ("ftq.mispredicts_cond".into(), f.mispredicts_cond.get()),
            (
                "ftq.mispredicts_indirect".into(),
                f.mispredicts_indirect.get(),
            ),
            ("ftq.mispredicts_return".into(), f.mispredicts_return.get()),
            ("ftq.mispredicts_other".into(), f.mispredicts_other.get()),
            ("ftq.swpf_executed".into(), f.swpf_executed.get()),
            ("ftq.swpf_hinted".into(), f.swpf_hinted.get()),
            ("ftq.swpf_preloaded".into(), f.swpf_preloaded.get()),
            ("ftq.preload_l1_hits".into(), f.preload_l1_hits.get()),
            (
                "ftq.preload_metadata_requests".into(),
                f.preload_metadata_requests.get(),
            ),
            ("branch.resolved".into(), b.resolved.get()),
            ("branch.mispredicts".into(), b.mispredicts.get()),
            ("branch.btb_fills".into(), b.btb_fills.get()),
            ("branch.direction_hits".into(), b.direction.hits()),
            ("branch.direction_total".into(), b.direction.total()),
            ("branch.btb_hits".into(), b.btb.hits()),
            ("branch.btb_total".into(), b.btb.total()),
            ("branch.indirect_hits".into(), b.indirect.hits()),
            ("branch.indirect_total".into(), b.indirect.total()),
        ];
        counters.extend(cache("l1i", &r.l1i));
        counters.extend(cache("l2", &r.l2));
        counters.extend(cache("llc", &r.llc));
        counters.extend([
            ("hier.instr_l1_hits".into(), h.instr_l1_hits.get()),
            ("hier.instr_l2_hits".into(), h.instr_l2_hits.get()),
            ("hier.instr_llc_hits".into(), h.instr_llc_hits.get()),
            ("hier.instr_memory".into(), h.instr_memory.get()),
            ("hier.instr_merged".into(), h.instr_merged.get()),
            ("hier.instr_prefetches".into(), h.instr_prefetches.get()),
            ("hier.data_l1_misses".into(), h.data_l1_misses.get()),
            ("backend.retired".into(), be.retired.get()),
            ("backend.rob_full_cycles".into(), be.rob_full_cycles.get()),
            (
                "backend.issue_idle_cycles".into(),
                be.issue_idle_cycles.get(),
            ),
            ("backend.loads".into(), be.loads.get()),
            (
                "backend.branches_resolved".into(),
                be.branches_resolved.get(),
            ),
            ("timeline.samples".into(), r.timeline.len() as u64),
            ("timeline.dropped".into(), r.timeline_dropped),
        ]);
        let (s1, s2, s3, empty) = f.scenario_fractions();
        let values: Vec<(String, f64)> = vec![
            ("ipc".into(), r.ipc),
            ("effective_ipc".into(), r.effective_ipc),
            ("l1i_mpki".into(), r.l1i_mpki),
            ("s1_frac".into(), s1),
            ("s2_frac".into(), s2),
            ("s3_frac".into(), s3),
            ("empty_frac".into(), empty),
            ("alias_fraction".into(), f.alias_fraction()),
            ("head_fetch_mean".into(), f.head_fetch_cycles.mean()),
            ("nonhead_fetch_mean".into(), f.nonhead_fetch_cycles.mean()),
            ("branch_dir_accuracy".into(), b.direction.rate()),
            ("branch_mpkb".into(), b.mpkb()),
        ];
        ConfigReport {
            config: config.into(),
            prefetcher: String::new(),
            counters,
            values,
        }
    }

    /// Looks up a counter by its dotted name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a derived value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![("config".into(), Json::Str(self.config.clone()))];
        if !self.prefetcher.is_empty() {
            pairs.push(("prefetcher".into(), Json::Str(self.prefetcher.clone())));
        }
        pairs.extend([
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "values".into(),
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
        ]);
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, ReportError> {
        let config = str_field(v, "config")?.to_string();
        // Absent in v1 documents; optional in v2.
        let prefetcher = match v.get("prefetcher") {
            None => String::new(),
            Some(p) => p
                .as_str()
                .ok_or_else(|| schema("config prefetcher must be a string"))?
                .to_string(),
        };
        let counters = match v.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| schema(format!("counter {k} is not a u64")))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(schema("config entry missing counters object")),
        };
        let values = match v.get("values") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| schema(format!("value {k} is not a number")))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(schema("config entry missing values object")),
        };
        Ok(ConfigReport {
            config,
            prefetcher,
            counters,
            values,
        })
    }
}

/// One workload's slice of the run: wall-clock and per-config reports.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Simulation seconds spent on this workload's jobs.
    pub job_seconds: f64,
    /// Statically predicted prefetch coverage for this workload's AsmDB
    /// plan, as stable `(name, value)` counters (see `swip-analyze`'s
    /// `PredictedCoverage`). Empty when the run simulated no AsmDB
    /// configuration; omitted from JSON in that case, so schema v1 readers
    /// and fingerprints are unaffected.
    pub coverage: Vec<(String, u64)>,
    /// One entry per simulated configuration, in plan order.
    pub configs: Vec<ConfigReport>,
}

impl WorkloadReport {
    /// The report for configuration `label`, if present.
    pub fn config(&self, label: &str) -> Option<&ConfigReport> {
        self.configs.iter().find(|c| c.config == label)
    }

    /// A predicted-coverage counter by name.
    pub fn coverage_counter(&self, name: &str) -> Option<u64> {
        self.coverage
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("job_seconds".into(), Json::F64(self.job_seconds)),
        ];
        if !self.coverage.is_empty() {
            pairs.push((
                "coverage".into(),
                Json::Obj(
                    self.coverage
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ));
        }
        pairs.push((
            "configs".into(),
            Json::Arr(self.configs.iter().map(ConfigReport::to_json).collect()),
        ));
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, ReportError> {
        let coverage = match v.get("coverage") {
            None => Vec::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| schema(format!("coverage counter {k} is not a u64")))
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err(schema("workload coverage must be an object")),
        };
        Ok(WorkloadReport {
            name: str_field(v, "name")?.to_string(),
            job_seconds: v
                .get("job_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| schema("workload missing job_seconds"))?,
            coverage,
            configs: v
                .get("configs")
                .and_then(Json::as_arr)
                .ok_or_else(|| schema("workload missing configs array"))?
                .iter()
                .map(ConfigReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The versioned run report: scale knobs, fingerprint, session counters,
/// and per-workload results.
#[derive(Clone, PartialEq, Debug)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this crate).
    pub version: u64,
    /// The figure (or `all`) this run emitted.
    pub figure: String,
    /// Dynamic instructions per workload.
    pub instructions: u64,
    /// Workload suite stride.
    pub stride: u64,
    /// Worker threads used.
    pub threads: u64,
    /// FNV-1a fingerprint of the run configuration (version, figure,
    /// knobs, workload/config matrix) as 16 hex digits; two reports with
    /// equal fingerprints measured the same experiment.
    pub fingerprint: String,
    /// Session cache/work counters (name → count).
    pub session: Vec<(String, u64)>,
    /// Per-workload results, in suite order.
    pub workloads: Vec<WorkloadReport>,
}

impl RunReport {
    /// Creates an empty report for the given run knobs; push workloads,
    /// then call [`RunReport::seal`] to stamp the fingerprint.
    pub fn new(figure: impl Into<String>, instructions: u64, stride: u64, threads: u64) -> Self {
        RunReport {
            version: SCHEMA_VERSION,
            figure: figure.into(),
            instructions,
            stride,
            threads,
            fingerprint: String::new(),
            session: Vec::new(),
            workloads: Vec::new(),
        }
    }

    /// Computes and stores the configuration fingerprint.
    pub fn seal(&mut self) {
        self.fingerprint = self.compute_fingerprint();
    }

    /// The FNV-1a hash of the run configuration (not the measurements):
    /// version, figure, scale knobs, and the workload × configuration
    /// matrix. Counter values are deliberately excluded so two runs of the
    /// same experiment are directly diffable.
    pub fn compute_fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        h.field(&self.version.to_le_bytes());
        h.field(self.figure.as_bytes());
        h.field(&self.instructions.to_le_bytes());
        h.field(&self.stride.to_le_bytes());
        for w in &self.workloads {
            h.field(w.name.as_bytes());
            for c in &w.configs {
                h.field(c.config.as_bytes());
            }
        }
        h.finish()
    }

    /// The workload entry named `name`, if present.
    pub fn workload(&self, name: &str) -> Option<&WorkloadReport> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// A session counter by name.
    pub fn session_counter(&self, name: &str) -> Option<u64> {
        self.session
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Serializes to the pretty JSON document written next to the TSVs.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// The report as a [`Json`] value.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::U64(self.version)),
            ("figure".into(), Json::Str(self.figure.clone())),
            ("instructions".into(), Json::U64(self.instructions)),
            ("stride".into(), Json::U64(self.stride)),
            ("threads".into(), Json::U64(self.threads)),
            ("fingerprint".into(), Json::Str(self.fingerprint.clone())),
            (
                "session".into(),
                Json::Obj(
                    self.session
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(WorkloadReport::to_json).collect()),
            ),
        ])
    }

    /// Parses a report from JSON text.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] on malformed JSON, [`ReportError::Version`]
    /// on a newer schema, [`ReportError::Schema`] on shape mismatches.
    pub fn from_json_str(text: &str) -> Result<Self, ReportError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a report from a [`Json`] value.
    ///
    /// # Errors
    ///
    /// See [`RunReport::from_json_str`].
    pub fn from_json_value(v: &Json) -> Result<Self, ReportError> {
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("missing version"))?;
        if version > SCHEMA_VERSION {
            return Err(ReportError::Version(version));
        }
        let session = match v.get("session") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| schema(format!("session counter {k} is not a u64")))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(schema("missing session object")),
        };
        Ok(RunReport {
            version,
            figure: str_field(v, "figure")?.to_string(),
            instructions: u64_field(v, "instructions")?,
            stride: u64_field(v, "stride")?,
            threads: u64_field(v, "threads")?,
            fingerprint: str_field(v, "fingerprint")?.to_string(),
            session,
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or_else(|| schema("missing workloads array"))?
                .iter()
                .map(WorkloadReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// A short human-readable summary (the default `swip report` output).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run report v{} — figure {}, {} instructions, stride {}, {} thread(s)\n",
            self.version, self.figure, self.instructions, self.stride, self.threads
        ));
        out.push_str(&format!("fingerprint: {}\n", self.fingerprint));
        for (k, v) in &self.session {
            out.push_str(&format!("session.{k}: {v}\n"));
        }
        for w in &self.workloads {
            let configs: Vec<&str> = w.configs.iter().map(|c| c.config.as_str()).collect();
            out.push_str(&format!(
                "{}: {} config(s) [{}], {:.2}s\n",
                w.name,
                w.configs.len(),
                configs.join(", "),
                w.job_seconds
            ));
        }
        out
    }
}

fn schema(what: impl Into<String>) -> ReportError {
    ReportError::Schema(what.into())
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, ReportError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| schema(format!("missing string field {key}")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, ReportError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| schema(format!("missing u64 field {key}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("all", 20_000, 16, 2);
        r.session = vec![("trace_generations".into(), 3), ("sim_runs".into(), 18)];
        r.workloads.push(WorkloadReport {
            name: "secret_srv12".into(),
            job_seconds: 1.25,
            coverage: Vec::new(),
            configs: vec![ConfigReport {
                config: "ftq2_fdp".into(),
                prefetcher: "fdp".into(),
                counters: vec![("cycles".into(), 123_456), ("completed".into(), 1)],
                values: vec![("ipc".into(), 1.75)],
            }],
        });
        r.seal();
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample();
        let text = r.to_json();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        // And the fingerprint still verifies after the round trip.
        assert_eq!(back.compute_fingerprint(), back.fingerprint);
    }

    #[test]
    fn coverage_round_trips_and_stays_out_of_empty_documents() {
        let mut r = sample();
        assert!(!r.to_json().contains("\"coverage\""));
        r.workloads[0].coverage = vec![("sites".into(), 7), ("useful_sites".into(), 5)];
        let text = r.to_json();
        assert!(text.contains("\"coverage\""));
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.workloads[0].coverage_counter("useful_sites"), Some(5));
        assert_eq!(back.workloads[0].coverage_counter("nope"), None);
        // Coverage is a prediction, not configuration: fingerprints ignore it.
        assert_eq!(r.compute_fingerprint(), sample().fingerprint);
    }

    #[test]
    fn fingerprint_tracks_configuration_not_measurements() {
        let a = sample();
        let mut b = sample();
        b.workloads[0].configs[0].counters[0].1 += 1; // a measurement
        b.seal();
        assert_eq!(a.fingerprint, b.fingerprint);
        let mut c = sample();
        c.instructions = 40_000; // a knob
        c.seal();
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(a.fingerprint.len(), 16);
    }

    #[test]
    fn lookups() {
        let r = sample();
        assert_eq!(r.session_counter("sim_runs"), Some(18));
        assert_eq!(r.session_counter("nope"), None);
        let w = r.workload("secret_srv12").unwrap();
        let c = w.config("ftq2_fdp").unwrap();
        assert_eq!(c.counter("cycles"), Some(123_456));
        assert_eq!(c.value("ipc"), Some(1.75));
        assert_eq!(c.counter("nope"), None);
    }

    #[test]
    fn prefetcher_round_trips_and_stays_out_when_unknown() {
        let r = sample();
        let text = r.to_json();
        assert!(text.contains("\"prefetcher\": \"fdp\""));
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back.workloads[0].configs[0].prefetcher, "fdp");
        // A config whose mechanism is unknown (v1 documents, from_sim
        // before stamping) omits the key entirely.
        let mut bare = sample();
        bare.workloads[0].configs[0].prefetcher = String::new();
        let text = bare.to_json();
        assert!(!text.contains("\"prefetcher\""));
        assert_eq!(RunReport::from_json_str(&text).unwrap(), bare);
    }

    #[test]
    fn v1_documents_still_parse() {
        // A schema-v1 document: no prefetcher keys, version stamp 1.
        let mut r = sample();
        r.version = 1;
        r.workloads[0].configs[0].prefetcher = String::new();
        r.seal();
        let text = r.to_json();
        assert!(text.contains("\"version\": 1"));
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back.version, 1);
        assert_eq!(back.workloads[0].configs[0].prefetcher, "");
        assert_eq!(
            back.workloads[0].configs[0].counter("cycles"),
            Some(123_456)
        );
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut r = sample();
        r.version = SCHEMA_VERSION + 1;
        let err = RunReport::from_json_str(&r.to_json()).unwrap_err();
        assert_eq!(err, ReportError::Version(SCHEMA_VERSION + 1));
    }

    #[test]
    fn schema_violations_are_named() {
        let err = RunReport::from_json_str("{\"version\": 1}").unwrap_err();
        assert!(matches!(err, ReportError::Schema(_)), "{err:?}");
        let err = RunReport::from_json_str("not json").unwrap_err();
        assert!(matches!(err, ReportError::Json(_)), "{err:?}");
        let err = RunReport::from_json_str(
            r#"{"version":1,"figure":"all","instructions":1,"stride":1,"threads":1,
                "fingerprint":"x","session":{"a": -3},"workloads":[]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, ReportError::Schema(_)), "{err:?}");
    }

    #[test]
    fn from_sim_flattens_the_figure_counters() {
        use swip_core::{SimConfig, Simulator};
        use swip_trace::TraceBuilder;

        let mut b = TraceBuilder::new("flat");
        for _ in 0..400 {
            b.alu();
        }
        let sim = Simulator::new(SimConfig::test_scale()).run(&b.finish());
        let c = ConfigReport::from_sim("ftq24_fdp", &sim);
        assert_eq!(c.counter("instructions"), Some(sim.instructions));
        assert_eq!(c.counter("cycles"), Some(sim.cycles));
        assert_eq!(
            c.counter("ftq.head_stall_cycles"),
            Some(sim.frontend.head_stall_cycles.get())
        );
        assert_eq!(
            c.counter("l1i.demand_misses"),
            Some(sim.l1i.demand.misses())
        );
        assert_eq!(
            c.counter("backend.retired"),
            Some(sim.backend.retired.get())
        );
        assert_eq!(c.value("ipc"), Some(sim.ipc));
        let (s1, ..) = sim.frontend.scenario_fractions();
        assert_eq!(c.value("s1_frac"), Some(s1));
        // Scenario cycles partition total cycles in the flattened view too.
        let sum = [
            "ftq.s1_cycles",
            "ftq.s2_cycles",
            "ftq.s3_cycles",
            "ftq.empty_cycles",
        ]
        .iter()
        .map(|k| c.counter(k).unwrap())
        .sum::<u64>();
        assert_eq!(c.counter("ftq.cycles"), Some(sum));
    }
}
