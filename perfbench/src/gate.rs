//! The correctness gate.
//!
//! Every simulated job counts as one operation, and it fails when
//!
//! * its counters differ from the digest stored for it in `digests.tsv`
//!   (every counter and value per workload, trace and configuration; the
//!   inputs are the same under every seed), for the configurations that
//!   do not consume AsmDB's output (AsmDB's plan is not yet the same from
//!   one process to the next, so its rewritten and hinted runs can only be
//!   held to agreement within a process);
//! * it differs from an earlier run of the same job in the same process,
//!   since under any seed repeated runs must agree exactly;
//! * the simulator's cycle watchdog cut it off;
//! * on a workload that must tell all eight configurations apart, two
//!   configurations of one trace end on the same cycle count, the sign of
//!   a scale at which AsmDB inserts nothing; or
//! * the request behind it failed: a non-2xx response, or a failed or
//!   timed-out job.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use swip_bench::ConfigId;
use swip_report::{ConfigReport, RunReport};
use swip_types::Fnv1a;

/// The stored seed-0 digests, compiled in.
const STORED: &str = include_str!("../digests.tsv");

/// Where `record-digests` writes the digests.
pub const STORED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.tsv");

/// The digest of every counter and value of one configuration's run. The
/// prefetcher label names the configuration rather than a result, so it
/// is left out.
pub fn config_digest(c: &ConfigReport) -> String {
    let mut h = Fnv1a::new();
    h.field(c.config.as_bytes());
    for (name, value) in &c.counters {
        h.field(name.as_bytes());
        h.field(&value.to_le_bytes());
    }
    for (name, value) in &c.values {
        h.field(name.as_bytes());
        h.field(&value.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Whether the digest of configuration `label` is stored: runs that
/// consume AsmDB's output are left out (see the module notes).
pub fn is_stored(label: &str) -> bool {
    ConfigId::from_label(label).is_ok_and(|id| !id.needs_asmdb())
}

/// The configurations whose digests are stored.
pub fn stored_configs() -> Vec<ConfigId> {
    ConfigId::ALL
        .into_iter()
        .filter(|id| !id.needs_asmdb())
        .collect()
}

/// Digests keyed by workload, trace, and configuration label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Digests(BTreeMap<(String, String, String), String>);

impl Digests {
    /// The digests compiled into the benchmark.
    pub fn stored() -> Digests {
        Digests::parse(STORED)
    }

    /// Parses the tab-separated table [`Digests::render`] writes; lines
    /// starting with `#` are comments.
    pub fn parse(text: &str) -> Digests {
        let rows = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let mut field = line.split('\t').map(str::to_string);
                let key = (field.next()?, field.next()?, field.next()?);
                Some((key, field.next()?))
            });
        Digests(rows.collect())
    }

    /// Stores the digest of `workload`'s `trace` under `key`.
    pub fn insert(&mut self, workload: &str, trace: &str, key: &str, digest: String) {
        self.0.insert(
            (workload.to_string(), trace.to_string(), key.to_string()),
            digest,
        );
    }

    /// The digest stored for `workload`'s `trace` under `key`.
    pub fn get(&self, workload: &str, trace: &str, key: &str) -> Option<&str> {
        self.0
            .get(&(workload.to_string(), trace.to_string(), key.to_string()))
            .map(String::as_str)
    }

    /// The table as [`Digests::parse`] reads it.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Seed-0 digests of every simulated counter: workload, trace, configuration,\n\
             # FNV-1a digest, for the configurations that do not consume AsmDB. Regenerate with\n\
             # `cargo run --release --manifest-path perfbench/Cargo.toml -- record-digests`.\n",
        );
        for ((workload, trace, key), digest) in &self.0 {
            out.push_str(&format!("{workload}\t{trace}\t{key}\t{digest}\n"));
        }
        out
    }
}

/// Counts attempted and failed operations and keeps each failure's
/// reasons.
pub struct Gate {
    workload: &'static str,
    stored: Option<Digests>,
    distinct_cycles: bool,
    /// The first digest of every (trace, configuration) job seen.
    seen: BTreeMap<(String, String), String>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate for `workload`'s results. When `stored` is given, the
    /// results must match its digests; `distinct_cycles` makes equal cycle
    /// counts within a trace a failure.
    pub fn new(workload: &'static str, stored: Option<Digests>, distinct_cycles: bool) -> Gate {
        Gate {
            workload,
            stored,
            distinct_cycles,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Why each of one trace's configuration reports fails, in order; an
    /// empty list passes.
    pub fn check_configs(&mut self, trace: &str, configs: &[ConfigReport]) -> Vec<Vec<String>> {
        configs
            .iter()
            .map(|c| {
                let mut why = Vec::new();
                if c.counter("completed") != Some(1) {
                    why.push("cut off by the cycle watchdog".to_string());
                }
                let cycles = c.counter("cycles");
                for other in configs.iter().filter(|_| self.distinct_cycles) {
                    if other.config != c.config && other.counter("cycles") == cycles {
                        why.push(format!("ends on the same cycle count as {}", other.config));
                    }
                }
                let digest = config_digest(c);
                if let Some(stored) = self.stored.as_ref().filter(|_| is_stored(&c.config)) {
                    match stored.get(self.workload, trace, &c.config) {
                        Some(want) if want == digest => {}
                        Some(_) => why.push("counters differ from the stored seed-0 digest".into()),
                        None => why.push("no stored seed-0 digest".into()),
                    }
                }
                match self.seen.entry((trace.to_string(), c.config.clone())) {
                    Entry::Vacant(e) => {
                        e.insert(digest);
                    }
                    Entry::Occupied(e) if *e.get() != digest => {
                        why.push("counters differ from an earlier run of the same job".into());
                    }
                    Entry::Occupied(_) => {}
                }
                why
            })
            .collect()
    }

    /// Checks one trace's configuration reports, counting each as an
    /// operation.
    pub fn count_configs(&mut self, trace: &str, configs: &[ConfigReport]) {
        let verdicts = self.check_configs(trace, configs);
        for (c, why) in configs.iter().zip(verdicts) {
            self.record(&format!("{trace}/{}", c.config), why);
        }
    }

    /// Why a served report of `trace` under the eight configurations
    /// fails, with the parsed report.
    pub fn check_served(&mut self, trace: &str, json: &str) -> (Vec<String>, Option<RunReport>) {
        let mut why = Vec::new();
        let report = match RunReport::from_json_str(json) {
            Ok(report) => report,
            Err(e) => {
                why.push(format!("report does not parse: {e}"));
                return (why, None);
            }
        };
        match report.workload(trace) {
            Some(w) if w.configs.len() == ConfigId::ALL.len() => {
                let verdicts = self.check_configs(trace, &w.configs);
                for (c, reasons) in w.configs.iter().zip(verdicts) {
                    why.extend(reasons.into_iter().map(|r| format!("{}: {r}", c.config)));
                }
            }
            Some(w) => why.push(format!(
                "report holds {} configurations, not {}",
                w.configs.len(),
                ConfigId::ALL.len()
            )),
            None => why.push("report has no entry for the workload".into()),
        }
        (why, Some(report))
    }

    /// Counts one operation, failed when `reasons` is not empty.
    pub fn record(&mut self, what: &str, reasons: Vec<String>) {
        self.attempted += 1;
        if !reasons.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", reasons.join("; ")));
        }
    }

    /// Adds the counts of another gate, whose jobs were checked apart.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// One digest over the first run of every job seen whose digest is
    /// stored at seed 0, so that runs of one seed can be compared across
    /// processes and commits.
    pub fn results_digest(&self) -> String {
        let mut h = Fnv1a::new();
        for ((trace, config), digest) in self.seen.iter().filter(|((_, c), _)| is_stored(c)) {
            h.field(trace.as_bytes());
            h.field(config.as_bytes());
            h.field(digest.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn report(config: &str, cycles: u64, completed: u64) -> ConfigReport {
        ConfigReport {
            config: config.into(),
            prefetcher: String::new(),
            counters: vec![
                ("instructions".into(), 1000),
                ("cycles".into(), cycles),
                ("completed".into(), completed),
            ],
            values: vec![("ipc".into(), 1000.0 / cycles as f64)],
        }
    }

    #[test]
    fn digests_cover_every_counter_and_value_but_not_the_label() {
        let a = report("ftq2_fdp", 500, 1);
        assert_eq!(config_digest(&a), config_digest(&a.clone()));
        let mut labelled = a.clone();
        labelled.prefetcher = "fdp".into();
        assert_eq!(config_digest(&a), config_digest(&labelled));
        let mut counter = a.clone();
        counter.counters[0].1 += 1;
        assert_ne!(config_digest(&a), config_digest(&counter));
        let mut value = a.clone();
        value.values[0].1 = f64::from_bits(value.values[0].1.to_bits() + 1);
        assert_ne!(config_digest(&a), config_digest(&value));
        assert_ne!(
            config_digest(&a),
            config_digest(&report("ftq24_fdp", 500, 1))
        );
    }

    #[test]
    fn digest_table_round_trips() {
        let mut d = Digests::default();
        d.insert("w", "t", "ftq2_fdp", "00ff".into());
        d.insert("w", "t", "ftq24_fdp", "abcd".into());
        assert_eq!(Digests::parse(&d.render()), d);
        assert_eq!(d.get("w", "t", "ftq24_fdp"), Some("abcd"));
        assert_eq!(d.get("w", "u", "ftq24_fdp"), None);
    }

    #[test]
    fn stored_digests_cover_every_job() {
        let stored = Digests::stored();
        for w in &WORKLOADS {
            for spec in w.specs() {
                for id in ConfigId::ALL {
                    assert_eq!(
                        stored.get(w.name, &spec.name, id.label()).is_some(),
                        is_stored(id.label()),
                        "{}/{}/{} has no stored digest",
                        w.name,
                        spec.name,
                        id.label()
                    );
                }
            }
        }
    }

    #[test]
    fn failures_are_counted_per_operation() {
        let mut gate = Gate::new("w", None, true);
        let good = [
            report("ftq2_fdp", 100, 1),
            report("ftq24_fdp", 200, 1),
            report("ftq24_mana", 300, 1),
        ];
        gate.count_configs("t", &good);
        assert_eq!((gate.attempted, gate.failed), (3, 0));
        // A watchdog cut-off fails its job; equal cycle counts fail both
        // configurations that share them.
        gate.count_configs(
            "u",
            &[
                report("ftq2_fdp", 100, 0),
                report("ftq24_fdp", 200, 1),
                report("ftq24_mana", 200, 1),
            ],
        );
        assert_eq!((gate.attempted, gate.failed), (6, 3));
        // A repeat that disagrees with the first run of the same job fails.
        gate.count_configs(
            "t",
            &[
                report("ftq2_fdp", 100, 1),
                report("ftq24_fdp", 201, 1),
                report("ftq24_mana", 300, 1),
            ],
        );
        assert_eq!((gate.attempted, gate.failed), (9, 4));

        // Against stored digests: a match passes; a mismatch or a missing
        // entry fails, and AsmDB's configurations are not looked up.
        let mut stored = Digests::default();
        stored.insert("w", "t", "ftq2_fdp", config_digest(&good[0]));
        stored.insert("w", "t", "ftq24_fdp", "0".repeat(16));
        let mut gate = Gate::new("w", Some(stored), true);
        gate.count_configs("t", &good);
        assert_eq!((gate.attempted, gate.failed), (3, 2));
        gate.count_configs("v", &[report("ftq24_asmdb", 100, 1)]);
        assert_eq!((gate.attempted, gate.failed), (4, 2));
        // A failed request is one failed operation.
        gate.record("job t", vec!["POST /v1/jobs answered 503".into()]);
        assert_eq!((gate.attempted, gate.failed), (5, 3));
        assert!(gate.failures.iter().any(|f| f.contains("503")));
    }

    #[test]
    fn unparsable_served_reports_fail() {
        let mut gate = Gate::new("w", None, true);
        let (why, report) = gate.check_served("t", "not json");
        assert!(report.is_none());
        assert_eq!(why.len(), 1, "{why:?}");
    }
}
