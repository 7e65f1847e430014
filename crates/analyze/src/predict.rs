//! Predicted coverage diffed against measured [`RunReport`] counters.
//!
//! `swip bench` embeds each workload's [`PredictedCoverage`] (computed
//! statically from the AsmDB plan) in the run report it writes. This module
//! closes the loop: for every workload that both carries a coverage block
//! and simulated an AsmDB configuration, it compares
//!
//! * **predicted executions** (Σ anchor exec counts) against the measured
//!   `ftq.swpf_executed` counter — these should agree almost exactly, since
//!   the rewriter plants one `prefetch.i` per anchor execution; and
//! * the **predicted duplicate rate** (`duplicate_executions /
//!   predicted_executions`, the steady-state residency model behind
//!   `PredictedCoverage::duplicate_rate`) against the **measured duplicate
//!   rate** (`l1i.prefetch_hits / ftq.swpf_executed`) — a prefetch that
//!   hits in the L1-I is exactly one whose line was already resident.
//!
//! Both divergences are unitless fractions compared against one typed
//! [`DivergenceThreshold`]; semantics and the default tolerance are
//! documented in DESIGN.md §14. Measured counters come from the first
//! rewritten-trace AsmDB configuration in the report (`*_asmdb`, never the
//! `*_noov` hint variants, which execute no prefetch instructions).

use std::fmt;

use swip_report::RunReport;

use crate::coverage::PredictedCoverage;

/// Maximum tolerated divergence between a static prediction and the
/// measured counters, as a fraction in `[0, 1]`.
///
/// The default (0.35) is calibrated on paper sweeps from 20 k to 400 k
/// instructions, whose compared rows are all `ftq2_asmdb`, and documented
/// in DESIGN.md §14. FTQ-24 rows, such as a prefetcher-zoo report's
/// `ftq24_asmdb`, are outside that calibration. `swip analyze
/// --predict-vs --threshold` overrides it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DivergenceThreshold(pub f64);

impl Default for DivergenceThreshold {
    fn default() -> Self {
        DivergenceThreshold(0.35)
    }
}

impl DivergenceThreshold {
    /// Parses a threshold from CLI text; must be a finite fraction in
    /// `[0, 1]`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() && (0.0..=1.0).contains(&v) => Ok(DivergenceThreshold(v)),
            _ => Err(format!(
                "threshold must be a fraction in [0, 1], got {text:?}"
            )),
        }
    }
}

impl fmt::Display for DivergenceThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

/// One workload's prediction-vs-measurement comparison.
#[derive(Clone, Debug)]
pub struct PredictRow {
    /// Workload name.
    pub workload: String,
    /// The AsmDB configuration whose counters were compared.
    pub config: String,
    /// Statically predicted dynamic prefetch executions.
    pub predicted_executions: u64,
    /// Measured `ftq.swpf_executed`.
    pub measured_executions: u64,
    /// Predicted fraction of executions finding the line resident
    /// (`PredictedCoverage::duplicate_rate`).
    pub predicted_duplicate_rate: f64,
    /// Measured `l1i.prefetch_hits / ftq.swpf_executed`.
    pub measured_duplicate_rate: f64,
}

impl PredictRow {
    /// Relative error of the execution-count prediction.
    pub fn execution_divergence(&self) -> f64 {
        let denom = self.measured_executions.max(1) as f64;
        (self.predicted_executions as f64 - self.measured_executions as f64).abs() / denom
    }

    /// Absolute difference of the two duplicate-rate fractions.
    pub fn redundancy_divergence(&self) -> f64 {
        (self.predicted_duplicate_rate - self.measured_duplicate_rate).abs()
    }

    /// The larger of the two divergences — the number gated against the
    /// threshold.
    pub fn divergence(&self) -> f64 {
        self.execution_divergence()
            .max(self.redundancy_divergence())
    }
}

/// The full prediction diff over a run report.
#[derive(Clone, Debug)]
pub struct PredictionDiff {
    /// One row per comparable workload.
    pub rows: Vec<PredictRow>,
    /// Workloads skipped, with the reason (no coverage block, no AsmDB
    /// configuration, or no executed prefetches to compare against).
    pub skipped: Vec<(String, String)>,
    /// The threshold the diff was evaluated against.
    pub threshold: DivergenceThreshold,
}

/// A failure producing a [`PredictionDiff`].
#[derive(Clone, PartialEq, Debug)]
pub enum PredictError {
    /// The report contained no workload that could be compared.
    NothingToCompare,
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::NothingToCompare => f.write_str(
                "report has no workload with both a coverage block and a measured \
                 AsmDB configuration (run `swip bench` with an asmdb config first)",
            ),
        }
    }
}

impl std::error::Error for PredictError {}

impl PredictionDiff {
    /// Compares every comparable workload of `report` against its embedded
    /// coverage prediction.
    ///
    /// # Errors
    ///
    /// [`PredictError::NothingToCompare`] when no workload carries both a
    /// coverage block and counters from a rewritten-trace AsmDB
    /// configuration.
    pub fn against(
        report: &RunReport,
        threshold: DivergenceThreshold,
    ) -> Result<Self, PredictError> {
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        for w in &report.workloads {
            if w.coverage.is_empty() {
                skipped.push((w.name.clone(), "no coverage block".to_string()));
                continue;
            }
            // Rewritten-trace AsmDB configs only: the `_noov` variants model
            // zero-overhead hints and execute no prefetch instructions.
            let Some(c) = w.configs.iter().find(|c| c.config.ends_with("_asmdb")) else {
                skipped.push((
                    w.name.clone(),
                    "no rewritten-trace asmdb config".to_string(),
                ));
                continue;
            };
            let (Some(swpf), Some(pf_hits)) = (
                c.counter("ftq.swpf_executed"),
                c.counter("l1i.prefetch_hits"),
            ) else {
                skipped.push((w.name.clone(), "missing prefetch counters".to_string()));
                continue;
            };
            let cov = PredictedCoverage::from_counter_pairs(&w.coverage);
            let measured_duplicate_rate = if swpf == 0 {
                0.0
            } else {
                pf_hits as f64 / swpf as f64
            };
            rows.push(PredictRow {
                workload: w.name.clone(),
                config: c.config.clone(),
                predicted_executions: cov.predicted_executions,
                measured_executions: swpf,
                predicted_duplicate_rate: cov.duplicate_rate(),
                measured_duplicate_rate,
            });
        }
        if rows.is_empty() {
            return Err(PredictError::NothingToCompare);
        }
        Ok(PredictionDiff {
            rows,
            skipped,
            threshold,
        })
    }

    /// Whether every row diverges at most by the threshold.
    pub fn is_clean(&self) -> bool {
        self.rows.iter().all(|r| r.divergence() <= self.threshold.0)
    }

    /// The largest divergence across all rows.
    pub fn max_divergence(&self) -> f64 {
        self.rows
            .iter()
            .map(PredictRow::divergence)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for PredictionDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "predicted vs measured prefetch behaviour (threshold {}):",
            self.threshold
        )?;
        for r in &self.rows {
            let verdict = if r.divergence() <= self.threshold.0 {
                "ok"
            } else {
                "DIVERGES"
            };
            writeln!(
                f,
                "  {} [{}]: executions {} predicted / {} measured (Δ {:.2}), \
                 duplicate rate {:.2} predicted / {:.2} measured (Δ {:.2}) — {verdict}",
                r.workload,
                r.config,
                r.predicted_executions,
                r.measured_executions,
                r.execution_divergence(),
                r.predicted_duplicate_rate,
                r.measured_duplicate_rate,
                r.redundancy_divergence(),
            )?;
        }
        for (name, why) in &self.skipped {
            writeln!(f, "  {name}: skipped ({why})")?;
        }
        write!(
            f,
            "{} workload(s) compared, max divergence {:.2} — {}",
            self.rows.len(),
            self.max_divergence(),
            if self.is_clean() { "clean" } else { "diverged" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_report::{ConfigReport, WorkloadReport};

    fn report_with(coverage: Vec<(String, u64)>, config: &str, swpf: u64, hits: u64) -> RunReport {
        let mut r = RunReport::new("all", 20_000, 16, 1);
        r.workloads.push(WorkloadReport {
            name: "w0".into(),
            job_seconds: 0.0,
            coverage,
            configs: vec![ConfigReport {
                config: config.into(),
                prefetcher: String::new(),
                counters: vec![
                    ("ftq.swpf_executed".into(), swpf),
                    ("l1i.prefetch_hits".into(), hits),
                ],
                values: vec![],
            }],
        });
        r.seal();
        r
    }

    fn cov(predicted: u64, duplicates: u64) -> Vec<(String, u64)> {
        vec![
            ("predicted_executions".into(), predicted),
            ("duplicate_executions".into(), duplicates),
        ]
    }

    #[test]
    fn matching_prediction_is_clean() {
        let r = report_with(cov(100, 20), "ftq24_asmdb", 100, 20);
        let diff = PredictionDiff::against(&r, DivergenceThreshold::default()).unwrap();
        assert!(diff.is_clean(), "{diff}");
        assert_eq!(diff.rows.len(), 1);
        assert!(diff.max_divergence() < 1e-9);
    }

    #[test]
    fn large_rate_gap_diverges() {
        // Predicted 0% duplicates, measured 80%.
        let r = report_with(cov(100, 0), "ftq2_asmdb", 100, 80);
        let diff = PredictionDiff::against(&r, DivergenceThreshold::default()).unwrap();
        assert!(!diff.is_clean());
        assert_eq!(diff.rows.len(), 1);
        assert!(diff.to_string().contains("DIVERGES"));
        // A looser threshold accepts the same rows.
        let diff = PredictionDiff::against(&r, DivergenceThreshold(0.9)).unwrap();
        assert!(diff.is_clean());
    }

    #[test]
    fn noov_configs_are_never_compared() {
        let mut r = report_with(cov(100, 0), "ftq24_asmdb_noov", 0, 0);
        let err = PredictionDiff::against(&r, DivergenceThreshold::default()).unwrap_err();
        assert_eq!(err, PredictError::NothingToCompare);
        // Without a coverage block the workload is skipped too.
        r.workloads[0].coverage.clear();
        let err = PredictionDiff::against(&r, DivergenceThreshold::default()).unwrap_err();
        assert_eq!(err, PredictError::NothingToCompare);
    }

    #[test]
    fn prefetcher_zoo_configs_are_never_compared() {
        // MANA and shadow-BTB runs execute hardware prefetches, not AsmDB
        // insertions — their counters must never be held against the
        // static coverage prediction.
        for label in ["ftq24_mana", "ftq24_shadow_btb"] {
            let r = report_with(cov(100, 0), label, 100, 80);
            let err = PredictionDiff::against(&r, DivergenceThreshold::default()).unwrap_err();
            assert_eq!(err, PredictError::NothingToCompare, "{label}");
        }
    }

    #[test]
    fn threshold_parses_strictly() {
        assert_eq!(
            DivergenceThreshold::parse("0.5"),
            Ok(DivergenceThreshold(0.5))
        );
        assert!(DivergenceThreshold::parse("1.5").is_err());
        assert!(DivergenceThreshold::parse("-0.1").is_err());
        assert!(DivergenceThreshold::parse("NaN").is_err());
        assert!(DivergenceThreshold::parse("x").is_err());
    }
}
