//! The diagnostic model: rules, severities, locations, and reports.

use std::fmt;

use swip_report::Json;

/// How serious a diagnostic is.
///
/// `Error` marks an artifact the simulator cannot be trusted with;
/// `Warn` marks something suspicious but survivable; `Info` is advisory.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// The artifact violates a hard invariant.
    Error,
    /// Suspicious, but simulation results may still be meaningful.
    Warn,
    /// Advisory only.
    Info,
}

impl Severity {
    /// Lower-case name used in both text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the analyzed artifact a diagnostic points.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Location {
    /// No specific location (whole-artifact diagnostics).
    None,
    /// Dynamic instruction index within the trace.
    Seq(u64),
    /// Static instruction address.
    Pc(u64),
    /// Basic-block id within the CFG.
    Block(u64),
    /// Index into the plan's insertion list.
    Insertion(u64),
}

impl Location {
    /// The location kind name used in JSON output.
    pub fn kind(self) -> &'static str {
        match self {
            Location::None => "none",
            Location::Seq(_) => "seq",
            Location::Pc(_) => "pc",
            Location::Block(_) => "block",
            Location::Insertion(_) => "insertion",
        }
    }

    /// The location value rendered as a string (`pc` renders as hex).
    pub fn value(self) -> String {
        match self {
            Location::None => String::new(),
            Location::Seq(n) | Location::Block(n) | Location::Insertion(n) => n.to_string(),
            Location::Pc(pc) => format!("{pc:#x}"),
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::None => f.write_str("-"),
            other => write!(f, "{} {}", other.kind(), other.value()),
        }
    }
}

/// One finding from an analysis pass.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable rule identifier (e.g. `T010`); the catalog lives in DESIGN.md.
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )
    }
}

/// The result of analyzing one artifact: every diagnostic, plus which
/// analysis families ran.
#[derive(Clone, Debug)]
pub struct Report {
    /// What was analyzed (trace name or file path).
    pub subject: String,
    /// Analysis families that ran (`decode`, `trace`, `cfg`, `plan`,
    /// `rewrite`, `coverage`). Families after a failing one are skipped.
    pub families: Vec<&'static str>,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Predicted-coverage summary, present when the `coverage` family ran
    /// (`analyze --coverage`).
    pub coverage: Option<crate::coverage::PredictedCoverage>,
}

impl Report {
    /// Builds a report (without a coverage summary; set
    /// [`Report::coverage`] after the coverage family runs).
    pub fn new(
        subject: impl Into<String>,
        families: Vec<&'static str>,
        diagnostics: Vec<Diagnostic>,
    ) -> Self {
        Report {
            subject: subject.into(),
            families,
            diagnostics,
            coverage: None,
        }
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Number of `Error` diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn` diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of `Info` diagnostics.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// True when at least one `Error` was found.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Renders the report as a single stable JSON object (schema documented
    /// in DESIGN.md §8).
    pub fn to_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string());
        let mut fields = vec![
            ("subject".into(), text(&self.subject)),
            (
                "families".into(),
                Json::Arr(self.families.iter().map(|f| text(f)).collect()),
            ),
            ("errors".into(), Json::U64(self.errors() as u64)),
            ("warnings".into(), Json::U64(self.warnings() as u64)),
            ("infos".into(), Json::U64(self.infos() as u64)),
        ];
        if let Some(cov) = &self.coverage {
            let counters = cov.counter_pairs().into_iter();
            fields.push((
                "coverage".into(),
                Json::Obj(counters.map(|(name, v)| (name, Json::U64(v))).collect()),
            ));
        }
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::Obj(vec![
                ("rule".into(), text(d.rule)),
                ("severity".into(), text(d.severity.name())),
                (
                    "location".into(),
                    Json::Obj(vec![
                        ("kind".into(), text(d.location.kind())),
                        ("value".into(), Json::Str(d.location.value())),
                    ]),
                ),
                ("message".into(), text(&d.message)),
            ])
        });
        fields.push(("diagnostics".into(), Json::Arr(diagnostics.collect())));
        Json::Obj(fields).render()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        if let Some(cov) = &self.coverage {
            writeln!(
                f,
                "predicted coverage: {}/{} sites useful ({} dead, {} redundant, {} late, \
                 {} clobbering); {}/{} target lines covered ({:.0}%)",
                cov.useful_sites,
                cov.sites,
                cov.dead_sites,
                cov.redundant_sites,
                cov.late_sites,
                cov.clobbering_sites,
                cov.covered_lines,
                cov.targeted_lines,
                cov.coverage_ratio() * 100.0,
            )?;
        }
        write!(
            f,
            "{}: {} error(s), {} warning(s), {} info(s) [{}]",
            self.subject,
            self.errors(),
            self.warnings(),
            self.infos(),
            self.families.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let d = Diagnostic::new("T010", Severity::Error, Location::Seq(5), "discontinuity");
        assert_eq!(d.to_string(), "error[T010] seq 5: discontinuity");
        let d = Diagnostic::new("P001", Severity::Warn, Location::Pc(0x40), "x");
        assert_eq!(d.to_string(), "warn[P001] pc 0x40: x");
    }

    #[test]
    fn json_escapes_and_counts() {
        let r = Report::new(
            "we\"ird\nname",
            vec!["trace"],
            vec![
                Diagnostic::new("T001", Severity::Error, Location::None, "a\\b"),
                Diagnostic::new("T014", Severity::Warn, Location::Pc(16), "m"),
            ],
        );
        let j = r.to_json();
        assert!(j.contains("\"subject\":\"we\\\"ird\\nname\""));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"warnings\":1"));
        assert!(j.contains("{\"kind\":\"pc\",\"value\":\"0x10\"}"));
        assert!(j.contains("\"message\":\"a\\\\b\""));
        assert!(r.has_errors());
    }
}
