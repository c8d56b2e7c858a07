//! Aggregated verification reports with JSON serialization for CI
//! artifacts.

use std::fmt;

use crate::diag::{escape_json, Diagnostic};

/// The outcome of a verification pass: every diagnostic found, tagged with
/// the context that produced it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Label of the verified artifact (e.g. the workload name).
    pub subject: String,
    /// Checks that ran, in order (for artifact readability).
    pub checks: Vec<String>,
    /// Every diagnostic, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Named scalar measurements (e.g. the value-range pass's certified
    /// conv count and widest accumulator), serialized into the CI
    /// artifact.
    pub stats: Vec<(String, u64)>,
}

impl VerifyReport {
    /// An empty report for `subject`.
    #[must_use]
    pub fn new(subject: impl Into<String>) -> Self {
        VerifyReport {
            subject: subject.into(),
            checks: Vec::new(),
            diagnostics: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Records that a named check ran and absorbs its diagnostics.
    pub fn record(&mut self, check: impl Into<String>, diags: Vec<Diagnostic>) {
        self.checks.push(check.into());
        self.diagnostics.extend(diags);
    }

    /// Records one named scalar measurement for the CI artifact.
    pub fn stat(&mut self, name: impl Into<String>, value: u64) {
        self.stats.push((name.into(), value));
    }

    /// True when no check produced a diagnostic.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serializes the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| format!("\"{}\"", escape_json(c)))
            .collect();
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        let stats: Vec<String> = self
            .stats
            .iter()
            .map(|(name, value)| format!(r#""{}":{value}"#, escape_json(name)))
            .collect();
        format!(
            r#"{{"subject":"{}","clean":{},"checks":[{}],"stats":{{{}}},"diagnostics":[{}]}}"#,
            escape_json(&self.subject),
            self.is_clean(),
            checks.join(","),
            stats.join(","),
            diags.join(",")
        )
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} check(s), {} diagnostic(s)",
            self.subject,
            self.checks.len(),
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::ErrorCode;

    #[test]
    fn report_aggregates_and_serializes() {
        let mut r = VerifyReport::new("tiny_cnn");
        r.record("layouts", Vec::new());
        assert!(r.is_clean());
        r.record(
            "hazards",
            vec![Diagnostic::new(
                ErrorCode::OperandOverlap,
                "mul",
                "a overlaps b",
            )],
        );
        assert!(!r.is_clean());
        let json = r.to_json();
        r.stat("range_convs", 9);
        assert!(json.contains(r#""subject":"tiny_cnn""#));
        assert!(json.contains(r#""clean":false"#));
        assert!(json.contains("V001"));
        assert!(r.to_json().contains(r#""stats":{"range_convs":9}"#));
        assert!(r.to_string().contains("2 check(s)"));
    }
}
