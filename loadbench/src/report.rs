//! What one run reports: metrics by name and unit, named output checks,
//! operation counts, notes, and the run's spans.

use crate::trace::SpanLog;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One verified property of the run's outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (every operation the run issued).
    pub attempted: u64,
    /// Operations whose result failed verification.
    pub failed: u64,
    /// Output checks; the run is correct only if all hold.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Context printed with the result (tail percentile, sample counts).
    pub notes: Vec<(String, String)>,
    /// Spans recorded by the traced window.
    pub spans: SpanLog,
}

impl Report {
    /// Adds an output check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Adds a note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}
