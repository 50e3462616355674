//! Named metrics, their provenance labels, and the result line.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or memory read on the machine running the benchmark.
    Measured,
    /// Produced by the program's cost models (`fpga-sim`, `sem-serve`
    /// virtual time); repeats exactly for a fixed seed.
    Modelled,
    /// Closed-form arithmetic on sizes (operation and byte counts).
    Computed,
    /// An exact count of events.
    Count,
}

impl Kind {
    /// The label printed beside the value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Measured => "measured",
            Self::Modelled => "modelled",
            Self::Computed => "computed",
            Self::Count => "count",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`, starting with a letter or digit).
    pub name: String,
    /// Unit, as in `s`, `1/s` or `count`.
    pub unit: &'static str,
    /// Provenance.
    pub kind: Kind,
    /// The value, with all its digits.
    pub value: f64,
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered set of metrics with unique, validated names.
#[derive(Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Record a metric.
    ///
    /// # Panics
    /// Panics on an invalid or repeated name, or a non-finite value — each
    /// a bug in the benchmark, not in the program under test.
    pub fn push(&mut self, name: &str, unit: &'static str, kind: Kind, value: f64) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            kind,
            value,
        });
    }

    /// The metric called `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// All metrics in insertion order.
    #[must_use]
    pub fn all(&self) -> &[Metric] {
        &self.metrics
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed a correctness gate.
    pub failed: u64,
    /// Why each failure failed (bounded; the first few are enough to act on).
    pub failures: Vec<String>,
    /// The metrics for the requested mode.
    pub metrics: MetricSet,
    /// Extra context lines printed before the result.
    pub notes: Vec<String>,
}

/// Failure reasons kept per run; the count keeps going past it.
const MAX_FAILURE_REASONS: usize = 20;

impl RunResult {
    /// Count one checked answer, failing it with `reason` when `ok` is false.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_REASONS {
                self.failures.push(reason());
            }
        }
    }

    /// Whether every checked answer passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of checked answers that failed.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Render a float so that it parses back to the same value (Rust's `{:?}`
/// is shortest round-trip), keeping JSON-valid exponent syntax.
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// The single-line JSON result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(result: &RunResult) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct(),
        result.attempted,
        result.failed
    );
    for (i, metric) in result.metrics.all().iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    line.push_str("}}");
    line
}

/// Human-readable line for one metric.
#[must_use]
pub fn metric_line(metric: &Metric) -> String {
    format!(
        "  {:<40} {:>16.6e} {:<8} {}",
        metric.name,
        metric.value,
        metric.unit,
        metric.kind.label()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "setup_s",
            "kernel.ax.busy_s",
            "serve.nominal.mean_batch",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/x",
            "ünï",
            "a\"b",
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips_values() {
        let mut result = RunResult::default();
        result.check(true, String::new);
        result
            .metrics
            .push("latency_s", "s", Kind::Measured, 0.123_456_789_012_345_67);
        result.metrics.push("big", "count", Kind::Count, 1e21);
        let line = result_line(&result);
        let value = serde::json::parse_value(&line).expect("valid JSON");
        let serde::Value::Object(fields) = &value else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let latency = value
            .get("metrics")
            .and_then(|m| m.get("latency_s"))
            .and_then(|m| m.get("value"))
            .and_then(serde::Value::as_f64);
        assert_eq!(latency, Some(0.123_456_789_012_345_67));
    }

    #[test]
    fn a_run_with_a_failure_or_nothing_checked_is_not_correct() {
        let mut result = RunResult::default();
        assert!(!result.correct());
        result.check(true, String::new);
        assert!(result.correct());
        result.check(false, || "residual".into());
        assert!(!result.correct());
        assert_eq!(result.failures, ["residual"]);
        assert_eq!(result.failed_ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn repeated_names_are_a_benchmark_bug() {
        let mut set = MetricSet::default();
        set.push("x", "s", Kind::Measured, 1.0);
        set.push("x", "s", Kind::Measured, 2.0);
    }
}
