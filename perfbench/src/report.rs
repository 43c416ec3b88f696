//! Metrics of one workload run, the run record, and the printed report.

use crate::span::Tracer;
use crate::stats;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `search_p50_us`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// How the value was taken, when the name alone does not say.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload shape: sizes, clients, parameters.
    pub shape: String,
    /// Measurements, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and errors; any makes the run incorrect.
    pub violations: u64,
    /// The first few violations, verbatim.
    pub messages: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(workload: &'static str, shape: String) -> Self {
        Self {
            workload,
            shape,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: 0,
            messages: Vec::new(),
            tracer: None,
        }
    }

    /// Add a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Add `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>`. With fewer than
    /// 1000 samples the tail is the highest percentile that still has ten
    /// samples beyond it, and its note says which.
    pub fn push_summary(&mut self, prefix: &str, samples: &[f64], unit: &'static str) {
        let Some(s) = stats::summarize(samples) else {
            self.violation(format!("{prefix}: only {} samples", samples.len()));
            return;
        };
        self.push(Metric::new(
            format!("{prefix}_p50_{unit}"),
            s.p50,
            unit,
            s.n,
        ));
        let tail = Metric::new(format!("{prefix}_p99_{unit}"), s.tail, unit, s.n);
        self.push(if s.tail_pct < 99.0 {
            tail.note(format!("p{} by the sample rule", s.tail_pct))
        } else {
            tail
        });
    }

    /// Record a failed check or error.
    pub fn violation(&mut self, msg: String) {
        self.violations += 1;
        if self.messages.len() < 10 {
            self.messages.push(msg);
        }
    }

    /// Fold in a client tally's operation counts and failed checks.
    pub fn absorb(&mut self, t: &crate::workloads::Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.violations += t.violations;
        for m in &t.messages {
            if self.messages.len() < 10 {
                self.messages.push(m.clone());
            }
        }
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Print one line per metric, then the violations.
    pub fn print(&self) {
        println!("workload {} shape: {}", self.workload, self.shape);
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(", {}", m.note)
            };
            println!(
                "  {:<34} {:>16.4} {:<7} (n={}{note})",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  operations: {} attempted, {} failed, {} failed checks",
            self.attempted, self.failed, self.violations
        );
        for msg in &self.messages {
            println!("  FAILED CHECK: {msg}");
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from: `git rev-parse HEAD`, else
/// `unknown` (a source export has no history).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Format a number for JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_names_the_tail_it_could_measure() {
        let mut o = Outcome::new("t", String::new());
        o.push_summary(
            "search",
            &(1..=200).map(f64::from).collect::<Vec<_>>(),
            "us",
        );
        assert_eq!(o.get("search_p50_us"), Some(100.0));
        assert_eq!(o.get("search_p99_us"), Some(190.0));
        assert!(o.metrics[1].note.contains("p95"));
        o.push_summary("insert", &[1.0; 5], "us");
        assert_eq!(o.violations, 1);
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert!(peak_rss_mb() > 0.0);
    }
}
