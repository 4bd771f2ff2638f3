//! Metrics, provenance and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 when it is not a sample statistic).
    pub samples: u64,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 0,
        }
    }

    /// A sample statistic over `samples` values.
    pub fn sampled(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) -> Metric {
        Metric {
            samples,
            ..Metric::new(name, value, unit)
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests (or simulated configurations) attempted.
    pub attempted: u64,
    /// Errors, unanswered requests and claim-table violations.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with all its digits (`null` otherwise).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// Human-readable metric table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
            if m.samples > 0 {
                let _ = write!(out, "  (n={})", m.samples);
            }
            out.push('\n');
        }
        out
    }

    /// The final JSON line, with the metrics `listed` accepts.
    pub fn result_line(&self, listed: impl Fn(&str) -> bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| listed(&m.name))
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where and how a result was measured, as one JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, settings: &str) -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let git_sha = command("git", &["rev-parse", "HEAD"]);
    let rustc = command("rustc", &["--version"]);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"provenance\": {{\"git_sha\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \
         \"profile\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"settings\": {settings}}}}}",
        json_str(&git_sha),
        json_str(&kernel),
        json_str(&rustc),
        json_str(profile),
        json_str(workload),
    )
}
