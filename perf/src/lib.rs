//! # pva-perf — a data-checked benchmark of the PVA simulator
//!
//! Runs one workload of seeded, closed-loop traffic through the
//! cycle-level PVA unit, checks every returned word against a
//! sequential reference memory, and reports end-to-end metrics (host
//! time per round, set-up time, peak memory, simulated cycles and
//! transaction latency) or, from an extra traced round, per-layer
//! metrics of `pva-core`, the unit, its bank controllers and the SDRAM
//! devices. See `README.md` for the workloads and the metric map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod oracle;
pub mod replay;
pub mod spans;
pub mod workload;

pub use harness::{run, Metric, Report, Settings};
pub use workload::Workload;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its value and unit.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
