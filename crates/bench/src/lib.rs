//! # pva-bench — data generation for every table and figure
//!
//! Each table/figure of the paper's evaluation is a scenario of the
//! `pva-bench` CLI ([`scenarios`]), which prints the series and records
//! each cell's simulation wall time; this root module keeps the
//! scheduler-ablation probes. See `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kernels::{Alignment, Kernel};
use pva_sim::{PvaConfig, RowPolicy};

pub mod engine;
pub mod faults;
pub mod journal;
pub mod json;
pub mod report;
pub mod resilient;
pub mod scenarios;

/// The ablation configurations of §5.2, in presentation order.
pub fn ablation_configs() -> Vec<(&'static str, PvaConfig)> {
    let mut out = vec![("baseline (all features)", PvaConfig::default())];

    let mut c = PvaConfig::default();
    c.options.out_of_order = false;
    out.push(("no out-of-order issue", c));

    let mut c = PvaConfig::default();
    c.options.promote_opens = false;
    out.push(("no open/precharge promotion", c));

    let mut c = PvaConfig::default();
    c.options.bypass_paths = false;
    out.push(("no bypass paths", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::PaperLiteral;
    out.push(("row policy: paper-literal", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::AlwaysClose;
    out.push(("row policy: always close", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::AlwaysOpen;
    out.push(("row policy: always open", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::AlphaHistory;
    out.push(("row policy: 21174 4-bit history", c));

    out
}

/// Ablation probe 1: single-command gather latency at stride 5
/// (non-power-of-two — FHC + §5.2.3 bypass paths).
pub fn ablation_latency_s5(cfg: PvaConfig) -> u64 {
    use pva_core::Vector;
    use pva_sim::{HostRequest, PvaUnit};
    let mut unit = PvaUnit::new(cfg).expect("valid config");
    let v = Vector::new(0, 5, 32).expect("valid vector");
    unit.run(vec![HostRequest::Read { vector: v }])
        .expect("runs")
        .cycles
}

/// Ablation probe 2: vaxpy at stride 16, coincident alignment
/// (bank-bound, row-conflict heavy — the scheduler's home turf). The
/// `techsweep` scenario runs it on every device preset as its
/// row-conflict probe.
pub fn ablation_vaxpy_s16(label: &'static str, cfg: PvaConfig) -> u64 {
    use memsys::MemorySystem;
    let k = Kernel::Vaxpy;
    let bases = Alignment::Coincident.bases(k.array_count(), kernels::ARRAY_REGION);
    let trace = k.trace(&bases, 16, kernels::ELEMENTS, kernels::LINE_WORDS);
    memsys::PvaSystem::with_config(label, cfg)
        .run_trace(&trace)
        .cycles
}

/// Ablation probe 3: alternating read/write commands all hitting one
/// bank (polarity rule + out-of-order issue).
pub fn ablation_rw_mix_s16(cfg: PvaConfig) -> u64 {
    use pva_core::Vector;
    use pva_sim::{HostRequest, PvaUnit};
    let mut unit = PvaUnit::new(cfg).expect("valid config");
    let reqs: Vec<HostRequest> = (0..8u64)
        .map(|i| {
            let v = Vector::new(i * 512 * 16, 16, 32).expect("valid vector");
            if i % 2 == 0 {
                HostRequest::Read { vector: v }
            } else {
                HostRequest::Write {
                    vector: v,
                    data: vec![0; 32],
                }
            }
        })
        .collect();
    unit.run(reqs).expect("runs").cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value after the `:` of the golden line starting with
    /// `label`, without a trailing `x`.
    fn headline_value(golden: &str, label: &str) -> f64 {
        let line = golden
            .lines()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("no `{label}` line in the headline golden"));
        let (_, rest) = line.split_once(':').expect("label: value");
        let value = rest.split_whitespace().next().expect("a value");
        value
            .trim_end_matches('x')
            .parse()
            .unwrap_or_else(|e| panic!("`{value}` in `{line}`: {e}"))
    }

    #[test]
    fn headline_directions_are_right() {
        // `pva-bench all --verify results` pins this golden to the code.
        let path = format!(
            "{}/../../results/headline_speedups.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read_to_string(&path).expect("headline golden readable");
        let value = |label| headline_value(&golden, label);
        assert!(
            value("max speedup vs cache-line serial") > 5.0,
            "big win at large strides"
        );
        assert!(
            value("max speedup vs gathering serial") > 1.0,
            "beats serial gathering"
        );
        assert!(
            value("worst unit-stride cacheline/pva") > 0.7,
            "line fills not hurt"
        );
        assert!(value("worst-case SDRAM/SRAM gap") < 1.5, "close to SRAM");
    }

    #[test]
    fn ablations_cover_all_switches() {
        let latencies: Vec<(&str, u64)> = ablation_configs()
            .into_iter()
            .map(|(label, cfg)| (label, ablation_latency_s5(cfg)))
            .collect();
        assert_eq!(latencies.len(), 8);
        assert!(latencies.iter().all(|&(_, l)| l > 0));
        // The bypass-path ablation must show up in single-command
        // latency (the §5.2.3 claim).
        let base = latencies[0].1;
        let no_bypass = latencies
            .iter()
            .find(|(label, _)| label.contains("bypass"))
            .expect("bypass row present")
            .1;
        assert!(no_bypass > base, "bypass paths reduce idle latency");
    }
}
