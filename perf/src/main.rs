//! `pva-perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]`
//!
//! Prints every metric with its name and unit, then, as the last line
//! of standard output, the result as one JSON object. With `--trace 1`
//! the spans of the traced round go to `out/<workload>.spans.jsonl`
//! under this package's directory.

use std::path::PathBuf;
use std::process::ExitCode;

use pva_perf::{result_json, run, Settings, Workload};

const USAGE: &str = "usage: pva-perf --workload paper-sdr|paper-ddr3|sparse-gather \
                     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]";

fn main() -> ExitCode {
    let (settings, out) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pva-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&settings);

    println!(
        "pva-perf {} seed {}: {} timed round(s) of {} requests; {} of {} requests failed",
        settings.workload.name(),
        settings.seed,
        report.rounds,
        report.requests_per_round,
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("  FAILED: {p}");
    }
    if let Some(spans) = &report.spans {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.jsonl", settings.workload.name()));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("pva-perf: writing {}: {e}", path.display()),
        }
    }
    let json = result_json(&report);
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("pva-perf: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    ExitCode::SUCCESS
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Settings, Option<PathBuf>), String> {
    let mut workload = None;
    let mut settings = Settings {
        workload: Workload::PaperSdr,
        seed: 1,
        seconds: 20.0,
        trace: false,
        rounds: None,
    };
    let mut out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => settings.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            // Self-tests only: a fixed number of timed rounds.
            "--rounds" => {
                settings.rounds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                )
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    settings.workload = workload.ok_or("--workload is required")?;
    Ok((settings, out))
}
