//! `pva-bench` — the unified experiment CLI.
//!
//! ```text
//! pva-bench list
//! pva-bench <scenario> [--jobs N] [--json DIR] [--out DIR] [--verify DIR]
//!                      [--device PRESET] [EXEC FLAGS]
//! pva-bench all [--smoke] [--jobs N] [--json DIR] [--out DIR] [--verify DIR]
//!               [--min-speedup X] [--device PRESET] [EXEC FLAGS]
//! pva-bench validate FILE...
//! pva-bench diff A.json B.json
//!
//! EXEC FLAGS: [--journal PATH] [--resume] [--cell-timeout SECS] [--strict]
//! ```
//!
//! `--device` narrows device-parameterized scenarios (currently the
//! `techsweep` generation sweep) to one named [`sdram::DevicePreset`]
//! — the per-generation CI smoke. The preset is passed to the scenario
//! registry as a value; such runs write and verify per-preset goldens
//! (`techsweep.<preset>.txt`) instead of the default-sweep
//! `techsweep.txt`. The `chaos` dev scenario takes its fault-injection
//! spec the same way, as a value in its name:
//! `pva-bench chaos:cells=8,sleep_ms=60,panic=1`.
//!
//! A single scenario prints exactly what its legacy binary printed
//! (goldens live in `results/`). `all` fans every cell of every
//! selected scenario across a work-stealing pool, writes per-scenario
//! text (`--out`) and `BENCH_<name>.json` records (`--json`), and can
//! diff the text against committed goldens (`--verify`). `--min-speedup`
//! gates on the smaller of the `throughput` scenario's per-device
//! fast-path speedups (`sdr100` and `ddr3-1600`).
//!
//! Execution is resilient: `--journal` checkpoints every completed cell
//! to a write-ahead JSONL file so a killed run continues with
//! `--resume`; `--cell-timeout` bounds each cell's wall clock (default
//! 120 s, 0 disables) with a watchdog that abandons a cell still
//! running when its budget ends. Each cell runs once: its simulations
//! are deterministic, so a rerun would fail the same way. A failed cell
//! is quarantined into the record's `failures` section — or aborts the
//! run under `--strict`. `validate` checks `BENCH_*.json` records *and*
//! journal files; `diff` compares two records canonically (ignoring
//! wall-clock fields).
//!
//! `--jobs` takes 1 to 256 workers (default: the CPU count, capped the
//! same way); a larger value is a usage error.
//!
//! Exit codes: 0 ok · 1 runtime error · 2 usage · 3 verify/diff
//! mismatch · 4 schema-invalid input · 5 cell failures present.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pva_bench::engine::{
    run_scenarios_checked, EngineError, EngineRun, ExecConfig, RunRecord, Scenario, ScenarioReport,
};
use pva_bench::journal;
use pva_bench::resilient::{CellFailure, ExecPolicy};
use pva_bench::scenarios::{
    find, scenarios, techsweep_metrics, throughput_metrics, throughput_speedup,
};
use sdram::DevicePreset;

/// Everything went fine.
const EXIT_OK: u8 = 0;
/// Runtime/environment error (I/O, unreadable journal, strict-less
/// engine failure).
const EXIT_ERROR: u8 = 1;
/// Bad command line.
const EXIT_USAGE: u8 = 2;
/// `--verify` golden mismatch, `--min-speedup` gate failure, or `diff`
/// records differ.
const EXIT_VERIFY: u8 = 3;
/// `validate`/`diff` input failed to parse or validate.
const EXIT_SCHEMA: u8 = 4;
/// One or more cells were quarantined (also used for `--strict`
/// aborts).
const EXIT_CELL_FAILURES: u8 = 5;

/// Largest `--jobs` accepted. Each worker may run its cell on a thread
/// of its own, so this keeps a run below ~2 × `MAX_JOBS` threads.
const MAX_JOBS: usize = 256;

/// What went wrong during a run; folded into one documented exit code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RunStatus {
    /// I/O or engine-environment error.
    error: bool,
    /// Quarantined cells present (or a strict abort).
    cell_failures: bool,
    /// Golden text / throughput-gate mismatch.
    verify_mismatch: bool,
    /// A record or journal failed schema validation.
    schema_invalid: bool,
}

/// The documented exit-code mapping, most severe first: cell failures
/// (5) over schema problems (4) over verify mismatches (3) over plain
/// errors (1).
fn exit_code(s: RunStatus) -> u8 {
    if s.cell_failures {
        EXIT_CELL_FAILURES
    } else if s.schema_invalid {
        EXIT_SCHEMA
    } else if s.verify_mismatch {
        EXIT_VERIFY
    } else if s.error {
        EXIT_ERROR
    } else {
        EXIT_OK
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pva-bench list\n\
         \x20      pva-bench <scenario> [--jobs N] [--json DIR] [--out DIR]\n\
         \x20                           [--verify DIR] [--device PRESET] [EXEC FLAGS]\n\
         \x20      pva-bench all [--smoke] [--jobs N] [--json DIR] [--out DIR]\n\
         \x20                    [--verify DIR] [--min-speedup X] [--device PRESET]\n\
         \x20                    [EXEC FLAGS]\n\
         \x20      pva-bench validate FILE...\n\
         \x20      pva-bench diff A.json B.json\n\
         --jobs N: 1 to {MAX_JOBS} worker threads (default: the CPU count)\n\
         EXEC FLAGS: [--journal PATH] [--resume] [--cell-timeout SECS] [--strict]\n\
         \x20           each cell runs once; --cell-timeout (default 120, 0 disables)\n\
         \x20           quarantines a cell still running after SECS seconds\n\
         exit codes: 0 ok, 1 error, 2 usage, 3 verify/diff mismatch,\n\
         \x20           4 schema-invalid, 5 cell failures\n\
         run `pva-bench list` for scenario names; --device takes one of: {}",
        device_names()
    );
    std::process::exit(EXIT_USAGE as i32);
}

/// Comma-separated CLI slugs of every shipped device preset.
fn device_names() -> String {
    DevicePreset::ALL
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join(", ")
}

struct Options {
    jobs: usize,
    smoke: bool,
    json_dir: Option<String>,
    out_dir: Option<String>,
    verify_dir: Option<String>,
    min_speedup: Option<f64>,
    device: Option<DevicePreset>,
    journal: Option<String>,
    resume: bool,
    /// Per-cell wall-clock budget; `None` disables the watchdog.
    cell_timeout: Option<Duration>,
    strict: bool,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS)),
        smoke: false,
        json_dir: None,
        out_dir: None,
        verify_dir: None,
        min_speedup: None,
        device: None,
        journal: None,
        resume: false,
        cell_timeout: Some(Duration::from_secs(120)),
        strict: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} takes a value");
                    std::process::exit(EXIT_USAGE as i32);
                })
                .clone()
        };
        match a.as_str() {
            "--smoke" => o.smoke = true,
            "--jobs" => {
                o.jobs = value("--jobs").parse().unwrap_or(0);
                if !(1..=MAX_JOBS).contains(&o.jobs) {
                    eprintln!("--jobs takes an integer from 1 to {MAX_JOBS}");
                    std::process::exit(EXIT_USAGE as i32);
                }
            }
            "--json" => o.json_dir = Some(value("--json")),
            "--out" => o.out_dir = Some(value("--out")),
            "--verify" => o.verify_dir = Some(value("--verify")),
            "--min-speedup" => {
                o.min_speedup = Some(value("--min-speedup").parse().unwrap_or_else(|_| {
                    eprintln!("--min-speedup takes a number");
                    std::process::exit(EXIT_USAGE as i32);
                }))
            }
            "--device" => {
                let name = value("--device");
                let Some(preset) = DevicePreset::from_name(name.trim()) else {
                    eprintln!(
                        "--device: unknown preset '{name}' (expected one of: {})",
                        device_names()
                    );
                    std::process::exit(EXIT_USAGE as i32);
                };
                o.device = Some(preset);
            }
            "--journal" => o.journal = Some(value("--journal")),
            "--resume" => o.resume = true,
            "--cell-timeout" => {
                let secs: f64 = value("--cell-timeout").parse().unwrap_or(f64::NAN);
                // Rejects negative, non-finite and unrepresentably large
                // values alike.
                let Ok(limit) = Duration::try_from_secs_f64(secs) else {
                    eprintln!("--cell-timeout takes seconds (0 disables)");
                    std::process::exit(EXIT_USAGE as i32);
                };
                o.cell_timeout = (secs != 0.0).then_some(limit);
            }
            "--strict" => o.strict = true,
            _ => usage(),
        }
    }
    if o.resume && o.journal.is_none() {
        eprintln!("--resume requires --journal PATH");
        std::process::exit(EXIT_USAGE as i32);
    }
    o
}

fn exec_config(o: &Options) -> ExecConfig {
    ExecConfig {
        jobs: o.jobs,
        policy: ExecPolicy {
            cell_timeout: o.cell_timeout,
            strict: o.strict,
        },
        journal: o.journal.as_ref().map(PathBuf::from),
        resume: o.resume,
    }
}

/// Attaches scenario-specific derived metrics to the structured
/// records (the throughput scenario's fast-path speedup; the techsweep
/// scenario's generation-aware scheduler counters). Scenarios with
/// quarantined cells keep empty metrics.
fn attach_metrics(reports: &mut [ScenarioReport]) {
    if let Some(r) = reports.iter_mut().find(|r| r.name == "throughput") {
        if r.record.failures.is_empty() {
            r.record.metrics = throughput_metrics(&r.data);
        }
    }
    if let Some(r) = reports.iter_mut().find(|r| r.name == "techsweep") {
        if r.record.failures.is_empty() {
            r.record.metrics = techsweep_metrics(&r.data);
        }
    }
}

/// File stem of a report's rendered-text output and golden. A
/// device-narrowed run (`--device`) of the device-sensitive techsweep
/// scenario renders a different table per preset, so each preset gets
/// its own golden (`techsweep.<preset>.txt`); JSON records keep the
/// plain name — CI already separates them by directory.
fn text_stem(name: &str, device: Option<DevicePreset>) -> String {
    match device {
        Some(d) if name == "techsweep" => format!("{name}.{}", d.name()),
        _ => name.to_string(),
    }
}

fn write_outputs(reports: &[ScenarioReport], opts: &Options) -> Result<(), String> {
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for r in reports {
            let path = format!("{dir}/BENCH_{}.json", r.name);
            std::fs::write(&path, r.record.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for r in reports {
            let path = format!("{dir}/{}.txt", text_stem(r.name, opts.device));
            std::fs::write(&path, &r.text).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Diffs rendered text against `<dir>/<stem>.txt` goldens; returns the
/// names that mismatched.
fn verify(reports: &[ScenarioReport], dir: &str, device: Option<DevicePreset>) -> Vec<String> {
    let mut bad = Vec::new();
    for r in reports.iter().filter(|r| r.golden) {
        let path = format!("{dir}/{}.txt", text_stem(r.name, device));
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == r.text => {}
            Ok(_) => bad.push(format!("{} (differs from {path})", r.name)),
            Err(e) => bad.push(format!("{} (cannot read {path}: {e})", r.name)),
        }
    }
    bad
}

fn gate_speedup(reports: &[ScenarioReport], floor: f64) -> Result<f64, String> {
    let t = reports
        .iter()
        .find(|r| r.name == "throughput")
        .ok_or("--min-speedup given but the throughput scenario did not run")?;
    if !t.record.failures.is_empty() {
        return Err("--min-speedup given but a throughput probe cell was quarantined".into());
    }
    let speedup = throughput_speedup(&t.data);
    if speedup < floor {
        return Err(format!(
            "smallest per-device fast-path speedup {speedup:.2}x is below the \
             --min-speedup floor {floor:.2}x"
        ));
    }
    Ok(speedup)
}

/// Prints quarantined-cell details to stderr; returns how many there
/// were.
fn report_failures(reports: &[ScenarioReport]) -> usize {
    let mut n = 0;
    for r in reports {
        for f in &r.record.failures {
            n += 1;
            eprintln!(
                "cell FAILED: {}: [{}] {} {}: {}",
                r.name, f.kind, f.system, f.label, f.message
            );
        }
    }
    n
}

fn run_checked(selected: &[&Scenario], opts: &Options) -> Result<EngineRun, (String, RunStatus)> {
    run_scenarios_checked(selected, &exec_config(opts)).map_err(|e| {
        let status = match &e {
            EngineError::StrictFailure(_) => RunStatus {
                cell_failures: true,
                ..RunStatus::default()
            },
            EngineError::Environment(_) => RunStatus {
                error: true,
                ..RunStatus::default()
            },
        };
        (e.to_string(), status)
    })
}

fn cmd_all(opts: &Options) -> ExitCode {
    let all = scenarios(opts.device);
    let selected: Vec<&Scenario> = all.iter().filter(|s| !opts.smoke || s.smoke).collect();
    eprintln!(
        "running {} scenario(s) on {} worker(s){}",
        selected.len(),
        opts.jobs,
        if opts.smoke { " [smoke subset]" } else { "" }
    );
    let mut status = RunStatus::default();
    let run = match run_checked(&selected, opts) {
        Ok(run) => run,
        Err((msg, st)) => {
            eprintln!("error: {msg}");
            return ExitCode::from(exit_code(st));
        }
    };
    if run.resumed_cells > 0 {
        eprintln!("resumed {} cell(s) from the journal", run.resumed_cells);
    }
    let mut reports = run.reports;
    attach_metrics(&mut reports);
    if let Err(e) = write_outputs(&reports, opts) {
        eprintln!("error: {e}");
        status.error = true;
    }

    let mut t = pva_bench::report::Table::new(vec![
        "scenario",
        "cells",
        "sim cycles",
        "bytes moved",
        "wall ms",
        "Mcycles/s",
    ]);
    for r in &reports {
        t.row(vec![
            r.name.to_string(),
            r.record.cells.len().to_string(),
            r.record.total_cycles.to_string(),
            r.record.total_bytes.to_string(),
            format!("{:.1}", r.record.wall_ns as f64 / 1e6),
            format!("{:.2}", r.record.sim_cycles_per_sec / 1e6),
        ]);
    }
    println!("{t}");

    if report_failures(&reports) > 0 {
        status.cell_failures = true;
        eprintln!(
            "{} cell(s) quarantined; partial results written (exit code {})",
            run.failed_cells, EXIT_CELL_FAILURES
        );
    }
    if let Some(dir) = &opts.verify_dir {
        let bad = verify(&reports, dir, opts.device);
        if bad.is_empty() {
            let checked = reports.iter().filter(|r| r.golden).count();
            println!("verify: {checked} scenario(s) byte-identical to {dir}/");
        } else {
            status.verify_mismatch = true;
            for b in &bad {
                eprintln!("verify FAILED: {b}");
            }
        }
    }
    if let Some(floor) = opts.min_speedup {
        match gate_speedup(&reports, floor) {
            Ok(s) => println!(
                "throughput gate: smallest per-device fast-path speedup {s:.2}x >= {floor:.2}x"
            ),
            Err(e) => {
                status.verify_mismatch = true;
                eprintln!("error: {e}");
            }
        }
    }
    ExitCode::from(exit_code(status))
}

fn cmd_one(name: &str, opts: &Options) -> ExitCode {
    let Some(s) = find(name, opts.device) else {
        eprintln!("unknown scenario '{name}'; run `pva-bench list`");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut status = RunStatus::default();
    let run = match run_checked(&[&s], opts) {
        Ok(run) => run,
        Err((msg, st)) => {
            eprintln!("error: {msg}");
            return ExitCode::from(exit_code(st));
        }
    };
    if run.resumed_cells > 0 {
        eprintln!("resumed {} cell(s) from the journal", run.resumed_cells);
    }
    let mut reports = run.reports;
    attach_metrics(&mut reports);
    if let Err(e) = write_outputs(&reports, opts) {
        eprintln!("error: {e}");
        status.error = true;
    }
    print!("{}", reports[0].text);
    let _ = std::io::stdout().flush();
    if report_failures(&reports) > 0 {
        status.cell_failures = true;
    }
    if let Some(dir) = &opts.verify_dir {
        let bad = verify(&reports, dir, opts.device);
        if bad.is_empty() {
            if reports.iter().any(|r| r.golden) {
                println!("verify: byte-identical to {dir}/");
            }
        } else {
            status.verify_mismatch = true;
            for b in &bad {
                eprintln!("verify FAILED: {b}");
            }
        }
    }
    ExitCode::from(exit_code(status))
}

fn cmd_list() -> ExitCode {
    let mut t = pva_bench::report::Table::new(vec!["name", "alias", "smoke", "description"]);
    for s in scenarios(None) {
        t.row(vec![
            s.name.to_string(),
            s.alias.to_string(),
            if s.smoke { "yes" } else { "" }.to_string(),
            s.title.to_string(),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

/// Validates one journal file, printing a verdict line.
fn validate_journal(f: &str) -> Result<String, String> {
    match journal::load(std::path::Path::new(f))? {
        None => Ok("empty journal (nothing to resume)".into()),
        Some(r) => Ok(format!(
            "journal for [{}]: {} cell(s), {} failure(s){}",
            r.selection.join(", "),
            r.cells.len(),
            r.failures.len(),
            if r.torn_tail {
                ", torn trailing line (tolerated on resume)"
            } else {
                ""
            }
        )),
    }
}

fn cmd_validate(files: &[String]) -> ExitCode {
    if files.is_empty() {
        usage();
    }
    let mut status = RunStatus::default();
    for f in files {
        let verdict = std::fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                if text.trim_start().starts_with("{\"journal\"") {
                    validate_journal(f)
                } else {
                    RunRecord::from_json(&text).map(|rec| {
                        format!(
                            "ok ({}, {} cells, {} cycles{}{})",
                            rec.scenario,
                            rec.cells.len(),
                            rec.total_cycles,
                            if rec.resumed > 0 {
                                format!(", {} resumed", rec.resumed)
                            } else {
                                String::new()
                            },
                            if rec.failures.is_empty() {
                                String::new()
                            } else {
                                format!(", {} FAILED cells", rec.failures.len())
                            }
                        )
                    })
                }
            });
        match verdict {
            Ok(line) => println!("{f}: {line}"),
            Err(e) => {
                status.schema_invalid = true;
                eprintln!("{f}: INVALID: {e}");
            }
        }
    }
    ExitCode::from(exit_code(status))
}

/// Compares two run records canonically (wall-clock-derived fields —
/// per-cell and total wall times, throughput, metrics, resumed counts —
/// zeroed on both sides first) and names every field that differs:
/// top-level fields, and system, label, cycles or bytes per cell. The
/// report is written with write errors ignored, so a closed pipe
/// (`pva-bench diff a b 2>&1 | head`) still exits with the documented
/// code.
fn cmd_diff(a: &str, b: &str) -> ExitCode {
    let load = |f: &str| -> Result<RunRecord, String> {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        RunRecord::from_json(&text).map_err(|e| format!("{f}: {e}"))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (a_res, b_res) => {
            let errors: String = [a_res, b_res]
                .into_iter()
                .filter_map(Result::err)
                .map(|e| format!("INVALID: {e}\n"))
                .collect();
            let _ = std::io::stderr().write_all(errors.as_bytes());
            return ExitCode::from(EXIT_SCHEMA);
        }
    };
    let (ca, cb) = (ra.canonical(), rb.canonical());
    if ca == cb {
        let _ = writeln!(
            std::io::stdout(),
            "identical (canonical): {} — {} cells, {} cycles",
            ca.scenario,
            ca.cells.len(),
            ca.total_cycles
        );
        return ExitCode::SUCCESS;
    }
    let failures = |r: &[CellFailure]| {
        let list: Vec<String> = r
            .iter()
            .map(|f| format!("{}/{} [{}]", f.system, f.label, f.kind))
            .collect();
        format!("[{}]", list.join(", "))
    };
    let mut report = String::from("records differ (canonical comparison):\n");
    for (name, x, y) in differing([
        ("schema", ca.schema, cb.schema),
        ("scenario", ca.scenario, cb.scenario),
        ("title", ca.title, cb.title),
        (
            "total_cycles",
            ca.total_cycles.to_string(),
            cb.total_cycles.to_string(),
        ),
        (
            "total_bytes",
            ca.total_bytes.to_string(),
            cb.total_bytes.to_string(),
        ),
        ("failures", failures(&ca.failures), failures(&cb.failures)),
        (
            "cells",
            ca.cells.len().to_string(),
            cb.cells.len().to_string(),
        ),
    ]) {
        let _ = writeln!(report, "  {name}: {x} vs {y}");
    }
    if ca.cells.len() == cb.cells.len() {
        for (i, (x, y)) in ca.cells.iter().zip(&cb.cells).enumerate() {
            let parts: Vec<String> = differing([
                ("system", x.system.clone(), y.system.clone()),
                ("label", x.label.clone(), y.label.clone()),
                ("cycles", x.cycles.to_string(), y.cycles.to_string()),
                ("bytes", x.bytes.to_string(), y.bytes.to_string()),
            ])
            .map(|(name, a, b)| format!("{name} {a} vs {b}"))
            .collect();
            if !parts.is_empty() {
                let _ = writeln!(
                    report,
                    "  cell {i} ({}/{}): {}",
                    x.system,
                    x.label,
                    parts.join(", ")
                );
            }
        }
    }
    let _ = std::io::stderr().write_all(report.as_bytes());
    ExitCode::from(EXIT_VERIFY)
}

/// The `(name, a, b)` fields whose two sides differ.
fn differing<const N: usize>(
    fields: [(&'static str, String, String); N],
) -> impl Iterator<Item = (&'static str, String, String)> {
    fields.into_iter().filter(|(_, a, b)| a != b)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage(),
        Some("list") => cmd_list(),
        Some("validate") => cmd_validate(&args[1..]),
        Some("diff") => match &args[1..] {
            [a, b] => cmd_diff(a, b),
            _ => usage(),
        },
        Some("all") => cmd_all(&parse_options(&args[1..])),
        Some(name) if name.starts_with('-') => usage(),
        Some(name) => cmd_one(name, &parse_options(&args[1..])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(
        error: bool,
        cell_failures: bool,
        verify_mismatch: bool,
        schema_invalid: bool,
    ) -> RunStatus {
        RunStatus {
            error,
            cell_failures,
            verify_mismatch,
            schema_invalid,
        }
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let codes = [
            EXIT_OK,
            EXIT_ERROR,
            EXIT_USAGE,
            EXIT_VERIFY,
            EXIT_SCHEMA,
            EXIT_CELL_FAILURES,
        ];
        let mut uniq = codes.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "codes must be distinct");
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn exit_code_mapping_and_precedence() {
        assert_eq!(exit_code(status(false, false, false, false)), EXIT_OK);
        assert_eq!(exit_code(status(true, false, false, false)), EXIT_ERROR);
        assert_eq!(exit_code(status(false, false, true, false)), EXIT_VERIFY);
        assert_eq!(exit_code(status(false, false, false, true)), EXIT_SCHEMA);
        assert_eq!(
            exit_code(status(false, true, false, false)),
            EXIT_CELL_FAILURES
        );
        // Precedence: cell failures > schema > verify > error.
        assert_eq!(
            exit_code(status(true, true, true, true)),
            EXIT_CELL_FAILURES
        );
        assert_eq!(exit_code(status(true, false, true, true)), EXIT_SCHEMA);
        assert_eq!(exit_code(status(true, false, true, false)), EXIT_VERIFY);
    }
}
