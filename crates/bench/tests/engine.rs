//! Engine integration tests: golden rendering for `report::Table`,
//! JSON record round-trips, determinism across worker counts,
//! byte-identity of scenario output against the committed goldens and
//! canonical equality with the committed records (the §6.2 figure views
//! included, with each grid point simulated once), and journal resume
//! refusing cells built for another device.

use pva_bench::engine::{
    run_scenarios_checked, EngineError, ExecConfig, RunRecord, Scenario, ScenarioReport,
};
use pva_bench::report::Table;
use pva_bench::scenarios::find;
use sdram::DevicePreset;

#[test]
fn table_rendering_is_stable() {
    let mut t = Table::new(vec!["kernel", "stride", "cycles"]);
    t.row(vec!["copy", "1", "1088"]);
    t.row(vec!["vaxpy", "19", "2176"]);
    let expected = "\
kernel  stride  cycles
----------------------
  copy       1    1088
 vaxpy      19    2176
";
    assert_eq!(t.render(), expected);
}

fn must_find(name: &str) -> Scenario {
    find(name, None).unwrap_or_else(|| panic!("scenario '{name}' not registered"))
}

/// Runs scenarios on `jobs` workers with the default policy and no
/// journal; every cell must succeed.
fn run_ok(scenarios: &[&Scenario], jobs: usize) -> Vec<ScenarioReport> {
    let run = run_scenarios_checked(scenarios, &ExecConfig::with_jobs(jobs)).expect("engine run");
    assert_eq!(run.failed_cells, 0, "no cell may fail");
    run.reports
}

/// Zeroes the wall-clock fields, which legitimately vary run to run.
fn normalized(mut r: RunRecord) -> RunRecord {
    r.wall_ns = 0;
    r.sim_cycles_per_sec = 0.0;
    for c in &mut r.cells {
        c.wall_ns = 0;
    }
    r
}

#[test]
fn jobs_1_and_jobs_8_produce_identical_records() {
    // Multi-cell scenarios whose text carries no wall-clock numbers.
    let names = ["related_cvms", "design_space", "ext_indirect"];
    let scenarios: Vec<Scenario> = names.iter().map(|n| must_find(n)).collect();
    let refs: Vec<&Scenario> = scenarios.iter().collect();
    let serial = run_ok(&refs, 1);
    let parallel = run_ok(&refs, 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.text, b.text,
            "{}: text differs across worker counts",
            a.name
        );
        assert_eq!(
            normalized(a.record.clone()),
            normalized(b.record.clone()),
            "{}: record differs across worker counts",
            a.name
        );
    }
}

#[test]
fn engine_records_round_trip_through_json() {
    let s = must_find("table2_kernels");
    let reports = run_ok(&[&s], 2);
    let rec = &reports[0].record;
    let parsed = RunRecord::from_json(&rec.to_json()).expect("emitted record parses");
    assert_eq!(&parsed, rec);
    assert_eq!(parsed.schema, "pva-bench-record-v2");
    assert_eq!(parsed.scenario, "table2_kernels");
}

#[test]
fn cheap_scenarios_match_committed_goldens() {
    let results = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    // (scenario, golden text, committed record): only the default-device
    // runs have a committed `BENCH_<name>.json`.
    let mut checks: Vec<(Scenario, String, Option<String>)> = [
        "table1_complexity",
        "table2_kernels",
        "ext_indirect",
        "related_cvms",
        "design_space",
        "scaling_banks",
        // The STREAM bandwidths EXPERIMENTS.md quotes.
        "stream",
        // The generation sweep doubles as the SDR-equivalence proof:
        // its first block runs the sdr100 preset through the same
        // fig-7 kernels, so a preset drifting from the legacy default
        // config shows up as a golden mismatch here.
        "techsweep",
        // The fault campaign: a silent corruption or hang would
        // quarantine a cell and replace the text with a failure summary.
        "faults",
        // The only golden that toggles the remaining scheduler options
        // (out_of_order, promote_opens, bypass_paths, row_policy).
        "ablation_scheduler",
        "related_smc",
        "ext_bitrev",
        "cpu_sensitivity",
        "ext_cache_pollution",
        // The views of the §6.2 grid: 3,290 listings of 960 points.
        "fig7_stride_sweep",
        "fig8_stride_sweep",
        "fig9_fixed_stride",
        "fig10_fixed_stride",
        "fig11_vaxpy_detail",
        "headline_speedups",
        "full_sweep",
    ]
    .iter()
    .map(|name| {
        (
            must_find(name),
            format!("{results}/{name}.txt"),
            Some(format!("{results}/BENCH_{name}.json")),
        )
    })
    .collect();
    // `--device` runs: one golden per shipped preset.
    checks.extend(DevicePreset::ALL.iter().map(|&p| {
        let s = find("techsweep", Some(p)).expect("techsweep registered");
        (s, format!("{results}/techsweep.{}.txt", p.name()), None)
    }));
    // One batch, so the pool stays busy across scenario boundaries and
    // each grid point is simulated once.
    let refs: Vec<&Scenario> = checks.iter().map(|(s, _, _)| s).collect();
    let run = run_scenarios_checked(&refs, &ExecConfig::with_jobs(4)).expect("engine run");
    assert_eq!(run.failed_cells, 0, "no cell may fail");
    let listed: usize = run.reports.iter().map(|r| r.record.cells.len()).sum();
    assert_eq!(listed - run.simulated_cells, 3290 - 960);
    for ((_, path, record), report) in checks.iter().zip(run.reports) {
        let golden = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("golden {path}: {e}"));
        assert_eq!(report.text, golden, "{} drifted from {path}", report.name);
        if let Some(record) = record {
            let text =
                std::fs::read_to_string(record).unwrap_or_else(|e| panic!("record {record}: {e}"));
            let committed =
                RunRecord::from_json(&text).unwrap_or_else(|e| panic!("record {record}: {e}"));
            assert_eq!(
                report.record.canonical(),
                committed.canonical(),
                "{} drifted from {record}",
                report.name
            );
        }
    }
}

#[test]
fn resume_refuses_a_journal_from_another_device() {
    let path = std::env::temp_dir().join(format!(
        "pva-bench-engine-device-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let journaled = ExecConfig {
        journal: Some(path.clone()),
        ..ExecConfig::with_jobs(2)
    };
    let hbm2 = find("techsweep", Some(DevicePreset::Hbm2Like)).expect("techsweep registered");
    run_scenarios_checked(&[&hbm2], &journaled).expect("journaled hbm2 run");

    let resume = ExecConfig {
        resume: true,
        ..journaled
    };
    let sdr100 = find("techsweep", Some(DevicePreset::Sdr100)).expect("techsweep registered");
    let err = run_scenarios_checked(&[&sdr100], &resume).expect_err("device mismatch");
    let _ = std::fs::remove_file(&path);
    let EngineError::Environment(msg) = err else {
        panic!("expected an environment error, got {err:?}");
    };
    assert!(
        msg.contains("hbm2/copy/s1"),
        "names the journaled cell: {msg}"
    );
    assert!(
        msg.contains("sdr100/copy/s1"),
        "names the rebuilt cell: {msg}"
    );
    assert!(msg.contains("without --resume"), "{msg}");
}

#[test]
fn record_totals_are_cell_sums() {
    let s = must_find("related_cvms");
    let reports = run_ok(&[&s], 2);
    let r = &reports[0].record;
    assert_eq!(
        r.total_cycles,
        r.cells.iter().map(|c| c.cycles).sum::<u64>()
    );
    assert_eq!(r.total_bytes, r.cells.iter().map(|c| c.bytes).sum::<u64>());
    assert!(r
        .cells
        .iter()
        .all(|c| !c.system.is_empty() && !c.label.is_empty()));
}
