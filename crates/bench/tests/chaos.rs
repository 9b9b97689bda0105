//! Chaos harness: proves the resilient execution layer end to end.
//!
//! In-process: a kill-at-every-k-cells sweep truncates the write-ahead
//! journal after k completed cells and resumes, requiring canonical
//! record equality and byte-identical text at varying worker counts;
//! torn trailing journal lines must be tolerated.
//!
//! Out-of-process: a child `pva-bench` running the `chaos` dev scenario
//! is SIGKILLed mid-campaign, resumed with `--resume`, and its record
//! compared against an uninterrupted reference — including through the
//! `pva-bench diff` verb — plus checks of every documented exit code and
//! of what `diff` reports.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use pva_bench::engine::{
    run_scenarios_checked, CellRecord, ExecConfig, RunRecord, Scenario, SCHEMA,
};
use pva_bench::scenarios::find;

fn must_find(name: &str) -> Scenario {
    find(name, None).unwrap_or_else(|| panic!("scenario '{name}' not registered"))
}

/// Fresh per-test scratch directory under the target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pva-bench-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Truncates a journal to its header plus the first `k` entry lines —
/// exactly the bytes a run killed after `k` checkpoints leaves behind.
fn truncate_journal(path: &PathBuf, k: usize) {
    let text = std::fs::read_to_string(path).expect("journal readable");
    let keep: Vec<&str> = text.lines().take(1 + k).collect();
    std::fs::write(path, format!("{}\n", keep.join("\n"))).expect("journal writable");
}

#[test]
fn kill_at_every_k_cells_resumes_byte_identically() {
    let names = [
        "table2_kernels",
        "ext_indirect",
        "related_cvms",
        "design_space",
    ];
    let scens: Vec<Scenario> = names.iter().map(|n| must_find(n)).collect();
    let refs: Vec<&Scenario> = scens.iter().collect();

    let reference = run_scenarios_checked(&refs, &ExecConfig::with_jobs(4)).expect("reference run");
    assert_eq!(reference.failed_cells, 0);
    let total_cells: usize = reference.reports.iter().map(|r| r.record.cells.len()).sum();
    assert!(
        total_cells > 10,
        "sweep needs a real grid, got {total_cells}"
    );

    let dir = scratch("kill-sweep");
    // One complete journaled run supplies the full journal to truncate.
    let full = dir.join("full.jsonl");
    let cfg = ExecConfig {
        journal: Some(full.clone()),
        ..ExecConfig::with_jobs(2)
    };
    run_scenarios_checked(&refs, &cfg).expect("journaled run");

    for k in 0..=total_cells {
        let journal = dir.join(format!("k{k}.jsonl"));
        std::fs::copy(&full, &journal).expect("copy journal");
        truncate_journal(&journal, k);
        let jobs = [1, 2, 8][k % 3];
        let cfg = ExecConfig {
            journal: Some(journal),
            resume: true,
            ..ExecConfig::with_jobs(jobs)
        };
        let resumed =
            run_scenarios_checked(&refs, &cfg).unwrap_or_else(|e| panic!("resume at k={k}: {e}"));
        assert_eq!(
            resumed.resumed_cells, k,
            "k={k}: every journaled cell replays"
        );
        for (a, b) in reference.reports.iter().zip(&resumed.reports) {
            assert_eq!(
                a.text, b.text,
                "{}: text differs after kill at k={k} (jobs={jobs})",
                a.name
            );
            assert_eq!(
                a.record.canonical(),
                b.record.canonical(),
                "{}: record differs after kill at k={k} (jobs={jobs})",
                a.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_trailing_journal_line_is_tolerated_on_resume() {
    let s = must_find("ext_indirect");
    let dir = scratch("torn-tail");
    let journal = dir.join("torn.jsonl");
    let cfg = ExecConfig {
        journal: Some(journal.clone()),
        ..ExecConfig::with_jobs(2)
    };
    let reference = run_scenarios_checked(&[&s], &cfg).expect("journaled run");

    // Chop the file mid-line: a crash between write() and the final
    // newline leaves exactly this shape.
    let bytes = std::fs::read(&journal).expect("journal readable");
    let cut = bytes.len() - 7;
    assert_ne!(bytes[cut], b'\n', "cut must land inside a line");
    std::fs::write(&journal, &bytes[..cut]).expect("torn write");

    let cfg = ExecConfig {
        journal: Some(journal),
        resume: true,
        ..ExecConfig::with_jobs(1)
    };
    let resumed = run_scenarios_checked(&[&s], &cfg).expect("torn tail tolerated");
    assert!(resumed.resumed_cells > 0, "intact prefix replays");
    assert_eq!(reference.reports[0].text, resumed.reports[0].text);
    assert_eq!(
        reference.reports[0].record.canonical(),
        resumed.reports[0].record.canonical()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a `pva-bench chaos:<spec>` invocation of the chaos dev
/// scenario with the given injection spec.
fn chaos_cmd(spec: &str, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pva-bench"));
    cmd.arg(format!("chaos:{spec}")).args(args);
    cmd
}

#[test]
fn sigkilled_child_campaign_resumes_byte_identically() {
    let dir = scratch("sigkill");
    let spec = "cells=8,sleep_ms=60";
    let journal = dir.join("chaos.jsonl");
    let journal_s = journal.to_str().unwrap();

    // Uninterrupted reference record.
    let ref_dir = dir.join("ref");
    let out = chaos_cmd(spec, &["--jobs", "1", "--json", ref_dir.to_str().unwrap()])
        .output()
        .expect("reference child runs");
    assert!(out.status.success(), "reference: {out:?}");

    // Start a journaled run and SIGKILL it mid-campaign (~2-3 cells in).
    let res_dir = dir.join("res");
    let mut child = chaos_cmd(
        spec,
        &[
            "--jobs",
            "1",
            "--journal",
            journal_s,
            "--json",
            res_dir.to_str().unwrap(),
        ],
    )
    .spawn()
    .expect("child starts");
    std::thread::sleep(std::time::Duration::from_millis(150));
    child.kill().expect("SIGKILL");
    let status = child.wait().expect("reaped");
    assert!(!status.success(), "the kill must have landed");
    assert!(
        journal.exists(),
        "the write-ahead journal survives the kill"
    );

    // Resume to completion, then compare records canonically.
    let out = chaos_cmd(
        spec,
        &[
            "--jobs",
            "1",
            "--journal",
            journal_s,
            "--resume",
            "--json",
            res_dir.to_str().unwrap(),
        ],
    )
    .output()
    .expect("resume child runs");
    assert!(out.status.success(), "resume: {out:?}");

    let load = |p: PathBuf| {
        RunRecord::from_json(&std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}")))
            .expect("record parses")
    };
    let a = load(ref_dir.join("BENCH_chaos.json"));
    let b = load(res_dir.join("BENCH_chaos.json"));
    assert_eq!(a.canonical(), b.canonical(), "resumed record must match");

    // The diff verb agrees: canonical-identical records exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_pva-bench"))
        .arg("diff")
        .args([
            ref_dir.join("BENCH_chaos.json"),
            res_dir.join("BENCH_chaos.json"),
        ])
        .output()
        .expect("diff runs");
    assert_eq!(out.status.code(), Some(0), "diff: {out:?}");

    // The journal itself passes `validate`.
    let out = Command::new(env!("CARGO_BIN_EXE_pva-bench"))
        .args(["validate", journal_s])
        .output()
        .expect("validate runs");
    assert_eq!(out.status.code(), Some(0), "validate: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("journal for [chaos]"),
        "journal verdict: {out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_exits_with_the_cell_failures_code() {
    let dir = scratch("panic-code");
    let (clean, broken) = (dir.join("clean"), dir.join("broken"));
    let out = chaos_cmd(
        "cells=3,sleep_ms=1",
        &["--jobs", "1", "--json", clean.to_str().unwrap()],
    )
    .output()
    .expect("child runs");
    assert!(out.status.success(), "clean run: {out:?}");
    let out = chaos_cmd(
        "cells=3,sleep_ms=1,panic=1",
        &["--jobs", "1", "--json", broken.to_str().unwrap()],
    )
    .output()
    .expect("child runs");
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    // The siblings of the quarantined cell complete with unchanged
    // output.
    let load = |d: &PathBuf| {
        let text = std::fs::read_to_string(d.join("BENCH_chaos.json")).expect("record written");
        RunRecord::from_json(&text)
            .expect("record parses")
            .canonical()
    };
    let (a, b) = (load(&clean), load(&broken));
    assert_eq!(b.failures.len(), 1, "only the injected cell fails");
    assert_eq!(b.failures[0].label, "cell01");
    for i in [0, 2] {
        assert_eq!(a.cells[i], b.cells[i], "sibling cell{i:02} changed");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("chaos: injected panic in cell 1"),
        "quarantine detail on stderr: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_mode_exits_with_the_cell_failures_code() {
    let out = chaos_cmd("cells=3,sleep_ms=1,panic=1", &["--jobs", "1", "--strict"])
        .output()
        .expect("child runs");
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("strict"),
        "{out:?}"
    );
}

#[test]
fn hung_cell_is_quarantined_by_the_watchdog_timeout() {
    // The `hang` cell sleeps for an hour; a short --cell-timeout must
    // classify it as a timeout, not hang the run.
    let out = chaos_cmd(
        "cells=3,sleep_ms=1,hang=2",
        &["--jobs", "1", "--cell-timeout", "0.2"],
    )
    .output()
    .expect("child runs");
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("[timeout]"),
        "classified as timeout: {out:?}"
    );
}

#[test]
fn documented_exit_codes_for_usage_and_schema_errors() {
    // Usage errors -> 2: unknown flags (`--retries` among them),
    // --jobs above its cap of 256 (checked before any thread starts),
    // and --cell-timeout values that are too large for a `Duration`,
    // negative, infinite or not a number.
    let usage_errors: [&[&str]; 7] = [
        &["--definitely-not-a-flag"],
        &["table1", "--retries", "1"],
        &["table1", "--jobs", "257"],
        &["table1", "--cell-timeout", "1e20"],
        &["table1", "--cell-timeout", "-1"],
        &["table1", "--cell-timeout", "inf"],
        &["table1", "--cell-timeout", "soon"],
    ];
    for args in usage_errors {
        let out = Command::new(env!("CARGO_BIN_EXE_pva-bench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }

    // A budget that fits a `Duration` but not an `Instant` deadline
    // still waits for the cell -> 0.
    let out = chaos_cmd(
        "cells=2,sleep_ms=1",
        &["--jobs", "1", "--cell-timeout", "1e19"],
    )
    .output()
    .expect("child runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Unparseable validate input -> 4.
    let dir = scratch("exit-codes");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_pva-bench"))
        .args(["validate", garbage.to_str().unwrap()])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 1"),
        "parse errors carry line context: {err}"
    );

    // diff of records with different cycles -> 3.
    let (a, b) = (one_cell_record("copy/s1", 1), one_cell_record("copy/s1", 2));
    let out = diff_records(&dir, &a.to_json(), &b.to_json())
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record of the current schema holding one cell.
fn one_cell_record(label: &str, cycles: u64) -> RunRecord {
    RunRecord {
        schema: SCHEMA.into(),
        scenario: "x".into(),
        title: "x".into(),
        cells: vec![CellRecord {
            system: "pva-sdram".into(),
            label: label.into(),
            cycles,
            bytes: 64,
            wall_ns: 0,
        }],
        total_cycles: cycles,
        total_bytes: 64,
        wall_ns: 0,
        sim_cycles_per_sec: 0.0,
        metrics: Vec::new(),
        resumed: 0,
        failures: Vec::new(),
    }
}

/// Writes the record texts `a` and `b` into `dir` and returns a
/// `pva-bench diff` of the two files.
fn diff_records(dir: &Path, a: &str, b: &str) -> Command {
    let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&pa, a).expect("write");
    std::fs::write(&pb, b).expect("write");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pva-bench"));
    cmd.arg("diff").arg(pa).arg(pb);
    cmd
}

#[test]
fn diff_names_a_label_only_difference() {
    let dir = scratch("diff-label");
    let (a, b) = (
        one_cell_record("copy/s1", 1088),
        one_cell_record("copy/s2", 1088),
    );
    let out = diff_records(&dir, &a.to_json(), &b.to_json())
        .output()
        .expect("diff runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("label copy/s1 vs copy/s2"), "{err}");
    assert!(
        !err.contains("cycles"),
        "equal fields are not listed: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_of_a_schema_only_difference_names_schema() {
    // Only the current schema parses, so the other record is invalid.
    let dir = scratch("diff-schema");
    let a = one_cell_record("copy/s1", 1088).to_json();
    let b = a.replace(SCHEMA, "pva-bench-record-v0");
    let out = diff_records(&dir, &a, &b).output().expect("diff runs");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("b.json: unknown schema 'pva-bench-record-v0'"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_into_a_closed_pipe_exits_with_the_documented_code() {
    // `pva-bench diff a b 2>&1 | head -1`, with `head` already gone.
    let dir = scratch("diff-pipe");
    let (a, b) = (one_cell_record("copy/s1", 1), one_cell_record("copy/s1", 2));
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = diff_records(&dir, &a.to_json(), &b.to_json())
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("diff runs");
    assert_eq!(status.code(), Some(3), "{status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_journal_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_pva-bench"))
        .args(["all", "--resume"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
