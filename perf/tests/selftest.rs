//! Self-tests of the benchmark: seeded inputs, the data oracle, the
//! device replay, and the metric list against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use pva_perf::oracle::check_run;
use pva_perf::replay::replay;
use pva_perf::Workload;
use pva_sim::{PvaConfig, PvaUnit};

#[test]
fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        assert_eq!(w.inputs(7), w.inputs(7), "{}", w.name());
        assert_ne!(w.inputs(7), w.inputs(8), "{}", w.name());
    }
}

#[test]
fn a_corrupted_word_fails_the_oracle() {
    let config = Workload::PaperSdr.config();
    let requests = Workload::PaperSdr.inputs(1).swap_remove(0);
    let mut unit = PvaUnit::new(config).unwrap();
    let mut result = unit.run(requests.clone()).unwrap();
    let peek = |addr| unit.peek(addr);
    assert_eq!(
        check_run(&config.geometry, &requests, &result.completions, peek),
        0
    );

    let read = result
        .completions
        .iter_mut()
        .find(|c| c.data.is_some())
        .unwrap();
    read.data.as_mut().unwrap()[5] ^= 1;
    assert_eq!(
        check_run(&config.geometry, &requests, &result.completions, peek),
        1
    );
}

#[test]
fn a_recorded_paper_sdr_run_replays_without_rejects() {
    let config = PvaConfig {
        record_trace: true,
        ..Workload::PaperSdr.config()
    };
    // Saxpy: reads and writes to one array, so every command kind occurs.
    let requests = Workload::PaperSdr.inputs(1).swap_remove(30);
    let mut unit = PvaUnit::new(config).unwrap();
    let recorded = unit.run(requests).unwrap().sdram;
    let replayed = replay(config.sdram, 16, &unit.take_events());

    assert_eq!(replayed.rejects, 0);
    let s = replayed.stats;
    assert!(recorded.activates > 0 && recorded.writes > 0 && recorded.auto_precharges > 0);
    assert_eq!(
        (s.activates, s.reads, s.writes),
        (recorded.activates, recorded.reads, recorded.writes)
    );
    assert_eq!(
        (s.precharges, s.auto_precharges, s.refreshes),
        (
            recorded.precharges,
            recorded.auto_precharges,
            recorded.refreshes
        )
    );
    assert!(replayed.matches(&recorded));
}

/// The `name`s of one metric list of `BENCHMARK.json`.
fn benchmark_metrics(list: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{list}\"")).unwrap();
    let section = &text[start..start + text[start..].find(']').unwrap()];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed() {
    let names: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|l| benchmark_metrics(l))
        .collect();
    assert!(!names.is_empty());
    for name in &names {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "{name:?} does not match ^[A-Za-z0-9_.-]+$");
    }
}

/// `--rounds 1` prints every metric `BENCHMARK.json` lists, and no other.
fn smoke(workload: Workload) {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_pva-perf"))
            .args([
                "--workload",
                workload.name(),
                "--seed",
                "3",
                "--rounds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let json = stdout.lines().last().unwrap();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(json.contains("\"failed\": 0, "), "{json}");
        let expected = benchmark_metrics(list);
        for name in &expected {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing: {json}"
            );
            assert!(stdout
                .lines()
                .any(|l| l.trim_start().starts_with(&format!("{name} "))));
        }
        assert_eq!(
            json.matches("\"value\": ").count(),
            expected.len(),
            "{json}"
        );
    }
}

#[test]
fn smoke_paper_sdr() {
    smoke(Workload::PaperSdr);
}

#[test]
fn smoke_paper_ddr3() {
    smoke(Workload::PaperDdr3);
}

#[test]
fn smoke_sparse_gather() {
    smoke(Workload::SparseGather);
}
