//! Set-up, timed rounds, the traced round, and the metrics they yield.
//!
//! Host time is measured from outside the simulator: the harness times
//! its calls into each layer's public functions and reads each layer's
//! counters through the public accessors. Checking a run's data is
//! never inside a timed interval.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pva_core::{BankId, FirstHit, K1Pla, PvaError};
use pva_sim::{BcStats, Completion, EventStats, HostRequest, PvaConfig, PvaUnit};
use sdram::SdramStats;

use crate::oracle;
use crate::replay::{self, ReplayOutcome};
use crate::spans::{Span, Spans};
use crate::workload::Workload;

/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest timed rounds a `--seconds` run makes.
const MIN_ROUNDS: usize = 3;

/// How one benchmark process runs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Wall-clock seconds of timed rounds.
    pub seconds: f64,
    /// Report per-layer metrics from an extra traced round instead of
    /// the end-to-end metrics.
    pub trace: bool,
    /// Make exactly this many timed rounds, ignoring `seconds` (for the
    /// self-tests).
    pub rounds: Option<usize>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark process.
#[derive(Debug)]
pub struct Report {
    /// Every output matched the oracle and every consistency check held.
    pub correct: bool,
    /// Requests simulated, over every round.
    pub attempted: u64,
    /// Requests with wrong data, plus every request of a run that
    /// errored or panicked.
    pub failed: u64,
    /// Timed rounds made.
    pub rounds: usize,
    /// Latency samples per round.
    pub requests_per_round: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// The traced round's spans (`None` for an untraced run).
    pub spans: Option<Spans>,
}

/// Runs one workload as `settings` says.
pub fn run(settings: &Settings) -> Report {
    let origin = Instant::now();
    let config = settings.workload.config();
    let mut attempted = 0;
    let mut failed = 0;

    // Set-up: generate the inputs, then one warm-up round. Its time is
    // the input build plus the warm-up round's time in the simulator.
    let mut setup_s = Vec::new();
    let mut build_ns_per_op = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = settings.workload.inputs(settings.seed);
        let built = start.elapsed();
        let warm = run_round(config, &inputs, None);
        setup_s.push((built.as_nanos() as u64 + warm.sim_ns()) as f64 / 1e9);
        build_ns_per_op.push(built.as_nanos() as f64 / warm.requests as f64);
        attempted += warm.requests;
        failed += warm.failed;
    }

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while match settings.rounds {
        Some(n) => rounds.len() < n,
        None => rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < settings.seconds,
    } {
        let round = run_round(config, &inputs, None);
        attempted += round.requests;
        failed += round.failed;
        rounds.push(round);
    }
    let peak_rss_mb = peak_rss_mb();

    let mut problems = Vec::new();
    if peak_rss_mb <= 0.0 {
        problems.push("could not read VmHWM from /proc/self/status".to_string());
    }
    let first = &rounds[0];
    if rounds.iter().any(|r| r.simulated() != first.simulated()) {
        problems.push("rounds of identical inputs simulated differently".to_string());
    }

    let (metrics, spans) = if settings.trace {
        let mut traced = Traced::new(origin);
        let traced_config = PvaConfig {
            record_trace: true,
            ..config
        };
        let round = run_round(traced_config, &inputs, Some(&mut traced));
        attempted += round.requests;
        failed += round.failed;
        if round.simulated() != first.simulated() {
            problems.push(format!(
                "the traced round simulated differently: {} cycles, untraced {}",
                round.sim_cycles, first.sim_cycles
            ));
        }
        if traced.replay_mismatches > 0 {
            problems.push(format!(
                "device replay: {} rejected command(s); {} run(s) whose replayed command counts differ",
                traced.replay.rejects, traced.replay_mismatches
            ));
        }
        let metrics = per_layer(&config, &rounds, &round, &traced, median(build_ns_per_op));
        (metrics, Some(traced.spans))
    } else {
        let metrics = vec![
            metric(
                "sweep_s",
                median_over(&rounds, |r| r.sim_ns() as f64) / 1e9,
                "s",
            ),
            metric("setup_s", median(setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("sim_cycles", first.sim_cycles as f64, "cycles"),
            metric("txn_latency_p50_cycles", first.latency_p50 as f64, "cycles"),
            metric("txn_latency_p99_cycles", first.latency_p99 as f64, "cycles"),
        ];
        (metrics, None)
    };

    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} requests had wrong data or an errored run"
        ));
    }
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        rounds: rounds.len(),
        requests_per_round: first.requests,
        problems,
        metrics,
        spans,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer metrics of a traced run. Unit host times are medians
/// over the untraced rounds; the traced round supplies the counters,
/// the device replay and the first-hit timings.
fn per_layer(
    config: &PvaConfig,
    untraced: &[Round],
    round: &Round,
    traced: &Traced,
    build_ns_per_op: f64,
) -> Vec<Metric> {
    let median_of = |f: fn(&Round) -> f64| median_over(untraced, f);
    let trace_overhead = round.sim_ns() as f64 / median_of(|r| r.sim_ns() as f64) - 1.0;
    let cycles = round.sim_cycles as f64;
    let banks = config.geometry.banks() as f64;
    let cas = (round.sdram.reads + round.sdram.writes) as f64;
    let elements = (round.bc.elements_read + round.bc.elements_written) as f64;
    let (pla_ns, pla_builds) = traced.spans.total("pva_core.pla_build");
    let (first_hit_ns, evaluations) = traced.spans.total("pva_core.first_hit");
    let r = &traced.replay;
    vec![
        metric("inputs.build_ns_per_op", build_ns_per_op, "ns"),
        metric(
            "pva_core.pla_build_us",
            ratio(pla_ns, pla_builds) / 1e3,
            "us",
        ),
        metric(
            "pva_core.first_hit_ns",
            ratio(first_hit_ns, evaluations),
            "ns",
        ),
        metric(
            "pva_core.bank_hit_ratio",
            ratio(traced.hits, evaluations),
            "ratio",
        ),
        metric(
            "unit.new_us",
            median_of(|r| ratio(r.new_ns, r.runs)) / 1e3,
            "us",
        ),
        metric(
            "unit.submit_ns",
            median_of(|r| ratio(r.submit_ns, r.requests)),
            "ns",
        ),
        metric(
            "unit.sim_mcycles_per_s",
            median_of(|r| ratio(r.sim_cycles * 1000, r.run_ns)),
            "Mcycles/s",
        ),
        metric(
            "unit.ns_per_sim_cycle",
            median_of(|r| ratio(r.run_ns, r.sim_cycles)),
            "ns",
        ),
        metric(
            "unit.ns_per_executed_cycle",
            median_of(|r| ratio(r.run_ns, r.events.executed_cycles)),
            "ns",
        ),
        metric(
            "unit.executed_cycle_frac",
            ratio(round.events.executed_cycles, round.sim_cycles),
            "ratio",
        ),
        metric(
            "unit.events_per_kcycle",
            1e3 * round.events.events_popped as f64 / cycles,
            "1/kcycle",
        ),
        metric(
            "unit.jumps_per_kcycle",
            1e3 * round.events.jumps as f64 / cycles,
            "1/kcycle",
        ),
        metric(
            "bc.busy_frac",
            round.bc.busy_cycles as f64 / (banks * cycles),
            "ratio",
        ),
        metric("bc.turnarounds", round.bc.turnarounds as f64, "count"),
        metric(
            "bc.group_switch_rate",
            round.bc.group_switches as f64 / cas,
            "ratio",
        ),
        metric(
            "bc.coalesced_bursts",
            round.bc.coalesced_bursts as f64,
            "count",
        ),
        metric(
            "bc.deferred_activates",
            round.bc.deferred_activates as f64,
            "count",
        ),
        metric("sdram.cas", cas, "count"),
        metric("sdram.elements_per_cas", elements / cas, "ratio"),
        // CAS commands that reused an open row instead of needing an ACTIVATE.
        metric(
            "sdram.row_hit_rate",
            1.0 - round.sdram.activates as f64 / cas,
            "ratio",
        ),
        metric("sdram.activates", round.sdram.activates as f64, "count"),
        metric(
            "sdram.can_issue_ns",
            ratio(r.can_issue_ns, r.commands),
            "ns",
        ),
        metric(
            "sdram.issue_ns",
            ratio(r.issue_ns, r.commands - r.rejects),
            "ns",
        ),
        metric("sdram.advance_ns", ratio(r.advance_ns, r.advances), "ns"),
        metric("sdram.replay_rejects", r.rejects as f64, "count"),
        metric("trace.overhead_frac", trace_overhead, "ratio"),
    ]
}

/// What one round simulated and what it cost.
#[derive(Debug, Default)]
struct Round {
    runs: u64,
    requests: u64,
    failed: u64,
    new_ns: u64,
    submit_ns: u64,
    run_ns: u64,
    take_ns: u64,
    sim_cycles: u64,
    latency_p50: u64,
    latency_p99: u64,
    events: EventStats,
    bc: BcStats,
    sdram: SdramStats,
}

impl Round {
    /// Host nanoseconds spent inside the simulator's calls.
    fn sim_ns(&self) -> u64 {
        self.new_ns + self.submit_ns + self.run_ns + self.take_ns
    }

    /// Everything about the round that must repeat exactly.
    fn simulated(&self) -> (u64, u64, u64, EventStats, BcStats, SdramStats) {
        let (p50, p99) = (self.latency_p50, self.latency_p99);
        (self.sim_cycles, p50, p99, self.events, self.bc, self.sdram)
    }
}

/// A drained unit plus the instants around each of its calls.
struct Simulated {
    unit: PvaUnit,
    completions: Vec<Completion>,
    /// Before `new`, after `new`, after the submits, after `run_until`,
    /// after `take_completions`.
    marks: [Instant; 5],
}

fn simulate(config: PvaConfig, batch: Vec<HostRequest>) -> Result<Simulated, PvaError> {
    let t0 = Instant::now();
    let mut unit = PvaUnit::new(config)?;
    let t1 = Instant::now();
    for request in batch {
        unit.submit(request)?;
    }
    let t2 = Instant::now();
    unit.run_until(u64::MAX)?;
    let t3 = Instant::now();
    let completions = unit.take_completions();
    let t4 = Instant::now();
    Ok(Simulated {
        unit,
        completions,
        marks: [t0, t1, t2, t3, t4],
    })
}

/// Runs every batch of `inputs` on a fresh unit and checks its output.
fn run_round(
    config: PvaConfig,
    inputs: &[Vec<HostRequest>],
    mut traced: Option<&mut Traced>,
) -> Round {
    let mut round = Round::default();
    let mut latencies = Vec::new();
    for (run, requests) in inputs.iter().enumerate() {
        round.runs += 1;
        round.requests += requests.len() as u64;
        let batch = requests.clone();
        let Ok(Ok(mut sim)) = catch_unwind(AssertUnwindSafe(|| simulate(config, batch))) else {
            round.failed += requests.len() as u64;
            continue;
        };
        let [t0, t1, t2, t3, t4] = sim.marks;
        round.new_ns += (t1 - t0).as_nanos() as u64;
        round.submit_ns += (t2 - t1).as_nanos() as u64;
        round.run_ns += (t3 - t2).as_nanos() as u64;
        round.take_ns += (t4 - t3).as_nanos() as u64;

        let check_start = Instant::now();
        round.failed += oracle::check_run(&config.geometry, requests, &sim.completions, |a| {
            sim.unit.peek(a)
        });
        let check_end = Instant::now();
        latencies.extend(sim.completions.iter().map(|c| c.completed_at - c.issued_at));
        round.sim_cycles += sim.unit.now();
        round.events.absorb(sim.unit.event_stats());
        for s in sim.unit.bc_stats() {
            round.bc.merge(&s);
        }
        round.sdram.merge(&sim.unit.sdram_stats());
        if let Some(t) = traced.as_deref_mut() {
            t.record(run, &config, requests, &mut sim, (check_start, check_end));
        }
    }
    latencies.sort_unstable();
    round.latency_p50 = percentile(&latencies, 0.50);
    round.latency_p99 = percentile(&latencies, 0.99);
    round
}

/// The traced round's spans and the layer work only it does.
struct Traced {
    spans: Spans,
    replay: ReplayOutcome,
    /// Runs whose replay refused a command or issued different counts.
    replay_mismatches: u64,
    /// First-hit evaluations that found an element in the bank.
    hits: u64,
}

impl Traced {
    fn new(origin: Instant) -> Self {
        Traced {
            spans: Spans::new(origin),
            replay: ReplayOutcome::default(),
            replay_mismatches: 0,
            hits: 0,
        }
    }

    /// Records one run's spans, replays its device commands, and times
    /// the first-hit logic over every (request, bank) pair.
    fn record(
        &mut self,
        run: usize,
        config: &PvaConfig,
        requests: &[HostRequest],
        sim: &mut Simulated,
        (check_start, check_end): (Instant, Instant),
    ) {
        let [t0, t1, t2, t3, t4] = sim.marks;
        let span = |name, start, end, parent, count| Span {
            name,
            start,
            end,
            parent,
            run,
            count,
        };
        let parent = self.spans.push(span("run", t0, t4, None, 1));
        let p = Some(parent);
        let submits = requests.len() as u64;
        self.spans.push(span("unit.new", t0, t1, p, 1));
        self.spans.push(span("unit.submit", t1, t2, p, submits));
        self.spans.push(span("unit.run_until", t2, t3, p, 1));
        self.spans.push(span("unit.take_completions", t3, t4, p, 1));
        self.spans
            .push(span("oracle.check", check_start, check_end, p, submits));

        let events = sim.unit.take_events();
        let banks = config.geometry.banks() as usize;
        let start = Instant::now();
        let replayed = replay::replay(config.sdram, banks, &events);
        let end = Instant::now();
        self.spans
            .push(span("sdram.replay", start, end, p, replayed.commands));
        if !replayed.matches(&sim.unit.sdram_stats()) {
            self.replay_mismatches += 1;
        }
        self.replay.absorb(&replayed);

        let start = Instant::now();
        let pla = black_box(K1Pla::new(&config.geometry));
        let built = Instant::now();
        for request in requests {
            let v = black_box(request.vector());
            for b in 0..banks {
                if let FirstHit::Hit(k) = pla.first_hit(v, BankId::new(b)) {
                    self.hits += 1;
                    black_box(k + pla.next_hit(v.stride()));
                }
            }
        }
        let end = Instant::now();
        self.spans
            .push(span("pva_core.pla_build", start, built, p, 1));
        let evaluations = submits * banks as u64;
        self.spans
            .push(span("pva_core.first_hit", built, end, p, evaluations));
        self.spans.end(parent, end);
    }
}

/// Nearest-rank percentile of sorted `values` (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_over(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(rounds.iter().map(f).collect())
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MiB. Each process runs
/// one workload, so the peak is that workload's.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
