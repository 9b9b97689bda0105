//! Paired in-process A/B of the simulator; `scripts/ab` builds and runs
//! it.
//!
//! The binary links two `pva-perf` libraries: `pva_perf_base`, from a
//! base tree whose packages were renamed `*-base`, and `pva_perf`, from
//! the change tree. Each round simulates every run of a workload on
//! both sides back to back, alternating which side goes first by run
//! and by round, so host drift hits both sides alike. Only the
//! simulator's calls are timed (`new`, `submit`, `run_until`,
//! `take_completions`), as in `pva-perf`'s rounds. Every run is checked
//! with its side's `oracle::check_run`, and both sides must end at the
//! same `now()` with the same latency sum: the A/B compares host time
//! of identical simulations. Once per round, before its runs, each side
//! also builds the workload's inputs (`Workload::inputs`), in the order
//! alternated by round; that build is timed on its own.
//!
//! Arguments: `[--rounds N] [--seed S] [--workload NAME]...` (default:
//! 20 timed rounds after one warm-up round, seed 1, every workload;
//! N ≥ 2). Prints, per workload, the median and quartiles of the
//! per-round change/base time ratio, and of the input build's
//! change/base ratio over pairs of rounds; below 1 means the change is
//! faster. The warm-up round is not reported, so the cold first set-up
//! of a process (part of `pva-perf`'s `setup_s`) is not measured here.

use std::time::Duration;

/// One side of the comparison: a workload's runs and how to simulate
/// one of them with that side's crates.
macro_rules! side {
    ($side:ident, $perf:ident, $sim:ident) => {
        mod $side {
            use std::hint::black_box;
            use std::time::{Duration, Instant};

            use $perf::{oracle, Workload};
            use $sim::{HostRequest, PvaConfig, PvaUnit};

            /// A workload's configuration and one round's runs.
            pub struct Side {
                workload: Workload,
                seed: u64,
                config: PvaConfig,
                runs: Vec<Vec<HostRequest>>,
            }

            impl Side {
                pub fn new(workload: &str, seed: u64) -> Option<Side> {
                    let w = Workload::from_name(workload)?;
                    Some(Side {
                        workload: w,
                        seed,
                        config: w.config(),
                        runs: w.inputs(seed),
                    })
                }

                /// Host time of building the workload's inputs once.
                pub fn build_inputs(&self) -> Duration {
                    let start = Instant::now();
                    let runs = black_box(self.workload.inputs(self.seed));
                    let time = start.elapsed();
                    drop(runs);
                    time
                }

                pub fn runs(&self) -> usize {
                    self.runs.len()
                }

                /// Simulates run `i` on a fresh unit and checks it.
                pub fn run(&self, i: usize) -> super::Run {
                    let requests = &self.runs[i];
                    let batch = requests.clone();
                    let start = Instant::now();
                    let mut unit = PvaUnit::new(self.config).expect("valid config");
                    for request in batch {
                        unit.submit(request).expect("request accepted");
                    }
                    unit.run_until(u64::MAX).expect("run completes");
                    let completions = unit.take_completions();
                    let time: Duration = start.elapsed();
                    let failed =
                        oracle::check_run(&self.config.geometry, requests, &completions, |a| {
                            unit.peek(a)
                        });
                    super::Run {
                        time,
                        now: unit.now(),
                        latency_sum: completions
                            .iter()
                            .map(|c| c.completed_at - c.issued_at)
                            .sum(),
                        failed,
                    }
                }
            }
        }
    };
}

side!(base, pva_perf_base, pva_sim_base);
side!(change, pva_perf, pva_sim);

/// What one run simulated, and the host time of its timed calls.
pub struct Run {
    time: Duration,
    now: u64,
    latency_sum: u64,
    failed: u64,
}

const WORKLOADS: [&str; 3] = ["paper-sdr", "paper-ddr3", "sparse-gather"];

fn usage() -> ! {
    eprintln!("usage: pva-ab [--rounds N] [--seed S] [--workload NAME]...");
    std::process::exit(2);
}

/// The value at quantile `q` of sorted `v` (nearest rank on `n - 1`).
fn quantile(v: &[f64], q: f64) -> f64 {
    v[(q * (v.len() - 1) as f64).round() as usize]
}

fn main() {
    let mut rounds = 20usize;
    let mut seed = 1u64;
    let mut workloads: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--rounds" => rounds = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--workload" => workloads.push(value),
            _ => usage(),
        }
    }
    if rounds < 2 {
        usage();
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.map(String::from).to_vec();
    }

    let mut mismatched = false;
    for w in &workloads {
        let (Some(b), Some(c)) = (base::Side::new(w, seed), change::Side::new(w, seed)) else {
            eprintln!("unknown workload '{w}' (expected one of {WORKLOADS:?})");
            std::process::exit(2);
        };
        assert_eq!(b.runs(), c.runs(), "{w}: the sides build different inputs");
        let (mut ratios, mut build_ratios) = (Vec::new(), Vec::new());
        let (mut base_s, mut change_s) = (Vec::new(), Vec::new());
        let (mut build_b, mut build_c) = (Duration::ZERO, Duration::ZERO);
        // Round 0 warms both sides up and is not reported.
        for round in 0..=rounds {
            // The first build after a round's runs is slower whichever
            // side makes it, so an untimed build by the side that goes
            // second warms up both; the order still shows, so ratios
            // are taken over pairs of rounds, which build in opposite
            // orders.
            let (bb, bc) = if round % 2 == 0 {
                c.build_inputs();
                let bb = b.build_inputs();
                (bb, c.build_inputs())
            } else {
                b.build_inputs();
                let bc = c.build_inputs();
                (b.build_inputs(), bc)
            };
            let (mut tb, mut tc) = (Duration::ZERO, Duration::ZERO);
            for i in 0..b.runs() {
                let (rb, rc) = if (i + round) % 2 == 0 {
                    let rb = b.run(i);
                    (rb, c.run(i))
                } else {
                    let rc = c.run(i);
                    (b.run(i), rc)
                };
                if rb.failed + rc.failed > 0
                    || rb.now != rc.now
                    || rb.latency_sum != rc.latency_sum
                {
                    eprintln!(
                        "{w} run {i}: base {} cycles, latency sum {}, {} failed; \
                         change {} cycles, latency sum {}, {} failed",
                        rb.now, rb.latency_sum, rb.failed, rc.now, rc.latency_sum, rc.failed
                    );
                    mismatched = true;
                }
                tb += rb.time;
                tc += rc.time;
            }
            if round > 0 {
                ratios.push(tc.as_secs_f64() / tb.as_secs_f64());
                build_b += bb;
                build_c += bc;
                if round % 2 == 0 {
                    build_ratios.push(build_c.as_secs_f64() / build_b.as_secs_f64());
                    (build_b, build_c) = (Duration::ZERO, Duration::ZERO);
                }
                base_s.push(tb.as_secs_f64());
                change_s.push(tc.as_secs_f64());
            }
        }
        for v in [&mut ratios, &mut build_ratios, &mut base_s, &mut change_s] {
            v.sort_by(f64::total_cmp);
        }
        println!(
            "{w}: change/base {:.3} (quartiles {:.3}-{:.3}) over {rounds} rounds, \
             input build {:.3} ({:.3}-{:.3}); median round base {:.3} s, change {:.3} s",
            quantile(&ratios, 0.5),
            quantile(&ratios, 0.25),
            quantile(&ratios, 0.75),
            quantile(&build_ratios, 0.5),
            quantile(&build_ratios, 0.25),
            quantile(&build_ratios, 0.75),
            quantile(&base_s, 0.5),
            quantile(&change_s, 0.5),
        );
    }
    if mismatched {
        eprintln!("the two sides simulated differently; the ratios above compare different work");
        std::process::exit(1);
    }
}
