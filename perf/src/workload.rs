//! The benchmark's workloads and the seeded inputs of one round.
//!
//! Every workload is closed-loop with one client: a run submits its
//! whole batch at cycle 0 on a fresh unit, and the next run starts once
//! it drains — the "infinitely fast CPU" of the paper's §6.2.

use kernels::{Alignment, Kernel, ARRAY_REGION, ELEMENTS, LINE_WORDS, STRIDES};
use pva_core::{SplitMix64, Vector};
use pva_sim::{HostRequest, OpKind, PvaConfig};
use sdram::{DevicePreset, SdramConfig};

/// Array-base shifts are drawn from `0..MAX_SHIFT` regions: the highest
/// shifted array (two regions above its base, plus the largest alignment
/// offset and stride-19 footprint) must stay below the 2^28 words the
/// 16 `sdr100` devices address.
const MAX_SHIFT: u64 = 61;

/// Passes over the 180 (kernel, stride, alignment) runs per round. Every
/// workload's round spends about 0.2 s in the simulator on a shared
/// 2-core x86-64 host, so a 30 s run takes the median of ~140 rounds,
/// which rides out short bursts of contention from other tenants.
/// `ddr3-1600` runs take twice the host time of `sdr100` ones.
const PAPER_SDR_PASSES: usize = 2;
const PAPER_DDR3_PASSES: usize = 1;

/// `sparse-gather`: runs per round, vectors per run, and their shape.
const SPARSE_RUNS: usize = 96;
const SPARSE_VECTORS: usize = 256;
const SPARSE_LENGTH: u64 = 32;
const SPARSE_STRIDES: [u64; 10] = [16, 17, 19, 32, 33, 64, 97, 128, 255, 1024];
const SPARSE_SPAN: u64 = 1 << 24;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6.2 traffic on the `sdr100` prototype part.
    PaperSdr,
    /// The same traffic on `ddr3-1600`.
    PaperDdr3,
    /// Read-only gathers of short sparse vectors on `sdr100`.
    SparseGather,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSdr,
        Workload::PaperDdr3,
        Workload::SparseGather,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::PaperSdr => "paper-sdr",
            Workload::PaperDdr3 => "paper-ddr3",
            Workload::SparseGather => "sparse-gather",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unit configuration every run of the workload uses.
    pub fn config(self) -> PvaConfig {
        let preset = match self {
            Workload::PaperSdr | Workload::SparseGather => DevicePreset::Sdr100,
            Workload::PaperDdr3 => DevicePreset::Ddr3_1600,
        };
        PvaConfig {
            sdram: SdramConfig::for_device(preset),
            ..PvaConfig::default()
        }
    }

    /// One round's runs, each a batch of requests in program order. The
    /// same seed gives the same inputs.
    pub fn inputs(self, seed: u64) -> Vec<Vec<HostRequest>> {
        let mut rng = SplitMix64::new(seed);
        match self {
            Workload::PaperSdr => paper_runs(&mut rng, PAPER_SDR_PASSES),
            Workload::PaperDdr3 => paper_runs(&mut rng, PAPER_DDR3_PASSES),
            Workload::SparseGather => sparse_runs(&mut rng),
        }
    }
}

/// `passes` x the six Table-2 kernels x six strides x five alignments.
/// The seed draws each run's write data and shifts its arrays by a whole
/// number of regions, which keeps every bank, internal bank and column
/// of the alignment preset (and so the simulated timing) unchanged.
fn paper_runs(rng: &mut SplitMix64, passes: usize) -> Vec<Vec<HostRequest>> {
    let mut runs = Vec::with_capacity(passes * 180);
    for _ in 0..passes {
        for kernel in Kernel::BASE {
            for &stride in &STRIDES {
                for alignment in Alignment::ALL {
                    let shift = rng.below(MAX_SHIFT) * ARRAY_REGION;
                    let bases: Vec<u64> = alignment
                        .bases(kernel.array_count(), ARRAY_REGION)
                        .into_iter()
                        .map(|b| b + shift)
                        .collect();
                    let batch = kernel
                        .trace(&bases, stride, ELEMENTS, LINE_WORDS)
                        .into_iter()
                        .map(|op| match op.kind {
                            OpKind::Read => HostRequest::Read { vector: op.vector },
                            OpKind::Write => HostRequest::Write {
                                vector: op.vector,
                                data: (0..op.vector.length()).map(|_| rng.next_u64()).collect(),
                            },
                        })
                        .collect();
                    runs.push(batch);
                }
            }
        }
    }
    runs
}

/// Runs of read-only gathers at bases uniform over 2^24 words. Every run
/// holds the same mix of sparse strides in a seeded order: half of them
/// are multiples of 16 and keep a vector in one bank. A fixed mix keeps
/// the simulated cycles of a round nearly independent of the seed.
fn sparse_runs(rng: &mut SplitMix64) -> Vec<Vec<HostRequest>> {
    (0..SPARSE_RUNS)
        .map(|_| {
            let mut strides: Vec<u64> = (0..SPARSE_VECTORS)
                .map(|i| SPARSE_STRIDES[i % SPARSE_STRIDES.len()])
                .collect();
            for i in (1..strides.len()).rev() {
                strides.swap(i, rng.below(i as u64 + 1) as usize);
            }
            strides
                .into_iter()
                .map(|stride| {
                    let base = rng.below(SPARSE_SPAN);
                    let vector = Vector::new(base, stride, SPARSE_LENGTH)
                        .expect("nonzero stride and length");
                    HostRequest::Read { vector }
                })
                .collect()
        })
        .collect()
}
