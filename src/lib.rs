//! # pva — Parallel Vector Access for SDRAM memory systems
//!
//! A from-scratch Rust reproduction of Mathew, McKee, Carter and Davis,
//! *Design of a Parallel Vector Access Unit for SDRAM Memory Systems*
//! (HPCA 2000): the parallel base-stride access algorithms, a
//! cycle-level model of the PVA hardware unit, the SDRAM substrate it
//! drives, the paper's comparator memory systems, and the benchmark
//! harness that regenerates every table and figure of its evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] ([`pva_core`]) — the mathematics: `FirstHit`/`NextHit`
//!   closed forms, PLA tables, interleave transforms, page splitting;
//! * [`sdram`] — the SDRAM device timing simulator;
//! * [`sim`] ([`pva_sim`]) — the cycle-level PVA unit (bank
//!   controllers, vector bus, access scheduler);
//! * [`memsys`] — the four §6.1 memory systems behind one trait;
//! * [`kernels`] — the Table-2 workloads and experiment sweeps.
//!
//! # Quickstart
//!
//! ```
//! use pva::core::Vector;
//! use pva::sim::{HostRequest, PvaConfig, PvaUnit};
//!
//! // Gather a stride-19 vector: all 16 banks work in parallel.
//! let mut unit = PvaUnit::new(PvaConfig::default())?;
//! let v = Vector::new(0x1000, 19, 32)?;
//! let result = unit.run(vec![HostRequest::Read { vector: v }])?;
//! println!("gathered 32 words in {} cycles", result.cycles);
//! # Ok::<(), pva::core::PvaError>(())
//! ```
//!
//! See `examples/` for runnable scenarios; `pva-bench` (`crates/bench`)
//! regenerates every table and figure as a scenario (`pva-bench list`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's core algorithms (re-export of [`pva_core`]).
pub use pva_core as core;

/// The SDRAM device simulator.
pub use sdram;

/// The cycle-level PVA unit (re-export of [`pva_sim`]).
pub use pva_sim as sim;

/// The four evaluation memory systems.
pub use memsys;

/// Table-2 kernels and experiment sweeps.
pub use kernels;

/// L2 cache model for whole-loop studies.
pub use cache;
