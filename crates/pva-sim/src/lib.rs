//! # pva-sim — cycle-level Parallel Vector Access unit
//!
//! A simulation of the PVA hardware prototype of §5 of Mathew, McKee,
//! Carter and Davis (HPCA 2000): sixteen bank controllers behind a
//! shared split-transaction vector bus, each with first-hit
//! predict/calculate logic, an eight-entry request register file, a
//! four-context access scheduler with wired-OR row predict lines, and a
//! restimer-checked SDRAM device.
//!
//! The unit accepts [`HostRequest`]s (gathered vector reads and
//! scattered vector writes of up to one cache line), runs them with the
//! front end issuing as fast as bus resources allow, and reports cycle
//! counts plus the gathered data — the measurement setup of the paper's
//! evaluation (§6.2).
//!
//! ```
//! use pva_core::Vector;
//! use pva_sim::{HostRequest, PvaConfig, PvaUnit};
//!
//! let mut unit = PvaUnit::new(PvaConfig::default())?;
//! // A stride-19 gather: all 16 banks work in parallel.
//! let v = Vector::new(0, 19, 32)?;
//! let r = unit.run(vec![HostRequest::Read { vector: v }])?;
//! // The gathered line equals a functional read of each element.
//! for (i, &w) in r.read_data(0).iter().enumerate() {
//!     assert_eq!(w, unit.peek(v.element(i as u64)));
//! }
//! # Ok::<(), pva_core::PvaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank_controller;
mod command;
mod complexity;
mod config;
mod cpu;
mod indirect;
mod sched;
mod trace_log;
mod txn;
mod unit;
mod vcd;

pub use bank_controller::BcStats;
pub use command::{Completion, HostRequest, OpKind, TxnId, VectorCommand};
pub use complexity::{unit_complexity, ComplexityReport, ModuleComplexity};
pub use config::{
    default_precharge_policy, PvaConfig, PvaConfigError, RowPolicy, SchedulerOptions,
};
pub use cpu::{mixed_workload, CpuConfig, CpuModel, CpuRunResult};
pub use indirect::{run_indirect_gather, IndirectTiming};
pub use sched::{EventStats, JUMP_BUCKETS};
pub use trace_log::TraceEvent;
pub use txn::{Transaction, TransactionTable, TxnPhase};
pub use unit::{PvaUnit, RunResult, UnitStats};
pub use vcd::write_vcd;
