//! # sdram — cycle-level SDRAM device simulator
//!
//! The memory substrate underneath the Parallel Vector Access unit: a
//! synchronous DRAM device model with multiple internal banks,
//! per-internal-bank row buffers, and restimer-enforced timing
//! constraints, matching the Micron 256 Mbit parts the paper's prototype
//! drives (§5.1) — RAS and CAS latencies of two cycles, four internal
//! banks, auto-precharge support.
//!
//! * [`Sdram`] — the device state machine (one per external bank).
//! * [`SdramCmd`] — the clock-edge command set.
//! * [`SdramConfig`] / [`DevicePreset`] — timing/geometry parameters
//!   and the shipped device generations (SDR through DDR3-1600 and
//!   HBM-class profiles).
//! * [`protocol`] — the timing protocol as data: which timers gate and
//!   arm each command class, and for how long ([`DeadlineModel`]). The
//!   device executes these tables.
//! * [`Restimer`] / [`BankTimers`] / [`ChannelTimers`] — the §5.2.5
//!   timing counters, per bank and per channel.
//! * [`TimingAuditor`] — an independent checker used to cross-validate
//!   the device in tests.
//! * [`FaultConfig`] / [`ecc`] — deterministic fault injection and the
//!   SEC-DED Hamming(72,64) codec that corrects what it can and flags
//!   the rest (`ReadReturn::poisoned`).
//!
//! # Example: overlap across internal banks
//!
//! ```
//! use sdram::{Sdram, SdramCmd, SdramConfig};
//!
//! let mut dev = Sdram::new(SdramConfig::default());
//! // Open rows in two internal banks on consecutive cycles...
//! dev.issue(SdramCmd::Activate { bank: 0, row: 10 })?;
//! dev.tick();
//! dev.issue(SdramCmd::Activate { bank: 1, row: 20 })?;
//! dev.tick();
//! // ...bank 0 is already ready to read while bank 1 finishes opening.
//! // The READ hands its word back at the CAS, stamped with the cycle it
//! // reaches the pins.
//! let mut words = Vec::new();
//! dev.issue_read_burst(0, false, &[(0, 7)], |w| words.push(w))?;
//! assert_eq!((words[0].tag, words[0].at_cycle), (7, dev.now() + 2));
//! # Ok::<(), sdram::IssueError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod config;
mod device;
pub mod ecc;
mod fault;
pub mod fsm;
pub mod protocol;
mod restimer;

pub use audit::{TimingAuditor, Violation};
pub use config::{ConfigError, DevicePreset, InternalAddr, SdramConfig, MAX_BANK_GROUPS};
pub use device::{background_pattern, IssueError, ReadReturn, Sdram, SdramCmd, SdramStats};
pub use fault::{FaultConfig, PPM};
pub use fsm::{BankEvent, BankState, CmdClass, Outcome, TRANSITIONS};
pub use protocol::{ChannelTimerId, DeadlineModel, TimerId};
pub use restimer::{BankTimers, ChannelTimers, Restimer};
