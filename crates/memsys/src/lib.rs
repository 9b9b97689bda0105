//! # memsys — the four memory systems of the PVA evaluation
//!
//! §6.1 of the paper benchmarks the PVA against three other memory
//! systems. This crate provides all four behind one object-safe trait so
//! the experiment harness can sweep them uniformly:
//!
//! | System | Type | Model |
//! |---|---|---|
//! | [`PvaSystem::sdram`] | prototype | cycle-level [`pva_sim::PvaUnit`] |
//! | [`PvaSystem::sram`]  | idealized | same unit over 1-cycle memory |
//! | [`CachelineSerial`]  | baseline  | 20-cycle line fills, no gathering |
//! | [`SerialGather`]     | baseline  | element-serial gathering, closed page |
//!
//! [`SmcLike`] adds a fifth, related-work system (§3.1): a Stream
//! Memory Controller analogue with stream buffers and dynamic access
//! ordering behind a serial controller.
//!
//! The two baselines use the closed-form costs the paper itself states
//! for them (they are *idealized* comparators in the paper too — the
//! gate-level simulation was only of the PVA).
//!
//! Each system is built from its own constructor and each trace run
//! reports a structured [`RunOutcome`]:
//!
//! ```
//! use memsys::{CachelineSerial, MemorySystem, PvaSystem, SerialGather, TraceOp};
//! use pva_core::Vector;
//!
//! let trace = [TraceOp::read(Vector::new(0, 16, 32)?)];
//! let systems: [Box<dyn MemorySystem>; 4] = [
//!     Box::new(PvaSystem::sdram()),
//!     Box::new(PvaSystem::sram()),
//!     Box::new(CachelineSerial::default()),
//!     Box::new(SerialGather::default()),
//! ];
//! for mut sys in systems {
//!     let out = sys.run_trace(&trace);
//!     assert!(out.cycles > 0, "{} must take time", sys.name());
//!     assert!(out.bytes_transferred >= 32 * 4, "words must move");
//! }
//! # Ok::<(), pva_core::PvaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cacheline;
mod pva_systems;
mod serial_gather;
mod smc;
mod trace;

pub use cacheline::{CachelineConfig, CachelineSerial};
pub use pva_systems::PvaSystem;
pub use serial_gather::{SerialGather, SerialGatherConfig};
pub use smc::SmcLike;
pub use trace::{MemorySystem, RunOutcome, RunStats, TraceOp, WORD_BYTES};

/// Re-export of the operation direction used in [`TraceOp`], so
/// downstream crates can match on it without depending on `pva-sim`.
pub use pva_sim::OpKind;

#[cfg(test)]
mod tests {
    use super::*;
    use pva_core::Vector;

    /// The four §6.1 systems plus the related-work SMC comparator.
    fn all_systems() -> Vec<Box<dyn MemorySystem>> {
        vec![
            Box::new(PvaSystem::sdram()),
            Box::new(PvaSystem::sram()),
            Box::new(CachelineSerial::default()),
            Box::new(SerialGather::default()),
            Box::new(SmcLike::default()),
        ]
    }

    #[test]
    fn default_registry_has_distinct_names() {
        let systems = all_systems();
        let names: Vec<&str> = systems.iter().map(|s| s.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn configs_are_injected_not_cloned_defaults() {
        let cfg = CachelineConfig {
            burst: 32,
            ..CachelineConfig::default()
        };
        let t = [TraceOp::read(Vector::new(0, 1, 32).unwrap())];
        // 2 + 2 + 32 = 36 cycles per fill instead of the default 20.
        assert_eq!(CachelineSerial::new(cfg).run_trace(&t).cycles, 36);
    }

    #[test]
    fn rerun_is_identical() {
        let trace: Vec<TraceOp> = (0..4)
            .map(|i| TraceOp::read(Vector::new(i * 512, 16, 32).unwrap()))
            .collect();
        for mut sys in all_systems() {
            let first = sys.run_trace(&trace);
            let second = sys.run_trace(&trace);
            assert_eq!(first, second, "{}", sys.name());
        }
    }

    #[test]
    fn pva_beats_cacheline_at_large_stride() {
        // The core result: at stride 16, the line-fill system moves 16x
        // the data and loses badly.
        let trace: Vec<TraceOp> = (0..8)
            .map(|i| TraceOp::read(Vector::new(i * 512, 16, 32).unwrap()))
            .collect();
        let pva = PvaSystem::sdram().run_trace(&trace).cycles;
        let cls = CachelineSerial::default().run_trace(&trace).cycles;
        assert!(cls > 2 * pva, "cacheline {cls} vs pva {pva}");
    }

    #[test]
    fn cacheline_matches_pva_at_unit_stride() {
        // §6.3.1: for unit stride the two are comparable (within ~10%).
        let trace: Vec<TraceOp> = (0..16)
            .map(|i| TraceOp::read(Vector::new(i * 32, 1, 32).unwrap()))
            .collect();
        let pva = PvaSystem::sdram().run_trace(&trace).cycles as f64;
        let cls = CachelineSerial::default().run_trace(&trace).cycles as f64;
        let ratio = cls / pva;
        assert!((0.8..=1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pva_beats_serial_gather_on_parallel_strides() {
        let trace: Vec<TraceOp> = (0..16)
            .map(|i| TraceOp::read(Vector::new(i * 640, 19, 32).unwrap()))
            .collect();
        let pva = PvaSystem::sdram().run_trace(&trace).cycles;
        let ser = SerialGather::default().run_trace(&trace).cycles;
        assert!(ser > pva, "serial {ser} vs pva {pva}");
    }
}
