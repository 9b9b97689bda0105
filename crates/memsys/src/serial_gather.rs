//! The "gathering pipelined serial SDRAM" comparator (§6.1).
//!
//! A 16-module word-interleaved SDRAM system with a closed-page policy
//! that gathers vectors *element by element* through a single serial
//! address stream — the straightforward alternative the PVA's broadcast
//! approach is measured against (§4.1: "the straightforward alternative
//! of having a centralized vector controller issue the stream of
//! addresses, one per cycle").
//!
//! Per the paper's idealizations: RAS latencies overlap with activity on
//! other banks for all but the first element of each command, commands
//! never cross DRAM pages (pages stay open within a command), and the
//! precharge cost is paid once at the start of each command. So a
//! command of `L` elements costs
//!
//! ```text
//! t_rp + t_rcd + t_cas + L    cycles
//! ```
//!
//! and commands execute serially (it is a *serial* controller).

use crate::trace::{trace_elements, MemorySystem, RunOutcome, RunStats, TraceOp, WORD_BYTES};

/// Configuration of the serial gathering system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialGatherConfig {
    /// Precharge cost paid at each command start (`tRP`).
    pub t_rp: u64,
    /// First-element RAS (`tRCD`); later RAS latencies overlap.
    pub t_rcd: u64,
    /// CAS latency to the first data word.
    pub t_cas: u64,
}

impl Default for SerialGatherConfig {
    fn default() -> Self {
        SerialGatherConfig {
            t_rp: 2,
            t_rcd: 2,
            t_cas: 2,
        }
    }
}

/// The gathering pipelined serial SDRAM system.
///
/// # Examples
///
/// ```
/// use memsys::{MemorySystem, SerialGather, TraceOp};
/// use pva_core::Vector;
///
/// let mut sys = SerialGather::default();
/// // 32 elements: 2 (precharge) + 2 (RAS) + 2 (CAS) + 32 = 38 cycles,
/// // for any stride — it only moves the words the application needs.
/// for stride in [1u64, 4, 16, 19] {
///     let t = [TraceOp::read(Vector::new(0, stride, 32)?)];
///     assert_eq!(sys.run_trace(&t).cycles, 38);
/// }
/// # Ok::<(), pva_core::PvaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SerialGather {
    config: SerialGatherConfig,
}

impl SerialGather {
    /// Creates the system with explicit parameters.
    pub fn new(config: SerialGatherConfig) -> Self {
        SerialGather { config }
    }

    /// Cycles for one vector command of `len` elements.
    pub fn command_cycles(&self, len: u64) -> u64 {
        self.config.t_rp + self.config.t_rcd + self.config.t_cas + len
    }
}

impl MemorySystem for SerialGather {
    fn name(&self) -> &'static str {
        "serial-gather-sdram"
    }

    fn run_trace(&mut self, trace: &[TraceOp]) -> RunOutcome {
        let elements = trace_elements(trace);
        RunOutcome {
            cycles: trace
                .iter()
                .map(|op| self.command_cycles(op.vector.length()))
                .sum(),
            // A gathering system moves only the useful words.
            bytes_transferred: elements * WORD_BYTES,
            stats: RunStats {
                commands: trace.len() as u64,
                elements,
                // One visible RAS and one precharge per command; the
                // rest overlap per the paper's idealization.
                activates: trace.len() as u64,
                precharges: trace.len() as u64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pva_core::Vector;

    #[test]
    fn cost_is_stride_independent() {
        let mut sys = SerialGather::default();
        let c1 = sys.run_trace(&[TraceOp::read(Vector::new(0, 1, 32).unwrap())]);
        let c19 = sys.run_trace(&[TraceOp::read(Vector::new(7, 19, 32).unwrap())]);
        assert_eq!(c1, c19);
        assert_eq!(c1.bytes_transferred, 32 * 4);
    }

    #[test]
    fn cost_scales_with_length() {
        let sys = SerialGather::default();
        assert_eq!(sys.command_cycles(32), 38);
        assert_eq!(sys.command_cycles(1), 7);
    }

    #[test]
    fn commands_are_serial() {
        let mut sys = SerialGather::default();
        let v = Vector::new(0, 2, 32).unwrap();
        let one = sys.run_trace(&[TraceOp::read(v)]).cycles;
        let four = sys.run_trace(&[TraceOp::read(v); 4]).cycles;
        assert_eq!(four, 4 * one);
    }
}
