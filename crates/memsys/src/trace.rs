//! Memory-reference traces: the interface between workloads and memory
//! systems.

use pva_core::Vector;
use pva_sim::OpKind;

/// Bytes per data word (the prototype's 32-bit words: 128-byte lines of
/// 32 words).
pub const WORD_BYTES: u64 = 4;

/// One vector-granularity memory operation in a workload trace (at most
/// one cache line of elements — long application vectors are chunked by
/// the front end before reaching any memory system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// The elements accessed.
    pub vector: Vector,
    /// Direction.
    pub kind: OpKind,
}

impl TraceOp {
    /// A gathered read of `vector`.
    pub fn read(vector: Vector) -> Self {
        TraceOp {
            vector,
            kind: OpKind::Read,
        }
    }

    /// A scattered write of `vector`.
    pub fn write(vector: Vector) -> Self {
        TraceOp {
            vector,
            kind: OpKind::Write,
        }
    }
}

/// Statistics common to every memory system. Closed-form comparators
/// fill what their model defines and leave the rest zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Vector commands consumed from the trace.
    pub commands: u64,
    /// Useful elements gathered or scattered (excludes the waste words
    /// a line-fill system drags along — those show up only in
    /// [`RunOutcome::bytes_transferred`]).
    pub elements: u64,
    /// Row activates issued (0 for models that do not track rows).
    pub activates: u64,
    /// Precharges issued, including auto-precharges (0 likewise).
    pub precharges: u64,
}

/// Aggregate result of executing one trace on a memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total cycles from idle to fully drained.
    pub cycles: u64,
    /// Bytes that crossed the memory data pins — *useful or not*, so a
    /// line-fill system's wasted words are visible here.
    pub bytes_transferred: u64,
    /// Model-level counters.
    pub stats: RunStats,
}

impl RunOutcome {
    /// Data-bus efficiency in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bytes_transferred as f64 / self.cycles as f64
        }
    }
}

/// A memory system under evaluation: consumes a trace, reports the
/// outcome.
///
/// Implementations are the four systems of §6.1 plus the related-work
/// [`SmcLike`](crate::SmcLike). The trait is object safe so the
/// experiment harness can sweep a heterogeneous list.
pub trait MemorySystem {
    /// Short display name for reports ("pva-sdram", "cacheline-serial",
    /// ...).
    fn name(&self) -> &'static str;

    /// Executes the trace from an idle state and returns the aggregate
    /// [`RunOutcome`].
    fn run_trace(&mut self, trace: &[TraceOp]) -> RunOutcome;
}

/// Sum of useful elements across a trace.
pub(crate) fn trace_elements(trace: &[TraceOp]) -> u64 {
    trace.iter().map(|op| op.vector.length()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let v = Vector::new(0, 2, 8).unwrap();
        assert_eq!(TraceOp::read(v).kind, OpKind::Read);
        assert_eq!(TraceOp::write(v).kind, OpKind::Write);
    }

    #[test]
    fn bytes_per_cycle_handles_zero_cycles() {
        let o = RunOutcome::default();
        assert_eq!(o.bytes_per_cycle(), 0.0);
        let o = RunOutcome {
            cycles: 10,
            bytes_transferred: 40,
            stats: RunStats::default(),
        };
        assert!((o.bytes_per_cycle() - 4.0).abs() < 1e-12);
    }
}
