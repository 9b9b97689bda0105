//! An SMC-like comparator: the Stream Memory Controller of McKee et al.
//! (§3.1 related work).
//!
//! "The SMC combines programmable stream buffers and prefetching within
//! a memory controller that performs intelligent DRAM scheduling. The
//! SMC dynamically reorders vector or stream accesses to exploit
//! parallelism among multiple banks and to exploit locality of
//! reference within DRAM page buffers."
//!
//! This model captures the architectural contrast with the PVA: the SMC
//! gathers only the useful words (like the PVA) and reorders for row
//! locality (like the PVA), but issues addresses through a *single
//! centralized controller* — one SDRAM command per cycle across the
//! whole memory — rather than broadcasting to per-bank controllers.
//! Its element throughput is therefore capped at one per cycle, while
//! its reordering hides activate/precharge latency behind accesses to
//! other streams ("for most vector alignments and strides ... simple
//! ordering schemes were found to perform competitively with
//! sophisticated ones", so the policy here is simple: prefer the stream
//! whose next access hits an open row, else the oldest).

use pva_core::Geometry;
use sdram::{Sdram, SdramCmd, SdramConfig};

use crate::trace::{trace_elements, MemorySystem, RunOutcome, RunStats, TraceOp, WORD_BYTES};

/// One in-service stream: the remaining element addresses of a vector
/// command, FIFO order.
#[derive(Debug, Clone)]
struct StreamBuffer {
    /// Remaining global word addresses, oldest first (reversed storage).
    addrs: Vec<u64>,
    /// Arrival order, for FIFO tie-breaking.
    seq: u64,
}

impl StreamBuffer {
    fn next_addr(&self) -> Option<u64> {
        self.addrs.last().copied()
    }
}

/// The SMC-like serial gathering controller with stream reordering.
///
/// # Examples
///
/// ```
/// use memsys::{MemorySystem, SmcLike, TraceOp};
/// use pva_core::Vector;
///
/// let mut sys = SmcLike::default();
/// let t = [TraceOp::read(Vector::new(0, 19, 32)?)];
/// assert!(sys.run_trace(&t).cycles > 32); // 1 element/cycle + row overhead
/// # Ok::<(), pva_core::PvaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SmcLike {
    geometry: Geometry,
    sdram: SdramConfig,
    /// Concurrent stream buffers (the SMC's FIFO count).
    pub stream_buffers: usize,
}

impl Default for SmcLike {
    fn default() -> Self {
        SmcLike {
            geometry: Geometry::default(),
            sdram: SdramConfig::default(),
            stream_buffers: 4,
        }
    }
}

impl SmcLike {
    /// Creates the system with explicit parameters.
    pub fn new(geometry: Geometry, sdram: SdramConfig, stream_buffers: usize) -> Self {
        SmcLike {
            geometry,
            sdram,
            stream_buffers,
        }
    }
}

impl MemorySystem for SmcLike {
    fn name(&self) -> &'static str {
        "smc-like-serial"
    }

    fn run_trace(&mut self, trace: &[TraceOp]) -> RunOutcome {
        // One SDRAM device per external bank, all fed by one serial
        // command stream (one command per cycle total).
        let banks = self.geometry.banks() as usize;
        let mut devices: Vec<Sdram> = (0..banks).map(|_| Sdram::new(self.sdram)).collect();
        let mut pending: std::collections::VecDeque<StreamBuffer> = trace
            .iter()
            .enumerate()
            .map(|(i, op)| StreamBuffer {
                addrs: op.vector.addresses().rev().collect(),
                seq: i as u64,
            })
            .collect();
        let mut active: Vec<StreamBuffer> = Vec::new();
        let mut cycles = 0u64;
        let max_cycles = 100_000_000;

        while !pending.is_empty() || !active.is_empty() {
            // Refill stream buffers.
            while active.len() < self.stream_buffers {
                match pending.pop_front() {
                    Some(s) => active.push(s),
                    None => break,
                }
            }
            // Pick a stream: first preference, one whose next access
            // hits an open row and is issuable now; else try to open a
            // row for the oldest blocked stream; else wait.
            let mut issued = false;
            let mut order: Vec<usize> = (0..active.len()).collect();
            order.sort_by_key(|&i| active[i].seq);
            // Phase 1: row hits.
            for &i in &order {
                let addr = active[i].next_addr().expect("active streams are nonempty");
                let bank = self.geometry.decode_bank(addr).index();
                let local = self.geometry.bank_local_addr(addr);
                let ia = self.sdram.map(local);
                let dev = &mut devices[bank];
                if dev.open_row(ia.bank) == Some(ia.row) {
                    let cmd = SdramCmd::Read {
                        bank: ia.bank,
                        col: ia.col,
                        auto_precharge: false,
                        tag: 0,
                    };
                    if dev.issue(cmd).is_ok() {
                        active[i].addrs.pop();
                        issued = true;
                        break;
                    }
                }
            }
            // Phase 2: open/close rows. The stream buffers give the
            // controller lookahead: it may open rows for *upcoming*
            // FIFO entries while earlier accesses wait out tRCD — the
            // prefetching half of the SMC design. Precharging is only
            // done for a stream's head element (conservative).
            if !issued {
                'open: for &i in &order {
                    for (depth, &addr) in active[i].addrs.iter().rev().take(8).enumerate() {
                        let bank = self.geometry.decode_bank(addr).index();
                        let local = self.geometry.bank_local_addr(addr);
                        let ia = self.sdram.map(local);
                        let dev = &mut devices[bank];
                        let cmd = match dev.open_row(ia.bank) {
                            None => SdramCmd::Activate {
                                bank: ia.bank,
                                row: ia.row,
                            },
                            Some(r) if r != ia.row && depth == 0 => {
                                SdramCmd::Precharge { bank: ia.bank }
                            }
                            Some(_) => continue,
                        };
                        if dev.issue(cmd).is_ok() {
                            break 'open;
                        }
                    }
                }
            }
            // Advance time.
            for dev in &mut devices {
                dev.tick();
            }
            cycles += 1;
            assert!(cycles < max_cycles, "SMC model livelock");
            active.retain(|s| !s.addrs.is_empty());
        }
        // Drain CAS latency of the final reads.
        let elements = trace_elements(trace);
        let (mut activates, mut precharges) = (0u64, 0u64);
        for dev in &devices {
            let s = dev.stats();
            activates += s.activates;
            precharges += s.precharges + s.auto_precharges;
        }
        RunOutcome {
            cycles: cycles + self.sdram.t_cas as u64,
            bytes_transferred: elements * WORD_BYTES,
            stats: RunStats {
                commands: trace.len() as u64,
                elements,
                activates,
                precharges,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pva_core::Vector;

    fn read(base: u64, stride: u64, len: u64) -> TraceOp {
        TraceOp::read(Vector::new(base, stride, len).unwrap())
    }

    #[test]
    fn serial_issue_caps_throughput() {
        let mut sys = SmcLike::default();
        // 4 x 32 elements: at one element per cycle, at least 128 cycles.
        let t = [
            read(0, 19, 32),
            read(4096, 19, 32),
            read(8192, 19, 32),
            read(12288, 19, 32),
        ];
        let c = sys.run_trace(&t).cycles;
        assert!(c >= 128, "serial floor: {c}");
        assert!(c < 300, "reordering keeps overhead modest: {c}");
    }

    #[test]
    fn row_locality_exploited_within_stream() {
        // Stride 16: consecutive local addresses, same row. One
        // activate, then 1 element/cycle.
        let mut sys = SmcLike::default();
        let one = sys.run_trace(&[read(0, 16, 32)]).cycles;
        assert!(one < 32 + 12, "row reuse: {one}");
    }

    #[test]
    fn multiple_streams_hide_row_opens() {
        // Two streams in different banks: opening stream B's row should
        // overlap with stream A's accesses, so 2 interleaved streams
        // cost much less than 2x one stream run serially back-to-back.
        let mut sys = SmcLike::default();
        let a = read(0, 16, 32); // bank 0
        let b = read(1, 16, 32); // bank 1
        let together = sys.run_trace(&[a, b]).cycles;
        let single = sys.run_trace(&[a]).cycles;
        assert!(together < 2 * single, "overlap: {together} vs 2 x {single}");
    }

    #[test]
    fn smc_loses_to_pva_on_parallel_strides() {
        // The architectural contrast: with 16 banks of parallelism
        // available (stride 19), the PVA's broadcast approach beats the
        // SMC's serial issue.
        use crate::pva_systems::PvaSystem;
        let trace: Vec<TraceOp> = (0..8).map(|i| read(i * 640, 19, 32)).collect();
        let smc = SmcLike::default().run_trace(&trace).cycles;
        let pva = PvaSystem::sdram().run_trace(&trace).cycles;
        assert!(smc > pva, "smc {smc} vs pva {pva}");
    }
}
