//! Two-phase vector-indirect gather (§7 extension).
//!
//! The paper's conclusion sketches how the PVA handles sparse
//! scatter/gather: (1) load the indirection vector — an ordinary
//! unit-stride PVA read; (2) broadcast its contents on the vector bus at
//! two addresses per cycle while every bank controller snoops and claims
//! the addresses that decode to its bank; then all banks gather their
//! claims in parallel and the line is coalesced through the staging
//! units as usual.
//!
//! Phase 1 runs on the full [`PvaUnit`]; phase 2 is modelled with the
//! same SDRAM devices driven by a per-bank open-row scheduler (the
//! claims are irregular, so no vector context machinery applies).

use pva_core::{IndirectVector, PvaError, Vector};
use sdram::{Sdram, SdramCmd};

use crate::command::HostRequest;
use crate::config::PvaConfig;
use crate::unit::PvaUnit;

/// Cycle breakdown of a two-phase indirect gather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectTiming {
    /// Phase 1: loading the indirection vector (PVA unit cycles).
    pub phase1_cycles: u64,
    /// Broadcasting the indices on the vector bus (2 per cycle).
    pub broadcast_cycles: u64,
    /// Phase 2: parallel per-bank gather (max over banks).
    pub phase2_cycles: u64,
    /// Staging the gathered line back to the host.
    pub stage_cycles: u64,
    /// End-to-end total.
    pub total_cycles: u64,
    /// Gathered data, in element order.
    pub data: Vec<u64>,
}

/// Runs an indirect gather: loads the index vector from `index_base`
/// through the PVA unit, then gathers `iv`'s elements bank-parallel.
///
/// # Errors
///
/// Propagates PVA unit errors from phase 1.
pub fn run_indirect_gather(
    config: PvaConfig,
    iv: &IndirectVector,
    index_base: u64,
) -> Result<IndirectTiming, PvaError> {
    // Phase 1: unit-stride load of the indirection vector, in line-sized
    // chunks.
    let mut unit = PvaUnit::new(config)?;
    let index_vec = Vector::unit_stride(index_base, iv.length())?;
    let reads: Vec<HostRequest> = index_vec
        .chunks(config.line_words)
        .map(|v| HostRequest::Read { vector: v })
        .collect();
    let phase1 = unit.run(reads)?;
    let phase1_cycles = phase1.cycles;

    // Broadcast: two addresses per data cycle on the 128-bit BC bus.
    let broadcast_cycles = iv.length().div_ceil(2);

    // Phase 2: every bank serves its claim against its own SDRAM with
    // open-row reuse; banks run in parallel, so the phase costs the
    // slowest bank.
    let g = config.geometry;
    let mut data = vec![0u64; iv.length() as usize];
    let mut phase2_cycles = 0u64;
    for b in 0..g.banks() {
        let bank = pva_core::BankId::new(b as usize);
        let claims: Vec<u64> = iv.claim(bank, &g).collect();
        if claims.is_empty() {
            continue;
        }
        let mut dev = Sdram::new(config.sdram);
        let mut cycles = 0u64;
        // Cycle the bank's last word reaches the pins.
        let mut last_word_at = 0u64;
        for &elem in &claims {
            let addr = iv.element(elem);
            let local = g.bank_local_addr(addr);
            let ia = config.sdram.map(local);
            // Open the right row if needed, waiting out timers.
            loop {
                if dev.open_row(ia.bank) == Some(ia.row) {
                    let read = dev.issue_read_burst(ia.bank, false, &[(ia.col, elem)], |w| {
                        data[w.tag as usize] = w.data;
                        last_word_at = last_word_at.max(w.at_cycle);
                    });
                    if read.is_ok() {
                        dev.tick();
                        cycles += 1;
                        break;
                    }
                } else if dev.open_row(ia.bank).is_some() {
                    let _ = dev.issue(SdramCmd::Precharge { bank: ia.bank });
                } else {
                    let _ = dev.issue(SdramCmd::Activate {
                        bank: ia.bank,
                        row: ia.row,
                    });
                }
                dev.tick();
                cycles += 1;
            }
        }
        // The bank is done when its last word reaches the pins, and at
        // the earliest two clocks after its last CAS (`cycles` already
        // counts the first).
        phase2_cycles = phase2_cycles.max((cycles + 1).max(last_word_at));
    }

    let stage_cycles = iv.length().div_ceil(config.stage_words_per_cycle);
    Ok(IndirectTiming {
        phase1_cycles,
        broadcast_cycles,
        phase2_cycles,
        stage_cycles,
        total_cycles: phase1_cycles + broadcast_cycles + phase2_cycles + stage_cycles,
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdram::background_pattern;

    #[test]
    fn gathers_correct_data() {
        let cfg = PvaConfig::default();
        let offsets: Vec<u64> = vec![0, 17, 5, 1000, 48, 33, 2, 999];
        let iv = IndirectVector::new(0x4000, offsets).unwrap();
        let t = run_indirect_gather(cfg, &iv, 0).unwrap();
        for (i, addr) in iv.addresses().enumerate() {
            // Unwritten memory reads the background pattern of the
            // device-local address.
            let local = cfg.geometry.bank_local_addr(addr);
            assert_eq!(t.data[i], background_pattern(local), "element {i}");
        }
    }

    #[test]
    fn spread_claims_beat_clustered_claims() {
        // 32 elements spread over all banks vs. all in one bank: the
        // parallel phase should be much shorter when spread.
        let cfg = PvaConfig::default();
        let spread = IndirectVector::new(0, (0..32).collect()).unwrap();
        let clustered = IndirectVector::new(0, (0..32).map(|i| i * 16).collect()).unwrap();
        let ts = run_indirect_gather(cfg, &spread, 0).unwrap();
        let tc = run_indirect_gather(cfg, &clustered, 0).unwrap();
        assert!(
            ts.phase2_cycles * 4 < tc.phase2_cycles,
            "spread {} vs clustered {}",
            ts.phase2_cycles,
            tc.phase2_cycles
        );
    }

    #[test]
    fn timing_components_sum() {
        let cfg = PvaConfig::default();
        let iv = IndirectVector::new(0, (0..16).map(|i| i * 3).collect()).unwrap();
        let t = run_indirect_gather(cfg, &iv, 0).unwrap();
        assert_eq!(
            t.total_cycles,
            t.phase1_cycles + t.broadcast_cycles + t.phase2_cycles + t.stage_cycles
        );
        assert_eq!(t.broadcast_cycles, 8);
    }
}
