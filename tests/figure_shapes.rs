//! The EXPERIMENTS.md claims, codified: every reproduced figure's
//! *shape* is asserted so regressions in the model surface as test
//! failures, not silently wrong writeups.

use pva::kernels::{Kernel, SystemKind};

mod common;
use common::min_cycles;

/// Figure 7/8 shape: PVA flat across strides (prime included); the
/// cache-line system's cost proportional to stride.
#[test]
fn fig7_8_shapes() {
    for kernel in [Kernel::Copy, Kernel::Vaxpy] {
        let pva_1 = min_cycles(kernel, 1, SystemKind::PvaSdram) as f64;
        let pva_19 = min_cycles(kernel, 19, SystemKind::PvaSdram) as f64;
        assert!(
            (pva_19 / pva_1) < 1.1,
            "{kernel}: PVA must be flat out to prime strides"
        );
        let cl_1 = min_cycles(kernel, 1, SystemKind::CachelineSerial) as f64;
        let cl_16 = min_cycles(kernel, 16, SystemKind::CachelineSerial) as f64;
        assert!(
            (15.0..=17.0).contains(&(cl_16 / cl_1)),
            "{kernel}: line fills scale with stride"
        );
    }
}

/// Figure 9 shape: unit-stride parity (the cache-line system within
/// ~0.9x-1.4x of the PVA).
#[test]
fn fig9_unit_stride_parity() {
    for kernel in Kernel::ALL {
        let pva = min_cycles(kernel, 1, SystemKind::PvaSdram) as f64;
        let cl = min_cycles(kernel, 1, SystemKind::CachelineSerial) as f64;
        let ratio = cl / pva;
        assert!(
            (0.9..=1.4).contains(&ratio),
            "{kernel}: unit-stride ratio {ratio:.2}"
        );
    }
}

/// Figure 10 shape: at stride 19 the cache-line system takes >15x the
/// PVA's time on every kernel; the serial gatherer crosses over toward
/// the PVA only at the single-bank stride 16.
#[test]
fn fig10_prime_stride_blowup_and_crossover() {
    for kernel in Kernel::ALL {
        let pva = min_cycles(kernel, 19, SystemKind::PvaSdram) as f64;
        let cl = min_cycles(kernel, 19, SystemKind::CachelineSerial) as f64;
        assert!(cl / pva > 15.0, "{kernel}: stride-19 ratio {:.1}", cl / pva);
    }
    let pva16 = min_cycles(Kernel::Scale, 16, SystemKind::PvaSdram) as f64;
    let sg16 = min_cycles(Kernel::Scale, 16, SystemKind::SerialGather) as f64;
    assert!(
        sg16 / pva16 < 1.3,
        "serial gather nearly catches the PVA at the single-bank stride"
    );
    let pva19 = min_cycles(Kernel::Scale, 19, SystemKind::PvaSdram) as f64;
    let sg19 = min_cycles(Kernel::Scale, 19, SystemKind::SerialGather) as f64;
    assert!(sg19 / pva19 > 1.8, "but loses where banks parallelize");
}

/// Figure 11 shape: the SDRAM PVA tracks the SRAM PVA within ~16%
/// across every stride and alignment (the latency-hiding claim).
#[test]
fn fig11_sram_gap() {
    use pva::kernels::{run_point, Alignment, STRIDES};
    let mut worst: f64 = 1.0;
    for &s in &STRIDES {
        for a in Alignment::ALL {
            let sdram = run_point(Kernel::Vaxpy, s, a, SystemKind::PvaSdram) as f64;
            let sram = run_point(Kernel::Vaxpy, s, a, SystemKind::PvaSram) as f64;
            worst = worst.max(sdram / sram);
        }
    }
    assert!(
        (1.0..=1.20).contains(&worst),
        "worst SDRAM/SRAM gap {worst:.3} (paper: <= ~1.15)"
    );
}

/// The abstract's headline directions.
#[test]
fn headline_directions() {
    let pva = min_cycles(Kernel::Copy, 19, SystemKind::PvaSdram) as f64;
    let cl = min_cycles(Kernel::Copy, 19, SystemKind::CachelineSerial) as f64;
    let sg = min_cycles(Kernel::Copy, 1, SystemKind::SerialGather) as f64;
    let pva1 = min_cycles(Kernel::Copy, 1, SystemKind::PvaSdram) as f64;
    assert!(
        cl / pva > 20.0,
        "vs cache-line: {:.1}x (paper 32.8x)",
        cl / pva
    );
    assert!(
        sg / pva1 > 2.0,
        "vs serial gather: {:.1}x (paper 3.3x)",
        sg / pva1
    );
}
