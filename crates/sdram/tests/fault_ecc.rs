//! Fault injection and SEC-DED ECC behaviour of the SDRAM device.

use sdram::{FaultConfig, Sdram, SdramCmd, SdramConfig};

/// Reads `col` of `row` on `bank` end to end, returning the
/// `ReadReturn`.
fn timed_read(d: &mut Sdram, bank: u32, row: u64, col: u64) -> sdram::ReadReturn {
    d.issue(SdramCmd::Activate { bank, row }).unwrap();
    d.tick();
    d.tick();
    read_open(d, bank, col)
}

/// Reads `col` of `bank`'s open row and waits out the CAS latency,
/// returning the word the READ hands back.
fn read_open(d: &mut Sdram, bank: u32, col: u64) -> sdram::ReadReturn {
    let mut word = None;
    d.issue_read_burst(bank, false, &[(col, 7)], |w| word = Some(w))
        .unwrap();
    d.tick();
    d.tick();
    word.expect("a READ hands back its word")
}

fn cfg_with(fault: FaultConfig, ecc: bool) -> SdramConfig {
    SdramConfig {
        ecc,
        fault,
        ..SdramConfig::default()
    }
}

#[test]
fn clean_device_reports_no_fault_stats() {
    let mut d = Sdram::new(cfg_with(FaultConfig::none(), true));
    let local = d.local_addr(0, 1, 2);
    d.poke(local, 0xABCD);
    let r = timed_read(&mut d, 0, 1, 2);
    assert_eq!(r.data, 0xABCD);
    assert!(!r.poisoned);
    let s = *d.stats();
    assert_eq!((s.corrected, s.detected_uncorrectable, s.silent), (0, 0, 0));
}

#[test]
fn every_read_transient_is_corrected_with_ecc() {
    // transient_ppm = 1_000_000: every read suffers one bit flip.
    let fault = FaultConfig {
        seed: 5,
        transient_ppm: 1_000_000,
        ..FaultConfig::none()
    };
    let mut d = Sdram::new(cfg_with(fault, true));
    for col in 0..16u64 {
        let local = d.local_addr(0, 1, col);
        d.poke(local, 0x1111_0000 + col);
    }
    let mut dev_now = d;
    for col in 0..16u64 {
        let r = timed_read(&mut dev_now, 0, 1, col);
        assert_eq!(r.data, 0x1111_0000 + col, "flip at col {col} corrected");
        assert!(!r.poisoned);
        // Re-close the row for the next iteration's activate.
        for _ in 0..4 {
            dev_now.tick();
        }
        dev_now.issue(SdramCmd::Precharge { bank: 0 }).unwrap();
        for _ in 0..6 {
            dev_now.tick();
        }
    }
    let s = *dev_now.stats();
    assert_eq!(s.transient_faults, 16);
    assert_eq!(s.corrected, 16);
    assert_eq!(s.silent, 0);
}

#[test]
fn transients_without_ecc_corrupt_silently() {
    let fault = FaultConfig {
        seed: 5,
        transient_ppm: 1_000_000,
        ..FaultConfig::none()
    };
    let mut d = Sdram::new(cfg_with(fault, false));
    let local = d.local_addr(0, 1, 0);
    d.poke(local, 0xABCD);
    let mut silent = 0;
    let mut d2 = d;
    for _ in 0..8 {
        let r = timed_read(&mut d2, 0, 1, 0);
        assert!(!r.poisoned, "without ECC nothing is flagged");
        if r.data != 0xABCD {
            silent += 1;
        }
        for _ in 0..4 {
            d2.tick();
        }
        d2.issue(SdramCmd::Precharge { bank: 0 }).unwrap();
        for _ in 0..6 {
            d2.tick();
        }
    }
    assert!(silent > 0, "some flips must land in the data bits");
    assert_eq!(d2.stats().silent, silent);
    assert_eq!(d2.stats().corrected, 0);
}

#[test]
fn stuck_cells_are_deterministic_and_corrected() {
    // stuck_ppm = 1_000_000: every word has one stuck bit.
    let fault = FaultConfig {
        seed: 77,
        stuck_ppm: 1_000_000,
        ..FaultConfig::none()
    };
    let mut d = Sdram::new(cfg_with(fault, true));
    let local = d.local_addr(2, 4, 9);
    d.poke(local, 0);
    let first = timed_read(&mut d, 2, 4, 9);
    assert!(!first.poisoned);
    assert_eq!(first.data, 0, "stuck bit corrected (or already agreed)");
    assert_eq!(d.stats().silent, 0);
    // The same location read again behaves identically.
    for _ in 0..4 {
        d.tick();
    }
    d.issue(SdramCmd::Precharge { bank: 2 }).unwrap();
    for _ in 0..6 {
        d.tick();
    }
    let second = timed_read(&mut d, 2, 4, 9);
    assert_eq!(second.data, 0);
}

#[test]
fn hard_failed_bank_poisons_reads_and_drops_writes() {
    let fault = FaultConfig {
        seed: 1,
        hard_failed_bank: Some(1),
        ..FaultConfig::none()
    };
    let mut d = Sdram::new(cfg_with(fault, false));
    // A write to the dead bank stores nothing.
    d.issue(SdramCmd::Activate { bank: 1, row: 0 }).unwrap();
    d.tick();
    d.tick();
    d.issue(SdramCmd::Write {
        bank: 1,
        col: 0,
        data: 0x5555,
        auto_precharge: false,
    })
    .unwrap();
    d.tick();
    let r = read_open(&mut d, 1, 0);
    assert!(r.poisoned, "reads from a dead bank are flagged");
    assert_eq!(d.stats().dropped_writes, 1);
    assert_eq!(d.stats().detected_uncorrectable, 1);
    assert_eq!(d.stats().silent, 0, "flagged loss is not silent");
    // Healthy banks are unaffected.
    let ok = timed_read(&mut d, 0, 0, 0);
    assert!(!ok.poisoned);
}

#[test]
fn fault_streams_replay_bit_identically_from_the_seed() {
    let fault = FaultConfig {
        seed: 909,
        transient_ppm: 300_000,
        stuck_ppm: 50_000,
        ..FaultConfig::none()
    };
    let run = || {
        let mut d = Sdram::new(cfg_with(fault, true));
        let mut out = Vec::new();
        for col in 0..8u64 {
            let r = timed_read(&mut d, 0, 2, col);
            out.push((r.data, r.poisoned));
            for _ in 0..4 {
                d.tick();
            }
            d.issue(SdramCmd::Precharge { bank: 0 }).unwrap();
            for _ in 0..6 {
                d.tick();
            }
        }
        (out, *d.stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn try_new_rejects_bad_fault_configs_without_panicking() {
    let bad = cfg_with(
        FaultConfig {
            hard_failed_bank: Some(99),
            ..FaultConfig::none()
        },
        false,
    );
    assert!(Sdram::try_new(bad).is_err());
    let bad_rate = cfg_with(
        FaultConfig {
            transient_ppm: 2_000_000,
            ..FaultConfig::none()
        },
        false,
    );
    assert!(Sdram::try_new(bad_rate).is_err());
}
