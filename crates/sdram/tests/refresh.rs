//! AUTO REFRESH semantics of the SDRAM device (§2.2).

use sdram::{DevicePreset, IssueError, Sdram, SdramCmd, SdramConfig};

fn refreshing() -> Sdram {
    Sdram::new(SdramConfig::for_device(DevicePreset::SdrRefresh))
}

#[test]
fn refresh_requires_closed_rows() {
    let mut d = refreshing();
    d.issue(SdramCmd::Activate { bank: 0, row: 1 }).unwrap();
    d.tick();
    assert_eq!(
        d.issue(SdramCmd::Refresh).unwrap_err(),
        IssueError::RefreshNeedsIdleBanks
    );
}

#[test]
fn refresh_blocks_commands_for_trfc() {
    let mut d = refreshing();
    d.issue(SdramCmd::Refresh).unwrap();
    d.tick();
    // tRFC = 8: commands rejected for 7 more cycles after the first tick.
    for _ in 0..7 {
        assert_eq!(
            d.issue(SdramCmd::Activate { bank: 0, row: 0 }).unwrap_err(),
            IssueError::RefreshInProgress
        );
        d.tick();
    }
    assert!(d.issue(SdramCmd::Activate { bank: 0, row: 0 }).is_ok());
    assert_eq!(d.stats().refreshes, 1);
}

#[test]
fn refresh_due_tracks_interval() {
    let mut d = refreshing();
    assert!(!d.refresh_due());
    for _ in 0..781 {
        d.tick();
    }
    assert!(d.refresh_due());
    d.issue(SdramCmd::Refresh).unwrap();
    d.tick();
    assert!(!d.refresh_due());
}

#[test]
fn refresh_disabled_by_default() {
    let mut d = Sdram::new(SdramConfig::default());
    for _ in 0..10_000 {
        d.tick();
    }
    assert!(!d.refresh_due());
}

#[test]
fn nop_is_legal_during_refresh() {
    let mut d = refreshing();
    d.issue(SdramCmd::Refresh).unwrap();
    assert!(d.issue(SdramCmd::Nop).is_ok());
}

// ---------------------------------------------------------------------
// Refresh decay: data survives iff the row's charge is restored (by
// ACTIVATE or AUTO REFRESH) within the retention window.
// ---------------------------------------------------------------------

use sdram::FaultConfig;

/// A device with decay modeled: refresh enabled (interval 781) and a
/// retention window of `retention` cycles.
fn decaying(retention: u64) -> Sdram {
    Sdram::new(SdramConfig {
        fault: FaultConfig {
            seed: 42,
            retention_cycles: retention,
            ..FaultConfig::none()
        },
        ..SdramConfig::for_device(DevicePreset::SdrRefresh)
    })
}

/// Opens `row` on bank 0, writes `data` at column 0, and precharges.
fn write_row0(d: &mut Sdram, row: u64, data: u64) {
    d.issue(SdramCmd::Activate { bank: 0, row }).unwrap();
    d.tick();
    d.tick();
    d.issue(SdramCmd::Write {
        bank: 0,
        col: 0,
        data,
        auto_precharge: false,
    })
    .unwrap();
    for _ in 0..5 {
        d.tick(); // out-wait tRAS/tWR
    }
    d.issue(SdramCmd::Precharge { bank: 0 }).unwrap();
    d.tick();
    d.tick();
}

/// Activates `row` on bank 0 and reads column 0 back.
fn read_row0(d: &mut Sdram, row: u64) -> u64 {
    d.issue(SdramCmd::Activate { bank: 0, row }).unwrap();
    d.tick();
    d.tick();
    read_col0(d)
}

/// Reads column 0 of bank 0's open row and waits out the CAS latency,
/// returning the word's data.
fn read_col0(d: &mut Sdram) -> u64 {
    let mut data = None;
    d.issue_read_burst(0, false, &[(0, 0)], |w| data = Some(w.data))
        .unwrap();
    d.tick();
    d.tick();
    data.expect("a READ hands back its word")
}

#[test]
fn data_decays_when_retention_window_lapses() {
    let mut d = decaying(2_000);
    write_row0(&mut d, 3, 0xCAFE);
    // Violate the retention window: no activate, no refresh.
    for _ in 0..3_000 {
        d.tick();
    }
    let got = read_row0(&mut d, 3);
    assert_ne!(got, 0xCAFE, "retention violated: data must decay");
    assert_eq!(
        (got ^ 0xCAFE).count_ones(),
        1,
        "decay loses exactly one (deterministic) bit per word"
    );
    assert_eq!(d.stats().decayed_words, 1);
    assert_eq!(d.stats().silent, 1, "without ECC the corruption is silent");
}

#[test]
fn data_survives_within_retention_window() {
    let mut d = decaying(2_000);
    write_row0(&mut d, 3, 0xCAFE);
    for _ in 0..1_500 {
        d.tick();
    }
    assert_eq!(read_row0(&mut d, 3), 0xCAFE);
    assert_eq!(d.stats().decayed_words, 0);
}

#[test]
fn on_schedule_refreshes_prevent_decay() {
    // Refresh whenever refresh_due() says so; the decay model must
    // agree that an on-schedule device never loses data.
    let mut d = decaying(2_000);
    write_row0(&mut d, 7, 0xBEEF);
    for _ in 0..10_000 {
        if d.refresh_due() && !d.refresh_in_progress() {
            d.issue(SdramCmd::Refresh).unwrap();
        }
        d.tick();
    }
    assert!(d.stats().refreshes >= 10, "refresh_due drove the cadence");
    assert_eq!(read_row0(&mut d, 7), 0xBEEF);
    assert_eq!(d.stats().decayed_words, 0);
    assert_eq!(d.stats().silent, 0);
}

#[test]
fn late_refresh_perpetuates_the_decayed_value() {
    // A refresh after the window lapsed recharges the *corrupted*
    // cells: the data stays wrong even though refreshes resume.
    let mut d = decaying(2_000);
    write_row0(&mut d, 5, 0xF00D);
    for _ in 0..3_000 {
        d.tick();
    }
    d.issue(SdramCmd::Refresh).unwrap();
    for _ in 0..10 {
        d.tick();
    }
    assert_eq!(d.stats().decayed_words, 1, "the late refresh found decay");
    let got = read_row0(&mut d, 5);
    assert_ne!(got, 0xF00D);
}

#[test]
fn rewrite_recharges_a_decayed_word() {
    let mut d = decaying(2_000);
    write_row0(&mut d, 3, 0xCAFE);
    for _ in 0..3_000 {
        d.tick();
    }
    assert_ne!(read_row0(&mut d, 3), 0xCAFE);
    // The row is still open; rewrite the word and read it back.
    d.issue(SdramCmd::Write {
        bank: 0,
        col: 0,
        data: 0x1234,
        auto_precharge: false,
    })
    .unwrap();
    d.tick();
    assert_eq!(read_col0(&mut d), 0x1234);
}

#[test]
fn ecc_corrects_single_bit_decay() {
    let mut d = Sdram::new(SdramConfig {
        ecc: true,
        fault: FaultConfig {
            seed: 42,
            retention_cycles: 2_000,
            ..FaultConfig::none()
        },
        ..SdramConfig::for_device(DevicePreset::SdrRefresh)
    });
    write_row0(&mut d, 3, 0xCAFE);
    for _ in 0..3_000 {
        d.tick();
    }
    assert_eq!(read_row0(&mut d, 3), 0xCAFE, "ECC repairs the decayed bit");
    assert_eq!(d.stats().decayed_words, 1);
    assert_eq!(d.stats().corrected, 1);
    assert_eq!(d.stats().silent, 0);
}

#[test]
fn retention_shorter_than_refresh_interval_is_rejected() {
    let cfg = SdramConfig {
        fault: FaultConfig {
            retention_cycles: 100, // < interval 781
            ..FaultConfig::none()
        },
        ..SdramConfig::for_device(DevicePreset::SdrRefresh)
    };
    assert!(Sdram::try_new(cfg).is_err());
}
