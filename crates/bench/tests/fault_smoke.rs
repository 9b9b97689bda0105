//! Seeded fault-campaign checks: the robustness acceptance criteria in
//! test form. With ECC on, no fault scenario may produce a silent
//! corruption or a hang; with ECC off at a high transient rate, silent
//! corruption must actually show up (proving the campaign can detect
//! it). These run the cell function on short vectors; the full-size
//! `faults` scenario is checked against its golden in `engine.rs`.

use kernels::Kernel;
use pva_bench::faults::{fault_configs, run_cell, CampaignConfig, CellOutcome, PAPER_CAMPAIGN};

/// A short, fault-dense campaign: 128-element vectors and 10% fault
/// rates keep the debug-build run fast while still exercising every
/// mechanism.
fn quick(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        elements: 128,
        transient_ppm: 100_000,
        stuck_ppm: 100_000,
        ..PAPER_CAMPAIGN
    }
}

/// Every fault config × every base kernel, in the scenario's row order.
fn campaign(cc: &CampaignConfig) -> Vec<CellOutcome> {
    fault_configs(cc)
        .into_iter()
        .flat_map(|(name, unit_cfg)| Kernel::BASE.map(|k| run_cell(cc, k, name, unit_cfg)))
        .collect()
}

fn silent(c: &CellOutcome) -> u64 {
    c.device_silent + c.silent_mismatches
}

#[test]
fn ecc_campaign_has_zero_silent_corruptions() {
    let cells = campaign(&quick(0xC0FFEE));
    for c in &cells {
        assert!(!c.hung, "{}/{} must not hang", c.kernel, c.scenario);
        assert_eq!(
            silent(c),
            0,
            "{}/{} must have no silent corruption",
            c.kernel,
            c.scenario
        );
    }
    // The campaign exercised real faults — it did not pass vacuously.
    assert!(
        cells.iter().map(|c| c.corrected).sum::<u64>() > 0,
        "ECC corrections must occur"
    );
    assert!(
        cells.iter().map(|c| c.detected).sum::<u64>() > 0,
        "the dead-bank scenarios must detect poisoned reads"
    );
}

#[test]
fn ecc_off_campaign_detects_silent_corruption() {
    let cc = CampaignConfig {
        ecc: false,
        transient_ppm: 500_000,
        ..quick(0xC0FFEE)
    };
    assert!(
        campaign(&cc).iter().map(silent).sum::<u64>() > 0,
        "without ECC, a 50% transient rate must corrupt silently"
    );
}

#[test]
fn refresh_storm_decays_rows_without_silent_corruption() {
    let cc = quick(0xC0FFEE);
    let (name, unit_cfg) = fault_configs(&cc)
        .into_iter()
        .find(|(name, _)| *name == "refresh-storm")
        .expect("refresh-storm is a fault config");
    let storm = Kernel::BASE.map(|k| run_cell(&cc, k, name, unit_cfg));
    let decayed: u64 = storm.iter().map(|c| c.decayed_words).sum();
    assert!(
        decayed > 0,
        "refresh slip under streaming load must actually decay rows"
    );
    for c in &storm {
        assert!(
            !c.hung,
            "{}: refresh pressure must not hang the cell",
            c.kernel
        );
        assert_eq!(
            silent(c),
            0,
            "{}: decay + ECC must never corrupt silently",
            c.kernel
        );
    }
}

#[test]
fn campaign_is_reproducible_from_its_seed() {
    let key = |cells: Vec<CellOutcome>| {
        cells
            .iter()
            .map(|c| (c.cycles, c.corrected, c.detected, c.flagged_elements))
            .collect::<Vec<_>>()
    };
    let a = key(campaign(&quick(42)));
    assert_eq!(a, key(campaign(&quick(42))));
    assert_ne!(
        a,
        key(campaign(&quick(43))),
        "a different seed must steer the fault streams differently"
    );
}
