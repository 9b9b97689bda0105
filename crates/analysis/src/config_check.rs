//! Configuration consistency pass.
//!
//! [`SdramConfig::check`] and [`PvaConfig::check`] are pure functions
//! over the config structs; the simulators assert them at construction.
//! This pass runs the same rules over every *named preset* shipped by
//! the workspace, so a timing tweak to a preset that breaks an invariant
//! (say, `tRC < tRAS + tRP`) fails CI before any simulation runs.

use pva_sim::PvaConfig;
use sdram::{DevicePreset, SdramConfig};

/// Every named `SdramConfig` preset the workspace ships: one entry per
/// [`DevicePreset`], labelled with the preset's CLI slug so sweep
/// failures are attributable to the exact device generation.
pub fn sdram_presets() -> Vec<(&'static str, SdramConfig)> {
    DevicePreset::ALL
        .into_iter()
        .map(|p| (p.name(), SdramConfig::for_device(p)))
        .collect()
}

/// Every named `PvaConfig` preset the workspace ships.
pub fn pva_presets() -> Vec<(&'static str, PvaConfig)> {
    vec![
        ("PvaConfig::default", PvaConfig::default()),
        ("PvaConfig::sram_backend", PvaConfig::sram_backend()),
        ("PvaConfig::cvms_like", PvaConfig::cvms_like()),
    ]
}

/// Validates one SDRAM config, rendering each violation with `label`.
pub fn check_sdram(label: &str, cfg: &SdramConfig) -> Vec<String> {
    cfg.check()
        .into_iter()
        .map(|e| format!("{label}: {e}"))
        .collect()
}

/// Validates one PVA config, rendering each violation with `label`.
pub fn check_pva(label: &str, cfg: &PvaConfig) -> Vec<String> {
    cfg.check()
        .into_iter()
        .map(|e| format!("{label}: {e}"))
        .collect()
}

/// Runs the pass over every shipped preset.
pub fn check() -> Vec<String> {
    let mut problems = Vec::new();
    for (label, cfg) in sdram_presets() {
        problems.extend(check_sdram(label, &cfg));
    }
    for (label, cfg) in pva_presets() {
        problems.extend(check_pva(label, &cfg));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_are_consistent() {
        assert_eq!(check(), Vec::<String>::new());
    }

    #[test]
    fn preset_list_covers_every_device_generation() {
        let presets = sdram_presets();
        assert_eq!(presets.len(), DevicePreset::ALL.len());
        for preset in DevicePreset::ALL {
            assert!(
                presets.iter().any(|(label, _)| *label == preset.name()),
                "missing {preset}"
            );
        }
    }

    #[test]
    fn broken_sdram_config_is_reported() {
        let bad = SdramConfig {
            internal_banks: 6,
            t_rc: 3,
            ..SdramConfig::default()
        };
        let problems = check_sdram("bad", &bad);
        assert!(problems.len() >= 2, "{problems:?}");
        assert!(problems.iter().all(|p| p.starts_with("bad: ")));
    }

    #[test]
    fn broken_pva_config_is_reported() {
        let bad = PvaConfig {
            vector_contexts: 0,
            ..PvaConfig::default()
        };
        let problems = check_pva("bad", &bad);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("vector_contexts"));
    }
}
