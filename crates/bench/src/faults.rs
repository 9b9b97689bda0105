//! The `faults` scenario: a seeded fault-injection campaign over the
//! Table-2 kernels.
//!
//! Sweeps fault scenario × kernel, running each kernel's vector trace
//! through a faulty [`PvaUnit`] while a golden map tracks every word the
//! campaign wrote. Each gathered line is checked end to end: a wrong
//! word covered by the completion's `faulted` flag counts as *flagged*
//! (detected, delivered honestly); a wrong word without the flag is a
//! *silent* corruption. With ECC on and single-bit fault mechanisms,
//! the campaign must report zero silent corruptions — the repeatable,
//! seeded form of the robustness acceptance criterion. A cell that sees
//! a silent corruption or a watchdog hang panics, so the engine
//! quarantines it and `pva-bench` exits 5.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use kernels::Kernel;
use memsys::OpKind;
use pva_core::{PvaError, Vector};
use pva_sim::{HostRequest, PvaConfig, PvaUnit};

use crate::engine::{CellData, CellSpec, Scenario};

/// Campaign-wide knobs. Everything downstream is a pure function of
/// these, so a cell is reproducible from its config alone.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master fault seed (propagated into every device).
    pub seed: u64,
    /// Application-vector length per kernel (1024 in the paper; use a
    /// smaller multiple of the line length for quick runs).
    pub elements: u64,
    /// Element stride shared by every vector.
    pub stride: u64,
    /// Whether the devices encode/decode SEC-DED.
    pub ecc: bool,
    /// Transient flip rate for the `transient` scenario (ppm of reads).
    pub transient_ppm: u32,
    /// Stuck-cell rate for the `stuck` scenario (ppm of words).
    pub stuck_ppm: u32,
}

/// The campaign the `faults` scenario runs: the paper's 1024-element
/// vectors, seed `0xC0FFEE`, ECC on.
pub const PAPER_CAMPAIGN: CampaignConfig = CampaignConfig {
    seed: 0xC0FFEE,
    elements: 1024,
    stride: 1,
    ecc: true,
    transient_ppm: 20_000,
    stuck_ppm: 20_000,
};

/// Outcome of one kernel × scenario cell.
#[derive(Debug, Clone, Copy)]
pub struct CellOutcome {
    /// Kernel name.
    pub kernel: &'static str,
    /// Scenario label.
    pub scenario: &'static str,
    /// Simulated cycles across the whole trace.
    pub cycles: u64,
    /// Device counter: single-bit errors the SEC-DED code corrected.
    pub corrected: u64,
    /// Device counter: detected-uncorrectable (poisoned) reads.
    pub detected: u64,
    /// Device counter: wrong data delivered without the poison flag.
    pub device_silent: u64,
    /// Device counter: transient flips injected.
    pub transient_faults: u64,
    /// Device counter: words lost to refresh decay.
    pub decayed_words: u64,
    /// Elements delivered with the completion's `faulted` flag.
    pub flagged_elements: u64,
    /// End-to-end mismatches that *were* covered by a flag.
    pub flagged_mismatches: u64,
    /// End-to-end mismatches with no flag — silent corruption as the
    /// application would experience it.
    pub silent_mismatches: u64,
    /// The watchdog aborted the cell.
    pub hung: bool,
}

/// The six fault configs of the campaign, named, as ready-to-run unit
/// configs.
pub fn fault_configs(cc: &CampaignConfig) -> Vec<(&'static str, PvaConfig)> {
    let mut base = PvaConfig::default();
    base.sdram.ecc = cc.ecc;
    base.sdram.fault.seed = cc.seed;
    base.watchdog_cycles = 200_000;
    let mut out = Vec::new();
    {
        let mut c = base;
        c.sdram.fault.transient_ppm = cc.transient_ppm;
        out.push(("transient", c));
    }
    {
        let mut c = base;
        c.sdram.fault.stuck_ppm = cc.stuck_ppm;
        out.push(("stuck", c));
    }
    {
        // On-schedule refresh must keep retention satisfied under load:
        // the expected outcome of this scenario is zero faults.
        let mut c = base;
        c.sdram.refresh_interval = 781;
        c.sdram.fault.retention_cycles = 3_000;
        out.push(("decay", c));
    }
    {
        let mut c = base;
        c.sdram.fault.hard_failed_bank = Some(0);
        out.push(("hard-bank-remap", c));
    }
    {
        let mut c = base;
        c.sdram.fault.hard_failed_bank = Some(0);
        c.degradation = false;
        out.push(("hard-bank-flagged", c));
    }
    {
        // Refresh storm (Chang et al., PAPERS.md): demand traffic has
        // crowded AUTO REFRESH out entirely (interval 0 = the refresh
        // engine starved), so rows ride on raw retention — and the
        // retention window is shorter than the streaming kernels'
        // re-activation gaps, so rows decay mid-kernel. (With refresh
        // *enabled* this model refreshes punctually — refresh preempts
        // scheduling — so decay cannot occur; the `decay` scenario
        // above is that negative control.) A transient overlay
        // occasionally lands a second flipped bit on a decayed word,
        // turning a corrected read into a detected-uncorrectable one
        // and driving the cranked bank-level read-retry path.
        let mut c = base;
        c.sdram.refresh_interval = 0;
        c.sdram.fault.retention_cycles = 80;
        c.sdram.fault.transient_ppm = cc.transient_ppm;
        c.max_read_retries = 7;
        c.retry_backoff_cycles = 16;
        out.push(("refresh-storm", c));
    }
    out
}

/// Deterministic word value for address `addr`, version `v` (version 0
/// is the priming fill; later writes bump it so overwrites are visible).
fn synth(seed: u64, addr: u64, v: u64) -> u64 {
    (addr ^ seed ^ (v << 56)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one kernel's trace against one faulty unit, comparing every
/// gathered word against the golden map.
pub fn run_cell(
    cc: &CampaignConfig,
    kernel: Kernel,
    scenario: &'static str,
    unit_cfg: PvaConfig,
) -> CellOutcome {
    let bases = [0u64, 1 << 20, 2 << 20];
    let trace = kernel.trace(&bases, cc.stride, cc.elements, unit_cfg.line_words);

    // Priming pass: any vector that is read before the trace ever writes
    // it gets filled up front (through the unit, so hard-bank remapping
    // applies to the fill exactly as it will to the kernel's accesses).
    let mut prime: Vec<Vector> = Vec::new();
    {
        let mut known: HashSet<u64> = HashSet::new();
        for op in &trace {
            match op.kind {
                OpKind::Read => {
                    if op.vector.addresses().all(|a| !known.contains(&a)) {
                        prime.push(op.vector);
                        known.extend(op.vector.addresses());
                    }
                }
                OpKind::Write => known.extend(op.vector.addresses()),
            }
        }
    }

    let mut out = CellOutcome {
        kernel: kernel.name(),
        scenario,
        cycles: 0,
        corrected: 0,
        detected: 0,
        device_silent: 0,
        transient_faults: 0,
        decayed_words: 0,
        flagged_elements: 0,
        flagged_mismatches: 0,
        silent_mismatches: 0,
        hung: false,
    };
    let mut unit = PvaUnit::new(unit_cfg).expect("campaign configs are valid");
    let mut golden: HashMap<u64, u64> = HashMap::new();

    // Priming fills (version 0), then the kernel's own ops; trace
    // writes carry versioned data so overwrites are distinguishable.
    let mut ops: Vec<HostRequest> = prime
        .into_iter()
        .map(|v| HostRequest::Write {
            data: v.addresses().map(|a| synth(cc.seed, a, 0)).collect(),
            vector: v,
        })
        .collect();
    for (i, op) in trace.iter().enumerate() {
        ops.push(match op.kind {
            OpKind::Read => HostRequest::Read { vector: op.vector },
            OpKind::Write => HostRequest::Write {
                vector: op.vector,
                data: op
                    .vector
                    .addresses()
                    .map(|a| synth(cc.seed, a, 1 + i as u64))
                    .collect(),
            },
        });
    }

    // Ops run one at a time so each gathered line is checked before the
    // next op, and so a hang is attributed to the op that caused it.
    for op in ops {
        if let HostRequest::Write { vector, data } = &op {
            for (a, &d) in vector.addresses().zip(data.iter()) {
                golden.insert(a, d);
            }
        }
        let vector = *op.vector();
        let result = match unit.run(vec![op]) {
            Ok(r) => r,
            Err(PvaError::Watchdog { .. }) => {
                out.hung = true;
                break;
            }
            Err(e) => panic!("campaign request failed: {e}"),
        };
        out.cycles += result.cycles;
        let c = &result.completions[0];
        out.flagged_elements += c.faulted.len() as u64;
        if let Some(data) = &c.data {
            for (j, &w) in data.iter().enumerate() {
                let addr = vector.element(j as u64);
                if let Some(&expected) = golden.get(&addr) {
                    if w != expected {
                        if c.faulted.contains(&(j as u64)) {
                            out.flagged_mismatches += 1;
                        } else {
                            out.silent_mismatches += 1;
                        }
                    }
                }
            }
        }
    }

    let s = unit.sdram_stats();
    out.corrected = s.corrected;
    out.detected = s.detected_uncorrectable;
    out.device_silent = s.silent;
    out.transient_faults = s.transient_faults;
    out.decayed_words = s.decayed_words;
    out
}

/// The 36-cell `faults` scenario: every fault config × every base
/// kernel of [`PAPER_CAMPAIGN`], in that row order.
pub fn faults() -> Scenario {
    Scenario {
        name: "faults",
        alias: "",
        title: "Fault campaign: six fault scenarios x six kernels, ECC on",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            let mut cells = Vec::new();
            for (name, unit_cfg) in fault_configs(&PAPER_CAMPAIGN) {
                for k in Kernel::BASE {
                    cells.push(CellSpec::new(name, k.name(), move || {
                        let c = run_cell(&PAPER_CAMPAIGN, k, name, unit_cfg);
                        let silent = c.device_silent + c.silent_mismatches;
                        if silent > 0 {
                            panic!("{silent} silent corruption(s) in {}/{name}", k.name());
                        }
                        if c.hung {
                            panic!("watchdog hang in {}/{name}", k.name());
                        }
                        let aux = vec![
                            c.corrected,
                            c.detected,
                            c.flagged_elements,
                            c.flagged_mismatches,
                            silent,
                            u64::from(c.hung),
                        ];
                        CellData::with_aux(c.cycles, 0, aux)
                    }));
                }
            }
            cells
        }),
        render: Box::new(|cells: &[CellData]| {
            let cc = PAPER_CAMPAIGN;
            let mut out = format!(
                "fault campaign: seed={:#x} elements={} ecc={}\n",
                cc.seed, cc.elements, cc.ecc
            );
            let _ = writeln!(
                out,
                "{:<10} {:<18} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>6}",
                "kernel",
                "scenario",
                "cycles",
                "corrected",
                "detected",
                "flagged",
                "flg-mis",
                "silent",
                "hung"
            );
            let names = fault_configs(&cc).into_iter().map(|(name, _)| name);
            let rows = names.flat_map(|name| Kernel::BASE.map(|k| (name, k)));
            let mut totals = [0u64; 6];
            for ((name, k), c) in rows.zip(cells) {
                let a = &c.aux;
                for (t, v) in totals.iter_mut().zip(a) {
                    *t += v;
                }
                let _ = writeln!(
                    out,
                    "{:<10} {:<18} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>6}",
                    k.name(),
                    name,
                    c.cycles,
                    a[0],
                    a[1],
                    a[2],
                    a[3],
                    a[4],
                    if a[5] > 0 { "YES" } else { "-" }
                );
            }
            let _ = writeln!(
                out,
                "totals: corrected={} detected={} silent={} hung-cells={}",
                totals[0], totals[1], totals[4], totals[5]
            );
            out
        }),
    }
}
