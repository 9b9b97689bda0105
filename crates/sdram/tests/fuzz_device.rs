//! Fuzz the SDRAM device with random-but-legal command streams and
//! cross-check the device's restimer enforcement against the
//! independent [`TimingAuditor`]. The device executes the shared
//! protocol tables, so this audit is what catches a wrong table entry. Randomized with the deterministic
//! in-tree [`SplitMix64`] so failures replay exactly.

use pva_core::SplitMix64;
use sdram::{DevicePreset, Sdram, SdramCmd, SdramConfig, TimingAuditor};

const CASES: u64 = 64;

/// Drives `steps` cycles of random legal traffic; returns the auditor
/// and the set of (local_addr, data) writes performed.
fn drive(seed: u64, steps: u32, cfg: SdramConfig) -> (TimingAuditor, Vec<(u64, u64)>, Sdram) {
    let mut rng = SplitMix64::new(seed);
    let mut dev = Sdram::new(cfg);
    let mut audit = TimingAuditor::new(cfg);
    let mut writes = Vec::new();
    for _ in 0..steps {
        // Propose a few random commands; issue the first legal one.
        let mut issued = false;
        for _ in 0..8 {
            let bank = rng.below(cfg.internal_banks as u64) as u32;
            let cmd = match rng.below(4) {
                0 => SdramCmd::Activate {
                    bank,
                    row: rng.below(8),
                },
                1 => SdramCmd::Read {
                    bank,
                    col: rng.below(16),
                    auto_precharge: rng.chance(3, 10),
                    tag: rng.next_u64(),
                },
                2 => SdramCmd::Write {
                    bank,
                    col: rng.below(16),
                    data: rng.next_u64(),
                    auto_precharge: rng.chance(3, 10),
                },
                _ => SdramCmd::Precharge { bank },
            };
            if dev.can_issue(&cmd).is_ok() {
                if let SdramCmd::Write {
                    bank, col, data, ..
                } = cmd
                {
                    if let Some(row) = dev.open_row(bank) {
                        writes.push((dev.local_addr(bank, row, col), data));
                    }
                }
                audit.observe(dev.now(), &cmd);
                dev.issue(cmd).expect("can_issue approved this command");
                issued = true;
                break;
            }
        }
        if !issued {
            dev.issue(SdramCmd::Nop).expect("nop always legal");
        }
        dev.tick();
    }
    (audit, writes, dev)
}

/// Any stream the device accepts is clean under independent audit, on
/// every shipped generation — the multi-group presets exercise the
/// channel gates (tCCD, tRRD, tFAW) as well as the per-bank ones.
#[test]
fn device_never_violates_timing() {
    for preset in DevicePreset::ALL {
        let mut seeds = SplitMix64::new(0x5D01);
        for _ in 0..CASES {
            let (audit, _, _) = drive(seeds.next_u64(), 400, preset.config());
            if let Err(violations) = audit.check_clean() {
                panic!("{preset}: timing violations: {violations:?}");
            }
        }
    }
}

/// Tighter timing parameters are enforced too.
#[test]
fn device_clean_with_slow_timings() {
    let cfg = SdramConfig {
        t_rcd: 3,
        t_cas: 3,
        t_rp: 3,
        t_ras: 7,
        t_rc: 10,
        t_wr: 2,
        ..SdramConfig::default()
    };
    let mut seeds = SplitMix64::new(0x5D02);
    for _ in 0..CASES {
        let (audit, _, _) = drive(seeds.next_u64(), 400, cfg);
        audit.assert_clean();
    }
}

/// The last write to each address is what a functional read returns.
#[test]
fn writes_are_durable() {
    let mut seeds = SplitMix64::new(0x5D03);
    for _ in 0..CASES {
        let (_, writes, dev) = drive(seeds.next_u64(), 300, SdramConfig::default());
        use std::collections::HashMap;
        let mut last: HashMap<u64, u64> = HashMap::new();
        for (addr, data) in writes {
            last.insert(addr, data);
        }
        for (addr, data) in last {
            assert_eq!(dev.peek(addr), data);
        }
    }
}

#[test]
fn back_to_back_reads_stream_every_cycle() {
    // The pipelining claim of §2: "it is possible to apply one address to
    // an SDRAM every cycle". 16 reads from an open row take 16 command
    // cycles + CAS latency.
    let cfg = SdramConfig::default();
    let mut dev = Sdram::new(cfg);
    dev.issue(SdramCmd::Activate { bank: 0, row: 0 }).unwrap();
    dev.tick();
    dev.tick();
    let start = dev.now();
    let mut got = Vec::new();
    for i in 0..16u64 {
        dev.issue_read_burst(0, false, &[(i, i)], |w| got.push(w))
            .unwrap();
        dev.tick();
    }
    assert_eq!(got.len(), 16);
    // One word reaches the pins every cycle, in issue order.
    assert!(got.windows(2).all(|w| w[1].at_cycle == w[0].at_cycle + 1));
    let last = got.last().unwrap().at_cycle;
    assert_eq!(last - start, 15 + cfg.t_cas as u64);
}
