//! Behavioural tests for the generation-aware issue policy on
//! channel-declaring parts: burst coalescing, group-interleaved CAS,
//! and — most importantly — the correctness boundary of the reordering
//! window (an overlapping read must never bypass an older write).

use kernels::{Alignment, Kernel, ARRAY_REGION, LINE_WORDS};
use pva_core::Vector;
use pva_sim::{BcStats, HostRequest, OpKind, PvaConfig, PvaUnit};
use sdram::{DevicePreset, SdramConfig};

fn ddr3_cfg() -> PvaConfig {
    PvaConfig {
        sdram: SdramConfig::for_device(DevicePreset::Ddr3_1600),
        ..PvaConfig::default()
    }
}

fn scheduler_totals(unit: &PvaUnit) -> BcStats {
    let mut total = BcStats::default();
    for s in &unit.bc_stats() {
        total.merge(s);
    }
    total
}

fn read(base: u64, stride: u64, len: u64) -> HostRequest {
    HostRequest::Read {
        vector: Vector::new(base, stride, len).expect("valid vector"),
    }
}

#[test]
fn stride1_reads_coalesce_into_bursts() {
    // A dense read on a BL8 part: each bank controller sees consecutive
    // columns of one row and must fold them into multi-word CAS bursts,
    // so the device records fewer CAS commands than elements.
    let mut unit = PvaUnit::new(ddr3_cfg()).unwrap();
    let reqs: Vec<HostRequest> = (0..8u64).map(|i| read(i * 512, 1, 32)).collect();
    unit.run(reqs).unwrap();
    let sched = scheduler_totals(&unit);
    assert_eq!(sched.elements_read, 256);
    assert!(
        sched.coalesced_bursts > 0,
        "dense stride-1 traffic must coalesce: {sched:?}"
    );
    let cas = unit.sdram_stats().reads;
    assert!(
        cas < 256,
        "coalescing must shrink the CAS count below the element count, got {cas}"
    );
}

#[test]
fn cross_group_traffic_interleaves_cas() {
    // Bases 0 and 8192 land in internal banks 0 and 1 of every external
    // bank (16 external banks x 512-column pages), which are bank
    // groups 0 and 1 on the DDR3 part. With both vector contexts live,
    // the policy must alternate groups so tCCD_S applies.
    let mut unit = PvaUnit::new(ddr3_cfg()).unwrap();
    unit.run(vec![
        read(0, 1, 32),
        read(8192, 1, 32),
        read(32, 1, 32),
        read(8192 + 32, 1, 32),
    ])
    .unwrap();
    let sched = scheduler_totals(&unit);
    assert!(
        sched.group_switches > 0,
        "cross-group traffic must record group switches: {sched:?}"
    );
}

#[test]
fn overlapping_read_does_not_bypass_an_older_write() {
    // The reordering window may pull a read past an older write only
    // when their address ranges are provably disjoint. Here they alias
    // exactly, so the read must drain after the write commits and
    // return the written data, not the preloaded values.
    let mut unit = PvaUnit::new(ddr3_cfg()).unwrap();
    let v = Vector::new(0x2000, 1, 32).unwrap();
    for addr in v.addresses() {
        unit.preload(addr, 0xDEAD_0000);
    }
    let fresh: Vec<u64> = (0..32).map(|i| 0xF00D_0000 + i).collect();
    // A leading read parks the window's anchor on Read polarity, making
    // the bypass of the write maximally tempting.
    let r = unit
        .run(vec![
            read(0x4000, 1, 32),
            HostRequest::Write {
                vector: v,
                data: fresh.clone(),
            },
            HostRequest::Read { vector: v },
        ])
        .unwrap();
    assert_eq!(
        r.read_data(2),
        &fresh[..],
        "an aliasing read bypassed the older write"
    );
}

#[test]
fn disjoint_read_may_bypass_and_stays_correct() {
    // The legal half of the same rule: a read whose range is disjoint
    // from every skipped write returns its own memory regardless of
    // drain order.
    let mut unit = PvaUnit::new(ddr3_cfg()).unwrap();
    let w = Vector::new(0x2000, 1, 32).unwrap();
    let r_vec = Vector::new(0x9000, 1, 32).unwrap();
    for (i, addr) in r_vec.addresses().enumerate() {
        unit.preload(addr, 0xAAAA_0000 + i as u64);
    }
    let fresh: Vec<u64> = (0..32).map(|i| 0xF00D_0000 + i).collect();
    let r = unit
        .run(vec![
            read(0x4000, 1, 32),
            HostRequest::Write {
                vector: w,
                data: fresh.clone(),
            },
            HostRequest::Read { vector: r_vec },
        ])
        .unwrap();
    let got = r.read_data(2);
    for (i, &word) in got.iter().enumerate() {
        assert_eq!(word, 0xAAAA_0000 + i as u64, "element {i}");
    }
    // And the write still lands.
    for (i, addr) in w.addresses().enumerate() {
        assert_eq!(unit.peek(addr), fresh[i], "written element {i}");
    }
}

#[test]
fn tfaw_deferral_matches_the_reference_stepper() {
    // vaxpy at stride 19 with internal-bank-staggered arrays opens rows
    // in four internal banks at once, so the tFAW window runs down to
    // its last slot while a CAS is ready: phase A defers activates. The
    // event core has no wake source for the deferral itself (a
    // deferring tick always issues a CAS or starts a turnaround), so it
    // must still match the per-cycle reference exactly.
    let kernel = Kernel::Vaxpy;
    let bases = Alignment::InternalBankStagger.bases(kernel.array_count(), ARRAY_REGION);
    let requests: Vec<HostRequest> = kernel
        .trace(&bases, 19, 64, LINE_WORDS)
        .iter()
        .map(|op| match op.kind {
            OpKind::Read => HostRequest::Read { vector: op.vector },
            OpKind::Write => HostRequest::Write {
                vector: op.vector,
                data: (0..op.vector.length()).map(|i| 0xDEF0_0000 + i).collect(),
            },
        })
        .collect();
    let run = |fast_sim: bool| {
        let mut unit = PvaUnit::new(PvaConfig {
            fast_sim,
            ..ddr3_cfg()
        })
        .unwrap();
        unit.run(requests.clone()).unwrap()
    };
    let (event, reference) = (run(true), run(false));
    let deferred: u64 = event.bc_stats.iter().map(|s| s.deferred_activates).sum();
    assert!(deferred > 0, "the workload must defer activates");
    assert_eq!(event.cycles, reference.cycles, "cycles");
    assert_eq!(event.bc_stats, reference.bc_stats, "controller stats");
    assert_eq!(event.sdram, reference.sdram, "device stats");
    assert_eq!(event.completions, reference.completions, "completions");
}

#[test]
fn tfaw_binds_at_a_pinned_cycle_count() {
    // Four reads confined to external bank 0, each striding four row
    // spans so its elements alternate between internal banks j and
    // j + 4 on a fresh row every time: 32 activates, issued as fast as
    // tRRD (6) allows. Four of them fit in 24 cycles, inside tFAW (26),
    // so the four-activate window is what paces the stream, and the
    // cycle count is pinned: with the tFAW gate gone it drops to 262.
    let cfg = ddr3_cfg();
    let span = 16 << cfg.sdram.log2_cols;
    let requests: Vec<HostRequest> = (0..4).map(|j| read(j * span, 4 * span, 8)).collect();
    let run = |fast_sim: bool| {
        let mut unit = PvaUnit::new(PvaConfig { fast_sim, ..cfg }).unwrap();
        unit.run(requests.clone()).unwrap()
    };
    let (event, reference) = (run(true), run(false));
    assert_eq!(event.sdram.activates, 32);
    assert_eq!(reference.cycles, 274, "reference cycles");
    assert_eq!(event.cycles, reference.cycles, "cycles");
    assert_eq!(event.bc_stats, reference.bc_stats, "controller stats");
    assert_eq!(event.sdram, reference.sdram, "device stats");
    assert_eq!(event.completions, reference.completions, "completions");
}
