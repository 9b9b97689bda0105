//! End-to-end behaviour of the PVA unit: functional correctness of
//! gather/scatter for every stride class, and the timing shapes the
//! paper's evaluation depends on.

use pva_core::Vector;
use pva_sim::{HostRequest, PvaConfig, PvaUnit, RowPolicy};

/// Runs a single gathered read and checks the returned line against
/// functional memory.
fn check_gather(stride: u64, base: u64, len: u64) -> u64 {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let v = Vector::new(base, stride, len).unwrap();
    // Preload distinctive values.
    for (i, addr) in v.addresses().enumerate() {
        unit.preload(addr, 0xC0DE_0000 + i as u64);
    }
    let r = unit.run(vec![HostRequest::Read { vector: v }]).unwrap();
    let line = r.read_data(0);
    assert_eq!(line.len(), len as usize);
    for (i, &w) in line.iter().enumerate() {
        assert_eq!(w, 0xC0DE_0000 + i as u64, "stride={stride} element {i}");
    }
    r.cycles
}

#[test]
fn gather_correct_for_all_stride_classes() {
    for stride in [1u64, 2, 3, 4, 5, 7, 8, 10, 16, 19, 32, 48, 64] {
        check_gather(stride, 0, 32);
        check_gather(stride, 13, 32);
    }
}

#[test]
fn gather_correct_for_short_vectors() {
    for len in [1u64, 2, 5, 31] {
        check_gather(19, 7, len);
        check_gather(1, 7, len);
    }
}

#[test]
fn scatter_then_gather_round_trips() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let v = Vector::new(0x800, 19, 32).unwrap();
    let data: Vec<u64> = (0..32).map(|i| 0xBEEF_0000 + i).collect();
    unit.run(vec![HostRequest::Write {
        vector: v,
        data: data.clone(),
    }])
    .unwrap();
    // Functional check.
    for (i, addr) in v.addresses().enumerate() {
        assert_eq!(unit.peek(addr), data[i]);
    }
    // Timed gather of the same vector.
    let r = unit.run(vec![HostRequest::Read { vector: v }]).unwrap();
    assert_eq!(r.read_data(0), &data[..]);
}

#[test]
fn interleaved_reads_and_writes_preserve_data() {
    // saxpy-like traffic: read x, read y, write y; different banks and
    // rows, exercising the polarity rule.
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let x = Vector::new(0x0, 4, 32).unwrap();
    let y = Vector::new(0x10000, 4, 32).unwrap();
    let rx = unit.run(vec![HostRequest::Read { vector: x }]).unwrap();
    let xv = rx.read_data(0).to_vec();
    let ry = unit.run(vec![HostRequest::Read { vector: y }]).unwrap();
    let yv = ry.read_data(0).to_vec();
    let sum: Vec<u64> = xv
        .iter()
        .zip(&yv)
        .map(|(a, b)| a.wrapping_add(*b))
        .collect();
    unit.run(vec![HostRequest::Write {
        vector: y,
        data: sum.clone(),
    }])
    .unwrap();
    let check = unit.run(vec![HostRequest::Read { vector: y }]).unwrap();
    assert_eq!(check.read_data(0), &sum[..]);
}

#[test]
fn many_outstanding_commands_pipeline() {
    // 16 unit-stride line reads back to back: steady-state throughput
    // must be far better than 16 x the single-command latency.
    let single = {
        let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
        let v = Vector::unit_stride(0, 32).unwrap();
        unit.run(vec![HostRequest::Read { vector: v }])
            .unwrap()
            .cycles
    };
    let batch = {
        let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
        let reqs: Vec<HostRequest> = (0..16)
            .map(|i| HostRequest::Read {
                vector: Vector::unit_stride(i * 32, 32).unwrap(),
            })
            .collect();
        unit.run(reqs).unwrap().cycles
    };
    assert!(
        batch < single * 16,
        "pipelining: batch {batch} vs 16 x single {single}"
    );
    // The bus floor is 17 cycles per command (1 request + 16 data); the
    // pipelined batch should sit near it.
    assert!(
        batch <= 16 * 17 + 32,
        "batch {batch} should approach the 17-cycle/command bus floor"
    );
}

#[test]
fn stride_19_performs_like_unit_stride() {
    // The headline property (§6.3.1): prime strides keep all 16 banks
    // busy, so a batch of stride-19 gathers costs about the same as
    // unit-stride gathers, not 16x more.
    let run_batch = |stride: u64| {
        let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
        let reqs: Vec<HostRequest> = (0..16u64)
            .map(|i| HostRequest::Read {
                vector: Vector::new(i * 32 * stride, stride, 32).unwrap(),
            })
            .collect();
        unit.run(reqs).unwrap().cycles
    };
    let s1 = run_batch(1);
    let s19 = run_batch(19);
    assert!(
        s19 < s1 * 2,
        "stride 19 ({s19}) should be within 2x of unit stride ({s1})"
    );
}

#[test]
fn single_bank_stride_is_much_slower() {
    // Stride 16 concentrates all elements in one bank: no parallelism.
    let run_batch = |stride: u64| {
        let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
        let reqs: Vec<HostRequest> = (0..8u64)
            .map(|i| HostRequest::Read {
                vector: Vector::new(i * 32 * stride, stride, 32).unwrap(),
            })
            .collect();
        unit.run(reqs).unwrap().cycles
    };
    let s19 = run_batch(19);
    let s16 = run_batch(16);
    assert!(
        s16 > s19 * 2,
        "stride 16 ({s16}) must be much slower than stride 19 ({s19})"
    );
}

#[test]
fn sram_backend_is_no_slower_than_sdram() {
    let run = |cfg: PvaConfig| {
        let mut unit = PvaUnit::new(cfg).unwrap();
        let reqs: Vec<HostRequest> = (0..8u64)
            .map(|i| HostRequest::Read {
                vector: Vector::new(i * 640, 19, 32).unwrap(),
            })
            .collect();
        unit.run(reqs).unwrap().cycles
    };
    let sdram = run(PvaConfig::default());
    let sram = run(PvaConfig::sram_backend());
    // §6.3.1 / figure 11: the SDRAM PVA comes within ~15% of SRAM, and
    // the paper itself observed SDRAM *beating* SRAM in two cases due to
    // "slight implementation differences" — both systems are bus-bound
    // here, so we require them within 15% of each other in either
    // direction.
    let (lo, hi) = (sdram.min(sram) as f64, sdram.max(sram) as f64);
    assert!(
        hi <= lo * 1.15,
        "SDRAM ({sdram}) and SRAM ({sram}) should track within 15%"
    );
}

#[test]
fn vector_longer_than_line_is_rejected() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let v = Vector::new(0, 1, 33).unwrap();
    assert!(unit.run(vec![HostRequest::Read { vector: v }]).is_err());
}

#[test]
fn batch_with_a_bad_last_request_accepts_none_of_it() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let ok = Vector::new(0, 1, 32).unwrap();
    let too_long = Vector::new(0, 1, 33).unwrap();
    let err = unit
        .run(vec![
            HostRequest::Read { vector: ok },
            HostRequest::Read { vector: too_long },
        ])
        .unwrap_err();
    assert_eq!(err, pva_core::PvaError::VectorTooLong(33, 32));
    assert_eq!(unit.outstanding(), 0, "no request of the batch is queued");
    assert_eq!(unit.now(), 0, "the unit never ran");
}

#[test]
fn write_with_wrong_line_length_is_rejected() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let v = Vector::new(0, 1, 32).unwrap();
    let err = unit
        .run(vec![HostRequest::Write {
            vector: v,
            data: vec![0; 3],
        }])
        .unwrap_err();
    assert_eq!(
        err,
        pva_core::PvaError::WriteLineMismatch {
            expected: 32,
            got: 3
        }
    );
}

#[test]
fn row_policies_all_produce_correct_data() {
    for policy in [
        RowPolicy::MissPredictsClose,
        RowPolicy::PaperLiteral,
        RowPolicy::AlwaysClose,
        RowPolicy::AlwaysOpen,
    ] {
        let mut cfg = PvaConfig::default();
        cfg.options.row_policy = policy;
        let mut unit = PvaUnit::new(cfg).unwrap();
        let v = Vector::new(0x100, 5, 32).unwrap();
        for (i, addr) in v.addresses().enumerate() {
            unit.preload(addr, i as u64);
        }
        let r = unit.run(vec![HostRequest::Read { vector: v }]).unwrap();
        let want: Vec<u64> = (0..32).collect();
        assert_eq!(r.read_data(0), &want[..], "{policy:?}");
    }
}

#[test]
fn scheduler_ablations_produce_correct_data() {
    for (ooo, promote, bypass) in [
        (false, true, true),
        (true, false, true),
        (true, true, false),
        (false, false, false),
    ] {
        let mut cfg = PvaConfig::default();
        cfg.options.out_of_order = ooo;
        cfg.options.promote_opens = promote;
        cfg.options.bypass_paths = bypass;
        let mut unit = PvaUnit::new(cfg).unwrap();
        let a = Vector::new(0, 7, 32).unwrap();
        let b = Vector::new(0x40000, 7, 32).unwrap();
        let r = unit
            .run(vec![
                HostRequest::Read { vector: a },
                HostRequest::Read { vector: b },
            ])
            .unwrap();
        for (req, v) in [(0, a), (1, b)] {
            for (i, addr) in v.addresses().enumerate() {
                assert_eq!(
                    r.read_data(req)[i],
                    unit.peek(addr),
                    "ooo={ooo} promote={promote} bypass={bypass}"
                );
            }
        }
    }
}

#[test]
fn full_transaction_ids_throttle_but_complete() {
    // 64 requests with only 8 transaction ids: everything completes, in
    // order of submission.
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let reqs: Vec<HostRequest> = (0..64u64)
        .map(|i| HostRequest::Read {
            vector: Vector::new(i * 64, 2, 32).unwrap(),
        })
        .collect();
    let r = unit.run(reqs).unwrap();
    assert_eq!(r.completions.len(), 64);
    for (i, c) in r.completions.iter().enumerate() {
        assert_eq!(c.request_index, i);
        assert!(c.completed_at > c.issued_at);
    }
}

#[test]
fn unit_stride_latency_is_in_line_fill_ballpark() {
    // A single 32-word unit-stride gather should take a few tens of
    // cycles (the paper's serial line-fill baseline is 20 cycles; the
    // PVA's first command pays FHP/scheduler latency but wins once
    // pipelined).
    let cycles = check_gather(1, 0, 32);
    assert!(cycles >= 20, "cannot beat the raw data movement: {cycles}");
    assert!(
        cycles <= 45,
        "single line fill should be tens of cycles: {cycles}"
    );
}

#[test]
fn cvms_like_pays_subcommand_latency_only_off_pow2() {
    let lat = |cfg: PvaConfig, stride: u64| {
        let mut unit = PvaUnit::new(cfg).unwrap();
        let v = Vector::new(0, stride, 32).unwrap();
        unit.run(vec![HostRequest::Read { vector: v }])
            .unwrap()
            .cycles
    };
    // Power-of-two strides: identical (both generate subcommands fast).
    assert_eq!(lat(PvaConfig::default(), 8), lat(PvaConfig::cvms_like(), 8));
    // Non-power-of-two: the CVMS-like design pays ~10+ extra cycles.
    let d = lat(PvaConfig::cvms_like(), 19) as i64 - lat(PvaConfig::default(), 19) as i64;
    assert!((10..=13).contains(&d), "delta {d}");
}
