//! Bookkeeping invariants of the unit's statistics and the incremental
//! API.

use pva_core::{Geometry, Vector};
use pva_sim::{HostRequest, PvaConfig, PvaUnit};

#[test]
fn bus_cycle_accounting_adds_up() {
    // Every simulated cycle is exactly one of: request broadcast, data
    // transfer, or idle.
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let reqs: Vec<HostRequest> = (0..6u64)
        .map(|i| {
            if i % 2 == 0 {
                HostRequest::Read {
                    vector: Vector::new(i * 999, 7, 32).unwrap(),
                }
            } else {
                HostRequest::Write {
                    vector: Vector::new(i * 999, 7, 32).unwrap(),
                    data: vec![i; 32],
                }
            }
        })
        .collect();
    let r = unit.run(reqs).unwrap();
    assert_eq!(
        r.stats.request_cycles + r.stats.data_cycles + r.stats.idle_cycles,
        r.stats.cycles,
        "request {} + data {} + idle {} != total {}",
        r.stats.request_cycles,
        r.stats.data_cycles,
        r.stats.idle_cycles,
        r.stats.cycles
    );
    assert_eq!(r.stats.commands, 6);
    // Reads: 16 stage cycles each; writes: 16 stage cycles each.
    assert_eq!(r.stats.data_cycles, 6 * 16);
}

#[test]
fn incremental_api_matches_batch() {
    let reqs: Vec<HostRequest> = (0..8u64)
        .map(|i| HostRequest::Read {
            vector: Vector::new(i * 640, 19, 32).unwrap(),
        })
        .collect();
    let batch = {
        let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
        unit.run(reqs.clone()).unwrap().cycles
    };
    let incremental = {
        let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
        for r in reqs {
            unit.submit(r).unwrap();
        }
        let start = unit.now();
        while !unit.idle() {
            unit.step().unwrap();
        }
        let completions = unit.take_completions();
        assert_eq!(completions.len(), 8);
        unit.now() - start
    };
    assert_eq!(batch, incremental);
}

#[test]
fn outstanding_counts_drain_to_zero() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    for i in 0..4u64 {
        unit.submit(HostRequest::Read {
            vector: Vector::new(i * 128, 3, 32).unwrap(),
        })
        .unwrap();
    }
    assert_eq!(unit.outstanding(), 4);
    while !unit.idle() {
        unit.step().unwrap();
    }
    assert_eq!(unit.outstanding(), 0);
    assert_eq!(unit.take_completions().len(), 4);
}

#[test]
fn per_bank_element_counts_cover_each_vector() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let r = unit
        .run(vec![
            HostRequest::Read {
                vector: Vector::new(0, 19, 32).unwrap(),
            },
            HostRequest::Read {
                vector: Vector::new(7, 1, 32).unwrap(),
            },
        ])
        .unwrap();
    let read: u64 = r.bc_stats.iter().map(|b| b.elements_read).sum();
    assert_eq!(read, 64, "every element read exactly once");
}

#[test]
fn row_hits_count_every_cas_after_the_first() {
    // A unit-stride read confined to one row of a single-bank system:
    // one ACTIVATE opens the row, and every CAS after the first reuses
    // it, so the device counts CAS − 1 row hits.
    let cfg = PvaConfig {
        geometry: Geometry::word_interleaved(1).unwrap(),
        ..PvaConfig::default()
    };
    let mut unit = PvaUnit::new(cfg).unwrap();
    let r = unit
        .run(vec![HostRequest::Read {
            vector: Vector::new(0, 1, 32).unwrap(),
        }])
        .unwrap();
    let cas = r.sdram.reads + r.sdram.writes;
    assert_eq!(r.sdram.activates, 1);
    assert_eq!(cas, 32);
    assert_eq!(r.sdram.row_hits, cas - 1);
}
