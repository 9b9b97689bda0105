//! Property-style tests for the PVA core algorithms.
//!
//! Every closed form in the crate is checked against sequential
//! expansion over randomized vectors and geometries — the same oracle
//! discipline the paper used (gate-level model vs. behavioural model).
//! Randomization uses the in-tree deterministic [`SplitMix64`] (the
//! build is hermetic: no external proptest/rand crates), so every run
//! exercises an identical, reproducible case set.

use pva_core::{
    bit_reverse, naive, next_hit_exact, next_hit_paper, split_vector, BankId, FullKiPla, Geometry,
    IndirectVector, K1Pla, LogicalView, MmcTlb, SplitMix64, StrideClass, Vector, VectorSolver,
};

const CASES: u64 = 48;

/// A word-interleaved geometry of 2..=64 banks.
fn word_geometry(r: &mut SplitMix64) -> Geometry {
    Geometry::word_interleaved(1 << r.range(1, 7)).unwrap()
}

/// An arbitrary interleaved geometry (banks, block, width).
fn any_geometry(r: &mut SplitMix64) -> Geometry {
    Geometry::new(1 << r.range(1, 6), 1 << r.range(0, 6), 1 << r.range(0, 3)).unwrap()
}

/// A vector with bounded parameters.
fn vector(r: &mut SplitMix64) -> Vector {
    Vector::new(r.below(1024), r.range(1, 256), r.range(1, 96)).unwrap()
}

/// Theorem 4.3: the closed-form FirstHit equals sequential expansion
/// for every bank, on word-interleaved geometries.
#[test]
fn first_hit_matches_naive() {
    let mut r = SplitMix64::new(0x4301);
    for _ in 0..CASES {
        let g = word_geometry(&mut r);
        let v = vector(&mut r);
        let solver = VectorSolver::new(&v, &g);
        for b in 0..g.banks() {
            let b = BankId::new(b as usize);
            assert_eq!(solver.first_hit(b), naive::first_hit(&v, b, &g));
        }
    }
}

/// The per-bank subvectors partition the vector's element indices.
#[test]
fn subvectors_partition_elements() {
    let mut r = SplitMix64::new(0x4302);
    for _ in 0..CASES {
        let g = word_geometry(&mut r);
        let v = vector(&mut r);
        let solver = VectorSolver::new(&v, &g);
        let mut all: Vec<u64> = (0..g.banks())
            .flat_map(|b| {
                solver
                    .subvector_indices(BankId::new(b as usize))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        let want: Vec<u64> = (0..v.length()).collect();
        assert_eq!(all, want);
    }
}

/// Theorem 4.4: on any bank with at least two hits, consecutive hit
/// indices differ by exactly NextHit(S) = 2^(m-s).
#[test]
fn next_hit_gap_is_uniform() {
    let mut r = SplitMix64::new(0x4303);
    for _ in 0..CASES {
        let g = word_geometry(&mut r);
        let v = vector(&mut r);
        let class = StrideClass::new(v.stride(), &g);
        for b in 0..g.banks() {
            let idx = naive::subvector_indices(&v, BankId::new(b as usize), &g);
            for w in idx.windows(2) {
                assert_eq!(w[1] - w[0], class.next_hit());
            }
        }
    }
}

/// Lemma 4.2: a bank is hit iff its distance from the base bank is a
/// multiple of 2^s (given enough elements to wrap the banks).
#[test]
fn lemma_4_2_hit_set() {
    let mut r = SplitMix64::new(0x4304);
    for _ in 0..CASES {
        let g = word_geometry(&mut r);
        let base = r.below(1024);
        let stride = r.range(1, 256);
        // Long enough to visit every reachable bank.
        let v = Vector::new(base, stride, 4 * g.banks()).unwrap();
        let class = StrideClass::new(stride, &g);
        let solver = VectorSolver::new(&v, &g);
        for b in 0..g.banks() {
            let b = BankId::new(b as usize);
            let d = g.bank_distance(b, solver.base_bank());
            let reachable = class.s() < 64 && d.is_multiple_of(1u64 << class.s());
            assert_eq!(
                solver.first_hit(b).is_hit(),
                reachable,
                "bank {} d {} s {}",
                b,
                d,
                class.s()
            );
        }
    }
}

/// Both PLA strategies agree with the arithmetic solver.
#[test]
fn plas_match_solver() {
    let mut r = SplitMix64::new(0x4305);
    for _ in 0..CASES {
        let g = word_geometry(&mut r);
        let v = vector(&mut r);
        let k1 = K1Pla::new(&g);
        let full = FullKiPla::new(&g);
        let solver = VectorSolver::new(&v, &g);
        for b in 0..g.banks() {
            let b = BankId::new(b as usize);
            assert_eq!(k1.first_hit(&v, b), solver.first_hit(b));
            assert_eq!(full.first_hit(&v, b), solver.first_hit(b));
        }
    }
}

/// The logical-bank transformation (§4.1.3) gives the same per-bank
/// subvectors as direct expansion on any geometry.
#[test]
fn logical_view_matches_naive() {
    let mut r = SplitMix64::new(0x4306);
    for _ in 0..CASES {
        let g = any_geometry(&mut r);
        let v = vector(&mut r);
        let view = LogicalView::new(&g);
        for b in 0..g.banks() {
            let b = BankId::new(b as usize);
            let got: Vec<u64> = view.subvector_indices(&v, b).collect();
            let want = naive::subvector_indices(&v, b, &g);
            assert_eq!(got, want);
        }
    }
}

/// The paper's recursive NextHit routine returns the minimal revisit
/// distance whenever one exists.
#[test]
fn recursive_next_hit_is_minimal() {
    let mut r = SplitMix64::new(0x4307);
    for _ in 0..CASES {
        let nm_log = r.range(3, 11) as u32;
        let n_log = (r.range(0, 6) as u32).min(nm_log - 1);
        let (n, nm) = (1u64 << n_log, 1u64 << nm_log);
        let theta = r.below(1024) % n;
        let stride = 1 + r.range(1, 1024) % (nm - 1);
        let (got, _) = next_hit_paper(theta, stride, n, nm);
        if let Some(want) = next_hit_exact(theta, stride, n, nm) {
            assert_eq!(got, want, "theta={theta} stride={stride} n={n} nm={nm}");
        }
    }
}

/// SplitVector covers every element exactly once, in order, and no
/// sub-vector crosses a superpage.
#[test]
fn split_vector_covers_once() {
    let mut r = SplitMix64::new(0x4308);
    for _ in 0..CASES {
        let base = r.below(1 << 16);
        let stride = r.range(1, 5000);
        let len = r.range(1, 300);
        let page = 1u64 << r.range(8, 15);
        let tlb = MmcTlb::identity(1 << 24, page).unwrap();
        let v = Vector::new(base, stride, len).unwrap();
        let subs = split_vector(&v, &tlb).unwrap();
        let mut flat = Vec::new();
        for s in &subs {
            // No page crossing.
            let first = s.vector.base() / page;
            let last = s.vector.element(s.vector.length() - 1) / page;
            assert_eq!(first, last);
            flat.extend(s.vector.addresses());
        }
        assert_eq!(flat, v.addresses().collect::<Vec<_>>());
    }
}

/// Bit reversal is an involutive permutation, and bank claims
/// partition the elements.
#[test]
fn bitrev_partition() {
    let mut r = SplitMix64::new(0x4309);
    for _ in 0..CASES {
        let g = word_geometry(&mut r);
        let base = r.below(4096);
        let k = r.range(1, 9) as u32;
        let v = pva_core::BitReversedVector::new(base, k).unwrap();
        let mut all: Vec<u64> = (0..g.banks())
            .flat_map(|b| {
                v.subvector_indices(BankId::new(b as usize), &g)
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..v.length()).collect::<Vec<u64>>());
        for i in 0..v.length() {
            assert_eq!(bit_reverse(bit_reverse(i, k), k), i);
        }
    }
}

/// Indirect-vector claims partition elements on any geometry.
#[test]
fn indirect_claims_partition() {
    let mut r = SplitMix64::new(0x430a);
    for _ in 0..CASES {
        let g = any_geometry(&mut r);
        let base = r.below(4096);
        let n = r.range(1, 64);
        let offsets: Vec<u64> = (0..n).map(|_| r.below(10_000)).collect();
        let iv = IndirectVector::new(base, offsets).unwrap();
        let mut all: Vec<u64> = (0..g.banks())
            .flat_map(|b| iv.claim(BankId::new(b as usize), &g).collect::<Vec<_>>())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..iv.length()).collect::<Vec<u64>>());
    }
}

/// Vector chunking preserves the address sequence.
#[test]
fn chunks_preserve_addresses() {
    let mut r = SplitMix64::new(0x430b);
    for _ in 0..CASES {
        let v = vector(&mut r);
        let max_len = r.range(1, 64);
        let flat: Vec<u64> = v
            .chunks(max_len)
            .flat_map(|c| c.addresses().collect::<Vec<_>>())
            .collect();
        assert_eq!(flat, v.addresses().collect::<Vec<_>>());
    }
}
