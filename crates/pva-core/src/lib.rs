//! # pva-core — Parallel Vector Access algorithms
//!
//! Rust implementation of the mathematics behind the Parallel Vector
//! Access (PVA) unit of Mathew, McKee, Carter and Davis, *Design of a
//! Parallel Vector Access Unit for SDRAM Memory Systems* (HPCA 2000).
//!
//! A PVA memory controller broadcasts a base-stride vector request
//! `V = <B, S, L>` to all bank controllers at once; each controller
//! computes — without serially expanding the vector — which elements
//! live in its bank, using closed forms:
//!
//! * [`FirstHit`] / [`VectorSolver`]: the first element index a bank
//!   holds (Theorem 4.3: `K_i = (K_1 * i) mod 2^(m-s)`),
//! * [`StrideClass::next_hit`]: the per-bank revisit distance
//!   (Theorem 4.4: `delta = 2^(m-s)`),
//! * [`LogicalView`]: the transformation that reduces cache-line / block
//!   interleave to word interleave so the closed forms always apply,
//! * [`K1Pla`] / [`FullKiPla`]: the lookup-table ("PLA") forms the
//!   hardware actually evaluates, with complexity models,
//! * [`split_vector`] / [`MmcTlb`]: splitting virtual vectors at
//!   superpage boundaries without division,
//! * [`BitReversedVector`] and [`IndirectVector`]: the future-work
//!   access patterns sketched in the paper's conclusion.
//!
//! # Quick example
//!
//! ```
//! use pva_core::{BankId, Geometry, Vector, VectorSolver};
//!
//! // 16 word-interleaved banks, a stride-19 vector of 32 elements.
//! let g = Geometry::word_interleaved(16)?;
//! let v = Vector::new(0x1000, 19, 32)?;
//! let solver = VectorSolver::new(&v, &g);
//!
//! // Stride 19 is odd, so all 16 banks participate: maximum parallelism.
//! assert_eq!(solver.stride_class().banks_hit(), 16);
//! // Each bank can enumerate its own subvector independently.
//! let bank3: Vec<u64> = solver.subvector_addresses(pva_core::BankId::new(3)).collect();
//! assert_eq!(bank3.len(), 2); // 32 elements / 16 banks
//! # Ok::<(), pva_core::PvaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitrev;
mod error;
mod firsthit;
mod geometry;
mod hash;
mod indirect;
mod logical;
mod paging;
mod pla;
mod recursive;
mod rng;
mod vector;

pub use bitrev::{bit_reverse, BitReversedVector};
pub use error::PvaError;
pub use firsthit::{
    mod_inverse_pow2, naive, solver_for_command, FirstHit, StrideClass, SubvectorIndices,
    VectorSolver,
};
pub use geometry::{BankId, Geometry, WordAddr};
pub use hash::{FastHasher, FastMap};
pub use indirect::{per_bank_counts, IndirectVector};
pub use logical::LogicalView;
pub use paging::{split_vector, MmcTlb, PhysicalSubvector, Superpage, Translation};
pub use pla::{scaling_sweep, FullKiPla, K1Entry, K1Pla, PlaComplexity};
pub use recursive::{gcd, next_hit_exact, next_hit_paper, OpCount};
pub use rng::SplitMix64;
pub use vector::{Addresses, Chunks, Vector};
