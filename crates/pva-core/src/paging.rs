//! Interaction with the paging scheme: `SplitVector` and the
//! memory-controller TLB (§4.3.2).
//!
//! Long vectors can only be fetched in parallel while they are
//! physically contiguous, so the memory controller must split a virtual
//! vector at superpage boundaries. The exact element count per page needs
//! a division by the stride; the paper replaces it with a cheap *lower
//! bound* — invert the page-offset bits, shift by the stride's power-of-
//! two ceiling — and overlaps the bookkeeping for the next sub-vector
//! with the memory operation for the current one.
//!
//! Two deliberate deviations from the paper's pseudo-code, both needed
//! for correctness (the pseudo-code's intent is stated in its prose):
//!
//! * `shift_val` is the *ceiling* log2 of the stride. The literal "index
//!   of most significant power of 2" (floor) over-estimates the element
//!   count for non-power-of-two strides (e.g. stride 3, 6 words left on
//!   the page: `6 >> 1 = 3` elements claimed, but only 2 fit).
//! * the `+ 1` in `page_size - terminate(phys_address) + 1` is dropped:
//!   with the base on the last word of a page it claims 2 elements where
//!   only 1 fits.
//!
//! Property tests assert the invariants the paper's prose promises: every
//! element issued exactly once, no sub-vector crosses a superpage, and
//! the per-page bound is within 2x of the exact division.

use crate::error::PvaError;
use crate::geometry::WordAddr;
use crate::vector::Vector;

/// One superpage mapping: a naturally-aligned power-of-two-sized virtual
/// range backed by contiguous physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superpage {
    /// Virtual word address of the page start (aligned to `size_words`).
    pub vbase: WordAddr,
    /// Physical word address of the page start (aligned to `size_words`).
    pub pbase: WordAddr,
    /// Page size in words; always a power of two.
    pub size_words: u64,
}

/// A successful TLB translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical word address.
    pub paddr: WordAddr,
    /// Size of the containing superpage in words.
    pub page_size: u64,
}

/// The memory controller's view of the page table:
/// `mmc_tlb_lookup(vaddress)` from §4.3.2.
///
/// # Examples
///
/// ```
/// use pva_core::{MmcTlb, Superpage};
///
/// let mut tlb = MmcTlb::new();
/// tlb.map(Superpage { vbase: 0x1000, pbase: 0x8000, size_words: 0x1000 })?;
/// let t = tlb.lookup(0x1234)?;
/// assert_eq!(t.paddr, 0x8234);
/// assert_eq!(t.page_size, 0x1000);
/// # Ok::<(), pva_core::PvaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MmcTlb {
    /// Sorted by `vbase`; non-overlapping.
    pages: Vec<Superpage>,
    /// Lookup counter, for the overlap-accounting model of §4.3.2.
    lookups: std::cell::Cell<u64>,
}

impl MmcTlb {
    /// Creates an empty TLB.
    pub fn new() -> Self {
        MmcTlb::default()
    }

    /// Installs a superpage mapping.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::NotPowerOfTwo`] if the size is not a power of
    /// two, and [`PvaError::ZeroParameter`] if it is zero or the bases
    /// are not size-aligned (reported as parameter `alignment`), or if
    /// the new page overlaps an existing mapping (parameter `overlap`).
    pub fn map(&mut self, page: Superpage) -> Result<(), PvaError> {
        if page.size_words == 0 {
            return Err(PvaError::ZeroParameter("size_words"));
        }
        if !page.size_words.is_power_of_two() {
            return Err(PvaError::NotPowerOfTwo(page.size_words));
        }
        if !page.vbase.is_multiple_of(page.size_words)
            || !page.pbase.is_multiple_of(page.size_words)
        {
            return Err(PvaError::ZeroParameter("alignment"));
        }
        // Pages are sorted by vbase and non-overlapping, so only the two
        // neighbours of the insertion point can overlap the new page.
        let pos = self.pages.partition_point(|p| p.vbase < page.vbase);
        let overlaps_prev = pos > 0 && {
            let p = &self.pages[pos - 1];
            page.vbase < p.vbase + p.size_words
        };
        let overlaps_next = pos < self.pages.len() && {
            let p = &self.pages[pos];
            p.vbase < page.vbase + page.size_words
        };
        if overlaps_prev || overlaps_next {
            return Err(PvaError::ZeroParameter("overlap"));
        }
        self.pages.insert(pos, page);
        Ok(())
    }

    /// Identity-maps `[0, words)` as superpages of `page_words` each —
    /// convenient for simulations that work in physical addresses.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MmcTlb::map`].
    pub fn identity(words: u64, page_words: u64) -> Result<Self, PvaError> {
        let mut tlb = MmcTlb::new();
        let mut base = 0;
        while base < words {
            tlb.map(Superpage {
                vbase: base,
                pbase: base,
                size_words: page_words,
            })?;
            base += page_words;
        }
        Ok(tlb)
    }

    /// `mmc_tlb_lookup(vaddress)`: translates a virtual word address and
    /// reports its superpage size.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::PageFault`] if no mapping covers `vaddr`.
    pub fn lookup(&self, vaddr: WordAddr) -> Result<Translation, PvaError> {
        self.lookups.set(self.lookups.get() + 1);
        let idx = self.pages.partition_point(|p| p.vbase <= vaddr);
        if idx == 0 {
            return Err(PvaError::PageFault(vaddr));
        }
        let p = self.pages[idx - 1];
        if vaddr >= p.vbase + p.size_words {
            return Err(PvaError::PageFault(vaddr));
        }
        Ok(Translation {
            paddr: p.pbase + (vaddr - p.vbase),
            page_size: p.size_words,
        })
    }

    /// Number of lookups performed so far (each costs one overlapped TLB
    /// access in the §4.3.2 pipeline model).
    pub fn lookup_count(&self) -> u64 {
        self.lookups.get()
    }
}

/// A physically-contiguous sub-vector produced by [`split_vector`],
/// ready to issue on the vector bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalSubvector {
    /// The physical-address vector to broadcast.
    pub vector: Vector,
    /// Index (within the original virtual vector) of this sub-vector's
    /// first element.
    pub first_element: u64,
}

/// `SplitVector(V)` from §4.3.2: splits a virtual base-stride vector into
/// physically-contiguous sub-vectors, one vector-bus operation each,
/// using the fast lower-bound element count instead of a division.
///
/// # Errors
///
/// Returns [`PvaError::PageFault`] if any element of the vector is not
/// mapped by `tlb`.
///
/// # Examples
///
/// ```
/// use pva_core::{split_vector, MmcTlb, Vector};
///
/// let tlb = MmcTlb::identity(4096, 1024)?;
/// let v = Vector::new(1000, 48, 40)?; // crosses page boundaries
/// let subs = split_vector(&v, &tlb)?;
/// let total: u64 = subs.iter().map(|s| s.vector.length()).sum();
/// assert_eq!(total, 40);
/// # Ok::<(), pva_core::PvaError>(())
/// ```
pub fn split_vector(v: &Vector, tlb: &MmcTlb) -> Result<Vec<PhysicalSubvector>, PvaError> {
    // shift_val: ceiling log2 of the stride, so that
    // `words >> shift_val <= words / stride` (a true lower bound).
    let shift_val = 64 - (v.stride() - 1).leading_zeros().min(63);
    let shift_val = if v.stride() == 1 { 0 } else { shift_val };
    let mut out = Vec::new();
    let mut base = v.base();
    let mut length = v.length();
    let mut first_element = 0u64;
    while length > 0 {
        let t = tlb.lookup(base)?;
        // terminate(phys_address): the low page-offset bits.
        let offset = t.paddr & (t.page_size - 1);
        let words_left = t.page_size - offset;
        // Lower bound on elements on this page; at least the base element
        // itself is on the page.
        let lower_bound = (words_left >> shift_val).max(1).min(length);
        out.push(PhysicalSubvector {
            vector: Vector::new(t.paddr, v.stride(), lower_bound)
                .expect("stride and bound are nonzero"),
            first_element,
        });
        // "While banks are busy operating on the vector we issued,
        //  compute the new base address" — multiply + TLB lookup next
        // iteration.
        length -= lower_bound;
        first_element += lower_bound;
        base += v.stride() * lower_bound;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact element count per page (the division the paper avoids):
    /// the oracle the lower bound is measured against.
    fn exact_elements_on_page(paddr: WordAddr, page_size: u64, stride: u64) -> u64 {
        let words_left = page_size - (paddr & (page_size - 1));
        words_left.div_ceil(stride)
    }

    fn tlb_4k() -> MmcTlb {
        MmcTlb::identity(1 << 20, 4096).unwrap()
    }

    #[test]
    fn lookup_translates_and_faults() {
        let mut tlb = MmcTlb::new();
        tlb.map(Superpage {
            vbase: 0x2000,
            pbase: 0xa000,
            size_words: 0x1000,
        })
        .unwrap();
        assert_eq!(tlb.lookup(0x2fff).unwrap().paddr, 0xafff);
        assert_eq!(tlb.lookup(0x3000).unwrap_err(), PvaError::PageFault(0x3000));
        assert_eq!(tlb.lookup(0x1fff).unwrap_err(), PvaError::PageFault(0x1fff));
        assert_eq!(tlb.lookup_count(), 3);
    }

    #[test]
    fn map_rejects_bad_pages() {
        let mut tlb = MmcTlb::new();
        assert!(matches!(
            tlb.map(Superpage {
                vbase: 0,
                pbase: 0,
                size_words: 3
            }),
            Err(PvaError::NotPowerOfTwo(3))
        ));
        assert!(tlb
            .map(Superpage {
                vbase: 4,
                pbase: 0,
                size_words: 8
            })
            .is_err());
        tlb.map(Superpage {
            vbase: 0,
            pbase: 0,
            size_words: 8,
        })
        .unwrap();
        // Overlap rejected.
        assert!(tlb
            .map(Superpage {
                vbase: 0,
                pbase: 64,
                size_words: 16
            })
            .is_err());
    }

    #[test]
    fn split_covers_each_element_exactly_once() {
        let tlb = tlb_4k();
        for &stride in &[1u64, 2, 3, 7, 19, 32, 100, 4095, 4096, 5000] {
            for &base in &[0u64, 1, 4000, 4095, 8191] {
                let v = Vector::new(base, stride, 100).unwrap();
                let subs = split_vector(&v, &tlb).unwrap();
                let mut addrs = Vec::new();
                for s in &subs {
                    addrs.extend(s.vector.addresses());
                }
                // Identity map: physical addresses equal virtual.
                assert_eq!(
                    addrs,
                    v.addresses().collect::<Vec<_>>(),
                    "stride={stride} base={base}"
                );
            }
        }
    }

    #[test]
    fn subvectors_never_cross_pages() {
        let tlb = tlb_4k();
        for &stride in &[1u64, 3, 17, 1000, 4097] {
            let v = Vector::new(4090, stride, 64).unwrap();
            for s in split_vector(&v, &tlb).unwrap() {
                let first_page = s.vector.base() / 4096;
                let last_page = s.vector.element(s.vector.length() - 1) / 4096;
                assert_eq!(first_page, last_page, "stride={stride}: {s:?}");
            }
        }
    }

    #[test]
    fn first_element_indices_are_consistent() {
        let tlb = tlb_4k();
        let v = Vector::new(100, 33, 500).unwrap();
        let subs = split_vector(&v, &tlb).unwrap();
        let mut expected = 0;
        for s in &subs {
            assert_eq!(s.first_element, expected);
            expected += s.vector.length();
        }
        assert_eq!(expected, 500);
    }

    #[test]
    fn lower_bound_is_within_2x_of_exact() {
        // The fast bound trades at most a factor of two in sub-vector
        // length (power-of-two rounding of the stride) for avoiding a
        // divider.
        let tlb = tlb_4k();
        for &stride in &[3u64, 5, 7, 9, 19, 33, 100] {
            let v = Vector::new(0, stride, 2000).unwrap();
            let subs = split_vector(&v, &tlb).unwrap();
            // The last sub-vector is clamped by the remaining length, so
            // only the page-bounded ones are compared against the exact
            // division.
            for s in &subs[..subs.len() - 1] {
                let exact = exact_elements_on_page(s.vector.base(), 4096, stride);
                let got = s.vector.length();
                assert!(got <= exact, "bound must not overshoot");
                // bound = floor(w / 2^c) with 2^c < 2*stride, and
                // exact = ceil(w / stride), so exact <= 2*bound + 2.
                assert!(got * 2 + 2 >= exact, "stride={stride}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn split_with_noncontiguous_physical_pages() {
        // Virtual pages mapped to scattered physical frames: sub-vector
        // bases must follow the physical mapping.
        let mut tlb = MmcTlb::new();
        tlb.map(Superpage {
            vbase: 0,
            pbase: 0x10000,
            size_words: 1024,
        })
        .unwrap();
        tlb.map(Superpage {
            vbase: 1024,
            pbase: 0x40000,
            size_words: 1024,
        })
        .unwrap();
        let v = Vector::new(1000, 16, 10).unwrap(); // crosses at vaddr 1024
        let subs = split_vector(&v, &tlb).unwrap();
        assert!(subs.len() >= 2);
        assert_eq!(subs[0].vector.base(), 0x10000 + 1000);
        // Flattening the sub-vectors must give each element's own
        // translation, across the discontiguous frame boundary.
        let phys: Vec<u64> = subs.iter().flat_map(|s| s.vector.addresses()).collect();
        let want: Vec<u64> = v
            .addresses()
            .map(|va| tlb.lookup(va).unwrap().paddr)
            .collect();
        assert_eq!(phys, want);
        // Element 2 (vaddr 1032) lands in the second frame.
        assert_eq!(phys[2], 0x40000 + (1032 - 1024));
    }

    #[test]
    fn unmapped_vector_faults() {
        let tlb = MmcTlb::identity(4096, 4096).unwrap();
        let v = Vector::new(4000, 50, 10).unwrap();
        assert!(matches!(
            split_vector(&v, &tlb),
            Err(PvaError::PageFault(_))
        ));
    }
}
