//! Helpers shared by the root integration tests.

use pva::kernels::{run_point, Alignment, Kernel, SystemKind};

/// Fewest cycles of a (kernel, stride, system) cell over the five
/// relative alignments: one bar of figures 7–10.
pub fn min_cycles(kernel: Kernel, stride: u64, system: SystemKind) -> u64 {
    Alignment::ALL
        .into_iter()
        .map(|a| run_point(kernel, stride, a, system))
        .min()
        .unwrap()
}
