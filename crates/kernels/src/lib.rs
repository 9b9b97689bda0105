//! # kernels — Table-2 workloads and the PVA experiment harness
//!
//! The six vector kernels of the paper's evaluation (plus the unrolled
//! `copy2`/`scale2` variants), the five relative-alignment presets, and
//! the sweep machinery that produces the 240 data points per memory
//! system behind figures 7–11.
//!
//! ```
//! use kernels::{run_point, Alignment, Kernel, SystemKind};
//!
//! // One (kernel, stride, system) cell over the five relative
//! // alignments: its min and max are one paired bar of figure 7.
//! let cycles = Alignment::ALL.map(|a| run_point(Kernel::Copy, 4, a, SystemKind::PvaSdram));
//! assert!(cycles.iter().min() <= cycles.iter().max());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alignment;
mod experiment;
mod kernel;
mod stream;

pub use alignment::Alignment;
pub use experiment::{
    run_point, run_point_outcome, SystemKind, ARRAY_REGION, ELEMENTS, LINE_WORDS, STRIDES,
};
pub use kernel::{Access, ArrayIndex, Kernel};
pub use stream::StreamKernel;
