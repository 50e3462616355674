//! Shared infrastructure for the report binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/` (the README section "Regenerating the paper's
//! tables and figures" is the experiment index).  The functions here
//! produce the underlying numbers so that the binaries stay thin and the
//! integration tests can assert on the same data the reports print.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::{
    fig1_series, fig2_rows, fig3_rows, fpga_performance, ladder_gflops, table1_comparison,
    Fig1Point, Fig2Row, Fig3Row,
};
pub use table::TableWriter;

/// Cores available to this process, recorded beside every wall-clock
/// bench row.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
