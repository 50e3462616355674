//! Evaluation-architecture catalogue and calibrated machine models.
//!
//! The paper compares its FPGA accelerator against three CPUs and five GPUs
//! (Table II), running Nekbone's `Ax` kernel on the CPUs and the tuned CUDA
//! kernel of Karp et al. on the GPUs.  None of that hardware is available to
//! this reproduction, so this crate provides:
//!
//! * [`catalog`] — the static Table II data (peak double-precision
//!   performance, memory bandwidth, TDP, process node, clock, release year)
//!   plus derived metrics such as byte-per-FLOP ratios;
//! * [`machine_model`] — analytic per-architecture kernel models calibrated
//!   against the performance ratios the paper reports (who beats whom, by
//!   which factor, at which polynomial degree), producing
//!   GFLOP/s(degree, #elements) curves and power estimates with the same
//!   shape as Fig. 1 and Fig. 2.
//!
//! The calibration targets and their provenance are documented in
//! [`machine_model`] and guarded by `tests/paper_reproduction.rs`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod machine_model;

pub use catalog::{
    fpga_device, fpga_device_slugs, projected_fpga_slugs, table2, Architecture, MachineClass,
};
pub use machine_model::{calibrated_models, MachineModel};
