//! Cycle-approximate simulator of the HLS SEM accelerator.
//!
//! The paper's artefact is an OpenCL-HLS bitstream for a Stratix 10 FPGA; no
//! synthesis toolchain or board is available to this reproduction, so this
//! crate stands in for both (the substitution is described at the top of the
//! repository README).
//! It models the accelerator at the level the paper itself reasons about:
//!
//! * [`design`] — the accelerator configuration per polynomial degree (unroll
//!   factor, initiation interval, memory allocation policy, optimisation
//!   stage from the Section III ladder);
//! * [`bram`] — on-chip buffer (BRAM) accounting for the per-element working
//!   set;
//! * [`synthesis`] — a synthesis estimator producing resource utilisation and
//!   a kernel clock for a (device, design) pair, pinned to the paper's
//!   measured values for the as-built GX2800 designs;
//! * [`memory`] — the external-memory model: four DDR4 banks, 512 bit per
//!   cycle each at 300 MHz, with banked vs. interleaved allocation and a
//!   problem-size-dependent effective bandwidth (the STREAM-for-FPGA
//!   behaviour the paper cites);
//! * [`power`] — a utilisation/clock-based board power model calibrated to
//!   Table I;
//! * [`precond`] — the cycle/BRAM model of the on-device preconditioner
//!   kernels (Jacobi pointwise scale, FDM three-contraction pass), so a
//!   preconditioned CG never round-trips the residual over PCIe;
//! * [`executor`] — the functional+timing simulator: it produces bit-exact
//!   kernel results (by running the same arithmetic as the CPU reference)
//!   together with a cycle count, from which GFLOP/s, DOFs/cycle, bandwidth
//!   and power-efficiency are derived;
//! * [`faults`] — deterministic fault injection ([`FaultPlan`] /
//!   [`FaultState`]): transient result corruption, scheduled device death,
//!   sticky slowdown and hangs, all keyed to operator-application counts so
//!   faulty runs replay bit-for-bit.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bram;
pub mod design;
pub mod executor;
pub mod faults;
pub mod memory;
pub mod multi;
pub mod power;
pub mod precond;
pub mod stream;
pub mod synthesis;

pub use design::{AcceleratorDesign, MemoryAllocation, OptimizationStage};
pub use executor::{ExecutionReport, FpgaAccelerator, KernelStageTiming};
pub use faults::{
    corrupt_value, DeviceError, FaultAction, FaultKind, FaultPlan, FaultState, ScheduledFault,
};
pub use memory::MemorySystem;
pub use multi::{MultiBoardAccelerator, MultiBoardEstimate};
pub use perf_model::FpgaDevice;
pub use precond::{estimate_jacobi_seconds, FdmPrecondEstimate, FdmPrecondModel};
pub use stream::{stream_sweep, StreamKernel, StreamPoint};
pub use synthesis::{synthesize, SynthesisReport};
