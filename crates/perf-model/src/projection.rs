//! Performance projection for current and future FPGAs (Section V-D).
//!
//! The methodology follows the paper: take the empirically measured base
//! resource utilisation of the Stratix 10 designs (`R_base(N)` derived from
//! Table I), combine it with a candidate device's resources, memory bandwidth
//! and clock, and evaluate the throughput model for each polynomial degree.
//! The module also answers the inverse question — what device would be needed
//! to hit a target performance — which is how the paper arrives at its
//! "hypothetical ideal" FPGA.

use crate::device::FpgaDevice;
use crate::measured::{measured_row, measured_table1};
use crate::resources::{FpuCost, ResourceVector};
use crate::throughput::{constrain_throughput, predict, ArbitrationPolicy, ThroughputPrediction};
use serde::{Deserialize, Serialize};

/// Projection for one polynomial degree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegreeProjection {
    /// Polynomial degree.
    pub degree: usize,
    /// The model's throughput/performance prediction.
    pub prediction: ThroughputPrediction,
}

/// Projection of a whole device over a set of degrees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectionOutcome {
    /// Device name.
    pub device: String,
    /// Kernel clock assumed for the projection (MHz).
    pub frequency_mhz: f64,
    /// Per-degree predictions.
    pub projections: Vec<DegreeProjection>,
}

impl ProjectionOutcome {
    /// The best projected performance over all degrees, in GFLOP/s.
    #[must_use]
    pub fn peak_gflops(&self) -> f64 {
        self.projections
            .iter()
            .map(|p| p.prediction.gflops)
            .fold(0.0, f64::max)
    }

    /// The projection for a specific degree, if present.
    #[must_use]
    pub fn for_degree(&self, degree: usize) -> Option<&DegreeProjection> {
        self.projections.iter().find(|p| p.degree == degree)
    }
}

/// The empirically calibrated base resource utilisation `R_base(N)` on the
/// Stratix 10 GX2800: the measured total utilisation of Table I minus the
/// compute resources the model attributes to the measured unroll factor.
///
/// For degrees the paper did not synthesise, the nearest synthesised degree
/// is used (the base utilisation varies slowly with `N`).
#[must_use]
pub fn calibrated_base(degree: usize) -> ResourceVector {
    let gx = FpgaDevice::stratix10_gx2800();
    let table = measured_table1();
    // Nearest measured degree.
    let row = measured_row(degree).unwrap_or_else(|| {
        table
            .iter()
            .min_by_key(|r| r.degree.abs_diff(degree))
            .copied()
            .expect("table is non-empty")
    });
    // The unroll factor the as-built design used (divisor-constrained, T <= 4).
    let t_used = constrain_throughput(4.0, row.degree, ArbitrationPolicy::PowerOfTwoDivisor);
    let comp = gx.fpu.compute_resources(row.degree, t_used);
    let total = ResourceVector::new(
        row.logic_fraction * gx.resources.alms,
        row.dsp_fraction * gx.resources.dsps,
        row.bram_fraction * gx.resources.brams,
    );
    total.saturating_minus(&comp)
}

/// Project a device over a set of polynomial degrees at the given clock.
#[must_use]
pub fn project_device(
    device: &FpgaDevice,
    degrees: &[usize],
    frequency_mhz: f64,
    policy: ArbitrationPolicy,
) -> ProjectionOutcome {
    let projections = degrees
        .iter()
        .map(|&degree| {
            let base = calibrated_base(degree);
            DegreeProjection {
                degree,
                prediction: predict(device, degree, &base, frequency_mhz, policy),
            }
        })
        .collect();
    ProjectionOutcome {
        device: device.name.clone(),
        frequency_mhz,
        projections,
    }
}

/// Section V-D, inverse direction: size an FPGA that reaches
/// `target_gflops` for each listed degree at clock `frequency_mhz`, assuming
/// the same per-FPU costs as the calibrated fabric.
///
/// Returns the synthetic device (resources, bandwidth) the model requires.
#[must_use]
pub fn design_fpga_for_targets(
    targets: &[(usize, f64)],
    frequency_mhz: f64,
    fpu: FpuCost,
) -> FpgaDevice {
    let mut needed = ResourceVector::default();
    let mut needed_bandwidth_gbs: f64 = 0.0;
    for &(degree, gflops) in targets {
        let flops_per_dof = crate::cost::flops_per_dof(degree);
        let throughput = gflops * 1e9 / (flops_per_dof * frequency_mhz * 1e6);
        // Bandwidth needed so that T_B >= throughput.
        let bw = throughput * crate::cost::bytes_per_dof(degree) * frequency_mhz * 1e6 / 1e9;
        needed_bandwidth_gbs = needed_bandwidth_gbs.max(bw);
        let base = calibrated_base(degree);
        let total = base.plus(&fpu.compute_resources(degree, throughput));
        needed.alms = needed.alms.max(total.alms);
        needed.dsps = needed.dsps.max(total.dsps);
        needed.brams = needed.brams.max(total.brams.max(base.brams));
    }
    FpgaDevice {
        name: "Model-designed FPGA".to_string(),
        resources: needed,
        fpu,
        memory_bandwidth_gbs: needed_bandwidth_gbs,
        memory_banks: 16,
        memory_clock_mhz: 300.0,
        max_kernel_clock_mhz: frequency_mhz,
        tdp_watts: 300.0,
        release_year: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROJECTION_DEGREES: [usize; 3] = [7, 11, 15];

    #[test]
    fn calibrated_base_is_positive_and_below_device_capacity() {
        let gx = FpgaDevice::stratix10_gx2800();
        for degree in 1..=16 {
            let base = calibrated_base(degree);
            assert!(base.alms > 0.0);
            assert!(base.fits_within(&gx.resources), "degree {degree}");
        }
    }

    #[test]
    fn gx2800_projection_reproduces_the_measured_ranking() {
        // The model at the memory clock (300 MHz) must reproduce the paper's
        // T_max = 4 / 2 pattern of Table I.
        let device = FpgaDevice::stratix10_gx2800();
        let out = project_device(
            &device,
            &[1, 3, 5, 7, 9, 11, 13, 15],
            300.0,
            ArbitrationPolicy::PowerOfTwoDivisor,
        );
        for p in &out.projections {
            let expect = if (p.degree + 1) % 4 == 0 { 4.0 } else { 2.0 };
            assert_eq!(p.prediction.dofs_per_cycle, expect, "degree {}", p.degree);
        }
    }

    #[test]
    fn agilex_and_stratix10m_projections_match_section_vd() {
        let agilex = project_device(
            &FpgaDevice::agilex_027(),
            &PROJECTION_DEGREES,
            300.0,
            ArbitrationPolicy::PowerOfTwo,
        );
        // Paper: 266, 191 and 248 GFLOP/s.
        let expected = [(7_usize, 266.0), (11, 191.0), (15, 248.0)];
        for (degree, gflops) in expected {
            let got = agilex.for_degree(degree).unwrap().prediction.gflops;
            assert!(
                (got - gflops).abs() < 0.15 * gflops,
                "Agilex degree {degree}: {got} vs {gflops}"
            );
        }

        let s10m = project_device(
            &FpgaDevice::stratix10m(),
            &PROJECTION_DEGREES,
            300.0,
            ArbitrationPolicy::PowerOfTwo,
        );
        // Paper: peaks at ~382 GFLOP/s (N = 11).
        let got = s10m.for_degree(11).unwrap().prediction.gflops;
        assert!(
            (got - 382.0).abs() < 0.15 * 382.0,
            "Stratix 10M N=11: {got}"
        );
        assert!(s10m.peak_gflops() >= got);
    }

    #[test]
    fn ideal_fpga_projection_lands_in_the_tflops_range() {
        let ideal = project_device(
            &FpgaDevice::hypothetical_ideal(),
            &PROJECTION_DEGREES,
            300.0,
            ArbitrationPolicy::Unconstrained,
        );
        // Paper: 2.1, 3.0, 3.97 TFLOP/s.  Our calibrated FPU cost makes the
        // highest degrees DSP-bound slightly earlier, so we accept >= 2 TF at
        // N = 7 and >= 2.8 TF at N >= 11 (`tests/paper_reproduction.rs`
        // guards the Section V-D projections end to end).
        assert!(ideal.for_degree(7).unwrap().prediction.gflops > 2_000.0);
        assert!(ideal.for_degree(11).unwrap().prediction.gflops > 2_800.0);
        assert!(ideal.for_degree(15).unwrap().prediction.gflops > 2_800.0);
    }

    #[test]
    fn designing_for_a100_class_targets_requires_an_a100_class_memory() {
        // Ask the model for a device matching the A100 GPU kernel performance
        // the paper quotes (≈2.3 TF at N = 9, ≈1.8 TF at N = 15): the required
        // bandwidth must come out close to (but below) the A100's 1.555 TB/s,
        // and the logic must be several times the GX2800 — the shape of the
        // paper's "ideal FPGA".
        let device = design_fpga_for_targets(
            &[(7, 2_100.0), (11, 3_000.0), (15, 3_970.0)],
            300.0,
            FpuCost::stratix10_double(),
        );
        assert!(device.memory_bandwidth_gbs > 1_000.0 && device.memory_bandwidth_gbs < 1_555.0);
        let gx = FpgaDevice::stratix10_gx2800();
        assert!(device.resources.alms > 4.0 * gx.resources.alms);
        assert!(device.resources.dsps > 2.0 * gx.resources.dsps);
    }

    #[test]
    fn projection_outcome_helpers() {
        let out = project_device(
            &FpgaDevice::stratix10_gx2800(),
            &[7, 11],
            300.0,
            ArbitrationPolicy::PowerOfTwoDivisor,
        );
        assert!(out.for_degree(7).is_some());
        assert!(out.for_degree(8).is_none());
        assert!(out.peak_gflops() > 100.0);
    }
}
