//! The paper's Table I: synthesis and performance of the eight accelerators
//! measured on the Stratix 10 GX2800.
//!
//! These values serve two purposes in the reproduction:
//!
//! 1. they are the *reference data* every regenerated table/figure is
//!    compared against (see `tests/paper_reproduction.rs`), and
//! 2. they provide the empirically measured base resource utilisation
//!    `R_base(N)` that the paper's own projection methodology reuses
//!    ("the base resource utilization … can be empirically measured for each
//!    degree").
//!
//! Four percentage values in the scanned table are obvious OCR glitches
//! (logic 12% for N=7, DSP 1% for N=9, logic 10% for N=13, logic 171% for
//! N=15); they are restored to the physically consistent values 72%, 21%,
//! 70% and 71% and the correction is documented here.

use serde::{Deserialize, Serialize};

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Polynomial degree `N`.
    pub degree: usize,
    /// Kernel clock after synthesis, MHz.
    pub fmax_mhz: f64,
    /// Logic (ALM) utilisation fraction of the device.
    pub logic_fraction: f64,
    /// Absolute number of registers used.
    pub registers: u64,
    /// BRAM utilisation fraction.
    pub bram_fraction: f64,
    /// DSP utilisation fraction.
    pub dsp_fraction: f64,
    /// Measured board power in watts.
    pub power_watts: f64,
    /// Measured performance in GFLOP/s (4096 elements).
    pub gflops: f64,
    /// Measured power efficiency in GFLOP/s/W.
    pub gflops_per_watt: f64,
    /// Measured throughput in DOFs per cycle.
    pub dofs_per_cycle: f64,
    /// Model error reported by the paper (percent).
    pub model_error_percent: f64,
}

/// The eight synthesised accelerators of Table I.
#[must_use]
pub fn measured_table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            degree: 1,
            fmax_mhz: 391.0,
            logic_fraction: 0.31,
            registers: 539_409,
            bram_fraction: 0.04,
            dsp_fraction: 0.06,
            power_watts: 81.05,
            gflops: 22.1,
            gflops_per_watt: 0.27,
            dofs_per_cycle: 1.45,
            model_error_percent: 27.61,
        },
        Table1Row {
            degree: 3,
            fmax_mhz: 292.0,
            logic_fraction: 0.50,
            registers: 1_031_880,
            bram_fraction: 0.09,
            dsp_fraction: 0.14,
            power_watts: 84.38,
            gflops: 62.2,
            gflops_per_watt: 0.78,
            dofs_per_cycle: 3.28,
            model_error_percent: 17.99,
        },
        Table1Row {
            degree: 5,
            fmax_mhz: 243.0,
            logic_fraction: 0.46,
            registers: 968_793,
            bram_fraction: 0.10,
            dsp_fraction: 0.05,
            power_watts: 77.52,
            gflops: 31.4,
            gflops_per_watt: 0.41,
            dofs_per_cycle: 1.48,
            model_error_percent: 25.89,
        },
        Table1Row {
            degree: 7,
            fmax_mhz: 274.0,
            logic_fraction: 0.72,
            registers: 1_464_437,
            bram_fraction: 0.18,
            dsp_fraction: 0.24,
            power_watts: 90.38,
            gflops: 109.0,
            gflops_per_watt: 1.21,
            dofs_per_cycle: 3.58,
            model_error_percent: 10.05,
        },
        Table1Row {
            degree: 9,
            fmax_mhz: 233.0,
            logic_fraction: 0.59,
            registers: 1_350_551,
            bram_fraction: 0.27,
            dsp_fraction: 0.21,
            power_watts: 84.31,
            gflops: 62.4,
            gflops_per_watt: 0.74,
            dofs_per_cycle: 1.98,
            model_error_percent: 0.82,
        },
        Table1Row {
            degree: 11,
            fmax_mhz: 216.0,
            logic_fraction: 0.69,
            registers: 1_511_613,
            bram_fraction: 0.34,
            dsp_fraction: 0.17,
            power_watts: 90.65,
            gflops: 136.4,
            gflops_per_watt: 1.50,
            dofs_per_cycle: 3.96,
            model_error_percent: 1.02,
        },
        Table1Row {
            degree: 13,
            fmax_mhz: 170.0,
            logic_fraction: 0.70,
            registers: 1_644_011,
            bram_fraction: 0.53,
            dsp_fraction: 0.10,
            power_watts: 83.37,
            gflops: 62.14,
            gflops_per_watt: 0.74,
            dofs_per_cycle: 1.99,
            model_error_percent: 0.31,
        },
        Table1Row {
            degree: 15,
            fmax_mhz: 266.0,
            logic_fraction: 0.71,
            registers: 1_705_581,
            bram_fraction: 0.39,
            dsp_fraction: 0.22,
            power_watts: 99.65,
            gflops: 211.3,
            gflops_per_watt: 2.12,
            dofs_per_cycle: 3.83,
            model_error_percent: 4.30,
        },
    ]
}

/// Look up the measured row for a degree, if the paper synthesised it.
#[must_use]
pub fn measured_row(degree: usize) -> Option<Table1Row> {
    measured_table1().into_iter().find(|r| r.degree == degree)
}

/// Measured kernel clock (MHz) of the GX2800 bitstream for `degree`, when the
/// paper synthesised that degree.  Used by the FPGA simulator to pin the
/// clock of the "as-built" designs instead of relying on the noisy analytic
/// fmax estimate.
#[must_use]
pub fn measured_fmax_mhz(degree: usize) -> Option<f64> {
    measured_row(degree).map(|r| r.fmax_mhz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::flops_per_dof;

    #[test]
    fn table_has_the_eight_degrees() {
        let t = measured_table1();
        assert_eq!(t.len(), 8);
        let degrees: Vec<usize> = t.iter().map(|r| r.degree).collect();
        assert_eq!(degrees, vec![1, 3, 5, 7, 9, 11, 13, 15]);
    }

    #[test]
    fn rows_are_internally_consistent() {
        // GFLOP/s = flops_per_dof * DOFs/cycle * fmax must hold within a few
        // percent for every measured row (it is how the paper computes the
        // column), and GFLOP/s/W = GFLOP/s / power.
        for row in measured_table1() {
            let implied = flops_per_dof(row.degree) * row.dofs_per_cycle * row.fmax_mhz * 1e6 / 1e9;
            let rel = (implied - row.gflops).abs() / row.gflops;
            assert!(
                rel < 0.03,
                "degree {}: implied {implied:.1} vs reported {}",
                row.degree,
                row.gflops
            );
            let eff = row.gflops / row.power_watts;
            assert!((eff - row.gflops_per_watt).abs() < 0.05);
        }
    }

    #[test]
    fn peak_degrees_reach_four_dofs_per_cycle() {
        // The paper's model gives T_max = 4 on this board; degrees divisible
        // by four (N+1 = 4, 8, 12, 16) get close, the others sit near 2.
        for row in measured_table1() {
            if (row.degree + 1) % 4 == 0 {
                assert!(row.dofs_per_cycle > 3.2, "degree {}", row.degree);
            } else {
                assert!(row.dofs_per_cycle < 2.1, "degree {}", row.degree);
            }
        }
    }

    #[test]
    fn lookup_by_degree() {
        assert!(measured_row(7).is_some());
        assert!(measured_row(8).is_none());
        assert_eq!(measured_fmax_mhz(15), Some(266.0));
    }
}
