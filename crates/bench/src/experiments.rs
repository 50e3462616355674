//! Data generators for the paper's tables and figures.
//!
//! Each public function regenerates the numbers behind one table or figure;
//! the binaries in `src/bin/` only format them.  The binary ↔ table/figure
//! map is in the README ("Regenerating the paper's tables and figures");
//! `tests/paper_reproduction.rs` asserts the paper-vs-reproduced values.

use arch_db::{calibrated_models, MachineModel};
use fpga_sim::{
    AcceleratorDesign, ExecutionReport, FpgaAccelerator, FpgaDevice, OptimizationStage,
};
use perf_model::projection::{calibrated_base, project_device};
use perf_model::throughput::{predict, ArbitrationPolicy};
use perf_model::{measured_table1, roofline_gflops};

/// The polynomial degrees the paper synthesised bitstreams for.
pub const TABLE1_DEGREES: [usize; 8] = [1, 3, 5, 7, 9, 11, 13, 15];

/// The degrees used in the peak-performance comparison (Fig. 2).
pub const FIG2_DEGREES: [usize; 3] = [7, 11, 15];

/// The element-count sweep of Fig. 1.
pub const FIG1_ELEMENT_COUNTS: [usize; 8] = [8, 16, 64, 128, 512, 1024, 4096, 16384];

/// The problem size of the peak comparisons (Fig. 2, Fig. 3, Table I).
pub const REFERENCE_ELEMENTS: usize = 4096;

/// Simulated performance of the production GX2800 accelerator for one degree
/// and problem size.
#[must_use]
pub fn fpga_performance(degree: usize, num_elements: usize) -> ExecutionReport {
    let device = FpgaDevice::stratix10_gx2800();
    FpgaAccelerator::for_degree(degree, &device).estimate(num_elements)
}

/// The Section III optimisation ladder at one degree: (stage label, GFLOP/s).
#[must_use]
pub fn ladder_gflops(degree: usize, num_elements: usize) -> Vec<(&'static str, f64)> {
    let device = FpgaDevice::stratix10_gx2800();
    OptimizationStage::ladder()
        .iter()
        .map(|&stage| {
            let label = match stage {
                OptimizationStage::Baseline => "baseline",
                OptimizationStage::LocalMemory => "+BRAM/unroll/split-gxyz",
                OptimizationStage::InitiationIntervalOne => "+II=1",
                OptimizationStage::Banked => "+banked memory",
            };
            let design = AcceleratorDesign::at_stage(degree, &device, stage);
            let report = FpgaAccelerator::new(device.clone(), design).estimate(num_elements);
            (label, report.gflops)
        })
        .collect()
}

/// One point of Fig. 1: a machine's performance at one degree and size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Point {
    /// Machine name ("SEM-Acc (FPGA)" or a Table II baseline).
    pub machine: String,
    /// Polynomial degree.
    pub degree: usize,
    /// Number of elements.
    pub num_elements: usize,
    /// Achieved GFLOP/s.
    pub gflops: f64,
}

/// Generate the Fig. 1 series: every machine (simulated FPGA + calibrated
/// CPU/GPU models) over the element sweep for one polynomial degree.
#[must_use]
pub fn fig1_series(degree: usize) -> Vec<Fig1Point> {
    let mut points = Vec::new();
    for &elements in &FIG1_ELEMENT_COUNTS {
        points.push(Fig1Point {
            machine: "SEM-Acc (FPGA)".to_string(),
            degree,
            num_elements: elements,
            gflops: fpga_performance(degree, elements).gflops,
        });
        for model in calibrated_models() {
            points.push(Fig1Point {
                machine: model.architecture.name.clone(),
                degree,
                num_elements: elements,
                gflops: model.achieved_gflops(degree, elements),
            });
        }
    }
    points
}

/// One bar group of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Machine name.
    pub machine: String,
    /// Achieved GFLOP/s at N = 7, 11, 15 and 4096 elements.
    pub gflops: [f64; 3],
    /// Power draw estimate in watts.
    pub power_watts: f64,
    /// Power efficiency (GFLOP/s/W) at the machine's best of the three degrees.
    pub gflops_per_watt: f64,
    /// Roofline bound at N = 15 (the green line of Fig. 2).
    pub roofline_gflops: f64,
    /// Whether this row is a model projection (the three future FPGAs).
    pub projected: bool,
}

fn fig2_row_from_machine(model: &MachineModel) -> Fig2Row {
    let gflops = [
        model.achieved_gflops(7, REFERENCE_ELEMENTS),
        model.achieved_gflops(11, REFERENCE_ELEMENTS),
        model.achieved_gflops(15, REFERENCE_ELEMENTS),
    ];
    let best = gflops.iter().copied().fold(0.0, f64::max);
    Fig2Row {
        machine: model.architecture.name.clone(),
        gflops,
        power_watts: model.power_watts(),
        gflops_per_watt: best / model.power_watts(),
        roofline_gflops: model.roofline_gflops(15),
        projected: false,
    }
}

/// Generate the Fig. 2 comparison: the simulated FPGA, every CPU/GPU baseline
/// and the three projected future FPGAs.
#[must_use]
pub fn fig2_rows() -> Vec<Fig2Row> {
    let mut rows = Vec::new();

    // The evaluated FPGA (simulated).
    let device = FpgaDevice::stratix10_gx2800();
    let gflops = [
        fpga_performance(7, REFERENCE_ELEMENTS),
        fpga_performance(11, REFERENCE_ELEMENTS),
        fpga_performance(15, REFERENCE_ELEMENTS),
    ];
    let best = gflops.iter().map(|r| r.gflops).fold(0.0, f64::max);
    let power = gflops[2].power_watts;
    rows.push(Fig2Row {
        machine: "SEM-Acc (FPGA, Stratix 10 GX2800)".to_string(),
        gflops: [gflops[0].gflops, gflops[1].gflops, gflops[2].gflops],
        power_watts: power,
        gflops_per_watt: best / power,
        roofline_gflops: roofline_gflops(
            500.0,
            device.memory_bandwidth_gbs,
            perf_model::operational_intensity(15),
        ),
        projected: false,
    });

    // CPU and GPU baselines.
    for model in calibrated_models() {
        rows.push(fig2_row_from_machine(&model));
    }

    // Projected future FPGAs (Section V-D).
    let projections = [
        (FpgaDevice::agilex_027(), ArbitrationPolicy::PowerOfTwo),
        (FpgaDevice::stratix10m(), ArbitrationPolicy::PowerOfTwo),
        (
            FpgaDevice::hypothetical_ideal(),
            ArbitrationPolicy::Unconstrained,
        ),
    ];
    for (device, policy) in projections {
        let out = project_device(&device, &FIG2_DEGREES, 300.0, policy);
        let gflops = [
            out.for_degree(7).map_or(0.0, |p| p.prediction.gflops),
            out.for_degree(11).map_or(0.0, |p| p.prediction.gflops),
            out.for_degree(15).map_or(0.0, |p| p.prediction.gflops),
        ];
        let best = gflops.iter().copied().fold(0.0, f64::max);
        rows.push(Fig2Row {
            machine: device.name.clone(),
            gflops,
            power_watts: device.tdp_watts,
            gflops_per_watt: best / device.tdp_watts,
            roofline_gflops: roofline_gflops(
                f64::INFINITY,
                device.memory_bandwidth_gbs,
                perf_model::operational_intensity(15),
            ),
            projected: true,
        });
    }

    rows
}

/// One point of Fig. 3: measured vs modelled performance as a function of N.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Polynomial degree.
    pub degree: usize,
    /// Simulated ("measured") performance at the synthesised clock.
    pub measured_gflops: f64,
    /// Model prediction at the 300 MHz memory clock.
    pub modelled_300mhz_gflops: f64,
    /// Model prediction at 70% of the memory clock (210 MHz).
    pub modelled_210mhz_gflops: f64,
    /// Roofline bound at the full external bandwidth.
    pub roofline_gflops: f64,
    /// Relative model error against the simulated throughput (percent).
    pub model_error_percent: f64,
}

/// Generate the Fig. 3 curves (and the model-error column of Table I).
#[must_use]
pub fn fig3_rows() -> Vec<Fig3Row> {
    let device = FpgaDevice::stratix10_gx2800();
    TABLE1_DEGREES
        .iter()
        .map(|&degree| {
            let measured = fpga_performance(degree, REFERENCE_ELEMENTS);
            let base = calibrated_base(degree);
            let m300 = predict(
                &device,
                degree,
                &base,
                300.0,
                ArbitrationPolicy::PowerOfTwoDivisor,
            );
            let m210 = predict(
                &device,
                degree,
                &base,
                210.0,
                ArbitrationPolicy::PowerOfTwoDivisor,
            );
            let roofline = roofline_gflops(
                500.0,
                device.memory_bandwidth_gbs,
                perf_model::operational_intensity(degree),
            );
            Fig3Row {
                degree,
                measured_gflops: measured.gflops,
                modelled_300mhz_gflops: m300.gflops,
                modelled_210mhz_gflops: m210.gflops,
                roofline_gflops: roofline,
                model_error_percent: perf_model::throughput::model_error_percent(
                    m300.dofs_per_cycle,
                    measured.dofs_per_cycle,
                ),
            }
        })
        .collect()
}

/// Paper-measured Table I rows paired with the simulator's reproduction.
#[must_use]
pub fn table1_comparison() -> Vec<(perf_model::Table1Row, ExecutionReport)> {
    measured_table1()
        .into_iter()
        .map(|row| {
            let sim = fpga_performance(row.degree, REFERENCE_ELEMENTS);
            (row, sim)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_every_machine_at_every_size() {
        let series = fig1_series(7);
        // 1 FPGA + 8 baselines, 8 sizes.
        assert_eq!(series.len(), 9 * FIG1_ELEMENT_COUNTS.len());
        assert!(series.iter().all(|p| p.gflops > 0.0));
    }

    #[test]
    fn fig2_has_baselines_and_projections() {
        let rows = fig2_rows();
        assert_eq!(rows.len(), 1 + 8 + 3);
        assert_eq!(rows.iter().filter(|r| r.projected).count(), 3);
        // The headline result: the FPGA beats every CPU at N = 15 while the
        // Tesla-class GPUs stay ahead.
        let fpga = rows[0].gflops[2];
        for cpu in ["Xeon", "i9", "ThunderX2"] {
            let row = rows.iter().find(|r| r.machine.contains(cpu)).unwrap();
            assert!(fpga > row.gflops[2], "{cpu}");
        }
        let a100 = rows.iter().find(|r| r.machine.contains("A100")).unwrap();
        assert!(a100.gflops[2] > 5.0 * fpga);
        // The hypothetical ideal FPGA rivals the A100.
        let ideal = rows.iter().find(|r| r.machine.contains("ideal")).unwrap();
        assert!(ideal.gflops[1] > a100.gflops[1]);
    }

    #[test]
    fn fig3_model_error_is_small_for_the_well_behaved_degrees() {
        let rows = fig3_rows();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.measured_gflops <= row.roofline_gflops * 1.02);
            if matches!(row.degree, 9 | 11 | 13 | 15) {
                assert!(
                    row.model_error_percent < 15.0,
                    "degree {}: {}%",
                    row.degree,
                    row.model_error_percent
                );
            }
        }
    }

    #[test]
    fn ladder_is_monotonically_increasing() {
        let ladder = ladder_gflops(7, REFERENCE_ELEMENTS);
        assert_eq!(ladder.len(), 4);
        for pair in ladder.windows(2) {
            assert!(pair[1].1 > pair[0].1, "{pair:?}");
        }
    }

    #[test]
    fn table1_comparison_pairs_every_degree() {
        let rows = table1_comparison();
        assert_eq!(rows.len(), 8);
        for (paper, sim) in rows {
            assert_eq!(sim.degree, paper.degree);
        }
    }
}
