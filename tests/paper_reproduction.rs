//! Integration tests asserting the paper's headline quantitative claims are
//! reproduced by the simulators and models (within documented tolerances).
//! Each test names the table/figure it guards; the README ("Regenerating the
//! paper's tables and figures") lists the binaries that print the full
//! paper-vs-reproduced numbers.

use semfpga::fpga::{FpgaAccelerator, FpgaDevice};
use semfpga::model::measured_table1;
use semfpga::model::projection::project_device;
use semfpga::model::throughput::ArbitrationPolicy;

const REFERENCE_ELEMENTS: usize = 4096;

/// Table I: peak performance of the headline degrees (7, 11, 15) within 12%.
#[test]
fn table1_headline_degrees_reproduce() {
    let device = FpgaDevice::stratix10_gx2800();
    for (degree, paper_gflops) in [(7_usize, 109.0), (11, 136.4), (15, 211.3)] {
        let sim = FpgaAccelerator::for_degree(degree, &device).estimate(REFERENCE_ELEMENTS);
        let rel = (sim.gflops - paper_gflops).abs() / paper_gflops;
        assert!(
            rel < 0.12,
            "N={degree}: simulated {:.1} vs paper {paper_gflops} ({:.0}%)",
            sim.gflops,
            rel * 100.0
        );
    }
}

/// Table I: the accelerator is logic-bound — logic utilisation is the highest
/// of the three resource classes for every synthesised degree.
#[test]
fn table1_designs_are_logic_bound() {
    let device = FpgaDevice::stratix10_gx2800();
    for row in measured_table1() {
        let design = semfpga::fpga::AcceleratorDesign::for_degree(row.degree, &device);
        let synth = semfpga::fpga::synthesize(&design, &device);
        assert!(
            synth.utilisation.alms > synth.utilisation.dsps,
            "degree {}",
            row.degree
        );
        assert!(
            synth.utilisation.alms > synth.utilisation.brams,
            "degree {}",
            row.degree
        );
    }
}

/// Table I / model: T_max = 4 on the evaluated board, and the degrees whose
/// GLL count is not divisible by four only reach ~2 DOFs/cycle.
#[test]
fn throughput_pattern_follows_the_arbitration_constraint() {
    let device = FpgaDevice::stratix10_gx2800();
    for row in measured_table1() {
        let sim = FpgaAccelerator::for_degree(row.degree, &device).estimate(REFERENCE_ELEMENTS);
        assert!(sim.dofs_per_cycle <= 4.0 + 1e-9);
        if (row.degree + 1) % 4 == 0 {
            assert!(sim.dofs_per_cycle > 3.0, "degree {}", row.degree);
        } else {
            assert!(sim.dofs_per_cycle < 2.2, "degree {}", row.degree);
        }
    }
}

/// Section V-C / Fig. 2: at 4096 elements and N = 15 the FPGA beats every CPU
/// and the K80, stays within ~15% of the RTX 2060, and loses to the
/// Tesla-class GPUs by the paper's factors.
#[test]
fn fig2_ranking_is_reproduced() {
    let rows = bench::fig2_rows();
    let fpga = rows
        .iter()
        .find(|r| r.machine.contains("SEM-Acc"))
        .expect("FPGA row")
        .gflops[2];
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.machine.contains(name))
            .unwrap_or_else(|| panic!("{name} row"))
            .gflops[2]
    };
    assert!(fpga > get("Xeon"));
    assert!(fpga > get("i9"));
    assert!(fpga > get("ThunderX2"));
    assert!(fpga > get("K80"));
    let p100 = get("P100") / fpga;
    let v100 = get("V100") / fpga;
    let a100 = get("A100") / fpga;
    assert!((3.0..6.0).contains(&p100), "P100 ratio {p100}");
    assert!((4.5..8.5).contains(&v100), "V100 ratio {v100}");
    assert!((6.5..10.5).contains(&a100), "A100 ratio {a100}");
}

/// Fig. 2 / Section V-C: power efficiency — the FPGA beats every CPU, and the
/// Tesla GPUs beat the FPGA but by a smaller factor than their raw speedup.
#[test]
fn fig2_power_efficiency_story_is_reproduced() {
    let rows = bench::fig2_rows();
    let fpga = rows.iter().find(|r| r.machine.contains("SEM-Acc")).unwrap();
    // Compare everything at N = 15 (the paper's quoted ratios), using each
    // machine's power draw while running the kernel.
    let fpga_eff = fpga.gflops[2] / fpga.power_watts;
    for cpu in ["Xeon", "i9", "ThunderX2"] {
        let row = rows.iter().find(|r| r.machine.contains(cpu)).unwrap();
        assert!(fpga_eff > row.gflops[2] / row.power_watts, "{cpu}");
    }
    for gpu in ["P100", "V100", "A100"] {
        let row = rows.iter().find(|r| r.machine.contains(gpu)).unwrap();
        let perf_ratio = row.gflops[2] / fpga.gflops[2];
        let eff_ratio = (row.gflops[2] / row.power_watts) / fpga_eff;
        assert!(eff_ratio > 1.0, "{gpu} must be more efficient");
        assert!(
            eff_ratio < perf_ratio,
            "{gpu}: efficiency advantage ({eff_ratio:.2}x) must be smaller than raw speedup ({perf_ratio:.2}x)"
        );
    }
}

/// Fig. 1 shape: every machine ramps with problem size, and at small sizes the
/// FPGA struggles against the CPUs (low clock + low bandwidth), as the paper
/// observes.
#[test]
fn fig1_small_problem_behaviour() {
    let series = bench::fig1_series(7);
    let at = |machine: &str, elements: usize| {
        series
            .iter()
            .find(|p| p.machine.contains(machine) && p.num_elements == elements)
            .unwrap()
            .gflops
    };
    // Small problems: the Xeon beats the FPGA.
    assert!(at("Xeon", 8) > at("SEM-Acc", 8));
    // Large problems at N=7: the FPGA overtakes the i9 and ThunderX2 never
    // catches up; the Tesla GPUs stay far ahead.
    assert!(at("SEM-Acc", 16384) > at("ThunderX2", 16384));
    assert!(at("A100", 16384) > 5.0 * at("SEM-Acc", 16384));
}

/// Section III ladder: baseline ≈ 0.025 GFLOP/s, final ≈ 109 GFLOP/s (N = 7),
/// an overall improvement of more than three orders of magnitude.
#[test]
fn optimisation_ladder_end_points() {
    let ladder = bench::ladder_gflops(7, REFERENCE_ELEMENTS);
    let baseline = ladder.first().unwrap().1;
    let final_ = ladder.last().unwrap().1;
    assert!(baseline < 0.1, "baseline {baseline}");
    assert!((final_ - 109.0).abs() < 15.0, "final {final_}");
    assert!(final_ / baseline > 1_000.0);
}

/// Section V-D: the Agilex 027 projection lands on the paper's 266/191/248
/// GFLOP/s and the hypothetical ideal FPGA reaches multi-TFLOP/s, beating the
/// A100 kernel model at N = 11.
#[test]
fn section_vd_projections() {
    let agilex = project_device(
        &FpgaDevice::agilex_027(),
        &[7, 11, 15],
        300.0,
        ArbitrationPolicy::PowerOfTwo,
    );
    for (degree, expected) in [(7_usize, 266.0), (11, 191.0), (15, 248.0)] {
        let got = agilex.for_degree(degree).unwrap().prediction.gflops;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "Agilex N={degree}: {got} vs {expected}"
        );
    }

    let ideal = project_device(
        &FpgaDevice::hypothetical_ideal(),
        &[7, 11, 15],
        300.0,
        ArbitrationPolicy::Unconstrained,
    );
    let a100 = arch_db::machine_model::calibrated_model("A100").unwrap();
    let ideal_n11 = ideal.for_degree(11).unwrap().prediction.gflops;
    assert!(ideal_n11 > 2_500.0);
    assert!(ideal_n11 > a100.achieved_gflops(11, REFERENCE_ELEMENTS));
}

/// Section III-E / IV: padding never helps the even-GLL-count degrees the
/// accelerators target, which is why the final designs do not pad.
#[test]
fn padding_is_not_worth_it_for_the_synthesised_degrees() {
    use semfpga::model::padding::analyse_padding;
    for degree in [1, 3, 7, 11, 15] {
        let a = analyse_padding(degree, 4, 4.0);
        assert!(
            a.net_gain <= 1.0 + 1e-9,
            "degree {degree}: net gain {}",
            a.net_gain
        );
    }
}
