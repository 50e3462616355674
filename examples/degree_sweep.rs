//! Sweep the polynomial degree and problem size and print a compact
//! Fig. 1-style panel: the generic CPU kernel vs the degree-specialized one
//! (both measured), then the simulated FPGA and the A100 machine model.
//! The unroll column is the generated kernel's vector width — the same
//! structural constant the FPGA design point derives its unroll from.
//!
//! Run with `cargo run --example degree_sweep --release`.

use semfpga::accel::{Backend, SemSystem};
use semfpga::archdb::machine_model::calibrated_model;
use semfpga::fpga::{FpgaAccelerator, FpgaDevice};
use semfpga::kernel::{kernel_structure, PoissonOperator};
use semfpga::mesh::ElementField;
use semfpga::obs::WallTimer;

/// Average seconds per application over `reps` runs (after one warm-up).
fn seconds_per_application(
    operator: &PoissonOperator,
    u: &ElementField,
    w: &mut ElementField,
    reps: usize,
) -> f64 {
    operator.apply_into(u, w);
    let timer = WallTimer::start();
    for _ in 0..reps {
        operator.apply_into(u, w);
    }
    timer.elapsed_wall_seconds() / reps as f64
}

fn main() {
    let device = FpgaDevice::stratix10_gx2800();
    let a100 = calibrated_model("A100").expect("A100 model exists");
    let reps = 10;
    println!(
        "{:>3} {:>10} {:>7} {:>15} {:>15} {:>8} {:>16} {:>17}",
        "N",
        "#elements",
        "unroll",
        "generic (GF/s)",
        "special (GF/s)",
        "speedup",
        "FPGA-sim (GF/s)",
        "A100 model (GF/s)"
    );
    for &degree in &[3_usize, 7, 11] {
        for &per_side in &[2_usize, 4] {
            let elements = per_side * per_side * per_side;
            let system = SemSystem::builder()
                .degree(degree)
                .elements([per_side; 3])
                .backend(Backend::cpu_specialized())
                .build();
            let specialized = system.operator();
            let mut generic = specialized.clone();
            generic.pin_generic();
            let u = system.problem().manufactured_exact();
            let mut w = ElementField::zeros(degree, elements);
            let generic_seconds = seconds_per_application(&generic, &u, &mut w, reps);
            let specialized_seconds = seconds_per_application(specialized, &u, &mut w, reps);
            let flops = specialized.flops_per_application() as f64;
            let unroll = kernel_structure(degree).map_or(1, |k| k.unroll);
            let fpga = FpgaAccelerator::for_degree(degree, &device).estimate(elements);
            let gpu = a100.achieved_gflops(degree, elements);
            println!(
                "{:>3} {:>10} {:>7} {:>15.2} {:>15.2} {:>7.2}x {:>16.2} {:>17.2}",
                degree,
                elements,
                unroll,
                flops / generic_seconds / 1e9,
                flops / specialized_seconds / 1e9,
                generic_seconds / specialized_seconds,
                fpga.gflops,
                gpu
            );
        }
    }
    println!("\n(The CPU columns are real single-thread measurements on this host — the");
    println!(" runtime-nx generic kernel vs the compile-time-NX specialized dispatch; the");
    println!(" FPGA and A100 columns come from the calibrated simulator/models — see");
    println!(" the README.)");
}
