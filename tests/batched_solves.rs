//! Batched many-RHS solve path: parity and amortisation guarantees.
//!
//! * `solve_many` must be bitwise identical to N independent solves on
//!   **every** backend in the registry (batch-parallel CPU execution and
//!   shared-scratch accelerator execution included);
//! * batching must amortise the offload transfer on FPGA backends;
//! * the CSR gather–scatter sweep must match the legacy global-vector path.

use sem_accel::{Backend, SemSystem};
use sem_mesh::{BoxMesh, ElementField, GatherScatter};
use sem_solver::CgOptions;

fn options() -> CgOptions {
    CgOptions {
        max_iterations: 400,
        tolerance: 1e-10,
        record_history: false,
    }
}

#[test]
fn solve_many_matches_sequential_solves_on_every_registry_backend() {
    for name in Backend::registry_names() {
        let system = SemSystem::builder()
            .degree(3)
            .elements([2, 2, 2])
            .backend_named(&name)
            .build();
        let rhss: Vec<ElementField> = (0..3)
            .map(|i| {
                system
                    .problem()
                    .right_hand_side(move |x, y, z| ((1 + i) as f64 * x).sin() * y + z * z)
            })
            .collect();

        let batched = system.solve_many(&rhss, options());
        assert_eq!(batched.len(), rhss.len(), "{name}");
        for (rhs, report) in rhss.iter().zip(&batched) {
            let solo = system.solve_rhs(rhs, options());
            assert!(report.converged(), "{name} must converge");
            assert_eq!(
                report.solution.solution.as_slice(),
                solo.solution.solution.as_slice(),
                "{name}: batched and standalone solves must be bitwise identical"
            );
            assert_eq!(report.iterations(), solo.iterations(), "{name}");
            assert_eq!(report.batch_size, rhss.len(), "{name}");
        }
    }
}

#[test]
fn batch_16_drops_per_rhs_offload_seconds_by_at_least_30_percent_on_fpga_backends() {
    for name in Backend::registry_names() {
        if !name.starts_with("fpga:") {
            continue;
        }
        let system = SemSystem::builder()
            .degree(7)
            .elements([2, 2, 2])
            .backend_named(&name)
            .build();
        let batch = 16;
        let reports = system.solve_many_manufactured(batch, options());
        let sequential = system.solve(options());
        assert!(sequential.transfer_seconds > 0.0, "{name}");

        let per_rhs_batched: f64 =
            reports.iter().map(|r| r.transfer_seconds).sum::<f64>() / batch as f64;
        let drop = 1.0 - per_rhs_batched / sequential.transfer_seconds;
        assert!(
            drop >= 0.3,
            "{name}: per-RHS offload seconds must drop >= 30%, got {:.0}%",
            drop * 100.0
        );
        // Kernel seconds are still charged per RHS.
        for report in &reports {
            assert!(
                (report.operator.seconds - sequential.operator.seconds).abs()
                    < 1e-12 * sequential.operator.seconds.max(1.0),
                "{name}: kernel accounting must stay per-RHS"
            );
        }
    }
}

#[test]
fn csr_dssum_matches_the_legacy_path_on_deformed_meshes() {
    use sem_mesh::MeshDeformation;
    for deformation in [
        MeshDeformation::None,
        MeshDeformation::Sinusoidal { amplitude: 0.05 },
    ] {
        let mesh = BoxMesh::new(4, [2, 3, 2], [1.0, 1.2, 0.9], deformation);
        let gs = GatherScatter::from_mesh(&mesh);
        let field = mesh.evaluate(|x, y, z| (7.1 * x).sin() * (3.3 * y).cos() + z * z * z);
        // The legacy two-pass dssum through a global vector: Q Qᵀ.
        let two_pass = gs.gather(&gs.scatter_add(&field));
        let mut csr = field;
        gs.direct_stiffness_sum(&mut csr);
        let scale = two_pass.max_abs();
        for (a, b) in csr.as_slice().iter().zip(two_pass.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + scale),
                "CSR sweep diverged from the two-pass dssum: {a} vs {b}"
            );
        }
        // In fact the orders of accumulation agree, so it is bitwise.
        assert_eq!(csr.as_slice(), two_pass.as_slice());
    }
}
