//! High-level handle for the local Poisson operator on a mesh.
//!
//! [`PoissonOperator`] owns the per-mesh data (differentiation matrix and
//! geometric factors in both layouts) and dispatches to one of the three CPU
//! implementations.  The FPGA path lives in the `fpga-sim`/`sem-accel`
//! crates and reuses the same data through this type.

use crate::ops;
use crate::optimized::ax_optimized;
use crate::parallel::ax_parallel;
use crate::reference::ax_reference;
use crate::specialized::DegreeDispatch;
use sem_basis::DerivativeMatrix;
use sem_mesh::{BoxMesh, ElementField, GeometricFactors};
use serde::{Deserialize, Serialize};

/// Which CPU implementation of the kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AxImplementation {
    /// Listing-1 port on the interleaved layout (ground truth).
    Reference,
    /// Split-layout kernel.  Runs the degree×ISA specialized family of
    /// [`crate::specialized`] when the degree is in `3..=15` (bitwise
    /// identical results), the generic split-layout kernel otherwise.
    #[default]
    Optimized,
    /// Split-layout kernel parallelised over elements with Rayon.
    Parallel,
}

/// The matrix-free local Poisson operator bound to a mesh.
#[derive(Debug, Clone)]
pub struct PoissonOperator {
    degree: usize,
    num_elements: usize,
    derivative: DerivativeMatrix,
    geometry: GeometricFactors,
    split_planes: [Vec<f64>; 6],
    implementation: AxImplementation,
    /// Specialized kernel family, resolved once at construction when the
    /// selected implementation can use it and the degree is covered.
    dispatch: Option<DegreeDispatch>,
}

/// Resolve the specialized dispatch for an implementation/degree pair:
/// `Optimized` auto-upgrades (bitwise-identical results) when the degree is
/// covered.
fn resolve_dispatch(implementation: AxImplementation, degree: usize) -> Option<DegreeDispatch> {
    match implementation {
        AxImplementation::Optimized => DegreeDispatch::for_degree(degree),
        AxImplementation::Reference | AxImplementation::Parallel => None,
    }
}

impl PoissonOperator {
    /// Build the operator for a mesh, precomputing geometric factors.
    #[must_use]
    pub fn new(mesh: &BoxMesh, implementation: AxImplementation) -> Self {
        let geometry = GeometricFactors::from_mesh(mesh);
        Self::from_parts(mesh.degree(), mesh.num_elements(), geometry, implementation)
    }

    /// Build the operator from precomputed geometric factors.
    #[must_use]
    pub fn from_parts(
        degree: usize,
        num_elements: usize,
        geometry: GeometricFactors,
        implementation: AxImplementation,
    ) -> Self {
        assert_eq!(geometry.degree(), degree);
        assert_eq!(geometry.num_elements(), num_elements);
        let derivative = DerivativeMatrix::new(degree);
        let split_planes = geometry.split();
        Self {
            degree,
            num_elements,
            derivative,
            geometry,
            split_planes,
            implementation,
            dispatch: resolve_dispatch(implementation, degree),
        }
    }

    /// Polynomial degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// The implementation currently selected.
    #[must_use]
    pub fn implementation(&self) -> AxImplementation {
        self.implementation
    }

    /// Switch implementation (e.g. reference for verification, parallel for
    /// throughput runs).  Re-resolves the specialized dispatch.
    pub fn set_implementation(&mut self, implementation: AxImplementation) {
        self.implementation = implementation;
        self.dispatch = resolve_dispatch(implementation, self.degree);
    }

    /// The specialized kernel family serving this operator, when one is
    /// resolved (`Optimized` auto-upgrades on covered degrees; `None` means
    /// the generic path runs).
    #[must_use]
    pub fn dispatch(&self) -> Option<&DegreeDispatch> {
        self.dispatch.as_ref()
    }

    /// Pin the generic kernels even when the degree is covered — the
    /// escape hatch benchmarks use to measure generic-vs-specialized on the
    /// same operator configuration.
    pub fn pin_generic(&mut self) {
        self.dispatch = None;
    }

    /// The differentiation matrix.
    #[must_use]
    pub fn derivative(&self) -> &DerivativeMatrix {
        &self.derivative
    }

    /// The geometric factors (interleaved canonical copy).
    #[must_use]
    pub fn geometry(&self) -> &GeometricFactors {
        &self.geometry
    }

    /// The split geometric-factor planes.
    #[must_use]
    pub fn split_planes(&self) -> &[Vec<f64>; 6] {
        &self.split_planes
    }

    /// Apply the operator: `w = A u`, element by element.
    ///
    /// # Panics
    /// Panics if `u` does not match the operator's mesh dimensions.
    #[must_use]
    pub fn apply(&self, u: &ElementField) -> ElementField {
        assert_eq!(u.degree(), self.degree, "degree mismatch");
        assert_eq!(
            u.num_elements(),
            self.num_elements,
            "element count mismatch"
        );
        let mut w = ElementField::zeros(self.degree, self.num_elements);
        self.apply_into(u, &mut w);
        w
    }

    /// Apply the operator into an existing output field (no allocation).
    // lint: alloc-free (the Ax hot path: every CG iteration routes through here)
    pub fn apply_into(&self, u: &ElementField, w: &mut ElementField) {
        assert_eq!(u.len(), w.len(), "output field size mismatch");
        match self.implementation {
            AxImplementation::Reference => ax_reference(
                u.as_slice(),
                w.as_mut_slice(),
                self.geometry.interleaved(),
                &self.derivative,
            ),
            AxImplementation::Optimized => {
                if let Some(dispatch) = &self.dispatch {
                    dispatch.ax_apply_all(
                        u.as_slice(),
                        w.as_mut_slice(),
                        [
                            &self.split_planes[0][..],
                            &self.split_planes[1][..],
                            &self.split_planes[2][..],
                            &self.split_planes[3][..],
                            &self.split_planes[4][..],
                            &self.split_planes[5][..],
                        ],
                        self.derivative.d().as_slice(),
                        self.derivative.dt().as_slice(),
                    );
                } else {
                    // Out-of-range degree (or pinned generic): the generic
                    // split-layout kernel is the fallback path.
                    ax_optimized(
                        u.as_slice(),
                        w.as_mut_slice(),
                        &self.split_planes,
                        &self.derivative,
                    );
                }
            }
            AxImplementation::Parallel => ax_parallel(
                u.as_slice(),
                w.as_mut_slice(),
                &self.split_planes,
                &self.derivative,
            ),
        }
    }

    /// FLOPs for one full operator application on this mesh.
    #[must_use]
    pub fn flops_per_application(&self) -> u64 {
        ops::total_flops(self.degree, self.num_elements)
    }

    /// Degrees of freedom processed per application.
    #[must_use]
    pub fn dofs_per_application(&self) -> u64 {
        ops::total_dofs(self.degree, self.num_elements)
    }

    /// Bytes of compulsory global traffic per application.
    #[must_use]
    pub fn bytes_per_application(&self) -> u64 {
        ops::total_bytes(self.degree, self.num_elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn all_implementations_agree() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Reference);
        let mut rng = StdRng::seed_from_u64(11);
        let mut u = ElementField::zeros(4, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));

        let w_ref = op.apply(&u);
        op.set_implementation(AxImplementation::Optimized);
        let w_opt = op.apply(&u);
        op.set_implementation(AxImplementation::Parallel);
        let w_par = op.apply(&u);

        for ((a, b), c) in w_ref
            .as_slice()
            .iter()
            .zip(w_opt.as_slice())
            .zip(w_par.as_slice())
        {
            assert!((a - b).abs() < 1e-11 * (1.0 + a.abs()));
            assert_eq!(b, c, "optimized and parallel are bitwise identical");
        }
    }

    #[test]
    fn specialized_dispatch_resolves_once_and_is_bitwise_identical() {
        let mesh = BoxMesh::unit_cube(5, 2);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Optimized);
        assert!(op.dispatch().is_some(), "degree 5 is covered");
        let mut rng = StdRng::seed_from_u64(23);
        let mut u = ElementField::zeros(5, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));
        let w_spec = op.apply(&u);
        op.pin_generic();
        assert!(op.dispatch().is_none());
        let w_gen = op.apply(&u);
        assert_eq!(w_spec.as_slice(), w_gen.as_slice());
    }

    #[test]
    fn optimized_auto_upgrades_on_covered_degrees_only() {
        let covered = PoissonOperator::new(&BoxMesh::unit_cube(7, 1), AxImplementation::Optimized);
        assert!(covered.dispatch().is_some());
        let low = PoissonOperator::new(&BoxMesh::unit_cube(2, 1), AxImplementation::Optimized);
        assert!(low.dispatch().is_none());
        let reference =
            PoissonOperator::new(&BoxMesh::unit_cube(7, 1), AxImplementation::Reference);
        assert!(reference.dispatch().is_none());
    }

    #[test]
    fn out_of_range_degrees_fall_back_without_panicking() {
        let mesh = BoxMesh::unit_cube(2, 2);
        let mut op = PoissonOperator::new(&mesh, AxImplementation::Optimized);
        assert!(op.dispatch().is_none(), "degree 2 is below the range");
        let mut rng = StdRng::seed_from_u64(31);
        let mut u = ElementField::zeros(2, 8);
        u.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));
        let w_fallback = op.apply(&u);
        // The parallel kernel runs the same generic arithmetic element by
        // element.
        op.set_implementation(AxImplementation::Parallel);
        let w_generic = op.apply(&u);
        assert_eq!(w_fallback.as_slice(), w_generic.as_slice());
    }

    #[test]
    fn accounting_matches_closed_forms() {
        let mesh = BoxMesh::unit_cube(7, 2);
        let op = PoissonOperator::new(&mesh, AxImplementation::Optimized);
        assert_eq!(op.dofs_per_application(), 8 * 512);
        assert_eq!(op.flops_per_application(), 8 * 512 * 111);
        assert_eq!(op.bytes_per_application(), 8 * 512 * 64);
    }

    #[test]
    #[should_panic(expected = "degree mismatch")]
    fn rejects_wrong_degree_field() {
        let mesh = BoxMesh::unit_cube(3, 1);
        let op = PoissonOperator::new(&mesh, AxImplementation::Optimized);
        let u = ElementField::zeros(4, 1);
        let _ = op.apply(&u);
    }
}
