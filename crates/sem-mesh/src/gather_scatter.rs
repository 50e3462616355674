//! Gather–scatter (direct stiffness summation).
//!
//! SEM solvers keep fields in element-local storage and enforce continuity by
//! summing the values of shared interface nodes after each operator
//! application — the `QQᵀ` ("dssum") operation.  The paper lists this
//! gather–scatter phase as one of the candidate phases around the core kernel;
//! here it is needed so the conjugate-gradient proxy (Nekbone) is complete.

use crate::field::ElementField;
use crate::mesh::BoxMesh;
use serde::{Deserialize, Serialize};

/// The gather–scatter operator of a mesh.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatherScatter {
    degree: usize,
    num_elements: usize,
    /// Local (element-major) index → global unique grid point.
    local_to_global: Vec<usize>,
    num_global: usize,
    /// How many local copies each *local* node has (its global multiplicity).
    multiplicity: Vec<f64>,
    /// CSR offsets into [`GatherScatter::csr_locals`]: the local copies of
    /// global node `g` are `csr_locals[csr_offsets[g]..csr_offsets[g + 1]]`,
    /// in ascending local order.
    csr_offsets: Vec<usize>,
    /// Local indices grouped by their global node (the inverse of
    /// `local_to_global`, in CSR form).
    csr_locals: Vec<usize>,
}

impl GatherScatter {
    /// Build the operator for a box mesh.
    #[must_use]
    pub fn from_mesh(mesh: &BoxMesh) -> Self {
        let local_to_global = mesh.local_to_global();
        let num_global = mesh.num_global_dofs();
        let mut counts = vec![0_usize; num_global];
        for &g in &local_to_global {
            counts[g] += 1;
        }
        let multiplicity = local_to_global.iter().map(|&g| counts[g] as f64).collect();

        // Invert local→global into a CSR global→locals map so dssum can run
        // as one gather-accumulate-scatter sweep without a global work vector.
        let mut csr_offsets = vec![0_usize; num_global + 1];
        for g in 0..num_global {
            csr_offsets[g + 1] = csr_offsets[g] + counts[g];
        }
        let mut next = csr_offsets[..num_global].to_vec();
        let mut csr_locals = vec![0_usize; local_to_global.len()];
        // Filling in ascending local order keeps each global node's copies
        // sorted, so the CSR sweep accumulates in the same order as
        // `gather(scatter_add(..))` (bitwise-identical sums).
        for (l, &g) in local_to_global.iter().enumerate() {
            csr_locals[next[g]] = l;
            next[g] += 1;
        }

        Self {
            degree: mesh.degree(),
            num_elements: mesh.num_elements(),
            local_to_global,
            num_global,
            multiplicity,
            csr_offsets,
            csr_locals,
        }
    }

    /// Number of unique global grid points.
    #[must_use]
    pub fn num_global_dofs(&self) -> usize {
        self.num_global
    }

    /// Number of local degrees of freedom.
    #[must_use]
    pub fn num_local_dofs(&self) -> usize {
        self.local_to_global.len()
    }

    /// The local-to-global map.
    #[must_use]
    pub fn local_to_global(&self) -> &[usize] {
        &self.local_to_global
    }

    /// Scatter-add local values into a global vector (`Qᵀ`):
    /// `global[g] = Σ_{local l : map(l) = g} local[l]`.
    #[must_use]
    pub fn scatter_add(&self, local: &ElementField) -> Vec<f64> {
        assert_eq!(local.len(), self.num_local_dofs(), "field size mismatch");
        let mut global = vec![0.0_f64; self.num_global];
        for (l, &g) in self.local_to_global.iter().enumerate() {
            global[g] += local.as_slice()[l];
        }
        global
    }

    /// Gather global values back to local storage (`Q`).
    #[must_use]
    pub fn gather(&self, global: &[f64]) -> ElementField {
        assert_eq!(global.len(), self.num_global, "global size mismatch");
        let mut local = ElementField::zeros(self.degree, self.num_elements);
        for (l, &g) in self.local_to_global.iter().enumerate() {
            local.as_mut_slice()[l] = global[g];
        }
        local
    }

    /// Direct stiffness summation `QQᵀ`: sum shared nodes and write the sum
    /// back to every copy.  This is the "dssum" of Nek5000/Nekbone.
    ///
    /// Runs as a single sweep over the precomputed CSR global→locals map —
    /// gather each global node's copies, accumulate, scatter the sum back —
    /// with no intermediate global vector, so a CG iteration performs no
    /// heap allocation here.  Bitwise identical to composing
    /// [`GatherScatter::scatter_add`] and [`GatherScatter::gather`].
    pub fn direct_stiffness_sum(&self, field: &mut ElementField) {
        assert_eq!(field.len(), self.num_local_dofs(), "field size mismatch");
        let data = field.as_mut_slice();
        for g in 0..self.num_global {
            let locals = &self.csr_locals[self.csr_offsets[g]..self.csr_offsets[g + 1]];
            // Nodes with a single copy (element interiors, the vast majority)
            // are already "summed".
            if locals.len() == 1 {
                continue;
            }
            let mut sum = 0.0;
            for &l in locals {
                sum += data[l];
            }
            for &l in locals {
                data[l] = sum;
            }
        }
    }

    /// The multiplicity of every local node (how many elements share it).
    #[must_use]
    pub fn multiplicity(&self) -> &[f64] {
        &self.multiplicity
    }

    /// A field of `1 / multiplicity`, used to weight local dot products so
    /// that every unique grid point is counted exactly once (the `vmult` of
    /// Nekbone).
    #[must_use]
    pub fn inverse_multiplicity(&self) -> ElementField {
        let data = self.multiplicity.iter().map(|&m| 1.0 / m).collect();
        ElementField::from_vec(self.degree, self.num_elements, data)
    }

    /// Whether a local field is continuous (all copies of each global node
    /// agree within `tol`).
    #[must_use]
    pub fn is_continuous(&self, field: &ElementField, tol: f64) -> bool {
        let mut seen: Vec<Option<f64>> = vec![None; self.num_global];
        for (l, &g) in self.local_to_global.iter().enumerate() {
            let v = field.as_slice()[l];
            match seen[g] {
                None => seen[g] = Some(v),
                Some(prev) => {
                    if (prev - v).abs() > tol * (1.0 + prev.abs()) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshDeformation;

    fn setup(degree: usize, e: usize) -> (BoxMesh, GatherScatter) {
        let mesh = BoxMesh::unit_cube(degree, e);
        let gs = GatherScatter::from_mesh(&mesh);
        (mesh, gs)
    }

    #[test]
    fn multiplicity_partition_of_unity() {
        // Summing 1/multiplicity over local nodes counts each global node once.
        let (mesh, gs) = setup(3, 3);
        let inv = gs.inverse_multiplicity();
        let total: f64 = inv.as_slice().iter().sum();
        assert!((total - mesh.num_global_dofs() as f64).abs() < 1e-9);
    }

    #[test]
    fn dssum_of_ones_gives_multiplicity() {
        let (_, gs) = setup(2, 2);
        let mut ones = ElementField::constant(2, 8, 1.0);
        gs.direct_stiffness_sum(&mut ones);
        for (l, &v) in ones.as_slice().iter().enumerate() {
            assert!((v - gs.multiplicity()[l]).abs() < 1e-13);
        }
    }

    #[test]
    fn dssum_is_idempotent_on_continuous_fields() {
        // Applying QQ^T to Q(global) multiplies by multiplicity; but applying
        // gather(scatter_add) twice after averaging is stable.  Check the
        // stronger, correct property: gather of a global vector is continuous
        // and dssum preserves continuity.
        let (mesh, gs) = setup(3, 2);
        let global: Vec<f64> = (0..gs.num_global_dofs())
            .map(|i| (i as f64).sin())
            .collect();
        let local = gs.gather(&global);
        assert!(gs.is_continuous(&local, 1e-14));
        let mut summed = local.clone();
        gs.direct_stiffness_sum(&mut summed);
        assert!(gs.is_continuous(&summed, 1e-14));
        assert_eq!(mesh.num_local_dofs(), local.len());
    }

    #[test]
    fn scatter_then_gather_scales_by_multiplicity_on_shared_nodes() {
        let (_, gs) = setup(2, 2);
        let local = ElementField::constant(2, 8, 1.0);
        let global = gs.scatter_add(&local);
        let back = gs.gather(&global);
        for (l, &v) in back.as_slice().iter().enumerate() {
            assert!((v - gs.multiplicity()[l]).abs() < 1e-13);
        }
    }

    #[test]
    fn csr_dssum_matches_scatter_add_then_gather_bitwise() {
        for (degree, elems) in [(2, 2), (3, 3), (5, 2)] {
            let (mesh, gs) = setup(degree, elems);
            let mut field = ElementField::zeros(degree, mesh.num_elements());
            let mut state = 0x9e37_79b9_u64;
            field.fill_with(|_, _, _, _| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
            });
            let two_pass = gs.gather(&gs.scatter_add(&field));
            let mut csr = field;
            gs.direct_stiffness_sum(&mut csr);
            assert_eq!(
                csr.as_slice(),
                two_pass.as_slice(),
                "CSR sweep must be bitwise identical at degree {degree}, {elems}^3 elements"
            );
        }
    }

    #[test]
    fn continuity_detects_discontinuous_fields() {
        let (_, gs) = setup(2, 2);
        let mut field = ElementField::constant(2, 8, 1.0);
        // Perturb a single copy of a shared node (corner of element 0).
        let nx = 3;
        field.set(0, nx - 1, nx - 1, nx - 1, 5.0);
        assert!(!gs.is_continuous(&field, 1e-12));
    }

    #[test]
    fn interior_nodes_have_multiplicity_one() {
        let (mesh, gs) = setup(4, 2);
        let nx = mesh.points_per_direction();
        // A strictly interior node of element 0 (offset zero) is not shared.
        let l = 2 + nx * (2 + nx * 2);
        assert_eq!(gs.multiplicity()[l], 1.0);
    }

    #[test]
    fn corner_shared_by_eight_elements() {
        let (mesh, gs) = setup(2, 2);
        let nx = mesh.points_per_direction();
        // The last corner of element 0 is the centre of the 2x2x2 element
        // grid, shared by all 8 elements.
        let l = (nx - 1) + nx * ((nx - 1) + nx * (nx - 1));
        assert_eq!(gs.multiplicity()[l], 8.0);
    }

    #[test]
    fn works_on_deformed_meshes_too() {
        let mesh = BoxMesh::new(
            3,
            [2, 2, 2],
            [1.0; 3],
            MeshDeformation::Sinusoidal { amplitude: 0.05 },
        );
        let gs = GatherScatter::from_mesh(&mesh);
        // Node coordinates of shared nodes agree, so gathering the x
        // coordinate from a global vector reproduces the local x coordinates.
        let xs = &mesh.coordinates()[0];
        let global = gs.scatter_add(xs);
        let inv_mult = gs.inverse_multiplicity();
        let mut averaged = gs.gather(&global);
        // averaged currently holds the sum; divide by multiplicity to recover x.
        averaged.pointwise_mul(&inv_mult);
        for (a, b) in averaged.as_slice().iter().zip(xs.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
