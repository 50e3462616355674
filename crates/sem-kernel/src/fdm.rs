//! The fast-diagonalization (FDM) tensor-contraction pass.
//!
//! The element-local FDM preconditioner applies `z = S (Λ-sum)⁻¹ Sᵀ r` per
//! element: three small dense contractions forward (`Sᵀ` along x, y, z), a
//! pointwise scale by the precomputed inverse eigenvalue sums, and three
//! contractions back (`S`).  The loops mirror [`crate::optimized`]'s
//! split-layout `Ax` structure — unit-stride inner loops over the fastest
//! index — so the same datapath shape serves both kernels on the CPU and on
//! the simulated accelerator (`fpga-sim` prices this pass with the same
//! cycle model family).

/// Scratch buffers for one element's FDM apply, reused across elements.
#[derive(Debug, Default, Clone)]
pub struct FdmScratch {
    t1: Vec<f64>,
    t2: Vec<f64>,
}

impl FdmScratch {
    /// Create scratch sized for `nx = N + 1` points per direction.
    #[must_use]
    pub fn new(nx: usize) -> Self {
        let npts = nx * nx * nx;
        Self {
            t1: vec![0.0; npts],
            t2: vec![0.0; npts],
        }
    }

    /// Grow-only resize: shrinking to a smaller patch reuses the existing
    /// allocations (the apply only touches the first `nx³` entries), so
    /// mixed-degree batches stay allocation-free after the first element of
    /// the largest size.
    fn ensure(&mut self, nx: usize) {
        let npts = nx * nx * nx;
        if self.t1.len() < npts {
            self.t1.resize(npts, 0.0);
            self.t2.resize(npts, 0.0);
        }
    }
}

/// `out(i,j,k) = Σ_l m[i][l] u(l,j,k)` — rectangular contraction over the
/// fastest index: `m` is `rows × cols` row-major, `u` has shape
/// `(cols, d2, d3)`, `out` has shape `(rows, d2, d3)`.
pub fn rcontract_x(
    m: &[f64],
    rows: usize,
    cols: usize,
    u: &[f64],
    out: &mut [f64],
    d2: usize,
    d3: usize,
) {
    for p in 0..d2 * d3 {
        let urow = &u[p * cols..(p + 1) * cols];
        let orow = &mut out[p * rows..(p + 1) * rows];
        for (i, o) in orow.iter_mut().enumerate() {
            let mrow = &m[i * cols..(i + 1) * cols];
            let mut acc = 0.0;
            for l in 0..cols {
                acc += mrow[l] * urow[l];
            }
            *o = acc;
        }
    }
}

/// `out(i,j,k) = Σ_l m[j][l] u(i,l,k)` — rectangular contraction over the
/// middle index: `u` has shape `(d1, cols, d3)`, `out` `(d1, rows, d3)`.
pub fn rcontract_y(
    m: &[f64],
    rows: usize,
    cols: usize,
    u: &[f64],
    out: &mut [f64],
    d1: usize,
    d3: usize,
) {
    out[..d1 * rows * d3].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..d3 {
        for j in 0..rows {
            let mrow = &m[j * cols..(j + 1) * cols];
            let dst = (j + k * rows) * d1;
            for (l, &mv) in mrow.iter().enumerate() {
                let src = (l + k * cols) * d1;
                for i in 0..d1 {
                    out[dst + i] += mv * u[src + i];
                }
            }
        }
    }
}

/// `out(i,j,k) = Σ_l m[k][l] u(i,j,l)` — rectangular contraction over the
/// slowest index: `u` has shape `(d1, d2, cols)`, `out` `(d1, d2, rows)`.
pub fn rcontract_z(
    m: &[f64],
    rows: usize,
    cols: usize,
    u: &[f64],
    out: &mut [f64],
    d1: usize,
    d2: usize,
) {
    let plane = d1 * d2;
    out[..plane * rows].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..rows {
        let mrow = &m[k * cols..(k + 1) * cols];
        let dst = k * plane;
        for (l, &mv) in mrow.iter().enumerate() {
            let src = l * plane;
            for p in 0..plane {
                out[dst + p] += mv * u[src + p];
            }
        }
    }
}

/// Square x-contraction `out(i,j,k) = Σ_l m[i][l] u(l,j,k)` in axpy form:
/// each output row accumulates `mt[l][·] · u(l,j,k)` over `l`, reading the
/// transpose `mt = mᵀ` so the inner loop runs unit-stride over `i` and
/// vectorizes.  The per-entry summation order over `l` is that of
/// [`rcontract_x`], so the result is bitwise identical to it.
fn contract_x(mt: &[f64], u: &[f64], out: &mut [f64], nx: usize) {
    for (urow, orow) in u.chunks_exact(nx).zip(out.chunks_exact_mut(nx)) {
        orow.fill(0.0);
        for (&ul, mrow) in urow.iter().zip(mt.chunks_exact(nx)) {
            for (o, &mv) in orow.iter_mut().zip(mrow) {
                *o += mv * ul;
            }
        }
    }
}

/// Square y-contraction (the FDM apply's special case of [`rcontract_y`]).
fn contract_y(m: &[f64], u: &[f64], out: &mut [f64], nx: usize) {
    rcontract_y(m, nx, nx, u, out, nx, nx);
}

/// Square z-contraction (the FDM apply's special case of [`rcontract_z`]).
fn contract_z(m: &[f64], u: &[f64], out: &mut [f64], nx: usize) {
    rcontract_z(m, nx, nx, u, out, nx, nx);
}

/// Apply the element-local fast-diagonalization solve to one element:
/// `z = (Sz ⊗ Sy ⊗ Sx) diag(inv) (Szᵀ ⊗ Syᵀ ⊗ Sxᵀ) r`.
///
/// * `s = [sx, sy, sz]`, `st = [sxᵀ, syᵀ, szᵀ]` — per-direction eigenvector
///   matrices and their exact transposes (the x-contractions read `sx` for
///   `sxᵀ` and vice versa), row-major `(N+1)²` each;
/// * `inv` — the `(N+1)³` inverse eigenvalue sums `1 / (λˣᵢ + λʸⱼ + λᶻₖ)`
///   (zero entries drop the corresponding modes — removed Dirichlet nodes
///   and the Neumann constant mode);
/// * `r`, `z` — one element's nodal values.
///
/// # Panics
/// Debug-asserts that the field and matrix extents match `nx`.
#[allow(clippy::similar_names)]
pub fn fdm_element_apply(
    s: [&[f64]; 3],
    st: [&[f64]; 3],
    inv: &[f64],
    r: &[f64],
    z: &mut [f64],
    nx: usize,
    scratch: &mut FdmScratch,
) {
    let npts = nx * nx * nx;
    debug_assert_eq!(r.len(), npts);
    debug_assert_eq!(z.len(), npts);
    debug_assert_eq!(inv.len(), npts);
    scratch.ensure(nx);
    // Slice to the active patch size: the scratch may be larger when a
    // previous patch had a higher degree (grow-only `ensure`).
    let t1 = &mut scratch.t1[..npts];
    let t2 = &mut scratch.t2[..npts];

    // Forward: modal coefficients c = (Szᵀ ⊗ Syᵀ ⊗ Sxᵀ) r.  The axpy-form
    // x-contraction reads the transpose of its factor, so `Sxᵀ` comes in as
    // `Sx` (and `Sx` as `Sxᵀ` on the way back).
    contract_x(s[0], r, t1, nx);
    contract_y(st[1], t1, t2, nx);
    contract_z(st[2], t2, t1, nx);
    // Diagonal solve in modal space.
    for (c, &w) in t1.iter_mut().zip(inv) {
        *c *= w;
    }
    // Back: z = (Sz ⊗ Sy ⊗ Sx) c.
    contract_x(st[0], t1, t2, nx);
    contract_y(s[1], t2, t1, nx);
    contract_z(s[2], t1, z, nx);
}

thread_local! {
    /// Per-thread FDM scratch reused across applications, so repeated
    /// preconditioner applications (every CG iteration) perform no heap
    /// allocation after the first call on a thread.
    static FDM_SCRATCH: std::cell::RefCell<FdmScratch> =
        std::cell::RefCell::new(FdmScratch::default());
}

/// [`fdm_element_apply`] with a per-thread scratch (sized on first use), the
/// entry point callers without their own scratch use.
pub fn fdm_element_apply_cached(
    s: [&[f64]; 3],
    st: [&[f64]; 3],
    inv: &[f64],
    r: &[f64],
    z: &mut [f64],
    nx: usize,
) {
    FDM_SCRATCH.with(|scratch| {
        fdm_element_apply(s, st, inv, r, z, nx, &mut scratch.borrow_mut());
    });
}

/// Patch points per direction of the FDM pass at `degree`: the patch is
/// the element closure, so this is `N + 1`.
#[must_use]
pub fn fdm_patch_points(degree: usize) -> usize {
    degree + 1
}

/// Floating-point operations of one element's FDM apply: six patch-sized
/// contractions at a multiply-add each, plus the modal scale.
#[must_use]
pub fn fdm_flops_per_element(degree: usize) -> u64 {
    let pnx = fdm_patch_points(degree) as u64;
    6 * 2 * pnx * pnx * pnx * pnx + pnx * pnx * pnx
}

/// External-memory bytes per degree of freedom of the FDM pass: the residual
/// streams in and the correction streams out; the `S` matrices and inverse
/// eigenvalue tables stay resident on chip (see `fpga-sim`'s BRAM model).
#[must_use]
pub fn fdm_bytes_per_dof() -> u64 {
    2 * std::mem::size_of::<f64>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_basis::DenseMatrix;

    /// Dense reference: (Mz ⊗ My ⊗ Mx) u.
    fn kron3_apply(mx: &DenseMatrix, my: &DenseMatrix, mz: &DenseMatrix, u: &[f64]) -> Vec<f64> {
        let n = mx.rows();
        let mut out = vec![0.0; n * n * n];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..n {
                        for jj in 0..n {
                            for ii in 0..n {
                                acc += mz[(k, kk)]
                                    * my[(j, jj)]
                                    * mx[(i, ii)]
                                    * u[ii + n * (jj + n * kk)];
                            }
                        }
                    }
                    out[i + n * (j + n * k)] = acc;
                }
            }
        }
        out
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (((i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed)) % 1000) as f64 / 500.0
                    - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_the_dense_kronecker_reference() {
        for nx in [2_usize, 4, 8] {
            let mk = |seed: u64| {
                DenseMatrix::from_fn(nx, nx, |i, j| {
                    ((i * 13 + j * 7 + seed as usize) as f64 * 0.41).sin()
                })
            };
            let (mx, my, mz) = (mk(1), mk(2), mk(3));
            let inv = pseudo_random(nx * nx * nx, 9);
            let r = pseudo_random(nx * nx * nx, 4);

            // Reference: forward with the transposes, scale, back.
            let fwd = kron3_apply(&mx.transpose(), &my.transpose(), &mz.transpose(), &r);
            let scaled: Vec<f64> = fwd.iter().zip(&inv).map(|(a, b)| a * b).collect();
            let expect = kron3_apply(&mx, &my, &mz, &scaled);

            let mut z = vec![0.0; nx * nx * nx];
            let mut scratch = FdmScratch::default();
            let (sx, sy, sz) = (mx.as_slice(), my.as_slice(), mz.as_slice());
            let (stx, sty, stz) = (mx.transpose(), my.transpose(), mz.transpose());
            fdm_element_apply(
                [sx, sy, sz],
                [stx.as_slice(), sty.as_slice(), stz.as_slice()],
                &inv,
                &r,
                &mut z,
                nx,
                &mut scratch,
            );
            for (a, b) in z.iter().zip(&expect) {
                assert!(
                    (a - b).abs() < 1e-11 * (1.0 + b.abs()),
                    "nx {nx}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn identity_factors_with_unit_weights_are_a_no_op() {
        let nx = 5;
        let id = DenseMatrix::identity(nx);
        let inv = vec![1.0; nx * nx * nx];
        let r = pseudo_random(nx * nx * nx, 77);
        let mut z = vec![0.0; nx * nx * nx];
        let i = id.as_slice();
        fdm_element_apply_cached([i, i, i], [i, i, i], &inv, &r, &mut z, nx);
        for (a, b) in z.iter().zip(&r) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn scratch_resizes_across_degrees() {
        let mut scratch = FdmScratch::new(3);
        let nx = 6;
        let id = DenseMatrix::identity(nx);
        let inv = vec![2.0; nx * nx * nx];
        let r = pseudo_random(nx * nx * nx, 5);
        let mut z = vec![0.0; nx * nx * nx];
        let i = id.as_slice();
        fdm_element_apply([i, i, i], [i, i, i], &inv, &r, &mut z, nx, &mut scratch);
        for (a, b) in z.iter().zip(&r) {
            assert!((a - 2.0 * b).abs() < 1e-14);
        }
    }

    #[test]
    fn ensure_reuses_the_allocation_when_shrinking() {
        let mut scratch = FdmScratch::new(9);
        let ptr = scratch.t1.as_ptr();
        let cap = scratch.t1.capacity();
        scratch.ensure(4);
        assert_eq!(scratch.t1.as_ptr(), ptr, "shrinking must not reallocate");
        assert_eq!(scratch.t1.capacity(), cap);
        scratch.ensure(9);
        assert_eq!(scratch.t1.as_ptr(), ptr);
    }

    #[test]
    fn flop_accounting_is_consistent() {
        let pnx = fdm_patch_points(7) as u64;
        assert_eq!(
            fdm_flops_per_element(7),
            12 * pnx * pnx * pnx * pnx + pnx * pnx * pnx
        );
        assert_eq!(fdm_bytes_per_dof(), 16);
    }
}
