//! Degree×ISA-specialized tensor-contraction kernels (const-generic codegen
//! plus run-time ISA dispatch).
//!
//! The paper's accelerator (Section III-B, Listing 1) owes its throughput to
//! specializing the datapath to one polynomial degree and one vector width:
//! loop trip counts, unroll factors and array partitioning are HLS
//! *compile-time* constants.  The generic CPU kernels in
//! [`crate::optimized`] and [`crate::fdm`] carry `nx` as a runtime value, so
//! LLVM can neither fully unroll the unit-stride inner dimensions nor keep
//! the differentiation rows in registers.  This module is the Rust-native
//! analogue of that HLS specialization: one monomorphized kernel family per
//! hot degree `N = 3..=15`, generated from a single const-generic
//! contraction core with `NX = N + 1` baked in — and compiled once per
//! instruction-set level ([`Isa`]: the build baseline, `avx2,fma`,
//! `avx512f`), because the workspace builds for baseline x86-64.
//!
//! Four properties are contractual:
//!
//! * **Bitwise parity.**  Every specialized kernel, at every ISA level,
//!   sums the *same* products in the *same* order as its generic
//!   counterpart (`ax_element_split`, `fdm_element_apply`, the coarse
//!   `rcontract_*` chain); only the trip counts are compile-time.  The ISA
//!   levels cannot change rounding either: rustc never contracts
//!   `a * b + c` into an FMA, and vectorising loops whose iterations are
//!   independent outputs reorders no sum.  Results are therefore bitwise
//!   identical, and the `cpu:optimized` backend and the FPGA simulator can
//!   run the specialized path without perturbing any solve.
//! * **Fixed-size, allocation-free scratch.**  Element scratch is
//!   `[f64; NX·NX·NX]`-backed (six banks, one per intermediate plane —
//!   mirroring the accelerator's BRAM banks), boxed once per thread and
//!   reused for every application.
//! * **One dispatch.**  [`DegreeDispatch::for_degree`] resolves the whole
//!   kernel family — degree and the widest ISA level the CPU reports — once
//!   at session/backend setup; out-of-range degrees get `None` and callers
//!   fall back to the generic path.  There is no option to force a level.
//! * **One `unsafe` site.**  Calling a `#[target_feature]` entry point is
//!   `unsafe`; the private `isa` submodule is the only place that does it,
//!   and it hands out a level only after `is_x86_feature_detected!`
//!   confirmed it.
//!
//! The generated kernels also export their structural constants
//! ([`KernelStructure`]): the unroll width of the unit-stride inner
//! dimension, the scratch bank count, and the initiation interval the fully
//! unrolled dot products sustain.  `fpga_sim::AcceleratorDesign` derives its
//! design parameters from these instead of hand-picked constants, so the
//! measured CPU kernel and the modeled FPGA datapath share one source of
//! truth.

#[allow(unsafe_code)]
mod isa;

pub use isa::Isa;

/// Smallest specialized degree.
pub const MIN_DEGREE: usize = 3;

/// Largest specialized degree.
pub const MAX_DEGREE: usize = 15;

/// Coarse points per direction the specialized coarse-transfer kernels are
/// generated for (`c + 1` with the degree-2 Galerkin coarse space).
pub const COARSE_POINTS: usize = 3;

/// Largest power of two dividing `n` (the arbitration-free vector width of
/// Section III-B: a power-of-two unroll that divides `N + 1` needs no BRAM
/// arbitration).
const fn largest_pow2_divisor(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        1 << n.trailing_zeros()
    }
}

/// Structural constants of one generated kernel, exported so the FPGA design
/// model consumes the *actual* codegen parameters instead of recomputing
/// them from the degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStructure {
    /// Polynomial degree `N` the kernel is specialized for.
    pub degree: usize,
    /// GLL points per direction, `NX = N + 1` (every loop trip count).
    pub points: usize,
    /// Vector width of the fully unrolled unit-stride inner dimension: the
    /// largest power of two dividing `NX`, so lanes never straddle a pencil
    /// (the paper's arbitration-free unroll rule).
    pub unroll: usize,
    /// Fixed-size scratch banks the kernel partitions its intermediates
    /// into (`ur/us/ut/shur/shus/shut` — one BRAM bank each on the
    /// accelerator).
    pub scratch_banks: usize,
    /// Initiation interval of the contraction loops: with the dot products
    /// fully unrolled there is no loop-carried dependence, so new operands
    /// issue every cycle.
    pub initiation_interval: usize,
}

impl KernelStructure {
    /// The structure of the generated kernel for `points = N + 1` grid
    /// points per direction.
    #[must_use]
    pub const fn for_points(points: usize) -> Self {
        Self {
            degree: points - 1,
            points,
            unroll: largest_pow2_divisor(points),
            scratch_banks: 6,
            initiation_interval: 1,
        }
    }
}

/// The structural constants of the generated kernel for `degree`, or `None`
/// when the degree is outside the specialized range.
#[must_use]
pub fn kernel_structure(degree: usize) -> Option<KernelStructure> {
    if (MIN_DEGREE..=MAX_DEGREE).contains(&degree) {
        Some(KernelStructure::for_points(degree + 1))
    } else {
        None
    }
}

/// Fixed-size element scratch: six `[f64; NPTS]` banks, one per intermediate
/// plane, mirroring [`crate::optimized::AxScratch`]'s six buffers (and the
/// accelerator's six BRAM banks).  Boxed once per thread.
struct SpecScratch<const NPTS: usize> {
    ur: [f64; NPTS],
    us: [f64; NPTS],
    ut: [f64; NPTS],
    shur: [f64; NPTS],
    shus: [f64; NPTS],
    shut: [f64; NPTS],
}

impl<const NPTS: usize> SpecScratch<NPTS> {
    fn boxed() -> Box<Self> {
        Box::new(Self {
            ur: [0.0; NPTS],
            us: [0.0; NPTS],
            ut: [0.0; NPTS],
            shur: [0.0; NPTS],
            shus: [0.0; NPTS],
            shut: [0.0; NPTS],
        })
    }
}

/// One element's `w = Dᵀ G D u` with `NX` as a compile-time constant.
///
/// Mirrors [`crate::optimized::ax_element_split`] operation for operation:
/// every output sums the same products in the same order, so results are
/// bitwise identical.  The r-contractions run in axpy form through
/// [`contract_x_core`]: each output row accumulates `dt[l][·]·u(l,j,k)`
/// (forward) or `d[l][·]·shur(l,j,k)` (backward) over `l` in a `[f64; NX]`
/// row — the generic kernel's dot products, reordered across outputs only,
/// so the loops vectorize.  `dt` must be exactly `dᵀ`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // one index walks nine same-length planes
fn ax_element_core<const NX: usize, const NPTS: usize>(
    u: &[f64],
    w: &mut [f64],
    g: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    debug_assert_eq!(NPTS, NX * NX * NX);
    assert_eq!(u.len(), NPTS);
    assert_eq!(w.len(), NPTS);
    assert_eq!(d.len(), NX * NX);
    assert_eq!(dt.len(), NX * NX);
    for plane in g {
        assert_eq!(plane.len(), NPTS);
    }

    // ur = D_r u, us = D_s u, ut = D_t u.
    contract_x_core::<NX>(dt, u, &mut scratch.ur);
    contract_y_core::<NX>(d, u, &mut scratch.us);
    contract_z_core::<NX>(d, u, &mut scratch.ut);

    // Multiply by the geometric factors pointwise.
    for p in 0..NPTS {
        let (ur, us, ut) = (scratch.ur[p], scratch.us[p], scratch.ut[p]);
        scratch.shur[p] = g[0][p] * ur + g[1][p] * us + g[2][p] * ut;
        scratch.shus[p] = g[1][p] * ur + g[3][p] * us + g[4][p] * ut;
        scratch.shut[p] = g[2][p] * ur + g[4][p] * us + g[5][p] * ut;
    }

    // w = D^T_r shur + D^T_s shus + D^T_t shut, accumulated in that order.
    contract_x_core::<NX>(d, &scratch.shur, w);
    add_contract_y_core::<NX>(dt, &scratch.shus, w);
    add_contract_z_core::<NX>(dt, &scratch.shut, w);
}

/// The whole-field element loop over [`ax_element_core`] (the specialized
/// mirror of [`crate::optimized::ax_optimized_slices_with`]).
#[inline(always)]
fn ax_field_core<const NX: usize, const NPTS: usize>(
    u: &[f64],
    w: &mut [f64],
    g_planes: [&[f64]; 6],
    d: &[f64],
    dt: &[f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    assert_eq!(u.len(), w.len());
    assert_eq!(u.len() % NPTS, 0);
    for plane in g_planes {
        assert_eq!(plane.len(), u.len(), "geometric plane length mismatch");
    }
    let num_elements = u.len() / NPTS;
    for e in 0..num_elements {
        let range = e * NPTS..(e + 1) * NPTS;
        let g = [
            &g_planes[0][range.clone()],
            &g_planes[1][range.clone()],
            &g_planes[2][range.clone()],
            &g_planes[3][range.clone()],
            &g_planes[4][range.clone()],
            &g_planes[5][range.clone()],
        ];
        ax_element_core::<NX, NPTS>(&u[range.clone()], &mut w[range.clone()], g, d, dt, scratch);
    }
}

/// Square x-contraction with const trip counts, in axpy form (mirrors the
/// generic FDM x-contraction in [`crate::fdm`]): each output row
/// accumulates `mt[l][·] · u(l,j,k)` over `l` in a `[f64; NX]` register
/// row, reading the transpose `mt = mᵀ`, so the inner loop is unit-stride
/// over `i` and the summation order is that of [`crate::fdm::rcontract_x`].
#[inline(always)]
fn contract_x_core<const NX: usize>(mt: &[f64], u: &[f64], out: &mut [f64]) {
    for (urow, orow) in u[..NX * NX * NX]
        .chunks_exact(NX)
        .zip(out[..NX * NX * NX].chunks_exact_mut(NX))
    {
        let mut row = [0.0_f64; NX];
        for (&ul, mrow) in urow.iter().zip(mt[..NX * NX].chunks_exact(NX)) {
            for (o, &mv) in row.iter_mut().zip(mrow) {
                *o += mv * ul;
            }
        }
        orow.copy_from_slice(&row);
    }
}

/// Square y-contraction with const trip counts (mirrors
/// [`crate::fdm::rcontract_y`]).
#[inline(always)]
fn contract_y_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    out[..NX * NX * NX].fill(0.0);
    add_contract_y_core::<NX>(m, u, out);
}

/// `out += (I ⊗ m ⊗ I) u`: the y-contraction accumulated onto `out`.  Each
/// output row `(·,j,k)` is held in a `[f64; NX]` register row while it
/// accumulates `m[j][l] · u(·,l,k)` over `l` in order — the summation order
/// of [`crate::fdm::rcontract_y`] — and the slices are walked in exact
/// chunks, so the loops carry no bounds checks.
#[inline(always)]
fn add_contract_y_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    for (uplane, oplane) in u[..NX * NX * NX]
        .chunks_exact(NX * NX)
        .zip(out[..NX * NX * NX].chunks_exact_mut(NX * NX))
    {
        for (orow, mrow) in oplane
            .chunks_exact_mut(NX)
            .zip(m[..NX * NX].chunks_exact(NX))
        {
            let mut row = [0.0_f64; NX];
            row.copy_from_slice(orow);
            for (&mv, urow) in mrow.iter().zip(uplane.chunks_exact(NX)) {
                for (o, &uv) in row.iter_mut().zip(urow) {
                    *o += mv * uv;
                }
            }
            orow.copy_from_slice(&row);
        }
    }
}

/// Square z-contraction with const trip counts (mirrors
/// [`crate::fdm::rcontract_z`]).
#[inline(always)]
fn contract_z_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    out[..NX * NX * NX].fill(0.0);
    add_contract_z_core::<NX>(m, u, out);
}

/// `out += (m ⊗ I ⊗ I) u`: the z-contraction accumulated onto `out`, each
/// output plane `(·,·,k)` summing `m[k][l] · u(·,·,l)` over `l` in order.
#[inline(always)]
fn add_contract_z_core<const NX: usize>(m: &[f64], u: &[f64], out: &mut [f64]) {
    for (oplane, mrow) in out[..NX * NX * NX]
        .chunks_exact_mut(NX * NX)
        .zip(m[..NX * NX].chunks_exact(NX))
    {
        for (&mv, uplane) in mrow.iter().zip(u[..NX * NX * NX].chunks_exact(NX * NX)) {
            for (o, &uv) in oplane.iter_mut().zip(uplane) {
                *o += mv * uv;
            }
        }
    }
}

/// One element's fast-diagonalization solve with const trip counts (mirrors
/// [`crate::fdm::fdm_element_apply`]: three forward contractions, the modal
/// scale, three back).
#[inline(always)]
fn fdm_element_core<const NX: usize, const NPTS: usize>(
    s: [&[f64]; 3],
    st: [&[f64]; 3],
    inv: &[f64],
    r: &[f64],
    z: &mut [f64],
    scratch: &mut SpecScratch<NPTS>,
) {
    debug_assert_eq!(NPTS, NX * NX * NX);
    assert_eq!(r.len(), NPTS);
    assert_eq!(z.len(), NPTS);
    assert_eq!(inv.len(), NPTS);
    let SpecScratch { ur: t1, us: t2, .. } = scratch;

    // The axpy-form x-contractions read the transpose of their factor.
    contract_x_core::<NX>(s[0], r, t1);
    contract_y_core::<NX>(st[1], t1, t2);
    contract_z_core::<NX>(st[2], t2, t1);
    for (c, &w) in t1.iter_mut().zip(inv) {
        *c *= w;
    }
    contract_x_core::<NX>(st[0], t1, t2);
    contract_y_core::<NX>(s[1], t2, t1);
    contract_z_core::<NX>(s[2], t1, z);
}

/// Rectangular x-contraction with const row/column counts (the coarse
/// transfer's mirror of [`crate::fdm::rcontract_x`]); `planes = d2·d3`.
#[inline(always)]
fn rc_x_core<const ROWS: usize, const COLS: usize>(
    m: &[f64],
    u: &[f64],
    out: &mut [f64],
    planes: usize,
) {
    for p in 0..planes {
        let urow = &u[p * COLS..(p + 1) * COLS];
        let orow = &mut out[p * ROWS..(p + 1) * ROWS];
        for (i, o) in orow.iter_mut().enumerate() {
            let mrow = &m[i * COLS..(i + 1) * COLS];
            let mut acc = 0.0;
            for l in 0..COLS {
                acc += mrow[l] * urow[l];
            }
            *o = acc;
        }
    }
}

/// Rectangular y-contraction with const row/column counts (mirror of
/// [`crate::fdm::rcontract_y`]).
#[inline(always)]
fn rc_y_core<const ROWS: usize, const COLS: usize>(
    m: &[f64],
    u: &[f64],
    out: &mut [f64],
    d1: usize,
    d3: usize,
) {
    out[..d1 * ROWS * d3].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..d3 {
        for j in 0..ROWS {
            let mrow = &m[j * COLS..(j + 1) * COLS];
            let dst = (j + k * ROWS) * d1;
            for (l, &mv) in mrow.iter().enumerate() {
                let src = (l + k * COLS) * d1;
                for i in 0..d1 {
                    out[dst + i] += mv * u[src + i];
                }
            }
        }
    }
}

/// Rectangular z-contraction with const row/column counts (mirror of
/// [`crate::fdm::rcontract_z`]).
#[inline(always)]
fn rc_z_core<const ROWS: usize, const COLS: usize>(
    m: &[f64],
    u: &[f64],
    out: &mut [f64],
    d1: usize,
    d2: usize,
) {
    let plane = d1 * d2;
    out[..plane * ROWS].iter_mut().for_each(|v| *v = 0.0);
    for k in 0..ROWS {
        let mrow = &m[k * COLS..(k + 1) * COLS];
        let dst = k * plane;
        for (l, &mv) in mrow.iter().enumerate() {
            let src = l * plane;
            for p in 0..plane {
                out[dst + p] += mv * u[src + p];
            }
        }
    }
}

/// Coarse restriction `t1[..CNX³] = Jᵀ⊗Jᵀ⊗Jᵀ fine` with const trip counts
/// (mirrors `CoarseCorrection::restrict_local` in `sem-solver`).
#[inline(always)]
fn restrict_core<const NX: usize, const CNX: usize>(
    jt: &[f64],
    fine: &[f64],
    t1: &mut [f64],
    t2: &mut [f64],
) {
    rc_x_core::<CNX, NX>(jt, fine, t1, NX * NX);
    rc_y_core::<CNX, NX>(jt, t1, t2, CNX, NX);
    rc_z_core::<CNX, NX>(jt, t2, t1, CNX, CNX);
}

/// Coarse prolongation `t2[..NX³] = J⊗J⊗J t1[..CNX³]` with const trip
/// counts (`t1` is clobbered; mirrors `CoarseCorrection::prolong_local`).
#[inline(always)]
fn prolong_core<const NX: usize, const CNX: usize>(j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
    rc_x_core::<NX, CNX>(j, &t1[..CNX * CNX * CNX], t2, CNX * CNX);
    rc_y_core::<NX, CNX>(j, t2, t1, NX, CNX);
    rc_z_core::<NX, CNX>(j, t1, t2, NX, NX);
}

type AxAllFn = fn(&[f64], &mut [f64], [&[f64]; 6], &[f64], &[f64]);
type FdmFn = fn([&[f64]; 3], [&[f64]; 3], &[f64], &[f64], &mut [f64]);
type RestrictFn = fn(&[f64], &[f64], &mut [f64], &mut [f64]);
type ProlongFn = fn(&[f64], &mut [f64], &mut [f64]);

/// The kernel family of one specialized degree at one ISA level, resolved
/// once at session or backend setup and shared by `Ax`, the FDM fine pass,
/// and the degree-2 coarse transfer.
///
/// Only the private `isa` submodule builds values of this type, so the
/// function pointers of an ISA level can only come from a host that
/// supports it.
#[derive(Debug, Clone, Copy)]
pub struct DegreeDispatch {
    structure: KernelStructure,
    isa: Isa,
    ax_all: AxAllFn,
    fdm_one: FdmFn,
    restrict3: RestrictFn,
    prolong3: ProlongFn,
}

impl DegreeDispatch {
    /// Resolve the specialized kernel family for `degree` at the best ISA
    /// level this host supports ([`Isa::detected`]), or `None` when the
    /// degree is outside `MIN_DEGREE..=MAX_DEGREE` (callers fall back to the
    /// generic kernels).
    #[must_use]
    pub fn for_degree(degree: usize) -> Option<Self> {
        isa::dispatch(degree, Isa::detected())
    }

    /// [`Self::for_degree`] at a chosen ISA level; `None` also when this
    /// host lacks the level.  Crate-private: the parity tests reach every
    /// level through it, and production always takes the detected one.
    #[cfg(test)]
    pub(crate) fn for_degree_at(degree: usize, level: Isa) -> Option<Self> {
        isa::dispatch(degree, level)
    }

    /// Whether a specialized kernel family exists for `degree`.
    #[must_use]
    pub fn covers(degree: usize) -> bool {
        (MIN_DEGREE..=MAX_DEGREE).contains(&degree)
    }

    /// The structural constants of this kernel family.
    #[must_use]
    pub fn structure(&self) -> KernelStructure {
        self.structure
    }

    /// The instruction-set level the family's kernels were compiled for.
    #[must_use]
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Polynomial degree the family is specialized for.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.structure.degree
    }

    /// Grid points per direction, `N + 1`.
    #[must_use]
    pub fn points(&self) -> usize {
        self.structure.points
    }

    /// Apply `w = Dᵀ G D u` over every element of a field (the specialized
    /// mirror of [`crate::optimized::ax_optimized_slices`]; bitwise
    /// identical results when `dt` is exactly `dᵀ`, as
    /// `sem_basis::DerivativeMatrix` provides).
    ///
    /// # Panics
    /// Panics if the field length is not a multiple of `(N+1)³` or any
    /// plane slice mismatches.
    pub fn ax_apply_all(
        &self,
        u: &[f64],
        w: &mut [f64],
        g_planes: [&[f64]; 6],
        d: &[f64],
        dt: &[f64],
    ) {
        (self.ax_all)(u, w, g_planes, d, dt);
    }

    /// One element's fast-diagonalization solve (the specialized mirror of
    /// [`crate::fdm::fdm_element_apply`]; bitwise identical results).
    ///
    /// # Panics
    /// Panics if `r`, `z` or `inv` are not `(N+1)³` long.
    pub fn fdm_element_apply(
        &self,
        s: [&[f64]; 3],
        st: [&[f64]; 3],
        inv: &[f64],
        r: &[f64],
        z: &mut [f64],
    ) {
        (self.fdm_one)(s, st, inv, r, z);
    }

    /// Coarse restriction `t1[..27] = Jᵀ⊗Jᵀ⊗Jᵀ fine` for the degree-2
    /// coarse space ([`COARSE_POINTS`] nodes per direction); `t2` is the
    /// ping-pong buffer.
    pub fn coarse_restrict(&self, jt: &[f64], fine: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        (self.restrict3)(jt, fine, t1, t2);
    }

    /// Coarse prolongation `t2[..(N+1)³] = J⊗J⊗J t1[..27]` for the degree-2
    /// coarse space (`t1` is clobbered; the result lands in `t2`).
    pub fn coarse_prolong(&self, j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        (self.prolong3)(j, t1, t2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdm::{fdm_element_apply, rcontract_x, rcontract_y, rcontract_z, FdmScratch};
    use crate::optimized::{ax_optimized_slices_with, AxScratch};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sem_mesh::{BoxMesh, GeometricFactors, MeshDeformation};

    fn random_field(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn structure_exports_the_codegen_constants() {
        let s7 = kernel_structure(7).unwrap();
        assert_eq!(s7.points, 8);
        assert_eq!(s7.unroll, 8, "N+1 = 8 is itself a power of two");
        assert_eq!(s7.scratch_banks, 6);
        assert_eq!(s7.initiation_interval, 1);
        let s9 = kernel_structure(9).unwrap();
        assert_eq!(s9.unroll, 2, "N+1 = 10: only 2 divides it");
        let s11 = kernel_structure(11).unwrap();
        assert_eq!(s11.unroll, 4, "N+1 = 12: 4 divides it, 8 does not");
        assert_eq!(kernel_structure(2), None);
        assert_eq!(kernel_structure(16), None);
    }

    /// The ISA levels this host supports, reporting the ones it lacks (their
    /// parity is then unchecked here, not passed).
    fn supported_levels() -> Vec<Isa> {
        let (supported, missing): (Vec<Isa>, Vec<Isa>) =
            Isa::ALL.into_iter().partition(|level| level.is_supported());
        for level in missing {
            println!("skipping ISA level {}: this host lacks it", level.name());
        }
        supported
    }

    #[test]
    fn dispatch_resolves_exactly_the_specialized_range() {
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let d = DegreeDispatch::for_degree(degree).unwrap();
            assert_eq!(d.degree(), degree);
            assert_eq!(d.points(), degree + 1);
            assert_eq!(d.isa(), Isa::detected());
            assert!(DegreeDispatch::covers(degree));
        }
        assert!(DegreeDispatch::for_degree(2).is_none());
        assert!(DegreeDispatch::for_degree(16).is_none());
    }

    #[test]
    fn detection_picks_the_widest_supported_level() {
        let detected = Isa::detected();
        assert!(detected.is_supported());
        assert!(Isa::Baseline.is_supported());
        for level in Isa::ALL {
            assert_eq!(
                DegreeDispatch::for_degree_at(7, level).map(|d| d.isa()),
                level.is_supported().then_some(level),
                "{}",
                level.name()
            );
            if level > detected {
                assert!(!level.is_supported(), "{} is wider", level.name());
            }
        }
    }

    #[test]
    fn every_level_and_degree_of_ax_is_bitwise_identical_to_the_generic_kernel() {
        let levels = supported_levels();
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let mesh = BoxMesh::new(
                degree,
                [2, 1, 1],
                [1.0, 1.0, 1.0],
                MeshDeformation::Sinusoidal { amplitude: 0.04 },
            );
            let geo = GeometricFactors::from_mesh(&mesh);
            let dm = sem_basis::DerivativeMatrix::new(degree);
            let planes = geo.split();
            let g = [
                planes[0].as_slice(),
                planes[1].as_slice(),
                planes[2].as_slice(),
                planes[3].as_slice(),
                planes[4].as_slice(),
                planes[5].as_slice(),
            ];
            let u = random_field(mesh.num_local_dofs(), degree as u64);
            let mut w_gen = vec![0.0; u.len()];
            let mut scratch = AxScratch::default();
            ax_optimized_slices_with(&u, &mut w_gen, g, &dm, &mut scratch);
            for &level in &levels {
                let mut w_spec = vec![f64::NAN; u.len()];
                let dispatch = DegreeDispatch::for_degree_at(degree, level).unwrap();
                dispatch.ax_apply_all(&u, &mut w_spec, g, dm.d().as_slice(), dm.dt().as_slice());
                assert_eq!(w_gen, w_spec, "degree {degree}, {}", level.name());
            }
        }
    }

    #[test]
    fn every_level_and_degree_of_fdm_is_bitwise_identical_to_the_generic_kernel() {
        let levels = supported_levels();
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let nx = degree + 1;
            let npts = nx * nx * nx;
            let sx = random_field(nx * nx, 1);
            let sy = random_field(nx * nx, 2);
            let sz = random_field(nx * nx, 3);
            // The kernels' contract: `st` is exactly `sᵀ` (the axpy-form
            // x-contractions read one in place of the other).
            let transpose = |m: &[f64]| -> Vec<f64> {
                (0..nx * nx).map(|p| m[(p % nx) * nx + p / nx]).collect()
            };
            let (stx, sty, stz) = (transpose(&sx), transpose(&sy), transpose(&sz));
            let inv = random_field(npts, 7);
            let r = random_field(npts, 8);
            let mut z_gen = vec![0.0; npts];
            let mut scratch = FdmScratch::default();
            fdm_element_apply(
                [&sx, &sy, &sz],
                [&stx, &sty, &stz],
                &inv,
                &r,
                &mut z_gen,
                nx,
                &mut scratch,
            );
            for &level in &levels {
                let mut z_spec = vec![f64::NAN; npts];
                let dispatch = DegreeDispatch::for_degree_at(degree, level).unwrap();
                dispatch.fdm_element_apply(
                    [&sx, &sy, &sz],
                    [&stx, &sty, &stz],
                    &inv,
                    &r,
                    &mut z_spec,
                );
                assert_eq!(z_gen, z_spec, "degree {degree}, {}", level.name());
            }
        }
    }

    #[test]
    fn every_level_and_degree_of_the_coarse_transfer_matches_the_generic_contractions() {
        let levels = supported_levels();
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let nx = degree + 1;
            let cnx = COARSE_POINTS;
            let npts = nx * nx * nx;
            let j = random_field(nx * cnx, 21);
            let jt: Vec<f64> = {
                // row-major transpose of the nx × cnx matrix
                let mut t = vec![0.0; cnx * nx];
                for r in 0..nx {
                    for c in 0..cnx {
                        t[c * nx + r] = j[r * cnx + c];
                    }
                }
                t
            };
            let fine = random_field(npts, 22);

            // Restriction.
            let (mut t1g, mut t2g) = (vec![0.0; npts], vec![0.0; npts]);
            rcontract_x(&jt, cnx, nx, &fine, &mut t1g, nx, nx);
            rcontract_y(&jt, cnx, nx, &t1g.clone(), &mut t2g, cnx, nx);
            let t2snap = t2g.clone();
            rcontract_z(&jt, cnx, nx, &t2snap, &mut t1g, cnx, cnx);
            let coarse = t1g[..cnx * cnx * cnx].to_vec();

            // Prolongation of the restricted coefficients.
            let (mut p1g, mut p2g) = (vec![0.0; npts], vec![0.0; npts]);
            rcontract_x(&j, nx, cnx, &coarse, &mut p2g, cnx, cnx);
            let p2snap = p2g.clone();
            rcontract_y(&j, nx, cnx, &p2snap, &mut p1g, nx, cnx);
            let p1snap = p1g.clone();
            rcontract_z(&j, nx, cnx, &p1snap, &mut p2g, nx, nx);

            for &level in &levels {
                let dispatch = DegreeDispatch::for_degree_at(degree, level).unwrap();
                let (mut t1s, mut t2s) = (vec![f64::NAN; npts], vec![f64::NAN; npts]);
                dispatch.coarse_restrict(&jt, &fine, &mut t1s, &mut t2s);
                assert_eq!(
                    coarse,
                    t1s[..cnx * cnx * cnx],
                    "restrict, degree {degree}, {}",
                    level.name()
                );

                let (mut p1s, mut p2s) = (vec![f64::NAN; npts], vec![f64::NAN; npts]);
                p1s[..coarse.len()].copy_from_slice(&coarse);
                dispatch.coarse_prolong(&j, &mut p1s, &mut p2s);
                assert_eq!(p2g, p2s, "prolong, degree {degree}, {}", level.name());
            }
        }
    }
}
