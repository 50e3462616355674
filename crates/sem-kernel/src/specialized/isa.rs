//! Run-time ISA selection for the specialized kernels — the only code in
//! `sem-kernel` that uses `unsafe`.
//!
//! Every kernel family is compiled once per instruction-set level: the
//! build's baseline, `avx2,fma`, and `avx512f`.  A level is a set of
//! `#[target_feature]` entry points whose bodies are the `#[inline(always)]`
//! const-generic cores of the parent module, so the cores are code-generated
//! inside each entry point with that level's vector width.  Calling such an
//! entry point is `unsafe` because running it on a CPU without the features
//! is undefined behaviour; [`dispatch`] is the guard.  It builds a
//! [`DegreeDispatch`] for a level only after [`Isa::is_supported`] — the
//! `std::is_x86_feature_detected!` check — has passed, and nothing outside
//! this module can name a level's entry points.
//!
//! Every level is bitwise identical to the generic kernels: rustc never
//! contracts `a * b + c` into an FMA, so enabling `fma` cannot change
//! rounding, and vectorising the non-reduction loops of the cores does not
//! reorder any sum.

use super::{
    ax_field_core, fdm_element_core, prolong_core, restrict_core, DegreeDispatch, KernelStructure,
    SpecScratch, COARSE_POINTS,
};

/// An instruction-set level the specialized kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The build's baseline target (SSE2 on x86-64).
    Baseline,
    /// AVX2 with FMA: 256-bit vectors.
    Avx2Fma,
    /// AVX-512F: 512-bit vectors.
    Avx512f,
}

impl Isa {
    /// Every level, from the narrowest to the widest.
    pub(crate) const ALL: [Self; 3] = [Self::Baseline, Self::Avx2Fma, Self::Avx512f];

    /// Stable short name, as recorded in bench artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Avx2Fma => "avx2+fma",
            Self::Avx512f => "avx512f",
        }
    }

    /// Whether the running CPU supports this level.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            Self::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => {
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512f => std::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx2Fma | Self::Avx512f => false,
        }
    }

    /// The widest level the running CPU supports.
    pub(crate) fn detected() -> Self {
        Self::ALL
            .into_iter()
            .rev()
            .find(|level| level.is_supported())
            .unwrap_or(Self::Baseline)
    }
}

/// The four kernel entry points of one ISA level, generic over the degree.
trait Level {
    const ISA: Isa;

    fn ax_all<const NX: usize, const NPTS: usize>(
        u: &[f64],
        w: &mut [f64],
        g: [&[f64]; 6],
        d: &[f64],
        dt: &[f64],
        scratch: &mut SpecScratch<NPTS>,
    );

    fn fdm_one<const NX: usize, const NPTS: usize>(
        s: [&[f64]; 3],
        st: [&[f64]; 3],
        inv: &[f64],
        r: &[f64],
        z: &mut [f64],
        scratch: &mut SpecScratch<NPTS>,
    );

    fn restrict3<const NX: usize, const CNX: usize>(
        jt: &[f64],
        fine: &[f64],
        t1: &mut [f64],
        t2: &mut [f64],
    );

    fn prolong3<const NX: usize, const CNX: usize>(j: &[f64], t1: &mut [f64], t2: &mut [f64]);
}

/// The baseline level: the cores compiled for the build target.
struct Baseline;

impl Level for Baseline {
    const ISA: Isa = Isa::Baseline;

    fn ax_all<const NX: usize, const NPTS: usize>(
        u: &[f64],
        w: &mut [f64],
        g: [&[f64]; 6],
        d: &[f64],
        dt: &[f64],
        scratch: &mut SpecScratch<NPTS>,
    ) {
        ax_field_core::<NX, NPTS>(u, w, g, d, dt, scratch);
    }

    fn fdm_one<const NX: usize, const NPTS: usize>(
        s: [&[f64]; 3],
        st: [&[f64]; 3],
        inv: &[f64],
        r: &[f64],
        z: &mut [f64],
        scratch: &mut SpecScratch<NPTS>,
    ) {
        fdm_element_core::<NX, NPTS>(s, st, inv, r, z, scratch);
    }

    fn restrict3<const NX: usize, const CNX: usize>(
        jt: &[f64],
        fine: &[f64],
        t1: &mut [f64],
        t2: &mut [f64],
    ) {
        restrict_core::<NX, CNX>(jt, fine, t1, t2);
    }

    fn prolong3<const NX: usize, const CNX: usize>(j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
        prolong_core::<NX, CNX>(j, t1, t2);
    }
}

/// An x86-64 level: each kernel is a `#[target_feature]` entry point around
/// the inlined core.
macro_rules! x86_level {
    ($level:ident, $isa:expr, $features:literal) => {
        #[cfg(target_arch = "x86_64")]
        struct $level;

        #[cfg(target_arch = "x86_64")]
        impl Level for $level {
            const ISA: Isa = $isa;

            fn ax_all<const NX: usize, const NPTS: usize>(
                u: &[f64],
                w: &mut [f64],
                g: [&[f64]; 6],
                d: &[f64],
                dt: &[f64],
                scratch: &mut SpecScratch<NPTS>,
            ) {
                #[target_feature(enable = $features)]
                fn entry<const NX: usize, const NPTS: usize>(
                    u: &[f64],
                    w: &mut [f64],
                    g: [&[f64]; 6],
                    d: &[f64],
                    dt: &[f64],
                    scratch: &mut SpecScratch<NPTS>,
                ) {
                    ax_field_core::<NX, NPTS>(u, w, g, d, dt, scratch);
                }
                // SAFETY: this level is reachable only through a
                // `DegreeDispatch` that `dispatch` built after
                // `Isa::is_supported` (`is_x86_feature_detected!` for every
                // feature in `$features`) returned true on this host.
                unsafe { entry::<NX, NPTS>(u, w, g, d, dt, scratch) }
            }

            fn fdm_one<const NX: usize, const NPTS: usize>(
                s: [&[f64]; 3],
                st: [&[f64]; 3],
                inv: &[f64],
                r: &[f64],
                z: &mut [f64],
                scratch: &mut SpecScratch<NPTS>,
            ) {
                #[target_feature(enable = $features)]
                fn entry<const NX: usize, const NPTS: usize>(
                    s: [&[f64]; 3],
                    st: [&[f64]; 3],
                    inv: &[f64],
                    r: &[f64],
                    z: &mut [f64],
                    scratch: &mut SpecScratch<NPTS>,
                ) {
                    fdm_element_core::<NX, NPTS>(s, st, inv, r, z, scratch);
                }
                // SAFETY: as in `ax_all` — `dispatch` hands out this level
                // only after `Isa::is_supported` detected `$features`.
                unsafe { entry::<NX, NPTS>(s, st, inv, r, z, scratch) }
            }

            fn restrict3<const NX: usize, const CNX: usize>(
                jt: &[f64],
                fine: &[f64],
                t1: &mut [f64],
                t2: &mut [f64],
            ) {
                #[target_feature(enable = $features)]
                fn entry<const NX: usize, const CNX: usize>(
                    jt: &[f64],
                    fine: &[f64],
                    t1: &mut [f64],
                    t2: &mut [f64],
                ) {
                    restrict_core::<NX, CNX>(jt, fine, t1, t2);
                }
                // SAFETY: as in `ax_all` — `dispatch` hands out this level
                // only after `Isa::is_supported` detected `$features`.
                unsafe { entry::<NX, CNX>(jt, fine, t1, t2) }
            }

            fn prolong3<const NX: usize, const CNX: usize>(
                j: &[f64],
                t1: &mut [f64],
                t2: &mut [f64],
            ) {
                #[target_feature(enable = $features)]
                fn entry<const NX: usize, const CNX: usize>(
                    j: &[f64],
                    t1: &mut [f64],
                    t2: &mut [f64],
                ) {
                    prolong_core::<NX, CNX>(j, t1, t2);
                }
                // SAFETY: as in `ax_all` — `dispatch` hands out this level
                // only after `Isa::is_supported` detected `$features`.
                unsafe { entry::<NX, CNX>(j, t1, t2) }
            }
        }
    };
}

x86_level!(Avx2Fma, Isa::Avx2Fma, "avx2,fma");
x86_level!(Avx512f, Isa::Avx512f, "avx512f");

/// The kernel family for `degree` at `level`, or `None` when the degree is
/// not specialized or the running CPU lacks the level.
pub(super) fn dispatch(degree: usize, level: Isa) -> Option<DegreeDispatch> {
    if !level.is_supported() {
        return None;
    }
    match level {
        Isa::Baseline => family::<Baseline>(degree),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => family::<Avx2Fma>(degree),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => family::<Avx512f>(degree),
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx2Fma | Isa::Avx512f => None,
    }
}

macro_rules! specialized_degrees {
    ($(($module:ident, $degree:literal)),+ $(,)?) => {
        $(
            mod $module {
                use super::{Level, SpecScratch, COARSE_POINTS};
                use std::cell::RefCell;

                const NX: usize = $degree + 1;
                const NPTS: usize = NX * NX * NX;

                thread_local! {
                    /// Per-thread fixed-size scratch, allocated once on first
                    /// use and shared by every ISA level; every later
                    /// application is allocation-free.
                    static SCRATCH: RefCell<Box<SpecScratch<NPTS>>> =
                        RefCell::new(SpecScratch::boxed());
                }

                pub(super) fn ax_all<L: Level>(
                    u: &[f64],
                    w: &mut [f64],
                    g: [&[f64]; 6],
                    d: &[f64],
                    dt: &[f64],
                ) {
                    SCRATCH.with(|cell| {
                        L::ax_all::<NX, NPTS>(u, w, g, d, dt, &mut cell.borrow_mut());
                    });
                }

                pub(super) fn fdm_one<L: Level>(
                    s: [&[f64]; 3],
                    st: [&[f64]; 3],
                    inv: &[f64],
                    r: &[f64],
                    z: &mut [f64],
                ) {
                    SCRATCH.with(|cell| {
                        L::fdm_one::<NX, NPTS>(s, st, inv, r, z, &mut cell.borrow_mut());
                    });
                }

                pub(super) fn restrict3<L: Level>(
                    jt: &[f64],
                    fine: &[f64],
                    t1: &mut [f64],
                    t2: &mut [f64],
                ) {
                    L::restrict3::<NX, COARSE_POINTS>(jt, fine, t1, t2);
                }

                pub(super) fn prolong3<L: Level>(j: &[f64], t1: &mut [f64], t2: &mut [f64]) {
                    L::prolong3::<NX, COARSE_POINTS>(j, t1, t2);
                }
            }
        )+

        /// The kernel family for `degree` at level `L`.
        fn family<L: Level>(degree: usize) -> Option<DegreeDispatch> {
            match degree {
                $(
                    $degree => Some(DegreeDispatch {
                        structure: KernelStructure::for_points($degree + 1),
                        isa: L::ISA,
                        ax_all: $module::ax_all::<L>,
                        fdm_one: $module::fdm_one::<L>,
                        restrict3: $module::restrict3::<L>,
                        prolong3: $module::prolong3::<L>,
                    }),
                )+
                _ => None,
            }
        }
    };
}

specialized_degrees!(
    (n3, 3),
    (n4, 4),
    (n5, 5),
    (n6, 6),
    (n7, 7),
    (n8, 8),
    (n9, 9),
    (n10, 10),
    (n11, 11),
    (n12, 12),
    (n13, 13),
    (n14, 14),
    (n15, 15),
);
