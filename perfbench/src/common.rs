//! Settings and helpers every workload shares: solver options, seeded
//! inputs, the correctness gates, and the per-layer metrics a workload does
//! not exercise.

use crate::report::{Kind, MetricSet, RunResult};
use crate::stats;
use crate::trace::SpanLog;
use semfpga::accel::{Backend, ExecSpec, SemSystem};
use semfpga::kernel::AxImplementation;
use semfpga::mesh::{BoxMesh, ElementField, MeshDeformation};
use semfpga::serve::{relative_residual, ProblemSpec, ServeRequest};
use semfpga::solver::{CgOptions, PoissonProblem};
use std::time::{Duration, Instant};

/// CG tolerance of every solve.
pub const TOLERANCE: f64 = 1e-10;

/// An answer passes when its residual on the host operator is within this
/// multiple of the tolerance.
pub const RESIDUAL_SLACK: f64 = 10.0;

/// Set-up is repeated this many times per run and the median reported.
pub const SETUP_REPEATS: usize = 31;

/// Solver options of every solve.
#[must_use]
pub fn cg_options() -> CgOptions {
    CgOptions {
        max_iterations: 2000,
        tolerance: TOLERANCE,
        record_history: false,
    }
}

/// SplitMix64: derives independent input seeds from the workload seed.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seeded-forcing request of input stream `stream`.
#[must_use]
pub fn request(spec: ProblemSpec, seed: u64, stream: u64, index: u64) -> ServeRequest {
    ServeRequest::seeded(spec, mix(mix(seed, stream), index))
}

/// A session for `spec` on the registry backend `name`.
#[must_use]
pub fn session(name: &str, spec: ProblemSpec) -> SemSystem {
    SemSystem::builder()
        .degree(spec.degree)
        .elements(spec.elements)
        .backend_named(name)
        .build()
}

/// Bit patterns of a field, for bitwise comparisons.
#[must_use]
pub fn bits(field: &ElementField) -> Vec<u64> {
    field.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Gate one answer: converged, and its residual on the host operator
/// within [`RESIDUAL_SLACK`] × tolerance.
pub fn check_answer(
    result: &mut RunResult,
    system: &SemSystem,
    rhs: &ElementField,
    solution: &ElementField,
    converged: bool,
    what: &str,
) {
    let residual = relative_residual(system, rhs, solution);
    result.check(converged && residual <= RESIDUAL_SLACK * TOLERANCE, || {
        format!("{what}: converged={converged} relative residual {residual:.3e}")
    });
}

/// Gate the manufactured solve of `system`: converged, and the max error
/// against the exact solution within `bound`.
pub fn check_manufactured(result: &mut RunResult, system: &SemSystem, bound: f64, what: &str) {
    let report = system.solve(cg_options());
    let error = report.solution.max_error;
    result.check(report.converged() && error <= bound, || {
        format!("{what}: manufactured max error {error:.3e} exceeds {bound:.1e}")
    });
}

/// Set-up timings spread evenly over the measuring window.
///
/// A shared host's speed drifts over seconds as other tenants come and go, so
/// set-ups made back to back all land in one phase and their median jumps
/// between runs.  Spread over the window, they see the same mix of phases
/// as the timed calls.  The first set-up builds what the run uses; the
/// others are built, timed and dropped.
pub struct SetupTimes {
    /// `(t, seconds)`: when each set-up started in the window, and its cost.
    samples: Vec<(f64, f64)>,
    window_s: f64,
}

impl SetupTimes {
    fn timed<T>(build: impl FnOnce() -> T) -> (f64, T) {
        let started = Instant::now();
        let built = build();
        (started.elapsed().as_secs_f64(), built)
    }

    /// Time the first set-up, for a window of `window_s` seconds.
    pub fn first<T>(window_s: f64, build: impl FnOnce() -> T) -> (Self, T) {
        let (seconds, built) = Self::timed(build);
        let times = Self {
            samples: vec![(0.0, seconds)],
            window_s,
        };
        (times, built)
    }

    /// Time one more set-up if the next is due in the window that opened
    /// at `started`: set-up `k` of [`SETUP_REPEATS`] is due `k / SETUP_REPEATS`
    /// of the way through it.
    pub fn maybe<T>(&mut self, started: Instant, build: impl FnOnce() -> T) {
        let due = self.samples.len() as f64 * self.window_s / SETUP_REPEATS as f64;
        let t = started.elapsed().as_secs_f64();
        if self.samples.len() < SETUP_REPEATS && t >= due {
            self.samples.push((t, Self::timed(build).0));
        }
    }

    /// Make any set-ups still missing and return the median of the quieter
    /// half of the window (see [`stats::quieter_half`]).
    pub fn median<T>(mut self, mut build: impl FnMut() -> T) -> f64 {
        while self.samples.len() < SETUP_REPEATS {
            self.samples
                .push((self.window_s, Self::timed(&mut build).0));
        }
        stats::median(&stats::quieter_half(&self.samples, self.window_s))
    }
}

/// Build `backend`'s session for `spec` piece by piece, the way
/// `SemSystemBuilder::build` does, timing each public call as a set-up span.
pub fn timed_session_pieces(log: &SpanLog, backend: &str, spec: ProblemSpec) {
    let config = Backend::from_name(backend).expect("registry backend");
    let mesh = log.time("mesh.build", || {
        BoxMesh::new(spec.degree, spec.elements, [1.0; 3], MeshDeformation::None)
    });
    let execution = log.time("accel.backend_instantiate", || config.instantiate(&mesh));
    let implementation = match config.exec {
        ExecSpec::Cpu(implementation) => implementation,
        ExecSpec::FpgaSimulated(_) | ExecSpec::MultiFpga { .. } => AxImplementation::Optimized,
    };
    let problem = log.time("accel.problem_build", || {
        PoissonProblem::new(mesh, implementation)
    });
    let precond = log.time("solver.precond.setup", || {
        problem.preconditioner(config.precond)
    });
    std::hint::black_box((execution, precond));
}

/// Set-up layer metrics: the median over repeats of the summed seconds of
/// each piece, where one repeat builds `sessions` sessions.
pub fn push_setup_layers(metrics: &mut MetricSet, log: &SpanLog, sessions: usize) {
    for (span, metric) in [
        ("mesh.build", "mesh.build_s"),
        ("accel.backend_instantiate", "accel.backend_instantiate_s"),
        ("accel.problem_build", "accel.problem_build_s"),
        ("solver.precond.setup", "solver.precond.setup_s"),
    ] {
        let per_repeat: Vec<f64> = log
            .setup_seconds(span)
            .chunks(sessions)
            .map(|chunk| chunk.iter().sum())
            .collect();
        metrics.push(metric, "s", Kind::Measured, stats::median(&per_repeat));
    }
}

/// The traced-run layer totals of a set of solves, per solve.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub solves: usize,
    pub ax_calls: usize,
    pub ax_s: f64,
    pub ax_flops: f64,
    pub dssum_calls: usize,
    pub dssum_s: f64,
    pub precond_calls: usize,
    pub precond_s: f64,
    pub self_s: f64,
}

impl LayerTotals {
    /// Add one traced solve's ledger (`flops_per_ax` from `sem_kernel::ops`).
    pub fn add(&mut self, ledger: &crate::trace::Ledger, flops_per_ax: f64) {
        self.solves += 1;
        self.ax_calls += ledger.ax_calls;
        self.ax_s += ledger.ax_s;
        self.ax_flops += flops_per_ax * ledger.ax_calls as f64;
        self.dssum_calls += ledger.dssum_calls;
        self.dssum_s += ledger.dssum_s;
        self.precond_calls += ledger.precond_calls;
        self.precond_s += ledger.precond_s;
        self.self_s += ledger.self_s();
    }

    /// Push the kernel, mesh and solver layer metrics (per solve).
    ///
    /// `iterations` is the mean CG iteration count over a fixed, seeded set
    /// of solves, so it repeats exactly for a fixed seed.
    pub fn push(&self, metrics: &mut MetricSet, degree: usize, iterations: f64) {
        let per_solve = |x: f64| x / self.solves.max(1) as f64;
        metrics.push(
            "kernel.ax.calls",
            "count",
            Kind::Count,
            per_solve(self.ax_calls as f64),
        );
        metrics.push(
            "kernel.ax.busy_s",
            "s",
            Kind::Measured,
            per_solve(self.ax_s),
        );
        metrics.push(
            "kernel.ax.gflops",
            "GFLOP/s",
            Kind::Measured,
            self.ax_flops / self.ax_s.max(f64::MIN_POSITIVE) / 1e9,
        );
        metrics.push(
            "kernel.ax.flops_per_byte",
            "FLOP/B",
            Kind::Computed,
            semfpga::kernel::ops::operational_intensity(degree),
        );
        metrics.push(
            "mesh.dssum.calls",
            "count",
            Kind::Count,
            per_solve(self.dssum_calls as f64),
        );
        metrics.push(
            "mesh.dssum.busy_s",
            "s",
            Kind::Measured,
            per_solve(self.dssum_s),
        );
        metrics.push("solver.cg.iterations", "count", Kind::Count, iterations);
        metrics.push(
            "solver.cg.self_s",
            "s",
            Kind::Measured,
            per_solve(self.self_s),
        );
        metrics.push(
            "solver.precond.calls",
            "count",
            Kind::Count,
            per_solve(self.precond_calls as f64),
        );
        metrics.push(
            "solver.precond.busy_s",
            "s",
            Kind::Measured,
            per_solve(self.precond_s),
        );
    }

    /// Summed layer seconds of an average solve.
    #[must_use]
    pub fn ledger_s(&self) -> f64 {
        (self.ax_s + self.dssum_s + self.precond_s + self.self_s) / self.solves.max(1) as f64
    }
}

/// The tracing overhead (medians of traced against untraced solves) and the
/// ledger gap: the share of an untraced public call's mean wall time that
/// Ax, dssum, the preconditioner and CG's self time (mean per traced solve)
/// do not cover.
pub fn push_trace_layers(
    metrics: &mut MetricSet,
    traced_walls: &[f64],
    untraced_walls: &[f64],
    ledger_s: f64,
) {
    metrics.push(
        "trace.overhead_frac",
        "ratio",
        Kind::Measured,
        stats::median(traced_walls) / stats::median(untraced_walls) - 1.0,
    );
    metrics.push(
        "trace.ledger_gap_frac",
        "ratio",
        Kind::Measured,
        1.0 - ledger_s / stats::mean(untraced_walls),
    );
}

/// Per-layer metrics of the accelerator model, zero on a workload that runs
/// no accelerator.
pub const FPGA_LAYERS: [(&str, &str, Kind); 8] = [
    ("fpga.ax_modeled_s", "s", Kind::Modelled),
    ("fpga.precond_modeled_s", "s", Kind::Modelled),
    ("fpga.transfer_modeled_s", "s", Kind::Modelled),
    ("fpga.exposed_transfer_modeled_s", "s", Kind::Modelled),
    ("fpga.launches", "count", Kind::Count),
    ("fpga.launch_modeled_s", "s", Kind::Modelled),
    ("fpga.sim_host_s_per_apply", "s", Kind::Measured),
    ("fpga.table1_rel_err", "ratio", Kind::Modelled),
];

/// Per-layer metrics of the serving host, zero on a workload that serves
/// nothing.
pub const SERVE_LAYERS: [(&str, &str, Kind); 16] = [
    ("serve.nominal.admitted", "count", Kind::Count),
    ("serve.nominal.rejected", "count", Kind::Count),
    ("serve.nominal.mean_batch", "count", Kind::Modelled),
    ("serve.nominal.drift_correction", "ratio", Kind::Modelled),
    ("serve.nominal.latency_p50_modeled_s", "s", Kind::Modelled),
    ("serve.nominal.latency_p99_modeled_s", "s", Kind::Modelled),
    ("serve.nominal.slo_met_ratio", "ratio", Kind::Modelled),
    ("serve.overload.admitted", "count", Kind::Count),
    ("serve.overload.rejected", "count", Kind::Count),
    ("serve.overload.mean_batch", "count", Kind::Modelled),
    ("serve.overload.drift_correction", "ratio", Kind::Modelled),
    ("serve.overload.slo_met_ratio", "ratio", Kind::Modelled),
    ("serve.overload.goodput_modeled_rps", "1/s", Kind::Modelled),
    ("serve.host_s_per_request", "s", Kind::Measured),
    ("serve.solve_host_s_per_request", "s", Kind::Measured),
    ("serve.overhead_s_per_request", "s", Kind::Measured),
];

/// Push `layers` with value zero.
pub fn push_zeros(metrics: &mut MetricSet, layers: &[(&str, &'static str, Kind)]) {
    for &(name, unit, kind) in layers {
        metrics.push(name, unit, kind, 0.0);
    }
}

/// Whether the measuring window that started at `started` is still open.
#[must_use]
pub fn within(started: Instant, seconds: f64) -> bool {
    started.elapsed() < Duration::from_secs_f64(seconds)
}

/// Record the process's peak resident memory.
pub fn push_peak_rss(result: &mut RunResult) {
    let rss = crate::host::peak_rss_mib().expect("peak RSS readable from /proc/self/status");
    result
        .metrics
        .push("peak_rss_mib", "MiB", Kind::Measured, rss);
}
