//! The closed-loop CPU workloads, `cpu-ax` and `cpu-fdm`: one caller thread
//! issuing `SemSystem` solves back to back.

use crate::common::{
    bits, cg_options, check_answer, check_manufactured, push_peak_rss, push_setup_layers,
    push_trace_layers, push_zeros, request, session, timed_session_pieces, within, LayerTotals,
    SetupTimes, FPGA_LAYERS, SERVE_LAYERS, SETUP_REPEATS,
};
use crate::report::{Kind, RunResult};
use crate::stats;
use crate::trace::{session_preconditioner, traced_solve, SpanLog};
use semfpga::accel::{SemSystem, SolveReport};
use semfpga::mesh::ElementField;
use semfpga::serve::ProblemSpec;
use semfpga::solver::CgScratch;
use std::time::Instant;

/// One closed-loop CPU workload.
#[derive(Debug, Clone, Copy)]
pub struct CpuWorkload {
    /// Registry name of the backend (with its preconditioner suffix).
    pub backend: &'static str,
    /// Problem shape.
    pub spec: ProblemSpec,
    /// Right-hand sides per public call (1: `solve_rhs`; more: `solve_many`).
    pub batch: usize,
    /// Max-error bound of the manufactured solve on this shape.
    pub manufactured_bound: f64,
}

/// `cpu-ax`: Jacobi-preconditioned CG at N=7 on 4³ elements.  The
/// manufactured error is about 2.95e-12 there.
pub const CPU_AX: CpuWorkload = CpuWorkload {
    backend: "cpu:optimized+jacobi",
    spec: ProblemSpec {
        degree: 7,
        elements: [4, 4, 4],
    },
    batch: 1,
    manufactured_bound: 3e-11,
};

/// `cpu-fdm`: FDM-preconditioned CG at N=11 on 3³ elements, two right-hand
/// sides per call.  The manufactured error is about 4.4e-12 there.
pub const CPU_FDM: CpuWorkload = CpuWorkload {
    backend: "cpu:optimized+fdm",
    spec: ProblemSpec {
        degree: 11,
        elements: [3, 3, 3],
    },
    batch: 2,
    manufactured_bound: 5e-11,
};

/// Timed calls per run, at least: p90 needs ten samples beyond it.
const MIN_CALLS: usize = 100;

/// Calls of the traced run, at least; `solver.cg.iterations` averages the
/// solves of exactly these first calls.
const MIN_TRACED_CALLS: usize = 8;

/// Input stream of the timed calls.
const STREAM_CALLS: u64 = 1;

impl CpuWorkload {
    fn rhs_batch(&self, system: &SemSystem, seed: u64, call: usize) -> Vec<ElementField> {
        (0..self.batch)
            .map(|b| {
                request(
                    self.spec,
                    seed,
                    STREAM_CALLS,
                    (call * self.batch + b) as u64,
                )
                .assemble_rhs(system)
            })
            .collect()
    }

    /// The public call being measured.
    fn call(&self, system: &SemSystem, rhss: &[ElementField]) -> Vec<SolveReport> {
        if self.batch == 1 {
            vec![system.solve_rhs(&rhss[0], cg_options())]
        } else {
            system.solve_many(rhss, cg_options())
        }
    }

    fn check_call(
        &self,
        result: &mut RunResult,
        system: &SemSystem,
        rhss: &[ElementField],
        reports: &[SolveReport],
    ) {
        result.check(reports.len() == rhss.len(), || {
            format!(
                "{} answers for {} right-hand sides",
                reports.len(),
                rhss.len()
            )
        });
        for (rhs, report) in rhss.iter().zip(reports) {
            check_answer(
                result,
                system,
                rhs,
                &report.solution.solution,
                report.converged(),
                self.backend,
            );
        }
    }

    /// The untraced run: end-to-end metrics.
    #[must_use]
    pub fn run(&self, seed: u64, seconds: f64) -> RunResult {
        let mut result = RunResult::default();
        let build = || session(self.backend, self.spec);
        let (mut setups, system) = SetupTimes::first(seconds, build);

        // One untimed call warms caches and the thread pool.
        let rhss = self.rhs_batch(&system, seed, 0);
        let reports = self.call(&system, &rhss);
        self.check_call(&mut result, &system, &rhss, &reports);

        let mut walls = Vec::new();
        let started = Instant::now();
        let mut call = 1;
        while walls.len() < MIN_CALLS || within(started, seconds) {
            let rhss = self.rhs_batch(&system, seed, call);
            let t = started.elapsed().as_secs_f64();
            let begun = Instant::now();
            let reports = self.call(&system, &rhss);
            walls.push((t, begun.elapsed().as_secs_f64()));
            self.check_call(&mut result, &system, &rhss, &reports);
            setups.maybe(started, build);
            call += 1;
        }
        let setup_s = setups.median(build);
        check_manufactured(&mut result, &system, self.manufactured_bound, self.backend);

        let all: Vec<f64> = walls.iter().map(|&(_, wall)| wall).collect();
        let quiet = stats::quieter_half(&walls, seconds);
        let metrics = &mut result.metrics;
        metrics.push("setup_s", "s", Kind::Measured, setup_s);
        metrics.push(
            "solves_per_s",
            "1/s",
            Kind::Measured,
            (quiet.len() * self.batch) as f64 / quiet.iter().sum::<f64>(),
        );
        for (name, p, samples) in [("solve_p50_s", 50.0, &quiet), ("solve_p90_s", 90.0, &all)] {
            let value = stats::percentile(samples, p)
                .unwrap_or_else(|| panic!("{} calls cannot support p{p}", samples.len()));
            metrics.push(name, "s", Kind::Measured, value);
        }
        push_peak_rss(&mut result);
        result.notes.push(format!(
            "timed calls: {} ({} in the quieter half)",
            all.len(),
            quiet.len()
        ));
        result
    }

    /// The traced run: per-layer metrics, with untraced calls interleaved
    /// as the baseline and the bitwise reference.
    #[must_use]
    pub fn run_traced(&self, seed: u64, seconds: f64, log: &SpanLog) -> RunResult {
        let mut result = RunResult::default();
        for _ in 0..SETUP_REPEATS {
            timed_session_pieces(log, self.backend, self.spec);
        }
        let system = session(self.backend, self.spec);
        let precond = session_preconditioner(&system);
        let mut scratch = CgScratch::new(self.spec.degree, self.spec.num_elements());
        let flops_per_ax =
            semfpga::kernel::ops::total_flops(self.spec.degree, self.spec.num_elements()) as f64;

        let mut totals = LayerTotals::default();
        let mut traced_walls = Vec::new();
        let mut single_walls = Vec::new();
        let mut batch_walls = Vec::new();
        let mut first_iterations = Vec::new();
        let started = Instant::now();
        let mut call = 0;
        while call < MIN_TRACED_CALLS || within(started, seconds) {
            let rhss = self.rhs_batch(&system, seed, call);
            let begun = Instant::now();
            let reports = self.call(&system, &rhss);
            batch_walls.push(begun.elapsed().as_secs_f64());
            self.check_call(&mut result, &system, &rhss, &reports);
            for (rhs, report) in rhss.iter().zip(&reports) {
                let single = if self.batch == 1 {
                    *batch_walls.last().expect("timed above")
                } else {
                    let begun = Instant::now();
                    let single = system.solve_rhs(rhs, cg_options());
                    let wall = begun.elapsed().as_secs_f64();
                    result.check(
                        bits(&single.solution.solution) == bits(&report.solution.solution),
                        || "batched solve differs from the standalone one".into(),
                    );
                    wall
                };
                single_walls.push(single);
                let solve = u32::try_from(totals.solves + 1).expect("solve count fits u32");
                let (traced, ledger) = traced_solve(
                    &system,
                    &precond,
                    rhs,
                    cg_options(),
                    &mut scratch,
                    log,
                    solve,
                );
                traced_walls.push(ledger.wall_s);
                totals.add(&ledger, flops_per_ax);
                result.check(
                    bits(&traced.solution) == bits(&report.solution.solution),
                    || "traced solution differs from the untraced one".into(),
                );
                if call < MIN_TRACED_CALLS {
                    first_iterations.push(traced.iterations as f64);
                }
            }
            call += 1;
        }

        let metrics = &mut result.metrics;
        totals.push(metrics, self.spec.degree, stats::mean(&first_iterations));
        push_setup_layers(metrics, log, 1);
        let batch_efficiency = single_walls.iter().sum::<f64>()
            / (self.batch as f64 * batch_walls.iter().sum::<f64>());
        metrics.push(
            "accel.batch_efficiency",
            "ratio",
            Kind::Measured,
            batch_efficiency,
        );
        push_zeros(metrics, &FPGA_LAYERS);
        push_zeros(metrics, &SERVE_LAYERS);
        push_trace_layers(metrics, &traced_walls, &single_walls, totals.ledger_s());
        result.notes.push(format!(
            "traced solves: {}; spans: {}",
            totals.solves,
            log.len()
        ));
        result
    }
}
