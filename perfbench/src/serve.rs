//! `serve-live`: seeded open-loop traffic through `Server::serve_stream_async`
//! on a pool of two simulated Stratix 10 GX2800 boards, in modelled time.
//!
//! A run serves two phases at fixed rates, `nominal` (1000 req/s, about 70%
//! of pool capacity) and `overload` (2000 req/s), each a fixed modelled
//! horizon so the modelled figures repeat exactly for a seed.  The nominal
//! phase is then replayed while the measuring window lasts, for the host
//! throughput; every replay must reproduce the first bitwise.

use crate::common::{
    bits, cg_options, check_answer, check_manufactured, mix, push_peak_rss, push_setup_layers,
    push_trace_layers, request, session, timed_session_pieces, within, LayerTotals, SetupTimes,
    FPGA_LAYERS, SETUP_REPEATS,
};
use crate::report::{Kind, MetricSet, RunResult};
use crate::stats;
use crate::trace::{session_preconditioner, traced_solve, SpanLog};
use semfpga::accel::SemSystem;
use semfpga::fpga::executor::LAUNCH_OVERHEAD_CYCLES;
use semfpga::fpga::{FpgaAccelerator, FpgaDevice};
use semfpga::model::{arrival_times, WorkloadKind};
use semfpga::serve::{
    ArrivalStream, LiveOptions, LiveOutcome, LiveReport, ProblemSpec, ServeOptions, Server,
    TimedRequest,
};
use semfpga::solver::{CgScratch, PrecondSpec};
use std::time::Instant;

/// Registry name of one pool slot.
const SLOT: &str = "fpga:stratix10-gx2800";
/// The same slot with the pool's preconditioner, for direct sessions.
const SESSION: &str = "fpga:stratix10-gx2800+jacobi";
/// Pool size (one worker thread per slot).
const WORKERS: usize = 2;

/// Request shapes, in rotation order, with the max-error bound of each
/// shape's manufactured solve (the seed gives about 4.8e-4, 1.1e-6 and
/// 6.2e-5).
const SHAPES: [(ProblemSpec, f64); 3] = [
    (
        ProblemSpec {
            degree: 3,
            elements: [2, 2, 2],
        },
        5e-3,
    ),
    (
        ProblemSpec {
            degree: 5,
            elements: [2, 2, 2],
        },
        1.2e-5,
    ),
    (
        ProblemSpec {
            degree: 3,
            elements: [3, 3, 3],
        },
        7e-4,
    ),
];

/// Latency objective and admission deadline, modelled seconds.
const SLO_S: f64 = 0.010;

/// One fixed-rate phase.
#[derive(Debug, Clone, Copy)]
struct Phase {
    name: &'static str,
    rate_rps: f64,
    horizon_s: f64,
    stream: u64,
}

/// 1500 arrivals on average: the nominal p99 has about 15 beyond it.
const NOMINAL: Phase = Phase {
    name: "nominal",
    rate_rps: 1000.0,
    horizon_s: 1.5,
    stream: 11,
};

const OVERLOAD: Phase = Phase {
    name: "overload",
    rate_rps: 2000.0,
    horizon_s: 0.75,
    stream: 12,
};

/// Input stream of the set-up warm-up requests.
const STREAM_WARMUP: u64 = 10;
/// Input stream of the fpga-sim per-shape probes.
const STREAM_PROBE: u64 = 13;

/// Nominal replays per run, at least, beyond the first serve.
const MIN_REPLAYS: usize = 2;

/// The direct solves of the nominal answers are timed in this many chunks,
/// one after each replay.
const DIRECT_CHUNKS: usize = 8;

/// Traced solves whose iterations `solver.cg.iterations` averages.
const ITERATION_SOLVES: usize = 30;

fn serve_options() -> ServeOptions {
    ServeOptions {
        cg: cg_options(),
        max_batch: 4,
        ..ServeOptions::default()
    }
    .with_precond(PrecondSpec::Jacobi)
}

fn live_options() -> LiveOptions {
    LiveOptions {
        deadline_seconds: SLO_S,
        batch_window_seconds: 0.001,
        window_seconds: 0.25,
        down_batch: true,
    }
}

/// The phase's seeded Poisson arrivals, shapes rotating by arrival order.
fn phase_stream(phase: Phase, seed: u64) -> ArrivalStream {
    let kind = WorkloadKind::Poisson {
        rate_rps: phase.rate_rps,
    };
    timed_stream(
        arrival_times(kind, mix(seed, phase.stream), phase.horizon_s),
        seed,
        phase.stream,
    )
}

fn timed_stream(arrivals: Vec<f64>, seed: u64, stream: u64) -> ArrivalStream {
    ArrivalStream::new(
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival_seconds)| TimedRequest {
                arrival_seconds,
                request: request(SHAPES[i % SHAPES.len()].0, seed, stream, i as u64),
            })
            .collect(),
    )
}

/// One request of each shape, so set-up builds every (slot, shape) session.
fn warmup_stream(seed: u64) -> ArrivalStream {
    timed_stream(vec![0.0, 0.001, 0.002], seed, STREAM_WARMUP)
}

/// Direct sessions, one per shape, configured as the pool's slots are.
struct Sessions(Vec<SemSystem>);

impl Sessions {
    fn new() -> Self {
        Self(
            SHAPES
                .iter()
                .map(|&(spec, _)| session(SESSION, spec))
                .collect(),
        )
    }

    fn index(spec: ProblemSpec) -> usize {
        SHAPES
            .iter()
            .position(|&(s, _)| s == spec)
            .expect("a served shape")
    }

    fn of(&self, spec: ProblemSpec) -> &SemSystem {
        &self.0[Self::index(spec)]
    }
}

/// Gate a served phase: conservation, and every answer verified.
fn check_phase(
    result: &mut RunResult,
    stream: &ArrivalStream,
    report: &LiveReport,
    sessions: &Sessions,
    phase: &str,
) {
    let n = stream.len();
    let mut seen = vec![0_u32; n];
    for id in report
        .outcomes
        .iter()
        .map(|o| o.request)
        .chain(report.rejections.iter().map(|r| r.request))
    {
        if id < n {
            seen[id] += 1;
        }
    }
    let conserved = report.admitted() + report.rejected() == n && seen.iter().all(|&c| c == 1);
    result.check(conserved, || {
        format!(
            "{phase}: {} admitted + {} rejected for {n} arrivals, not each answered once",
            report.admitted(),
            report.rejected()
        )
    });
    for outcome in &report.outcomes {
        let request = stream.arrivals()[outcome.request].request;
        let system = sessions.of(request.spec);
        let rhs = request.assemble_rhs(system);
        check_answer(
            result,
            system,
            &rhs,
            &outcome.solution,
            outcome.converged,
            phase,
        );
    }
}

/// Whether two serves of one stream agree bitwise in modelled time and in
/// their answers.
fn same_serve(a: &LiveReport, b: &LiveReport) -> bool {
    a.outcomes.len() == b.outcomes.len()
        && a.rejections.len() == b.rejections.len()
        && a.outcomes.iter().zip(&b.outcomes).all(|(x, y)| {
            x.request == y.request
                && x.completed_seconds.to_bits() == y.completed_seconds.to_bits()
                && bits(&x.solution) == bits(&y.solution)
        })
}

fn serve(server: &mut Server, stream: &ArrivalStream) -> (LiveReport, f64) {
    let begun = Instant::now();
    let report = server.serve_stream_async(stream, &live_options(), None);
    (report, begun.elapsed().as_secs_f64())
}

/// Build the pool and serve the warm-up stream, which builds every
/// (slot, shape) session lazily.
fn set_up(seed: u64) -> (Server, ArrivalStream, LiveReport) {
    let mut server = Server::from_registry_names(&[SLOT; WORKERS], serve_options());
    let stream = warmup_stream(seed);
    let (report, _) = serve(&mut server, &stream);
    (server, stream, report)
}

/// Modelled figures of a served phase.
struct PhaseFigures {
    latencies: Vec<f64>,
    within_slo: usize,
    arrivals: usize,
}

impl PhaseFigures {
    fn of(stream: &ArrivalStream, report: &LiveReport) -> Self {
        let latencies: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| o.latency_seconds())
            .collect();
        Self {
            within_slo: latencies.iter().filter(|&&l| l <= SLO_S).count(),
            latencies,
            arrivals: stream.len(),
        }
    }

    fn slo_met_ratio(&self) -> f64 {
        self.within_slo as f64 / self.arrivals as f64
    }
}

/// Jobs the requests rode in, weighted per job.
fn mean_batch(report: &LiveReport) -> f64 {
    let jobs: f64 = report.outcomes.iter().map(|o| 1.0 / o.batch as f64).sum();
    report.admitted() as f64 / jobs.max(f64::MIN_POSITIVE)
}

/// The modelled serving figures, printed with every run.
fn modelled_notes(result: &mut RunResult, nominal: &PhaseFigures, overload: &PhaseFigures) {
    let p = |figures: &PhaseFigures, p: f64| {
        stats::percentile(&figures.latencies, p)
            .map_or_else(|| "refused".into(), |v| format!("{v:.6e}"))
    };
    result.notes.push(format!(
        "modelled: nominal latency p50 {} s, p99 {} s, slo_met_ratio {:.6} ({} arrivals); \
         overload goodput {:.3} 1/s",
        p(nominal, 50.0),
        p(nominal, 99.0),
        nominal.slo_met_ratio(),
        nominal.arrivals,
        overload.within_slo as f64 / OVERLOAD.horizon_s,
    ));
}

/// The untraced run: end-to-end metrics.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let (mut setups, (mut server, warmup, warmup_report)) =
        SetupTimes::first(seconds, || set_up(seed));
    let sessions = Sessions::new();
    check_phase(&mut result, &warmup, &warmup_report, &sessions, "warm-up");

    let started = Instant::now();
    let nominal_stream = phase_stream(NOMINAL, seed);
    let overload_stream = phase_stream(OVERLOAD, seed);
    let (nominal, nominal_wall) = serve(&mut server, &nominal_stream);
    let (overload, _) = serve(&mut server, &overload_stream);
    check_phase(
        &mut result,
        &nominal_stream,
        &nominal,
        &sessions,
        NOMINAL.name,
    );
    check_phase(
        &mut result,
        &overload_stream,
        &overload,
        &sessions,
        OVERLOAD.name,
    );

    // Replay the nominal phase for the host throughput, and time the same
    // answers as direct public solves, a chunk after each replay so both
    // sample the whole window.  One direct-solve sample is one rotation of
    // the shape mix (one request of each shape): single requests fall into
    // three well-separated modes, and a percentile of such a mixture jumps
    // between modes as the host's speed drifts.
    // `(t, seconds per admitted request)` of every nominal serve.
    let per_request = |wall: f64| wall / nominal.admitted().max(1) as f64;
    let mut serves = vec![(0.0, per_request(nominal_wall))];
    let mut rotation_walls = Vec::with_capacity(nominal.admitted() / SHAPES.len());
    let rotations: Vec<&[LiveOutcome]> = nominal
        .outcomes
        .chunk_by(|a, b| a.request / SHAPES.len() == b.request / SHAPES.len())
        .filter(|rotation| rotation.len() == SHAPES.len())
        .collect();
    let mut chunks = rotations.chunks(rotations.len().div_ceil(DIRECT_CHUNKS).max(1));
    let mut chunks_left = true;
    while chunks_left || serves.len() <= MIN_REPLAYS || within(started, seconds) {
        let t = started.elapsed().as_secs_f64();
        let (replay, wall) = serve(&mut server, &nominal_stream);
        result.check(same_serve(&nominal, &replay), || {
            "a nominal replay differs from the first serve".into()
        });
        serves.push((t, per_request(wall)));
        setups.maybe(started, || set_up(seed));
        let Some(chunk) = chunks.next() else {
            chunks_left = false;
            continue;
        };
        for rotation in chunk {
            let t = started.elapsed().as_secs_f64();
            let mut rotation_wall = 0.0;
            for outcome in *rotation {
                let request = nominal_stream.arrivals()[outcome.request].request;
                let system = sessions.of(request.spec);
                let rhs = request.assemble_rhs(system);
                let begun = Instant::now();
                let report = system.solve_rhs(&rhs, cg_options());
                rotation_wall += begun.elapsed().as_secs_f64();
                result.check(
                    bits(&report.solution.solution) == bits(&outcome.solution),
                    || {
                        format!(
                            "request {}: served answer differs from the direct solve",
                            outcome.request
                        )
                    },
                );
            }
            rotation_walls.push((t, rotation_wall));
        }
    }
    let setup_s = setups.median(|| set_up(seed));
    for &(spec, bound) in &SHAPES {
        check_manufactured(&mut result, sessions.of(spec), bound, SESSION);
    }

    let metrics = &mut result.metrics;
    metrics.push("setup_s", "s", Kind::Measured, setup_s);
    let quiet_serves = stats::quieter_half(&serves, seconds);
    metrics.push(
        "solves_per_s",
        "1/s",
        Kind::Measured,
        1.0 / stats::mean(&quiet_serves),
    );
    let all: Vec<f64> = rotation_walls.iter().map(|&(_, wall)| wall).collect();
    let quiet = stats::quieter_half(&rotation_walls, seconds);
    for (name, p, samples) in [("solve_p50_s", 50.0, &quiet), ("solve_p90_s", 90.0, &all)] {
        let value = stats::percentile(samples, p)
            .unwrap_or_else(|| panic!("{} rotations cannot support p{p}", samples.len()));
        metrics.push(name, "s", Kind::Measured, value);
    }
    push_peak_rss(&mut result);
    let nominal_figures = PhaseFigures::of(&nominal_stream, &nominal);
    let overload_figures = PhaseFigures::of(&overload_stream, &overload);
    modelled_notes(&mut result, &nominal_figures, &overload_figures);
    result.notes.push(format!(
        "nominal serves: {} ({} admitted each); overload: {} of {} admitted",
        serves.len(),
        nominal.admitted(),
        overload.admitted(),
        overload_stream.len()
    ));
    result
}

/// Per-request means of the accelerator model's cost terms, from a direct
/// batched solve of `max_batch` requests on one session per shape.
fn push_fpga_model(metrics: &mut MetricSet, seed: u64, sessions: &Sessions) {
    let batch = serve_options().max_batch;
    let mut terms = [0.0_f64; 6];
    let mut requests = 0.0;
    for &(spec, _) in &SHAPES {
        let system = sessions.of(spec);
        let accelerator = system
            .accelerator()
            .expect("a single-board accelerator session");
        let launch_s = LAUNCH_OVERHEAD_CYCLES / (accelerator.synthesis().fmax_mhz * 1e6);
        let rhss: Vec<_> = (0..batch)
            .map(|i| request(spec, seed, STREAM_PROBE, i as u64).assemble_rhs(system))
            .collect();
        for report in system.solve_many(&rhss, cg_options()) {
            let precond_launches = if report.precond_on_device {
                report.precond_applications()
            } else {
                0
            };
            let launches = (report.solution.cg.operator_applications + precond_launches) as f64;
            let values = [
                report.operator.seconds,
                report.precond_seconds,
                report.transfer_seconds,
                report.pipelined_transfer_seconds,
                launches,
                launches * launch_s,
            ];
            for (total, value) in terms.iter_mut().zip(values) {
                *total += value;
            }
            requests += 1.0;
        }
    }
    // The first six accelerator layers are these model terms, in this order.
    for (&(name, unit, kind), total) in FPGA_LAYERS.iter().zip(terms) {
        metrics.push(name, unit, kind, total / requests);
    }

    // The model against the paper's only measured reference: Table I at
    // N=7 on 4096 elements.
    let paper = semfpga::model::measured::measured_row(7).expect("Table I has N=7");
    let simulated = FpgaAccelerator::for_degree(7, &FpgaDevice::stratix10_gx2800())
        .estimate(semfpga::PAPER_REFERENCE_ELEMENTS)
        .gflops;
    metrics.push(
        "fpga.table1_rel_err",
        "ratio",
        Kind::Modelled,
        (simulated - paper.gflops).abs() / paper.gflops,
    );
}

fn push_phase(metrics: &mut MetricSet, phase: Phase, report: &LiveReport, figures: &PhaseFigures) {
    let name = |metric: &str| format!("serve.{}.{metric}", phase.name);
    metrics.push(
        &name("admitted"),
        "count",
        Kind::Count,
        report.admitted() as f64,
    );
    metrics.push(
        &name("rejected"),
        "count",
        Kind::Count,
        report.rejected() as f64,
    );
    metrics.push(
        &name("mean_batch"),
        "count",
        Kind::Modelled,
        mean_batch(report),
    );
    metrics.push(
        &name("drift_correction"),
        "ratio",
        Kind::Modelled,
        report.drift_correction,
    );
    metrics.push(
        &name("slo_met_ratio"),
        "ratio",
        Kind::Modelled,
        figures.slo_met_ratio(),
    );
}

/// The traced run: per-layer metrics.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64, log: &SpanLog) -> RunResult {
    let mut result = RunResult::default();
    for _ in 0..SETUP_REPEATS {
        for _slot in 0..WORKERS {
            for &(spec, _) in &SHAPES {
                timed_session_pieces(log, SESSION, spec);
            }
        }
    }
    let (mut server, warmup, warmup_report) = set_up(seed);
    let sessions = Sessions::new();
    check_phase(&mut result, &warmup, &warmup_report, &sessions, "warm-up");

    let started = Instant::now();
    let nominal_stream = phase_stream(NOMINAL, seed);
    let overload_stream = phase_stream(OVERLOAD, seed);
    let (nominal, nominal_wall) = serve(&mut server, &nominal_stream);
    let (overload, _) = serve(&mut server, &overload_stream);
    check_phase(
        &mut result,
        &nominal_stream,
        &nominal,
        &sessions,
        NOMINAL.name,
    );
    check_phase(
        &mut result,
        &overload_stream,
        &overload,
        &sessions,
        OVERLOAD.name,
    );

    // Direct and traced solves of the admitted nominal requests, alternated.
    let preconds: Vec<_> = sessions.0.iter().map(session_preconditioner).collect();
    let mut scratches: Vec<_> = SHAPES
        .iter()
        .map(|&(spec, _)| CgScratch::new(spec.degree, spec.num_elements()))
        .collect();
    let mut totals = LayerTotals::default();
    let mut direct_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut iterations = Vec::new();
    for outcome in &nominal.outcomes {
        if iterations.len() >= ITERATION_SOLVES && !within(started, seconds) {
            break;
        }
        let request = nominal_stream.arrivals()[outcome.request].request;
        let shape = Sessions::index(request.spec);
        let system = &sessions.0[shape];
        let rhs = request.assemble_rhs(system);
        let begun = Instant::now();
        let direct = system.solve_rhs(&rhs, cg_options());
        direct_walls.push(begun.elapsed().as_secs_f64());
        let solve = u32::try_from(totals.solves + 1).expect("solve count fits u32");
        let (traced, ledger) = traced_solve(
            system,
            &preconds[shape],
            &rhs,
            cg_options(),
            &mut scratches[shape],
            log,
            solve,
        );
        traced_walls.push(ledger.wall_s);
        // Kernel FLOPs of the simulated pass, which the host CPU executes.
        let flops =
            semfpga::kernel::ops::total_flops(request.spec.degree, request.spec.num_elements());
        totals.add(&ledger, flops as f64);
        if iterations.len() < ITERATION_SOLVES {
            iterations.push(traced.iterations as f64);
        }
        let same = bits(&traced.solution) == bits(&outcome.solution)
            && bits(&direct.solution.solution) == bits(&outcome.solution);
        result.check(same, || {
            format!(
                "request {}: traced, direct and served answers differ",
                outcome.request
            )
        });
    }

    let nominal_figures = PhaseFigures::of(&nominal_stream, &nominal);
    let overload_figures = PhaseFigures::of(&overload_stream, &overload);
    let metrics = &mut result.metrics;
    // The rotation mixes degrees 3 and 5; the computed intensity is that of
    // degree 3, which two of the three shapes use.
    totals.push(metrics, SHAPES[0].0.degree, stats::mean(&iterations));
    push_setup_layers(metrics, log, WORKERS * SHAPES.len());
    metrics.push("accel.batch_efficiency", "ratio", Kind::Measured, 0.0);
    push_fpga_model(metrics, seed, &sessions);
    metrics.push(
        "fpga.sim_host_s_per_apply",
        "s",
        Kind::Measured,
        totals.ax_s / totals.ax_calls.max(1) as f64,
    );
    push_phase(metrics, NOMINAL, &nominal, &nominal_figures);
    let percentile = |p: f64| {
        stats::percentile(&nominal_figures.latencies, p)
            .unwrap_or_else(|| panic!("{} latencies cannot support p{p}", nominal.admitted()))
    };
    metrics.push(
        "serve.nominal.latency_p50_modeled_s",
        "s",
        Kind::Modelled,
        percentile(50.0),
    );
    metrics.push(
        "serve.nominal.latency_p99_modeled_s",
        "s",
        Kind::Modelled,
        percentile(99.0),
    );
    push_phase(metrics, OVERLOAD, &overload, &overload_figures);
    metrics.push(
        "serve.overload.goodput_modeled_rps",
        "1/s",
        Kind::Modelled,
        overload_figures.within_slo as f64 / OVERLOAD.horizon_s,
    );
    let host = nominal_wall * WORKERS as f64 / nominal.admitted().max(1) as f64;
    let solve_host = stats::mean(&direct_walls);
    metrics.push("serve.host_s_per_request", "s", Kind::Measured, host);
    metrics.push(
        "serve.solve_host_s_per_request",
        "s",
        Kind::Measured,
        solve_host,
    );
    metrics.push(
        "serve.overhead_s_per_request",
        "s",
        Kind::Measured,
        host - solve_host,
    );
    push_trace_layers(metrics, &traced_walls, &direct_walls, totals.ledger_s());
    modelled_notes(&mut result, &nominal_figures, &overload_figures);
    result.notes.push(format!(
        "traced solves: {}; spans: {}",
        totals.solves,
        log.len()
    ));
    result
}
