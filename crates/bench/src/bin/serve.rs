//! Pipelined serving benchmark: the overlap win per backend and the
//! scheduling-policy ranking on a heterogeneous pool.
//!
//! Part 1 — for every simulated registry backend, serve a batch of
//! right-hand sides through `sem-serve`'s three-stage offload pipeline and
//! compare the modelled per-RHS end-to-end seconds against PR 2's serial
//! accounting (one number per backend and batch size, plus the kernel
//! launch/work split from the stage-timing hook).
//!
//! Part 2 — serve a mixed workload over a heterogeneous pool (host CPU +
//! real FPGA + a Section V-D projected device) under each scheduling policy
//! and record throughput, p50/p99 latency and per-device utilisation.
//!
//! Part 3 — the async host: serve the same stream synchronously and through
//! `Server::serve_async` on a multi-slot CPU pool (real worker threads, so
//! the wall-clock makespan actually shrinks) and on a pinned pool where the
//! idle slots must steal every job they serve.
//!
//! Part 4 — the preconditioner's serving win: the same request stream on the
//! evaluated board under identity / Jacobi / FDM, where the FDM
//! preconditioner collapses the iteration count (and therefore the modelled
//! makespan) while its on-device pass and table upload are fully priced.
//!
//! Writes `BENCH_serve.json` so successive PRs can track the serving
//! trajectory, and prints summary tables.
//!
//! Run with `cargo run --release -p bench --bin serve -- [degree] [elements_per_side] [requests]`
//! (CI runs a tiny smoke size: `-- 3 2 6`).  Passing `--async` makes the
//! Part 3 acceptance criterion a hard assertion (async wall-clock makespan
//! < 0.75x the synchronous path on the multi-slot CPU pool).  Passing
//! `--trace` adds Part 5: one serve of the same workload on the evaluated
//! board under a modelled-clock sem-obs recorder, exporting the Chrome
//! trace (`OBS_trace.json`), the Prometheus snapshot (`OBS_metrics.prom`)
//! and the model-drift calibration report (`OBS_drift.json`) — the
//! committed samples sem-lint's obs-schema pass validates.

use bench::host_cores;
use bench::table::{fmt, TableWriter};
use sem_accel::{Backend, SemSystem};
use sem_obs::{chrome_trace_json, recorder, DriftReport, ObsConfig, Recorder};
use sem_serve::{
    policy_by_name, policy_names, Pinned, PipelineConfig, PipelineTimeline, ProblemSpec,
    ServeOptions, ServeRequest, Server,
};
use sem_solver::{CgOptions, PrecondSpec};
use serde::Serialize;

/// Batch sizes of the per-backend overlap sweep.
const BATCHES: [usize; 2] = [16, 64];

/// The heterogeneous policy-comparison pool: measured host, evaluated
/// board, and a model-designed future device, side by side.
const POLICY_POOL: [&str; 3] = [
    "cpu:parallel",
    "fpga:stratix10-gx2800",
    "fpga:projected:a100-class",
];

/// One (backend, batch) point of the overlap sweep.
#[derive(Debug, Clone, Serialize)]
struct PipelineRow {
    backend: String,
    /// Preconditioner the batch solved with.
    precond: String,
    batch: usize,
    iterations: usize,
    /// Per-RHS on-device preconditioner seconds inside the solve.
    per_rhs_precond_seconds: f64,
    /// Per-RHS kernel seconds.
    per_rhs_operator_seconds: f64,
    /// Per-RHS transfer under the serial (blocking) accounting.
    per_rhs_serial_transfer_seconds: f64,
    /// Per-RHS transfer left exposed by the overlapped pipeline.
    per_rhs_pipelined_transfer_seconds: f64,
    /// Serial per-RHS end-to-end seconds (PR 2's accounting).
    per_rhs_serial_modeled_seconds: f64,
    /// Pipelined per-RHS end-to-end seconds.
    per_rhs_pipelined_modeled_seconds: f64,
    /// Relative end-to-end improvement of the overlap, percent.
    overlap_win_percent: f64,
    /// Kernel-channel utilisation of the overlapped session.
    compute_utilisation: f64,
    /// Once-per-submission kernel launch seconds (stage-timing hook).
    launch_seconds: f64,
    /// Whether the served solutions matched `SemSystem::solve_many` bitwise.
    bitwise_identical: bool,
}

/// One policy of the heterogeneous-pool comparison.
#[derive(Debug, Clone, Serialize)]
struct PolicyRow {
    policy: String,
    /// Preconditioner every solve ran.
    precond: String,
    /// Total CG iterations across the admitted requests.
    total_iterations: u64,
    /// Total preconditioner-apply seconds across the admitted requests.
    precond_apply_seconds: f64,
    requests: usize,
    jobs: usize,
    makespan_seconds: f64,
    serial_makespan_seconds: f64,
    throughput_rps: f64,
    p50_latency_seconds: f64,
    p99_latency_seconds: f64,
    /// `label: requests@utilisation` per device.
    devices: Vec<String>,
}

/// One sync-vs-async comparison of Part 3.
#[derive(Debug, Clone, Serialize)]
struct AsyncRow {
    scenario: String,
    pool: Vec<String>,
    policy: String,
    /// Preconditioner every solve ran.
    precond: String,
    requests: usize,
    max_batch: usize,
    /// Measured wall-clock seconds of the synchronous serve.
    sync_wall_seconds: f64,
    /// Measured wall-clock seconds of `serve_async` on the same stream.
    async_wall_seconds: f64,
    /// `sync_wall / async_wall` — the worker threads' makespan win.
    wall_speedup: f64,
    /// Busy worker-seconds per wall second of the async run.
    async_concurrency: f64,
    /// Jobs executed away from their hinted slot.
    steals: usize,
    /// Whether async answers matched the synchronous ones bitwise.
    bitwise_identical: bool,
    /// Cores the host actually has: worker threads can only shrink the
    /// wall-clock makespan when this exceeds one, so the speedup column
    /// must be read against it.
    host_cores: usize,
}

/// One preconditioner of the Part 4 serving comparison.
#[derive(Debug, Clone, Serialize)]
struct PrecondServeRow {
    precond: String,
    requests: usize,
    jobs: usize,
    /// Total CG iterations across the stream — what FDM collapses.
    total_iterations: u64,
    /// Total on-device preconditioner-apply seconds across the stream.
    precond_apply_seconds: f64,
    makespan_seconds: f64,
    throughput_rps: f64,
    p50_latency_seconds: f64,
    p99_latency_seconds: f64,
}

/// The persisted benchmark.
#[derive(Debug, Clone, Serialize)]
struct ServeBenchReport {
    degree: usize,
    elements_per_side: usize,
    policy_requests: usize,
    pool: Vec<String>,
    /// Preconditioner of Parts 1–3 (the serving default).
    precond: String,
    pipeline: Vec<PipelineRow>,
    policies: Vec<PolicyRow>,
    async_host: Vec<AsyncRow>,
    /// Part 4: identity vs Jacobi vs FDM on the evaluated board.
    precond_serving: Vec<PrecondServeRow>,
}

fn cg() -> CgOptions {
    CgOptions {
        max_iterations: 2000,
        tolerance: 1e-10,
        record_history: false,
    }
}

fn pipeline_sweep(degree: usize, per_side: usize) -> Vec<PipelineRow> {
    let mut table = TableWriter::new(vec![
        "backend",
        "batch",
        "op/RHS (ms)",
        "serial xfer/RHS (ms)",
        "piped xfer/RHS (ms)",
        "serial e2e/RHS (ms)",
        "piped e2e/RHS (ms)",
        "win",
        "kernel util",
    ]);
    let mut rows = Vec::new();
    let spec = ProblemSpec::cube(degree, per_side);
    for name in Backend::registry_names() {
        let backend = Backend::from_name(&name).expect("registry name resolves");
        if !backend.is_simulated() {
            // Host backends move no data; the pipeline degenerates and the
            // overlap story is about the accelerators.
            continue;
        }
        let system = SemSystem::builder()
            .degree(degree)
            .elements([per_side; 3])
            .backend(backend)
            .build();
        // Cross-check once per backend: the serving path returns the very
        // same vectors (batched solves are batch-size independent, so the
        // smallest batch suffices — the per-batch sweep below reuses the
        // verdict instead of re-solving every workload twice).
        let check_batch = BATCHES[0];
        let check_reports = system.solve_many_manufactured(check_batch, cg());
        let mut server = Server::from_registry_names(
            &[name.as_str()],
            ServeOptions {
                cg: cg(),
                max_batch: check_batch,
                ..ServeOptions::default()
            },
        );
        let requests: Vec<ServeRequest> = (0..check_batch)
            .map(|_| ServeRequest::manufactured(spec))
            .collect();
        let served = server.serve(&requests, &mut sem_serve::RoundRobin::default());
        let bitwise_identical = served
            .outcomes
            .iter()
            .zip(&check_reports)
            .all(|(o, r)| o.solution.as_slice() == r.solution.solution.as_slice());

        for batch in BATCHES {
            let reports = if batch == check_batch {
                check_reports.clone()
            } else {
                system.solve_many_manufactured(batch, cg())
            };
            let timeline = PipelineTimeline::from_reports(
                system.offload_plan().as_ref(),
                &reports,
                PipelineConfig::default(),
            );
            let b = batch as f64;
            let per_rhs_operator_seconds =
                reports.iter().map(|r| r.operator.seconds).sum::<f64>() / b;
            let per_rhs_precond_seconds =
                reports.iter().map(|r| r.precond_seconds).sum::<f64>() / b;
            let per_rhs_serial_transfer_seconds =
                reports.iter().map(|r| r.transfer_seconds).sum::<f64>() / b;
            let per_rhs_pipelined_transfer_seconds = reports
                .iter()
                .map(|r| r.pipelined_transfer_seconds)
                .sum::<f64>()
                / b;
            let compute = per_rhs_operator_seconds + per_rhs_precond_seconds;
            let serial = compute + per_rhs_serial_transfer_seconds;
            let pipelined = compute + per_rhs_pipelined_transfer_seconds;
            let launch_seconds = system.accelerator().map_or(0.0, |acc| {
                acc.stage_timing(spec.num_elements()).launch_seconds
            });
            let row = PipelineRow {
                backend: name.clone(),
                precond: reports[0].precond.label().to_string(),
                batch,
                iterations: reports[0].iterations(),
                per_rhs_precond_seconds,
                per_rhs_operator_seconds,
                per_rhs_serial_transfer_seconds,
                per_rhs_pipelined_transfer_seconds,
                per_rhs_serial_modeled_seconds: serial,
                per_rhs_pipelined_modeled_seconds: pipelined,
                overlap_win_percent: (1.0 - pipelined / serial) * 100.0,
                compute_utilisation: timeline.compute_utilisation(),
                launch_seconds,
                bitwise_identical,
            };
            table.row(vec![
                name.clone(),
                batch.to_string(),
                fmt(row.per_rhs_operator_seconds * 1e3, 3),
                fmt(row.per_rhs_serial_transfer_seconds * 1e3, 4),
                fmt(row.per_rhs_pipelined_transfer_seconds * 1e3, 4),
                fmt(row.per_rhs_serial_modeled_seconds * 1e3, 3),
                fmt(row.per_rhs_pipelined_modeled_seconds * 1e3, 3),
                format!("{:.1}%", row.overlap_win_percent),
                format!("{:.0}%", row.compute_utilisation * 100.0),
            ]);
            rows.push(row);
        }
    }
    table.print();
    rows
}

fn policy_sweep(degree: usize, per_side: usize, num_requests: usize) -> Vec<PolicyRow> {
    let spec = ProblemSpec::cube(degree, per_side);
    let requests: Vec<ServeRequest> = (0..num_requests)
        .map(|i| ServeRequest::seeded(spec, i as u64))
        .collect();
    let mut table = TableWriter::new(vec![
        "policy",
        "makespan (ms)",
        "serial (ms)",
        "rps",
        "p50 (ms)",
        "p99 (ms)",
        "placement",
    ]);
    let mut rows = Vec::new();
    for name in policy_names() {
        let mut policy = policy_by_name(name).expect("known policy");
        let mut server = Server::from_registry_names(
            &POLICY_POOL,
            ServeOptions {
                cg: cg(),
                max_batch: 4,
                ..ServeOptions::default()
            },
        );
        let report = server.serve(&requests, policy.as_mut());
        let summary = report.summary();
        let p50 = summary
            .p50_latency_seconds
            .expect("policy run admits requests");
        let p99 = summary
            .p99_latency_seconds
            .expect("policy run admits requests");
        let devices: Vec<String> = summary
            .devices
            .iter()
            .map(|d| format!("{}: {}@{:.0}%", d.label, d.requests, d.utilisation * 100.0))
            .collect();
        table.row(vec![
            name.to_string(),
            fmt(summary.makespan_seconds * 1e3, 3),
            fmt(summary.serial_makespan_seconds * 1e3, 3),
            fmt(summary.throughput_rps, 1),
            fmt(p50 * 1e3, 3),
            fmt(p99 * 1e3, 3),
            devices.join(", "),
        ]);
        rows.push(PolicyRow {
            policy: name.to_string(),
            precond: summary.precond.clone(),
            total_iterations: summary.total_iterations,
            precond_apply_seconds: summary.precond_apply_seconds,
            requests: summary.requests,
            jobs: summary.jobs,
            makespan_seconds: summary.makespan_seconds,
            serial_makespan_seconds: summary.serial_makespan_seconds,
            throughput_rps: summary.throughput_rps,
            p50_latency_seconds: p50,
            p99_latency_seconds: p99,
            devices,
        });
    }
    table.print();
    rows
}

/// One Part 3 scenario: run the same stream through both hosts and compare.
fn async_scenario(
    scenario: &str,
    pool: &[&str],
    policy_name: &str,
    requests: &[ServeRequest],
    max_batch: usize,
) -> AsyncRow {
    let options = ServeOptions {
        cg: cg(),
        max_batch,
        ..ServeOptions::default()
    };
    // A fresh policy per host: stateful policies (round-robin's cursor)
    // must hand both runs identical placement hints.
    let make_policy = || -> Box<dyn sem_serve::SchedulingPolicy> {
        match policy_name {
            "pinned" => Box::new(Pinned(0)),
            name => policy_by_name(name).expect("known policy"),
        }
    };
    let mut sync_server = Server::from_registry_names(pool, options);
    let sync = sync_server.serve(requests, make_policy().as_mut());
    let mut async_server = Server::from_registry_names(pool, options);
    let run = async_server.serve_async(requests, make_policy().as_mut());
    let bitwise_identical = run
        .outcomes
        .iter()
        .zip(&sync.outcomes)
        .all(|(a, s)| a.solution.as_slice() == s.solution.as_slice());
    AsyncRow {
        scenario: scenario.to_string(),
        pool: pool.iter().map(ToString::to_string).collect(),
        policy: policy_name.to_string(),
        precond: run.precond.clone(),
        requests: requests.len(),
        max_batch,
        sync_wall_seconds: sync.wall_seconds,
        async_wall_seconds: run.wall_seconds,
        wall_speedup: sync.wall_seconds / run.wall_seconds,
        async_concurrency: run.measured_concurrency(),
        steals: run.total_steals(),
        bitwise_identical,
        host_cores: host_cores(),
    }
}

fn async_sweep(degree: usize, per_side: usize, num_requests: usize) -> Vec<AsyncRow> {
    // Wall-clock parallelism only shows once a job outweighs the thread and
    // queue overheads, so the async comparison floors the problem size:
    // sub-millisecond smoke jobs would measure scheduling noise, not the
    // host.  (The solves themselves stay bitwise-checked at every size.)
    let spec = ProblemSpec::cube(degree.max(6), per_side.max(2));
    let num_requests = num_requests.max(8);
    let requests: Vec<ServeRequest> = (0..num_requests)
        .map(|i| ServeRequest::seeded(spec, i as u64))
        .collect();
    // Single-request jobs on single-threaded CPU slots: the synchronous
    // host leaves three of four cores idle, the async host does not.
    let cpu_pool = [
        "cpu:optimized",
        "cpu:optimized",
        "cpu:optimized",
        "cpu:optimized",
    ];
    let rows = vec![
        async_scenario("cpu-pool", &cpu_pool, "round-robin", &requests, 1),
        // Everything hinted to slot 0: the other slots only serve by
        // stealing, which is the whole point of the deque host.
        async_scenario("steal-rebalance", &cpu_pool, "pinned", &requests, 1),
    ];
    let mut table = TableWriter::new(vec![
        "scenario",
        "policy",
        "sync wall (ms)",
        "async wall (ms)",
        "speedup",
        "concurrency",
        "steals",
        "bitwise",
    ]);
    for row in &rows {
        table.row(vec![
            row.scenario.clone(),
            row.policy.clone(),
            fmt(row.sync_wall_seconds * 1e3, 3),
            fmt(row.async_wall_seconds * 1e3, 3),
            format!("{:.2}x", row.wall_speedup),
            format!("{:.2}", row.async_concurrency),
            row.steals.to_string(),
            row.bitwise_identical.to_string(),
        ]);
    }
    table.print();
    rows
}

fn precond_sweep(degree: usize, per_side: usize, num_requests: usize) -> Vec<PrecondServeRow> {
    let spec = ProblemSpec::cube(degree, per_side);
    let requests: Vec<ServeRequest> = (0..num_requests)
        .map(|i| ServeRequest::seeded(spec, i as u64))
        .collect();
    let mut table = TableWriter::new(vec![
        "precond",
        "iters (total)",
        "pc apply (ms)",
        "makespan (ms)",
        "rps",
        "p99 (ms)",
    ]);
    let mut rows = Vec::new();
    for precond in PrecondSpec::all() {
        let options = ServeOptions {
            cg: cg(),
            max_batch: 4,
            ..ServeOptions::default()
        }
        .with_precond(precond);
        let mut server = Server::from_registry_names(&["fpga:stratix10-gx2800"], options);
        let mut policy = policy_by_name("model-optimal").expect("known policy");
        let report = server.serve(&requests, policy.as_mut());
        assert!(report.outcomes.iter().all(|o| o.converged));
        let summary = report.summary();
        let p50 = summary
            .p50_latency_seconds
            .expect("precond run admits requests");
        let p99 = summary
            .p99_latency_seconds
            .expect("precond run admits requests");
        table.row(vec![
            summary.precond.clone(),
            summary.total_iterations.to_string(),
            fmt(summary.precond_apply_seconds * 1e3, 3),
            fmt(summary.makespan_seconds * 1e3, 3),
            fmt(summary.throughput_rps, 1),
            fmt(p99 * 1e3, 3),
        ]);
        rows.push(PrecondServeRow {
            precond: summary.precond,
            requests: summary.requests,
            jobs: summary.jobs,
            total_iterations: summary.total_iterations,
            precond_apply_seconds: summary.precond_apply_seconds,
            makespan_seconds: summary.makespan_seconds,
            throughput_rps: summary.throughput_rps,
            p50_latency_seconds: p50,
            p99_latency_seconds: p99,
        });
    }
    table.print();
    rows
}

/// Part 5 (`--trace`): serve the workload once more on the evaluated board
/// under a modelled-clock recorder and export the three OBS artifacts.
fn observability_export(degree: usize, per_side: usize, num_requests: usize) {
    Recorder::install(ObsConfig::default());
    let spec = ProblemSpec::cube(degree, per_side);
    let requests: Vec<ServeRequest> = (0..num_requests)
        .map(|i| ServeRequest::seeded(spec, i as u64))
        .collect();
    let mut server = Server::from_registry_names(
        &["fpga:stratix10-gx2800"],
        ServeOptions {
            cg: cg(),
            max_batch: 4,
            ..ServeOptions::default()
        },
    );
    let mut policy = policy_by_name("model-optimal").expect("known policy");
    let report = server.serve(&requests, policy.as_mut());
    assert!(report.outcomes.iter().all(|o| o.converged));

    let obs = recorder();
    let snapshot = obs.trace_snapshot();
    assert_eq!(snapshot.dropped_events, 0, "ring must hold the whole serve");
    let trace = chrome_trace_json(&snapshot);
    std::fs::write("OBS_trace.json", format!("{trace}\n")).expect("write OBS_trace.json");

    let metrics = obs.prometheus_text();
    std::fs::write("OBS_metrics.prom", &metrics).expect("write OBS_metrics.prom");

    let samples = obs.drift_samples();
    let drift = DriftReport::aggregate(&samples, perf_model::suspect_term);
    std::fs::write("OBS_drift.json", format!("{}\n", drift.to_json()))
        .expect("write OBS_drift.json");
    Recorder::uninstall();

    let spans = snapshot.events.len();
    let families = metrics.lines().filter(|l| l.starts_with("# TYPE")).count();
    println!(
        "\nPart 5 — observability export ({num_requests} requests on \
         fpga:stratix10-gx2800, modelled clock):\n\
         \n  OBS_trace.json    {spans} spans across {} lanes\n  \
         OBS_metrics.prom  {families} metric families\n  \
         OBS_drift.json    {} samples, {} (stage, backend) rows",
        trace.matches("thread_name").count(),
        drift.total_samples,
        drift.rows.len()
    );
    if let Some(worst) = drift.rows.first() {
        println!(
            "  worst drift: stage `{}` on {} (mean |residual| {:.3e} s) — suspect {}",
            worst.stage, worst.backend, worst.mean_abs_residual_seconds, worst.suspect_term
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let strict_async = args.iter().any(|arg| arg == "--async");
    let trace = args.iter().any(|arg| arg == "--trace");
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let degree: usize = positional.first().and_then(|s| s.parse().ok()).unwrap_or(7);
    let per_side: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let num_requests: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(24);

    println!(
        "Pipelined serving: N = {degree}, {per_side}x{per_side}x{per_side} elements\n\
         \nPart 1 — overlap win per simulated backend (batches {BATCHES:?}):\n"
    );
    let pipeline = pipeline_sweep(degree, per_side);
    assert!(
        pipeline.iter().all(|row| row.bitwise_identical),
        "served solutions must be bitwise identical to SemSystem::solve_many"
    );

    println!(
        "\nPart 2 — scheduling policies over {POLICY_POOL:?} ({num_requests} requests, \
         max batch 4):\n"
    );
    let policies = policy_sweep(degree, per_side, num_requests);

    println!(
        "\nPart 3 — async host vs synchronous serve ({num_requests} requests, \
         4x cpu:optimized, max batch 1):\n"
    );
    let async_host = async_sweep(degree, per_side, num_requests);
    assert!(
        async_host.iter().all(|row| row.bitwise_identical),
        "async answers must be bitwise identical to the synchronous host"
    );
    // The pinned pool virtually always exhibits stealing, but whether a
    // sibling wakes before the hinted worker drains its deque is ultimately
    // an OS scheduling race — report, don't abort (the deterministic steal
    // guarantees live in the sem-serve test battery).
    if !async_host
        .iter()
        .any(|row| row.scenario == "steal-rebalance" && row.steals > 0)
    {
        println!(
            "\nnote: the pinned pool recorded no steals this run (the hinted worker \
             outran its siblings); see sem-serve/tests/async_serving.rs for the \
             structural guarantee."
        );
    }
    if strict_async {
        let cpu = async_host
            .iter()
            .find(|row| row.scenario == "cpu-pool")
            .expect("cpu-pool row");
        if host_cores() >= 2 {
            assert!(
                cpu.async_wall_seconds < 0.75 * cpu.sync_wall_seconds,
                "--async acceptance: async wall {:.3} ms must be < 0.75x sync wall {:.3} ms",
                cpu.async_wall_seconds * 1e3,
                cpu.sync_wall_seconds * 1e3
            );
            println!(
                "\n--async acceptance held: {:.2}x wall-clock speedup on the CPU pool.",
                cpu.sync_wall_seconds / cpu.async_wall_seconds
            );
        } else {
            // One core: worker threads cannot shrink the makespan, only
            // interleave.  The criterion degrades to "the async host costs
            // almost nothing and still answers bitwise" — the speedup
            // assertion runs on multi-core CI.
            assert!(
                cpu.async_wall_seconds < 1.5 * cpu.sync_wall_seconds,
                "--async on one core: the work-stealing host may cost at most 50% overhead, \
                 got {:.3} ms vs {:.3} ms",
                cpu.async_wall_seconds * 1e3,
                cpu.sync_wall_seconds * 1e3
            );
            println!(
                "\n--async acceptance (single-core host): no parallel speedup is physically \
                 available; verified bitwise identity and {:.1}% host overhead instead.",
                (cpu.async_wall_seconds / cpu.sync_wall_seconds - 1.0) * 100.0
            );
        }
    }

    println!(
        "\nPart 4 — preconditioner serving win on fpga:stratix10-gx2800 \
         ({num_requests} requests, model-optimal):\n"
    );
    let precond_serving = precond_sweep(degree, per_side, num_requests);
    {
        let find = |label: &str| {
            precond_serving
                .iter()
                .find(|r| r.precond == label)
                .expect("swept precond")
        };
        let (jacobi, fdm) = (find("jacobi"), find("fdm"));
        println!(
            "\nFDM vs Jacobi: {:.0}% fewer total iterations, {:.2}x the throughput.",
            (1.0 - fdm.total_iterations as f64 / jacobi.total_iterations as f64) * 100.0,
            fdm.throughput_rps / jacobi.throughput_rps
        );
    }

    if trace {
        observability_export(degree, per_side, num_requests);
    }

    let report = ServeBenchReport {
        degree,
        elements_per_side: per_side,
        policy_requests: num_requests,
        pool: POLICY_POOL.iter().map(ToString::to_string).collect(),
        precond: PrecondSpec::default().label().to_string(),
        pipeline,
        policies,
        async_host,
        precond_serving,
    };
    let json = serde::json::to_string(&report);
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!(
        "\nWrote BENCH_serve.json ({} pipeline rows, {} policies, {} async rows, \
         {} precond rows).\n\
         Overlap rows pipeline upload(i+1) / solve(i) / download(i-1); policy rows\n\
         serve the heterogeneous CPU + FPGA + projected-device pool; async rows\n\
         compare the work-stealing worker-thread host against the synchronous path;\n\
         precond rows price identity vs Jacobi vs FDM end to end on the evaluated board.",
        report.pipeline.len(),
        report.policies.len(),
        report.async_host.len(),
        report.precond_serving.len()
    );
}
