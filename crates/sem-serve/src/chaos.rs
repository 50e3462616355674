//! The fault-tolerant serving host: [`Server::serve_chaos`].
//!
//! A deterministic, synchronous host that serves a request set against
//! devices armed with [`Server::inject_faults`] plans, running the full
//! recovery loop in *modeled time*:
//!
//! 1. **Detect** — typed solver faults (death, hang) abort a job; released
//!    answers are re-verified by recomputing `‖b − Ax‖` on the trusted host
//!    operator against the request tolerance; sessions whose modeled
//!    seconds blow `timeout_factor ×` the drift-corrected admission
//!    prediction are treated as timed out (the sticky-slowdown signature).
//! 2. **Retry** — failed jobs requeue with capped exponential backoff
//!    (modeled seconds) and a per-request [`RetryLedger`]; past
//!    [`FaultToleranceOptions::max_retries`] a job is pinned to the
//!    fallback device — the first clean `cpu:*` slot — so admitted work
//!    completes even when every accelerator is dark.
//! 3. **Quarantine** — each device's [`CircuitBreaker`] walks
//!    healthy → suspect → quarantined and re-admits by probe after a
//!    modeled cooldown; quarantined devices leave the placement set.
//!
//! Placement is earliest-corrected-completion over the non-quarantined
//! accelerators (`cpu:*` slots in a mixed pool are held in reserve as the
//! degradation target, keeping the committed chaos artifacts free of
//! measured wall-clock), ties broken by pool index.  Nothing consults a
//! wall clock, so a given pool + fault plan + request set replays bitwise.
//!
//! Because the injected fault wrapper is transparent when not faulting,
//! any request that ultimately succeeds on a backend equivalent to its
//! fault-free placement returns the bitwise-identical solution vector.

use crate::fault::{
    relative_residual, CircuitBreaker, FaultReason, FaultToleranceOptions, RetryLedger,
};
use crate::queue::{BatchJob, SolveQueue};
use crate::request::ServeRequest;
use crate::server::{RequestOutcome, Server};
use perf_model::DriftCorrector;
use sem_obs::{recorder, WallTimer};
use serde::{Deserialize, Serialize};

/// One detected fault, on the modeled clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Modeled seconds at which the fault was detected (the failed
    /// session's end).
    pub at_seconds: f64,
    /// Device the job was running on.
    pub device: usize,
    /// That device's display label.
    pub device_label: String,
    /// What detection concluded.
    pub reason: FaultReason,
    /// Requests riding the failed job.
    pub requests: Vec<usize>,
    /// The job's failed-attempt count after this fault.
    pub attempt: usize,
}

/// The result of one chaos serve.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One verified outcome per served request, sorted by request index.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests that could not be completed — non-empty only when every
    /// device in the pool is dead.  Never silently dropped.
    pub unserved: Vec<usize>,
    /// Per-request retry history.
    pub ledger: RetryLedger,
    /// Final per-device breaker states.
    pub breakers: Vec<CircuitBreaker>,
    /// Every detected fault, in detection order.
    pub fault_events: Vec<FaultEvent>,
    /// Jobs that exhausted their retries and ran on the fallback device.
    pub fallback_jobs: usize,
    /// Probe jobs offered to quarantined devices.
    pub probes: usize,
    /// Requests that completed after at least one failed attempt.
    pub recovered_requests: usize,
    /// Modeled end-to-end seconds (slowest device, including backoff
    /// waits).
    pub makespan_seconds: f64,
    /// Measured wall-clock seconds of the whole call on this host.
    pub wall_seconds: f64,
}

impl ChaosReport {
    /// Latency at percentile `p` over the served requests' completion
    /// times (arrival is time zero), `None` when nothing completed.
    #[must_use]
    pub fn latency_percentile_seconds(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::latency_seconds)
            .collect();
        perf_model::nearest_rank_percentile(&latencies, p)
    }

    /// Devices quarantined when the run ended.
    #[must_use]
    pub fn quarantined_at_end(&self) -> usize {
        self.breakers.iter().filter(|b| b.is_quarantined()).count()
    }

    /// The serde-friendly aggregate (what the chaos bench persists).
    #[must_use]
    pub fn summary(&self) -> ChaosSummary {
        ChaosSummary {
            requests: self.outcomes.len() + self.unserved.len(),
            completed: self.outcomes.len(),
            unserved: self.unserved.len(),
            retries_total: self.ledger.total_retries(),
            faults_by_reason: self.ledger.by_reason(),
            fallback_jobs: self.fallback_jobs,
            probes: self.probes,
            recovered_requests: self.recovered_requests,
            quarantines_total: self.breakers.iter().map(|b| b.quarantines).sum(),
            quarantined_at_end: self.quarantined_at_end(),
            device_faults: self.breakers.iter().map(|b| b.faults).collect(),
            makespan_seconds: self.makespan_seconds,
            p50_latency_seconds: self.latency_percentile_seconds(50.0),
            p99_latency_seconds: self.latency_percentile_seconds(99.0),
        }
    }
}

/// Serializable aggregate of a chaos serve (modeled figures only — the
/// committed chaos artifact must replay bitwise).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Requests submitted.
    pub requests: usize,
    /// Requests completed verified.
    pub completed: usize,
    /// Requests that could not be completed (0 unless the whole pool
    /// died).
    pub unserved: usize,
    /// Failed attempts across all requests.
    pub retries_total: usize,
    /// Failed attempts per detection reason, `(label, count)` in stable
    /// label order.
    pub faults_by_reason: Vec<(String, usize)>,
    /// Jobs that ran on the fallback device after exhausting retries.
    pub fallback_jobs: usize,
    /// Probe jobs offered to quarantined devices.
    pub probes: usize,
    /// Requests that completed after at least one failed attempt.
    pub recovered_requests: usize,
    /// Quarantine entries across all devices.
    pub quarantines_total: usize,
    /// Devices still quarantined at the end of the run.
    pub quarantined_at_end: usize,
    /// Lifetime fault count per device, by pool index.
    pub device_faults: Vec<usize>,
    /// Modeled end-to-end seconds.
    pub makespan_seconds: f64,
    /// Median latency over served requests.
    pub p50_latency_seconds: Option<f64>,
    /// 99th-percentile latency over served requests.
    pub p99_latency_seconds: Option<f64>,
}

/// A job waiting its turn (or its backoff) in the chaos loop.
struct PendingJob {
    job: BatchJob,
    attempts: usize,
    not_before_seconds: f64,
    seq: usize,
}

impl Server {
    /// Serve `requests` on the fault-tolerant host.  See the
    /// [module docs](self) for the recovery loop; with no injected fault
    /// plans this degenerates to a plain earliest-completion synchronous
    /// serve (the baseline the chaos bench compares against).
    ///
    /// # Panics
    /// Panics if a request's problem spec cannot be built on a pool device.
    pub fn serve_chaos(
        &mut self,
        requests: &[ServeRequest],
        chaos: FaultToleranceOptions,
    ) -> ChaosReport {
        let started = WallTimer::start();
        let pool = self.slots.len();
        let obs = recorder();

        // cpu:* slots in a mixed pool are the degradation reserve, not part
        // of normal placement: their sessions are host-measured, and the
        // committed chaos artifacts must stay on the modeled clock.
        let accel: Vec<usize> = (0..pool)
            .filter(|&d| !self.slots[d].label.starts_with("cpu"))
            .collect();
        let normal_set: Vec<usize> = if accel.is_empty() {
            (0..pool).collect()
        } else {
            accel
        };

        let mut pending: Vec<PendingJob> = SolveQueue::from_requests(requests)
            .pack(self.options.max_batch)
            .into_iter()
            .enumerate()
            .map(|(seq, job)| PendingJob {
                job,
                attempts: 0,
                not_before_seconds: 0.0,
                seq,
            })
            .collect();
        let mut seq = pending.len();

        let mut busy = vec![0.0_f64; pool];
        let mut breakers = vec![CircuitBreaker::new(); pool];
        let mut ledger = RetryLedger::new();
        let mut corrector = DriftCorrector::new();
        let mut fault_events = Vec::new();
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..requests.len()).map(|_| None).collect();
        let mut unserved = Vec::new();
        let mut fallback_jobs = 0_usize;
        let mut probes = 0_usize;
        let mut recovered_requests = 0_usize;
        // Backstop far beyond any plan the retry/fallback ladder can hit:
        // only an all-dead pool reaches it, and those jobs land in
        // `unserved` rather than looping forever.
        let attempt_ceiling = chaos.max_retries + pool + 2;

        while let Some(slot) = next_pending(&pending) {
            let PendingJob {
                job,
                attempts,
                not_before_seconds,
                ..
            } = pending.swap_remove(slot);

            let device = if attempts > chaos.max_retries {
                match self.fallback_device(attempts, attempt_ceiling) {
                    Some(device) => device,
                    None => {
                        unserved.extend(job.requests.iter().copied());
                        continue;
                    }
                }
            } else {
                match self.place_chaos(
                    &job,
                    &normal_set,
                    &breakers,
                    &corrector,
                    &busy,
                    not_before_seconds,
                    chaos.probe_cooldown_seconds,
                ) {
                    Placement::Device(device) => device,
                    Placement::WaitUntil(when) => {
                        pending.push(PendingJob {
                            job,
                            attempts,
                            not_before_seconds: when,
                            seq,
                        });
                        seq += 1;
                        continue;
                    }
                }
            };

            let probe = breakers[device].is_quarantined();
            if probe {
                probes += 1;
            }
            self.ensure_system(device, job.spec);
            let raw_predicted = self.predict_job_seconds(device, &job);
            let budget = chaos.timeout_factor * corrector.corrected(raw_predicted);
            let start = busy[device].max(not_before_seconds);
            let system = self.system(device, job.spec);
            let (timeline, mut job_outcomes, modeled) =
                self.execute_job_on(system, device, &job, requests);
            let makespan = timeline.makespan_seconds;
            let end = start + makespan;
            busy[device] = end;

            let verdict = job_outcomes
                .iter()
                .find_map(|o| o.fault.map(FaultReason::of_solve_fault))
                .or_else(|| {
                    let corrupt = job_outcomes.iter().zip(&job.requests).any(|(o, &i)| {
                        if !o.converged {
                            return true;
                        }
                        let rhs = requests[i].assemble_rhs(system);
                        let residual = relative_residual(system, &rhs, &o.solution);
                        !chaos.residual_ok(residual, self.options.cg.tolerance)
                    });
                    corrupt.then_some(FaultReason::CorruptResult)
                })
                .or_else(|| (modeled && makespan > budget).then_some(FaultReason::TimeoutExceeded));

            match verdict {
                None => {
                    if probe {
                        breakers[device].probe_ok();
                    } else {
                        breakers[device].on_success();
                    }
                    if attempts > 0 {
                        recovered_requests += job.requests.len();
                        if obs.is_enabled() {
                            obs.counter_add(
                                "sem_serve_fault_recoveries_total",
                                &[],
                                job.requests.len() as u64,
                            );
                        }
                    }
                    if attempts > chaos.max_retries {
                        fallback_jobs += 1;
                    }
                    if modeled {
                        corrector.record(raw_predicted, makespan);
                    }
                    for mut outcome in job_outcomes.drain(..) {
                        outcome.started_seconds = start;
                        outcome.completed_seconds = end;
                        let request = outcome.request;
                        assert!(
                            outcomes[request].replace(outcome).is_none(),
                            "request {request} answered twice"
                        );
                    }
                }
                Some(reason) => {
                    breakers[device].on_fault(end);
                    let attempts = attempts + 1;
                    let backoff = chaos.backoff_seconds(attempts);
                    for &request in &job.requests {
                        ledger.charge(request, reason, backoff);
                    }
                    if obs.is_enabled() {
                        obs.counter_add(
                            "sem_serve_fault_detections_total",
                            &[("kind", reason.label())],
                            1,
                        );
                        obs.counter_add("sem_serve_retries_total", &[], 1);
                        obs.gauge_set(
                            "sem_serve_quarantined_devices_count",
                            &[],
                            breakers.iter().filter(|b| b.is_quarantined()).count() as f64,
                        );
                    }
                    fault_events.push(FaultEvent {
                        at_seconds: end,
                        device,
                        device_label: self.slots[device].label.clone(),
                        reason,
                        requests: job.requests.clone(),
                        attempt: attempts,
                    });
                    if attempts >= attempt_ceiling {
                        unserved.extend(job.requests.iter().copied());
                    } else {
                        pending.push(PendingJob {
                            job,
                            attempts,
                            not_before_seconds: end + backoff,
                            seq,
                        });
                        seq += 1;
                    }
                }
            }
        }

        let makespan_seconds = busy.iter().copied().fold(0.0_f64, f64::max);
        let outcomes: Vec<RequestOutcome> = outcomes.into_iter().flatten().collect();
        unserved.sort_unstable();
        assert_eq!(
            outcomes.len() + unserved.len(),
            requests.len(),
            "every request is served or reported unserved exactly once"
        );
        ChaosReport {
            outcomes,
            unserved,
            ledger,
            breakers,
            fault_events,
            fallback_jobs,
            probes,
            recovered_requests,
            makespan_seconds,
            wall_seconds: started.elapsed_wall_seconds(),
        }
    }

    /// The device a retry-exhausted job is pinned to: the lowest-index
    /// clean (no fault plan) `cpu:*` slot, then any clean slot, then any
    /// slot whose device is not dead.  `None` only when every device in
    /// the pool is dead (or the termination backstop tripped).
    fn fallback_device(&self, attempts: usize, attempt_ceiling: usize) -> Option<usize> {
        if attempts >= attempt_ceiling {
            return None;
        }
        let usable = |d: &usize| {
            self.fault_states[*d]
                .as_ref()
                .is_none_or(|state| !state.is_dead())
        };
        (0..self.slots.len()).filter(usable).min_by_key(|&d| {
            (
                self.fault_states[d].is_some(),
                !self.slots[d].label.starts_with("cpu"),
                d,
            )
        })
    }

    /// Earliest-corrected-completion placement over the normal set, honouring
    /// quarantine: a quarantined device is a candidate only as a probe
    /// (cooldown elapsed by the time it could start).  Returns the modeled
    /// time to wait until when nothing is placeable yet.
    #[allow(clippy::too_many_arguments)]
    fn place_chaos(
        &mut self,
        job: &BatchJob,
        normal_set: &[usize],
        breakers: &[CircuitBreaker],
        corrector: &DriftCorrector,
        busy: &[f64],
        not_before_seconds: f64,
        probe_cooldown_seconds: f64,
    ) -> Placement {
        let mut best: Option<(f64, usize)> = None;
        for &d in normal_set {
            let start = busy[d].max(not_before_seconds);
            if breakers[d].is_quarantined() && !breakers[d].probe_due(start, probe_cooldown_seconds)
            {
                continue;
            }
            self.ensure_system(d, job.spec);
            let predicted = corrector.corrected(self.predict_job_seconds(d, job));
            let completion = start + predicted;
            let better = match best {
                None => true,
                Some((incumbent, _)) => completion < incumbent,
            };
            if better {
                best = Some((completion, d));
            }
        }
        if let Some((_, device)) = best {
            return Placement::Device(device);
        }
        // Everything quarantined with no probe due yet: wait for the
        // earliest probe eligibility.  (Non-empty: a fully non-quarantined
        // set always yields a candidate above.)
        let earliest = normal_set
            .iter()
            .filter_map(|&d| match breakers[d].state() {
                crate::fault::BreakerState::Quarantined { since_seconds } => {
                    Some(busy[d].max(since_seconds + probe_cooldown_seconds))
                }
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        Placement::WaitUntil(earliest.max(not_before_seconds))
    }
}

/// What [`Server::place_chaos`] decided.
enum Placement {
    Device(usize),
    WaitUntil(f64),
}

/// Index of the next pending job: earliest `not_before`, ties by sequence
/// number — a deterministic total order however retries interleave.
fn next_pending(pending: &[PendingJob]) -> Option<usize> {
    pending
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.not_before_seconds
                .total_cmp(&b.not_before_seconds)
                .then(a.seq.cmp(&b.seq))
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::BreakerState;
    use crate::request::ProblemSpec;
    use crate::server::ServeOptions;
    use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};

    const FPGA: &str = "fpga:stratix10-gx2800";

    fn requests(n: usize) -> Vec<ServeRequest> {
        let spec = ProblemSpec::cube(3, 2);
        (0..n)
            .map(|i| ServeRequest::seeded(spec, i as u64))
            .collect()
    }

    fn server(names: &[&str]) -> Server {
        Server::from_registry_names(
            names,
            ServeOptions {
                max_batch: 2,
                ..ServeOptions::default()
            },
        )
    }

    #[test]
    fn a_fault_free_chaos_serve_degenerates_to_a_plain_serve() {
        let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
        let report = server.serve_chaos(&requests(6), FaultToleranceOptions::default());
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.unserved.is_empty());
        assert_eq!(report.ledger.total_retries(), 0);
        assert!(report.fault_events.is_empty());
        assert_eq!(report.fallback_jobs, 0);
        assert!(report
            .breakers
            .iter()
            .all(|b| b.state() == BreakerState::Healthy));
        // cpu reserve never drafted into normal placement.
        assert!(report.outcomes.iter().all(|o| o.device != 2));
        // Outcomes are in request order.
        let order: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn a_transient_corruption_is_detected_retried_and_recovered() {
        let mut server = server(&[FPGA, "cpu:optimized"]);
        server.inject_faults(
            0,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 2,
                kind: FaultKind::Transient,
            }]),
        );
        let report = server.serve_chaos(&requests(2), FaultToleranceOptions::default());
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.unserved.is_empty());
        assert!(report.ledger.total_retries() >= 1);
        assert!(report
            .fault_events
            .iter()
            .any(|e| e.reason == FaultReason::CorruptResult));
        assert!(report.recovered_requests >= 1);
        // One strike leaves the device suspect or rehabilitated, never
        // quarantined.
        assert_eq!(report.quarantined_at_end(), 0);
        // Every released answer re-verifies on the trusted operator.
        for outcome in &report.outcomes {
            assert!(outcome.converged);
            assert!(outcome.fault.is_none());
        }
    }

    #[test]
    fn retried_answers_are_bitwise_identical_to_the_fault_free_run() {
        // Same single-device pool with and without a transient: the
        // faulted run's released answers must match the clean run bit for
        // bit (the retry re-ran past the scheduled upset on an equivalent
        // backend).
        let reqs = requests(2);
        let mut clean = server(&[FPGA]);
        let clean_report = clean.serve_chaos(&reqs, FaultToleranceOptions::default());
        let mut faulty = server(&[FPGA]);
        faulty.inject_faults(
            0,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 1,
                kind: FaultKind::Transient,
            }]),
        );
        let faulty_report = faulty.serve_chaos(&reqs, FaultToleranceOptions::default());
        assert!(faulty_report.ledger.total_retries() >= 1, "fault observed");
        assert_eq!(clean_report.outcomes.len(), faulty_report.outcomes.len());
        for (a, b) in clean_report.outcomes.iter().zip(&faulty_report.outcomes) {
            assert_eq!(a.request, b.request);
            assert_eq!(
                a.solution.as_slice(),
                b.solution.as_slice(),
                "request {} answer drifted across the fault",
                a.request
            );
        }
    }

    #[test]
    fn a_dead_device_is_quarantined_and_its_work_completes_elsewhere() {
        let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
        server.inject_faults(
            0,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 0,
                kind: FaultKind::Death,
            }]),
        );
        let report = server.serve_chaos(&requests(6), FaultToleranceOptions::default());
        assert_eq!(report.outcomes.len(), 6, "no request lost to the death");
        assert!(report.unserved.is_empty());
        assert!(report
            .fault_events
            .iter()
            .any(|e| e.reason == FaultReason::DeviceDead && e.device == 0));
        // The dead device ends quarantined (probes keep failing), and all
        // answers came from the healthy accelerator.
        assert!(report.breakers[0].is_quarantined() || report.breakers[0].faults >= 2);
        assert!(report.outcomes.iter().all(|o| o.device == 1));
    }

    #[test]
    fn a_hang_is_detected_as_a_typed_fault() {
        let mut server = server(&[FPGA, "cpu:optimized"]);
        server.inject_faults(
            0,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 1,
                kind: FaultKind::Hang,
            }]),
        );
        let report = server.serve_chaos(&requests(2), FaultToleranceOptions::default());
        assert_eq!(report.outcomes.len(), 2);
        assert!(report
            .fault_events
            .iter()
            .any(|e| e.reason == FaultReason::KernelHung));
    }

    #[test]
    fn a_sticky_slowdown_blows_the_timeout_budget() {
        let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
        server.inject_faults(
            0,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 0,
                kind: FaultKind::Slowdown { factor: 64.0 },
            }]),
        );
        let chaos = FaultToleranceOptions {
            timeout_factor: 2.0,
            ..FaultToleranceOptions::default()
        };
        let report = server.serve_chaos(&requests(4), chaos);
        assert_eq!(report.outcomes.len(), 4);
        assert!(
            report
                .fault_events
                .iter()
                .any(|e| e.reason == FaultReason::TimeoutExceeded && e.device == 0),
            "slowdown fault events: {:?}",
            report.fault_events
        );
    }

    #[test]
    fn an_all_dark_pool_degrades_to_the_cpu_reserve() {
        let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
        for device in 0..2 {
            server.inject_faults(
                device,
                FaultPlan::new(vec![ScheduledFault {
                    at_op: 0,
                    kind: FaultKind::Death,
                }]),
            );
        }
        let chaos = FaultToleranceOptions {
            max_retries: 1,
            ..FaultToleranceOptions::default()
        };
        let report = server.serve_chaos(&requests(4), chaos);
        assert_eq!(report.outcomes.len(), 4, "cpu reserve served everything");
        assert!(report.unserved.is_empty());
        assert!(report.fallback_jobs >= 1);
        assert!(report.outcomes.iter().all(|o| o.device == 2));
    }

    #[test]
    fn a_fully_dead_pool_reports_unserved_rather_than_losing_jobs() {
        let mut server = server(&[FPGA]);
        server.inject_faults(
            0,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 0,
                kind: FaultKind::Death,
            }]),
        );
        let chaos = FaultToleranceOptions {
            max_retries: 1,
            ..FaultToleranceOptions::default()
        };
        let report = server.serve_chaos(&requests(2), chaos);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.unserved, vec![0, 1], "conserved, not dropped");
    }

    #[test]
    fn chaos_serves_replay_bitwise() {
        let run = || {
            let mut server = server(&[FPGA, FPGA, "cpu:optimized"]);
            server.inject_faults(
                0,
                FaultPlan::new(vec![
                    ScheduledFault {
                        at_op: 3,
                        kind: FaultKind::Transient,
                    },
                    ScheduledFault {
                        at_op: 40,
                        kind: FaultKind::Death,
                    },
                ]),
            );
            server.inject_faults(1, FaultPlan::seeded(7, 2, 300));
            let report = server.serve_chaos(&requests(6), FaultToleranceOptions::default());
            serde::json::to_string(&report.summary())
        };
        assert_eq!(run(), run());
    }
}
