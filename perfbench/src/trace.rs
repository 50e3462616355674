//! The traced solve: timing wrappers around a session's operator and
//! preconditioner, driven through `CgSolver::solve_with_scratch`, with every
//! span kept in memory and written out when the run ends.
//!
//! The wrappers sit in the benchmark, around calls into the program's public
//! API; the program's own `sem-obs` recorder stays uninstalled.  They change
//! no arithmetic: a traced solve is bitwise equal to `SemSystem::solve_rhs`
//! on the same session.

use semfpga::accel::{AxBackend, SemSystem};
use semfpga::mesh::{ElementField, GatherScatter};
use semfpga::solver::{
    AnyPreconditioner, CgOptions, CgOutcome, CgScratch, CgSolver, LocalOperator, Preconditioner,
};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// Span name of the whole CG call.
pub const SOLVE: &str = "cg.solve";
/// Span name of a local operator application (`sem-kernel`).
pub const AX: &str = "kernel.ax";
/// Span name of a fused operator-plus-summation pass on a backend that
/// claims one (the simulated accelerator); counted as kernel time.
pub const AX_FUSED: &str = "kernel.ax_dssum_fused";
/// Span name of a direct stiffness summation (`sem-mesh`).
pub const DSSUM: &str = "mesh.dssum";
/// Span name of a preconditioner application (`sem-solver`).
pub const PRECOND: &str = "solver.precond";

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Seconds since the log was created.
    pub start_s: f64,
    /// Seconds since the log was created (`NaN` while open).
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which solve the span belongs to (0 for set-up work).
    pub solve: u32,
}

/// In-memory span store for one thread.
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<(usize, u32)>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
        }
    }
}

impl SpanLog {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`, parented to the open solve (if
    /// any) and tagged with its id.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (parent, solve) = self
            .current
            .get()
            .map_or((None, 0), |(index, solve)| (Some(index), solve));
        let start_s = self.now();
        let out = f();
        let end_s = self.now();
        self.spans.borrow_mut().push(Span {
            name,
            start_s,
            end_s,
            parent,
            solve,
        });
        out
    }

    /// Run `f` as solve `solve`: a root span every span recorded inside it
    /// points to.  Returns `f`'s result and the solve span's index.
    pub fn solve<R>(&self, solve: u32, f: impl FnOnce() -> R) -> (R, usize) {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: SOLVE,
                start_s: self.now(),
                end_s: f64::NAN,
                parent: None,
                solve,
            });
            spans.len() - 1
        };
        let outer = self.current.replace(Some((index, solve)));
        let out = f();
        self.current.set(outer);
        self.spans.borrow_mut()[index].end_s = self.now();
        (out, index)
    }

    /// Seconds spent in set-up spans called `name` (those outside any solve).
    #[must_use]
    pub fn setup_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    /// The layer ledger of the solve whose root span is `index`.
    #[must_use]
    pub fn ledger(&self, index: usize) -> Ledger {
        let spans = self.spans.borrow();
        let root = &spans[index];
        let mut ledger = Ledger {
            wall_s: root.end_s - root.start_s,
            ..Ledger::default()
        };
        for span in spans[index + 1..]
            .iter()
            .filter(|s| s.parent == Some(index))
        {
            let seconds = span.end_s - span.start_s;
            match span.name {
                AX | AX_FUSED => {
                    ledger.ax_calls += 1;
                    ledger.ax_s += seconds;
                }
                DSSUM => {
                    ledger.dssum_calls += 1;
                    ledger.dssum_s += seconds;
                }
                PRECOND => {
                    ledger.precond_calls += 1;
                    ledger.precond_s += seconds;
                }
                _ => {}
            }
        }
        ledger
    }

    /// Number of spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The spans as a JSON document: `header` fields first, then every span
    /// as `{name, start_s, end_s, parent, solve}`.
    #[must_use]
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (key, value) in header {
            let _ = write!(out, "\"{key}\": \"{}\", ", value.replace('"', "'"));
        }
        out.push_str("\"spans\": [\n");
        for (i, span) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"solve\": {}}}",
                span.name, span.start_s, span.end_s, span.solve
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Where one solve's wall time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// The whole CG call.
    pub wall_s: f64,
    /// Operator applications (fused passes included).
    pub ax_calls: usize,
    /// Seconds in them.
    pub ax_s: f64,
    /// Separate direct stiffness summations.
    pub dssum_calls: usize,
    /// Seconds in them.
    pub dssum_s: f64,
    /// Preconditioner applications.
    pub precond_calls: usize,
    /// Seconds in them.
    pub precond_s: f64,
}

impl Ledger {
    /// CG's own time: vector updates, reductions and masks.
    #[must_use]
    pub fn self_s(&self) -> f64 {
        self.wall_s - self.ax_s - self.dssum_s - self.precond_s
    }
}

/// A session's backend as a `LocalOperator` that times each pass.
///
/// It claims the fused entry so the summation can be timed on its own;
/// where the backend fuses the pass itself, it delegates to that pass.
/// Cost accounting (modelled seconds per application) is passed through
/// unchanged.
pub struct TimedOperator<'a> {
    inner: &'a dyn AxBackend,
    log: &'a SpanLog,
}

impl<'a> TimedOperator<'a> {
    /// Wrap `inner`, recording into `log`.
    #[must_use]
    pub fn new(inner: &'a dyn AxBackend, log: &'a SpanLog) -> Self {
        Self { inner, log }
    }
}

// The `LocalOperator` impl for `dyn AxBackend` delegates each method to
// the `AxBackend` method called here, so the wrapper behaves as the session's
// own solve loop sees the backend.
impl LocalOperator for TimedOperator<'_> {
    fn degree(&self) -> usize {
        AxBackend::degree(self.inner)
    }

    fn num_elements(&self) -> usize {
        AxBackend::num_elements(self.inner)
    }

    fn apply_local_into(&self, u: &ElementField, w: &mut ElementField) {
        self.log.time(AX, || self.inner.apply_into(u, w));
    }

    fn flops_per_application(&self) -> u64 {
        AxBackend::flops_per_application(self.inner)
    }

    fn seconds_per_application(&self) -> Option<f64> {
        self.inner.simulated_seconds_per_application()
    }

    fn fuses_dssum(&self) -> bool {
        true
    }

    fn apply_dssum_into(
        &self,
        u: &ElementField,
        gather_scatter: &GatherScatter,
        w: &mut ElementField,
    ) {
        if AxBackend::fuses_dssum(self.inner) {
            self.log.time(AX_FUSED, || {
                AxBackend::apply_dssum_into(self.inner, u, gather_scatter, w);
            });
        } else {
            self.apply_local_into(u, w);
            self.log
                .time(DSSUM, || gather_scatter.direct_stiffness_sum(w));
        }
    }
}

/// A preconditioner that times each application.
pub struct TimedPreconditioner<'a> {
    inner: &'a AnyPreconditioner,
    log: &'a SpanLog,
}

impl<'a> TimedPreconditioner<'a> {
    /// Wrap `inner`, recording into `log`.
    #[must_use]
    pub fn new(inner: &'a AnyPreconditioner, log: &'a SpanLog) -> Self {
        Self { inner, log }
    }
}

impl Preconditioner for TimedPreconditioner<'_> {
    fn apply_into(&self, r: &ElementField, z: &mut ElementField) {
        self.log.time(PRECOND, || self.inner.apply_into(r, z));
    }

    fn seconds_per_application(&self) -> Option<f64> {
        self.inner.seconds_per_application()
    }
}

/// Build the session's preconditioner the way `SemSystem` does: from the
/// host problem, priced by the backend's cycle model where the backend
/// claims the pass on-device.
#[must_use]
pub fn session_preconditioner(system: &SemSystem) -> AnyPreconditioner {
    let spec = system.precond_spec();
    let precond = system.problem().preconditioner(spec);
    match system.execution().simulated_seconds_per_precond(spec) {
        Some(seconds) => precond.with_modeled_seconds(seconds),
        None => precond,
    }
}

/// One traced solve of `rhs` on `system`'s session, recorded as solve
/// `solve` in `log`.
#[must_use]
pub fn traced_solve(
    system: &SemSystem,
    precond: &AnyPreconditioner,
    rhs: &ElementField,
    options: CgOptions,
    scratch: &mut CgScratch,
    log: &SpanLog,
    solve: u32,
) -> (CgOutcome, Ledger) {
    let operator = TimedOperator::new(system.execution(), log);
    let solver = CgSolver::new(&operator, system.gather_scatter(), system.mask(), options);
    let precond = TimedPreconditioner::new(precond, log);
    let (outcome, index) = log.solve(solve, || solver.solve_with_scratch(rhs, &precond, scratch));
    (outcome, log.ledger(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semfpga::serve::{ProblemSpec, ServeRequest};

    fn options() -> CgOptions {
        CgOptions {
            max_iterations: 500,
            tolerance: 1e-10,
            record_history: false,
        }
    }

    #[test]
    fn traced_solves_are_bitwise_equal_to_untraced_ones_on_a_2_cubed_mesh() {
        let spec = ProblemSpec::cube(3, 2);
        for name in [
            "cpu:optimized+jacobi",
            "cpu:optimized+fdm",
            "cpu:reference+none",
            "fpga:stratix10-gx2800+jacobi",
            "fpga:stratix10-gx2800+fdm",
        ] {
            let system = SemSystem::builder()
                .degree(spec.degree)
                .elements(spec.elements)
                .backend_named(name)
                .build();
            let precond = session_preconditioner(&system);
            let log = SpanLog::default();
            let mut scratch = CgScratch::new(spec.degree, spec.num_elements());
            for seed in 0..3_u32 {
                let rhs = ServeRequest::seeded(spec, u64::from(seed)).assemble_rhs(&system);
                let untraced = system.solve_rhs(&rhs, options());
                let (traced, ledger) = traced_solve(
                    &system,
                    &precond,
                    &rhs,
                    options(),
                    &mut scratch,
                    &log,
                    seed + 1,
                );
                let bits = |f: &ElementField| -> Vec<u64> {
                    f.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(&traced.solution),
                    bits(&untraced.solution.solution),
                    "{name}"
                );
                assert_eq!(traced.iterations, untraced.iterations(), "{name}");
                assert_eq!(traced.converged, untraced.converged(), "{name}");
                // Modelled accounting passes through the wrapper unchanged.
                if untraced.source == semfpga::accel::PerfSource::Simulated {
                    assert_eq!(
                        traced.operator_seconds,
                        untraced.solution.cg.operator_seconds
                    );
                    assert_eq!(traced.precond_seconds, untraced.precond_seconds, "{name}");
                }
                assert_eq!(ledger.ax_calls, traced.operator_applications, "{name}");
                assert_eq!(ledger.precond_calls, traced.precond_applications, "{name}");
                let fused = name.starts_with("fpga");
                assert_eq!(ledger.dssum_calls, if fused { 0 } else { ledger.ax_calls });
                assert!(ledger.self_s() >= 0.0, "{name}: {ledger:?}");
            }
        }
    }

    #[test]
    fn spans_nest_under_their_solve_and_serialise() {
        let log = SpanLog::default();
        log.time("setup.step", || ());
        let ((), index) = log.solve(7, || {
            log.time(AX, || ());
            log.time(PRECOND, || ());
        });
        assert_eq!(log.len(), 4);
        assert_eq!(log.setup_seconds("setup.step").len(), 1);
        let ledger = log.ledger(index);
        assert_eq!(
            (ledger.ax_calls, ledger.precond_calls, ledger.dssum_calls),
            (1, 1, 0)
        );
        let json = log.to_json(&[("workload", "x".to_string())]);
        let value = serde::json::parse_value(&json).expect("valid JSON");
        let spans = match value.get("spans") {
            Some(serde::Value::Array(spans)) => spans,
            other => panic!("no span array: {other:?}"),
        };
        assert_eq!(
            spans[2].get("parent").and_then(serde::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            spans[2].get("solve").and_then(serde::Value::as_f64),
            Some(7.0)
        );
    }
}
