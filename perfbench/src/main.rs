//! The repository benchmark: one command runs one workload against the
//! public API, checks every answer, and prints each metric by name with its
//! unit and provenance, ending with a one-line JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cpu-ax|cpu-fdm|serve-live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
//! solves and reports the per-layer metrics, writing its spans to
//! `perfbench/traces/`.  The metric names and units are checked against
//! `BENCHMARK.json` before the result is printed.  A wrong answer makes the
//! result `correct: false` and the exit code 1.

mod common;
mod cpu;
mod host;
mod report;
mod serve;
mod stats;
mod trace;

use report::{metric_line, result_line, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads; `BENCHMARK.json` gives the reason for each.
const WORKLOADS: [&str; 3] = ["cpu-ax", "cpu-fdm", "serve-live"];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS
                    .into_iter()
                    .find(|name| *name == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = Some(known);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The entries `BENCHMARK.json`, at the repository root, lists under
/// `section`.
fn declared(section: &str) -> Result<Vec<serde::Value>, String> {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = serde::json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    match value.get(section) {
        Some(serde::Value::Array(entries)) => Ok(entries.clone()),
        _ => Err(format!("BENCHMARK.json has no `{section}` list")),
    }
}

/// Text field `key` of a declared entry (empty when absent).
fn field(entry: &serde::Value, key: &str) -> String {
    entry
        .get(key)
        .and_then(serde::Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The run must report exactly the metrics `BENCHMARK.json` declares for
/// its mode, with the declared units.
fn check_against_declaration(result: &RunResult, trace: bool) -> Result<(), String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let declared: Vec<(String, String)> = declared(section)?
        .iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect();
    let reported: Vec<(String, String)> = result
        .metrics
        .all()
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let missing: Vec<_> = declared.iter().filter(|d| !reported.contains(d)).collect();
    let extra: Vec<_> = reported.iter().filter(|r| !declared.contains(r)).collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{section} mismatch: missing {missing:?}, undeclared {extra:?}"
        ))
    }
}

fn write_trace(log: &trace::SpanLog, args: &Args) -> Result<PathBuf, String> {
    let dir = manifest_dir().join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let json = log.to_json(&[
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("host", host::fingerprint()),
    ]);
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<RunResult, String> {
    let log = trace::SpanLog::default();
    let result = match (args.workload, args.trace) {
        ("cpu-ax", false) => cpu::CPU_AX.run(args.seed, args.seconds),
        ("cpu-ax", true) => cpu::CPU_AX.run_traced(args.seed, args.seconds, &log),
        ("cpu-fdm", false) => cpu::CPU_FDM.run(args.seed, args.seconds),
        ("cpu-fdm", true) => cpu::CPU_FDM.run_traced(args.seed, args.seconds, &log),
        ("serve-live", false) => serve::run(args.seed, args.seconds),
        ("serve-live", true) => serve::run_traced(args.seed, args.seconds, &log),
        (other, _) => return Err(format!("no runner for `{other}`")),
    };
    if args.trace {
        let path = write_trace(&log, args)?;
        println!("spans written to {}", path.display());
    }
    check_against_declaration(&result, args.trace)?;
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let why = declared("workloads")
        .ok()
        .and_then(|workloads| {
            workloads
                .iter()
                .find(|w| field(w, "name") == args.workload)
                .map(|w| field(w, "why"))
        })
        .unwrap_or_default();
    println!("{}", host::fingerprint());
    println!(
        "workload: {} seed={} seconds={} trace={} -- {why}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match run(&args) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    for note in &result.notes {
        println!("{note}");
    }
    for metric in result.metrics.all() {
        println!("{}", metric_line(metric));
    }
    println!(
        "  {:<40} {:>16.6e} {:<8} count ({} of {} answers failed a gate)",
        "failed_ratio",
        result.failed_ratio(),
        "ratio",
        result.failed,
        result.attempted
    );
    for failure in &result.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", result_line(&result));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
