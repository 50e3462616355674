//! Host fingerprint and process memory: what every wall-clock figure must
//! carry to be comparable across machines and builds.

/// Logical cores the process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One line naming the core count, the ISA features compiled in, the
/// compiler and the build profile.  A `target-cpu` change shows here as an
/// ISA change rather than as an unexplained shift in the timings.
#[must_use]
pub fn fingerprint() -> String {
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    format!(
        "host: nproc={} arch={} target_features=[{}] rustc=\"{}\" profile={}",
        nproc(),
        std::env::consts::ARCH,
        features.join(","),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
