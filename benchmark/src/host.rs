//! Host fingerprint and process memory, recorded with every result.

use std::path::Path;

use crate::json::Json;

/// Cores the process may run on (the `nproc` every guard rail refers to).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` next to the benchmark
/// directory without spawning `git`. The driver's checkout is not a
/// repository; results recorded there say `unknown`.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unborn:{reference}")),
    }
}

/// `{nproc, cpu, git_rev, os}` for result files.
pub fn fingerprint() -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("cpu", cpu_model())
        .with("git_rev", git_rev())
        .with("os", std::env::consts::OS)
}

/// Peak resident set size of this process (`VmHWM`), in MiB. `None` where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
