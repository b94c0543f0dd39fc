//! The host fingerprint every result records, and the process's peak RSS.

use std::fs;

/// What a result needs to be compared with another: where and on what it
/// ran, and with which inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, from `.git` in the working directory, or
    /// `unknown` outside a git checkout.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// The fingerprint of this process for a run with `seed`.
    pub fn current(seed: u64) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            rustc: env!("LOADBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            seed,
        }
    }

    /// One `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "nproc={} cpu_model=\"{}\" kernel={} rustc=\"{}\" commit={} seed={}",
            self.nproc, self.cpu_model, self.kernel, self.rustc, self.commit, self.seed
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
