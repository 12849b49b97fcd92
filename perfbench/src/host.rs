//! Host and provenance record written into every result: what machine,
//! toolchain and source produced the numbers.

use crate::json::Json;
use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the checkout was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(id, _)| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Socket inodes this process holds open right now.
pub fn open_sockets() -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/fd") else {
        return Vec::new();
    };
    let mut out: Vec<String> = dir
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .map(|t| t.to_string_lossy().into_owned())
        .filter(|t| t.starts_with("socket:"))
        .collect();
    out.sort();
    out
}

/// The host record: CPU count and model, kernel, toolchain and commit.
pub fn record() -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu_model())
        .with("kernel", kernel())
        .with("rustc", rustc_version())
        .with("git_commit", git_commit())
}
