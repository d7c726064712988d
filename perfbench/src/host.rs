//! The host block written with every run, and the process-memory probes.

use aggclust_core::obs::simd_dispatch;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Everything a reader needs to know about the machine and build that
/// produced a run's numbers, as one JSON object.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"arch\":{},\"cpu_model\":{},\"nproc\":{},\"simd_tier\":{},\"rustc\":{},\"commit\":{},\"usable_parallelism\":{}}}",
        json_str(std::env::consts::ARCH),
        json_str(&cpu_model()),
        nproc,
        json_str(simd_dispatch::selected().name()),
        json_str(&rustc_version()),
        json_str(&git_commit()),
        usable_parallelism(nproc),
    )
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

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit. Only asked of git when the working directory is
/// itself a repository root, so an enclosing repository is never reported.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

/// A fixed CPU-bound loop with no memory traffic.
fn spin(iters: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Measured usable parallelism: `nproc` copies of a fixed loop run
/// concurrently, timed against one copy alone. A host that shares its
/// cores reads well below `nproc`. Best of three for each side.
fn usable_parallelism(nproc: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best(&|| {
        spin(ITERS);
    });
    let all = best(&|| {
        std::thread::scope(|s| {
            for _ in 0..nproc {
                s.spawn(|| spin(ITERS));
            }
        })
    });
    nproc as f64 * one / all
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Reset this process's resident high-water mark to its current resident
/// size.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the resident high-water mark: {e}"))
}

/// This process's resident high-water mark in bytes.
pub fn peak_rss() -> Result<u64, String> {
    status_bytes("VmHWM")
}

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
