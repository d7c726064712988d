//! Telemetry bootstrap shared by the experiment binaries.
//!
//! Every bin accepts the same observability options as the CLI:
//! `--log-level LEVEL` (default `info`; the `AGGCLUST_LOG` environment
//! variable sets the default, the flag wins), `--trace-out PATH` (JSONL
//! span/event trace), and `--metrics-out PATH` (final JSON run report of
//! the algorithm counters). The returned guard writes the run report when
//! it drops, so a binary's whole integration is one line:
//!
//! ```ignore
//! let _telemetry = aggclust_bench::obs::init_from_args(&args);
//! ```

use crate::args::Args;
use aggclust_core::obs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Writes the `--metrics-out` run report when dropped (i.e. when the
/// experiment binary finishes normally; error paths that `exit(2)` skip
/// it, matching the CLI's "the report is advisory" stance).
pub struct TelemetryGuard {
    metrics_out: Option<PathBuf>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some(path) = self.metrics_out.take() {
            write_run_report(&path);
        }
    }
}

/// Install the leveled stderr logger (and the optional JSONL trace) from
/// the shared flags, and enable the metrics registry when any
/// machine-readable output was requested. An unparsable value prints a
/// one-line usage error and exits 2, like every other bench flag.
pub fn init_from_args(args: &Args) -> TelemetryGuard {
    let level = match args.get("log-level") {
        Some(spec) => obs::Level::parse(spec).unwrap_or_else(|| {
            eprintln!("error: could not parse --log-level value {spec:?}"); // lint:allow-eprintln
            std::process::exit(2);
        }),
        None => obs::Level::from_env().unwrap_or(obs::Level::Info),
    };
    let stderr_sink: Arc<dyn obs::Collector> = Arc::new(obs::StderrSink::new(level));
    match args.get("trace-out") {
        Some(path) => {
            let trace =
                obs::JsonlSink::to_file(Path::new(path), obs::Level::Trace).unwrap_or_else(|e| {
                    eprintln!("error: could not create trace file {path}: {e}"); // lint:allow-eprintln
                    std::process::exit(2);
                });
            let mut tee = obs::TeeCollector::new();
            tee.push(stderr_sink);
            tee.push(Arc::new(trace));
            obs::install_collector(Arc::new(tee));
        }
        None => obs::install_collector(stderr_sink),
    }
    let metrics_out = args.get("metrics-out").map(PathBuf::from);
    if metrics_out.is_some() || args.get("trace-out").is_some() {
        obs::set_metrics_enabled(true);
    }
    TelemetryGuard { metrics_out }
}

/// Write the standard run report ([`obs::run_report_json`], the same
/// shape as the CLI's `--metrics-out`) to `path`.
fn write_run_report(path: &Path) {
    let mut json = obs::run_report_json();
    json.push('\n');
    if let Err(e) = std::fs::write(path, json) {
        obs::warn!(format!(
            "could not write metrics report {}: {e}",
            path.display()
        ));
    }
}
