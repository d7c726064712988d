//! Benchmark of the aggclust library on pinned aggregation workloads.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! ```
//!
//! `--trace 0` times `ConsensusBuilder::try_aggregate_partial` with tracing
//! and metrics off and reports the end-to-end metrics; `--trace 1` replays
//! the pipeline stage by stage and reports the per-layer metrics. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md for the workloads and metrics.

mod checks;
mod host;
mod trace;
mod workloads;

use aggclust_cli::csv::parse_label_matrix;
use aggclust_core::kernels::LabelMatrix;
use aggclust_core::obs::{metrics, set_metrics_enabled};
use aggclust_core::parallel::with_num_threads;
use aggclust_core::{Clustering, CorrelationInstance, DistanceOracle, PartialClustering};
use host::json_str;
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Replay, Tracer};
use workloads::{SplitMix64, Workload, DEFAULT_SEED};

/// Directory, relative to the working directory, the traced run writes its
/// spans to.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    mem_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        mem_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--mem-probe" => args.mem_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Attempted and failed operations of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one checked operation; report a failure on standard error.
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed: {what}: {e}");
                None
            }
        }
    }
}

/// A metric as it goes into the result line.
struct Metric {
    name: &'static str,
    value: String,
    unit: &'static str,
}

fn real(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the `-0.0` an empty float sum yields into `0`.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    Metric {
        name,
        value: format!("{value}"),
        unit,
    }
}

fn count(name: &'static str, value: u64) -> Metric {
    Metric {
        name,
        value: value.to_string(),
        unit: "count",
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--tiny]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.tiny) else {
        eprintln!(
            "error: unknown workload {:?}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.mem_probe {
        return mem_probe(&w, args.seed);
    }

    let host = host::host_json();
    println!("host {host}");
    let mut tally = Tally::default();
    let generated = w.generate(args.seed);
    let cells = generated.len() * w.n;
    let missing: usize = generated.iter().map(|c| c.num_missing()).sum();
    println!(
        "workload {} seed {}: n={} m={} missing={:.2}% stage={:?} refine={} threads={} mem_cap={} sampled={}",
        w.name,
        args.seed,
        w.n,
        generated.len(),
        100.0 * missing as f64 / cells.max(1) as f64,
        w.stage,
        w.refine,
        w.threads,
        w.mem_cap.map_or("none".to_string(), |b| format!("{b} B")),
        w.sampled(),
    );
    let text = workloads::render(&generated);
    let Some(inputs) = load(&text, &generated, &mut tally) else {
        return finish(&tally, Vec::new());
    };
    tally.record("Figure 1 example", checks::figure1());
    let metrics = if args.trace {
        traced(&w, &args, &host, inputs, &mut tally)
    } else {
        untraced(&w, &args, &text, inputs, &mut tally)
    };
    finish(&tally, metrics)
}

/// Parse the label text the way every CLI run does; the result must equal
/// the generated clusterings exactly.
fn load(
    text: &str,
    generated: &[PartialClustering],
    tally: &mut Tally,
) -> Option<Vec<PartialClustering>> {
    let parsed = parse_label_matrix(text, ',', false)
        .map_err(|e| format!("parse error: {e}"))
        .and_then(|p| {
            if p == generated {
                Ok(p)
            } else {
                Err("parsed clusterings differ from the generated ones".to_string())
            }
        });
    tally.record("label text parses back to the generated inputs", parsed)
}

/// Time `reps` parses of the label text into `times`.
fn time_parses(text: &str, reps: usize, times: &mut Vec<f64>) {
    for _ in 0..reps {
        let t = Instant::now();
        black_box(parse_label_matrix(black_box(text), ',', false).is_ok());
        times.push(t.elapsed().as_secs_f64());
    }
}

/// The end-to-end run: repeated untraced solves for `--seconds`, one solve
/// at the other thread count, and a solve in a child process for memory.
/// Every solve after the first must reproduce the first one's labels.
/// The set-up parses are spread between the solves, so that `setup_s` and
/// `solve_s` sample the same stretch of the host's load.
fn untraced(
    w: &Workload,
    args: &Args,
    text: &str,
    inputs: Vec<PartialClustering>,
    tally: &mut Tally,
) -> Vec<Metric> {
    const PARSES_PER_SOLVE: usize = 5;
    let mut parse_times = Vec::new();
    let mut times = Vec::new();
    let mut reference: Option<Clustering> = None;
    let mut lap = 0.0;
    let started = Instant::now();
    // Stop before a solve that would overrun the window, not after it.
    while times.len() < 3 || started.elapsed().as_secs_f64() + lap <= args.seconds {
        let t = Instant::now();
        time_parses(text, PARSES_PER_SOLVE, &mut parse_times);
        let (secs, out) = timed_solve(w, &inputs, w.threads, reference.as_ref());
        times.push(secs);
        let labels = tally.record("solve", out);
        if reference.is_none() {
            let Some(labels) = labels else {
                return Vec::new();
            };
            reference = Some(labels);
        }
        lap = t.elapsed().as_secs_f64();
    }
    let Some(reference) = reference else {
        return Vec::new();
    };
    let other = if w.threads == 1 { 2 } else { 1 };
    let (_, out) = timed_solve(w, &inputs, other, Some(&reference));
    tally.record(&format!("solve at {other} threads"), out);
    let peak = tally.record(
        "isolated solve",
        mem_child(w, args).and_then(|(bytes, hash)| {
            if hash == checks::labels_hash(&reference) {
                Ok(bytes)
            } else {
                Err("labels differ from the in-process solve".to_string())
            }
        }),
    );
    let solve_s = median(times.clone());
    eprintln!(
        "{}: solve_s median {solve_s} over {} solves {:?}; failed_frac {} ({} of {} attempted)",
        w.name,
        times.len(),
        times,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
    );
    vec![
        real("solve_s", solve_s, "s"),
        real("setup_s", median(parse_times), "s"),
        real("peak_mem_mb", peak.unwrap_or(0) as f64 / 1e6, "MB"),
        count("disagreements", checks::disagreements(&inputs, &reference)),
    ]
}

/// One end-to-end solve at `threads`, checked, and compared with
/// `reference` when given. The inputs are cloned before the clock starts.
fn timed_solve(
    w: &Workload,
    inputs: &[PartialClustering],
    threads: usize,
    reference: Option<&Clustering>,
) -> (f64, Result<Clustering, String>) {
    let builder = w.builder();
    let owned = inputs.to_vec();
    let (secs, result) = with_num_threads(threads, || {
        let t = Instant::now();
        let result = builder.try_aggregate_partial(owned);
        (t.elapsed().as_secs_f64(), result)
    });
    let out = checks::check_result(result, inputs, w.total_inputs() && !w.sampled());
    let out = match (out, reference) {
        (Ok(labels), Some(reference)) => {
            checks::same_labels(&format!("{threads} threads"), reference, &labels).map(|()| labels)
        }
        (out, _) => out,
    };
    (secs, out)
}

/// Run one solve in a child process, so its resident high-water mark is
/// this workload's alone. Returns the child's peak resident bytes during
/// the solve, and its label hash.
fn mem_child(w: &Workload, args: &Args) -> Result<(u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--mem-probe", "--workload", w.name, "--seed"])
        .arg(args.seed.to_string());
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("memory probe exited with {}", out.status));
    }
    let field = |key: &str| -> Result<u64, String> {
        let line = stdout.lines().last().unwrap_or("");
        line.split_once(&format!("\"{key}\":"))
            .and_then(|(_, rest)| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("memory probe printed no {key}: {line:?}"))
    };
    Ok((field("solve_peak_bytes")?, field("labels")?))
}

/// The child side of [`mem_child`].
fn mem_probe(w: &Workload, seed: u64) -> ExitCode {
    let text = workloads::render(&w.generate(seed));
    let inputs = match parse_label_matrix(&text, ',', false) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(text);
    let builder = w.builder();
    let owned = inputs.clone();
    let probe = || -> Result<(u64, u64), String> {
        host::reset_peak_rss()?;
        let result = with_num_threads(w.threads, || builder.try_aggregate_partial(owned));
        let peak = host::peak_rss()?;
        let labels = checks::check_result(result, &inputs, w.total_inputs() && !w.sampled())?;
        Ok((peak, checks::labels_hash(&labels)))
    };
    match probe() {
        Ok((bytes, hash)) => {
            println!("{{\"solve_peak_bytes\":{bytes},\"labels\":{hash}}}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The traced run: layer micro-measurements, then untraced solves and
/// stage replays alternating for `--seconds`.
fn traced(
    w: &Workload,
    args: &Args,
    host: &str,
    inputs: Vec<PartialClustering>,
    tally: &mut Tally,
) -> Vec<Metric> {
    set_metrics_enabled(false);
    let (pack_s, sweep_s, pairs) = kernel_sweep(&inputs);
    let lazy_dist_ns = lazy_dist_ns(&inputs);

    let run_id = format!(
        "{}-seed{}-{}",
        w.name,
        args.seed,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let mut tracer = Tracer::new(run_id);
    let other = if w.threads == 1 { 2 } else { 1 };

    set_metrics_enabled(false);
    let (secs, first) = timed_solve(w, &inputs, w.threads, None);
    let Some(reference) = tally.record("first solve", first) else {
        return Vec::new();
    };
    let mut untraced_s = vec![secs];
    // One replay with the program's metrics on, for its work counters and
    // memory high-water mark; the timed replays below run with them off,
    // so that counter traffic does not distort the layer times.
    set_metrics_enabled(true);
    let counted = checked_replay(w, &inputs, w.threads, &mut tracer, &reference, tally);
    set_metrics_enabled(false);
    let mem_high_water = metrics().mem_high_water_bytes.get();

    let mut replays: Vec<Replay> = Vec::new();
    let mut at_other: Vec<Replay> = Vec::new();
    let started = Instant::now();
    let mut last = 0.0;
    while replays.is_empty() || started.elapsed().as_secs_f64() + last <= args.seconds {
        let lap = Instant::now();
        let (Some(here), Some(there)) = (
            checked_replay(w, &inputs, w.threads, &mut tracer, &reference, tally),
            checked_replay(w, &inputs, other, &mut tracer, &reference, tally),
        ) else {
            break;
        };
        replays.push(here);
        at_other.push(there);
        let (secs, out) = timed_solve(w, &inputs, w.threads, Some(&reference));
        untraced_s.push(secs);
        tally.record("repeated solve", out);
        last = lap.elapsed().as_secs_f64();
    }

    let tracer = &tracer;
    let secs = |rs: &[Replay], f: &dyn Fn(&Replay) -> f64| median(rs.iter().map(f).collect());
    let span = |name: &'static str| move |r: &Replay| tracer.secs_under(r.root, name);
    let root_secs = |r: &Replay| tracer.spans[r.root].secs();
    let replay_s = secs(&replays, &root_secs);
    let (at_one, at_two) = if w.threads == 1 {
        (replay_s, secs(&at_other, &root_secs))
    } else {
        (secs(&at_other, &root_secs), replay_s)
    };
    let counters = counted.as_ref().map(|r| r.counters).unwrap_or_default();
    let phase = |i: usize| secs(&replays, &|r| r.sampling_phases.map_or(0.0, |p| p[i]));
    let ls_s = secs(&replays, &span("local_search"));
    let dense_built = replays.first().and_then(|r| r.dense_bytes);
    let per_visit = |s: f64| {
        if counters.ls_nodes_visited == 0 {
            0.0
        } else {
            s * 1e9 / counters.ls_nodes_visited as f64
        }
    };
    let metrics = vec![
        real("kernels.pack_s", pack_s, "s"),
        real("kernels.sweep_s", sweep_s, "s"),
        real(
            "kernels.ns_per_pair",
            sweep_s * 1e9 / pairs.max(1) as f64,
            "ns",
        ),
        count("kernels.row_batches", counters.row_batches),
        real(
            "instance.dense_build_s",
            if dense_built.is_some() {
                secs(&replays, &span("instance.dense_oracle"))
            } else {
                0.0
            },
            "s",
        ),
        real(
            "instance.dense_mb",
            dense_built.map_or(0.0, |b| b as f64 / 1e6),
            "MB",
        ),
        real("instance.lazy_dist_ns", lazy_dist_ns, "ns"),
        count("oracle.dense_evals", counters.dense_evals),
        count("oracle.lazy_evals", counters.lazy_evals),
        count("oracle.packed_evals", counters.packed_evals),
        real("local_search.s", ls_s, "s"),
        count("local_search.passes", counters.ls_passes),
        count("local_search.nodes_visited", counters.ls_nodes_visited),
        count("local_search.moves", counters.ls_moves),
        real("local_search.ns_per_visit", per_visit(ls_s), "ns"),
        real(
            "linkage.condensed_fill_s",
            secs(&replays, &span("linkage.condensed_fill")),
            "s",
        ),
        real(
            "linkage.merge_s",
            secs(&replays, &|r| {
                tracer.secs_under(r.root, "linkage.merge")
                    + tracer.secs_under(r.root, "linkage.cut")
            }),
            "s",
        ),
        count("linkage.merges", counters.linkage_merges),
        real("sampling.cluster_s", phase(0), "s"),
        real("sampling.assign_s", phase(1), "s"),
        real("sampling.recluster_s", phase(2), "s"),
        count("sampling.assigned", counters.sampling_assigned),
        real(
            "cost.correlation_s",
            secs(&replays, &span("cost.correlation")),
            "s",
        ),
        real(
            "cost.lower_bound_s",
            secs(&replays, &span("cost.lower_bound")),
            "s",
        ),
        real("parallel.speedup", at_one / at_two, "ratio"),
        real(
            "robust.mem_high_water_mb",
            mem_high_water as f64 / 1e6,
            "MB",
        ),
        real(
            "telemetry.overhead_frac",
            counted.as_ref().map_or(0.0, root_secs) / replay_s - 1.0,
            "ratio",
        ),
        real(
            "trace.overhead_frac",
            replay_s / median(untraced_s) - 1.0,
            "ratio",
        ),
        real(
            "trace.unattributed_frac",
            median(
                replays
                    .iter()
                    .map(|r| tracer.unattributed(r.root))
                    .collect(),
            ),
            "ratio",
        ),
    ];
    if let Err(e) = write_trace(w, args, host, tracer, &metrics) {
        eprintln!("warning: trace not written: {e}");
    }
    metrics
}

/// One stage replay whose labels must equal the end-to-end call's.
fn checked_replay(
    w: &Workload,
    inputs: &[PartialClustering],
    threads: usize,
    tracer: &mut Tracer,
    reference: &Clustering,
    tally: &mut Tally,
) -> Option<Replay> {
    let replayed = trace::replay(w, inputs.to_vec(), threads, tracer).and_then(|r| {
        checks::same_labels(
            &format!("replay at {threads} threads"),
            reference,
            &r.clustering,
        )
        .map(|()| r)
    });
    tally.record("stage replay", replayed)
}

/// Time `LabelMatrix::from_partial` (median of five) and one single-thread
/// `sep_row_into` sweep over every pair at the dispatched tier.
fn kernel_sweep(inputs: &[PartialClustering]) -> (f64, f64, u64) {
    let mut pack = Vec::new();
    let mut matrix = None;
    for _ in 0..5 {
        let t = Instant::now();
        matrix = Some(black_box(LabelMatrix::from_partial(inputs)));
        pack.push(t.elapsed().as_secs_f64());
    }
    let Some(matrix) = matrix else {
        return (0.0, 0.0, 0);
    };
    let n = matrix.len();
    let mut row = vec![0u32; n];
    let mut checksum = 0u64;
    let t = Instant::now();
    for u in 0..n {
        let out = &mut row[..n - u - 1];
        matrix.sep_row_into(u, u + 1, out);
        checksum = checksum.wrapping_add(out.iter().map(|&c| u64::from(c)).sum::<u64>());
    }
    let sweep_s = t.elapsed().as_secs_f64();
    black_box(checksum);
    let pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
    (median(pack), sweep_s, pairs)
}

/// Mean ns per lazy-oracle `dist` call over a fixed sample of pairs.
fn lazy_dist_ns(inputs: &[PartialClustering]) -> f64 {
    const CALLS: usize = 1 << 21;
    let lazy = CorrelationInstance::from_partial(inputs.to_vec(), Default::default()).lazy_oracle();
    let n = lazy.len() as u64;
    let mut rng = SplitMix64(0x5EED);
    let pairs: Vec<(usize, usize)> = (0..CALLS)
        .map(|_| ((rng.next() % n) as usize, (rng.next() % n) as usize))
        .collect();
    let t = Instant::now();
    let total: f64 = pairs.iter().map(|&(u, v)| lazy.dist(u, v)).sum();
    let secs = t.elapsed().as_secs_f64();
    black_box(total);
    secs * 1e9 / CALLS as f64
}

/// Write the run's host block, per-layer metrics and spans to
/// `.perfbench-out/trace-<workload>-seed<seed>.json`.
fn write_trace(
    w: &Workload,
    args: &Args,
    host: &str,
    tracer: &Tracer,
    metrics: &[Metric],
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", w.name, args.seed);
    let body = format!(
        "{{\"run\":{},\"workload\":{},\"seed\":{},\"host\":{host},\"metrics\":{},\"spans\":[\n{}]}}\n",
        json_str(&tracer.run_id),
        json_str(w.name),
        args.seed,
        metrics_json(metrics),
        tracer.to_jsonl().trim_end().replace('\n', ",\n"),
    );
    std::fs::write(path, body)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Print the result line and exit 0: a failed check is reported through
/// `correct` and `failed`, not through the exit code.
fn finish(tally: &Tally, metrics: Vec<Metric>) -> ExitCode {
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && !metrics.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
