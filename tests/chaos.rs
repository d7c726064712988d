//! In-process chaos: seeded fault storms against the checkpoint + capped
//! lazy-oracle workload. Each storm arms a randomly composed (but fully
//! deterministic) `FaultPlan` and asserts the degradation-chain contract:
//! no panics, every injected fault surfaces as a typed error/warning or is
//! absorbed by a retry, anytime labels are always produced, and
//! filesystem and allocation faults never change the labels at all. The
//! process-level half of the harness (SIGKILL + resume under injection,
//! CLI exit codes) lives in `ci/chaos.sh`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use aggclust_cli::csv::{parse_label_matrix, render_labels};
use aggclust_core::algorithms::{Algorithm, BallsParams};
use aggclust_core::clustering::Clustering;
use aggclust_core::consensus::{ConsensusBuilder, ConsensusResult};
use aggclust_core::failpoint::{arm, FaultPlan};
use aggclust_core::snapshot::{load_snapshot, SnapshotLoad};
use aggclust_core::test_support::splitmix64;
use aggclust_core::{iofs, RetryPolicy, RunBudget};
use aggclust_tests::adversarial_disagreeing;

/// Tight enough to refuse the dense matrix and force the lazy oracle.
const CHAOS_MEM_CAP: u64 = 16 * 1024;

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggclust_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn chaos_builder(dir: &Path, budget: RunBudget) -> ConsensusBuilder {
    ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .budget(budget)
        .checkpoint(dir.join("ckpt.bin"), Duration::ZERO)
}

fn capped() -> RunBudget {
    RunBudget::unlimited().with_mem_limit_bytes(CHAOS_MEM_CAP)
}

/// The CLI's input leg in-process: publish `inputs` as a label-matrix CSV
/// under `dir`, read it back through the `cli.input` site with the same
/// supervised retries the CLI uses, and aggregate the parsed matrix.
fn chaos_run(dir: &Path, inputs: &[Clustering], budget: RunBudget) -> ConsensusResult {
    let path = dir.join("input.csv");
    let rows: Vec<String> = (0..inputs[0].len())
        .map(|v| {
            let row: Vec<String> = inputs.iter().map(|c| c.labels()[v].to_string()).collect();
            row.join(",")
        })
        .collect();
    std::fs::write(&path, rows.join("\n") + "\n").expect("write input");
    let text = RetryPolicy::default()
        .run_supervised(0x5eed_da7a, None, || {
            iofs::read_to_string("cli.input", &path)
        })
        .expect("supervised retries ride out every cli.input template");
    let parsed = parse_label_matrix(&text, ',', false).expect("input must parse");
    chaos_builder(dir, budget)
        .try_aggregate_partial(parsed)
        .unwrap_or_else(|e| panic!("storm surfaced a hard error: {e}"))
}

/// Fault templates the storm generator samples from. Every filesystem site
/// the checkpoint + capped-lazy workload touches is represented, plus the
/// memory governor's virtual `alloc` site; `{s}` is replaced with a
/// per-storm seed so `prob=` coin streams differ between storms but replay
/// identically for the same storm id. `cli.input` faults fire on a fixed
/// hit so the supervised read always has a retry left. An `alloc` clause
/// refuses every tracked reserve, so storms carrying one run without the
/// memory cap (which would refuse the matrix first): the injected fault
/// then drives the same lazy-oracle degradation the cap does.
const TEMPLATES: &[&str] = &[
    "snapshot.write=torn:prob=0.7:seed={s}",
    "snapshot.write=io_error:prob=0.4:seed={s}",
    "snapshot.rename=io_error:prob=0.5:seed={s}",
    "snapshot.rename=enospc:prob=0.4:seed={s}",
    "snapshot.fsync=enospc:nth=1",
    "snapshot.create=io_error:prob=0.3:seed={s}",
    "snapshot.write=delay:ms=1:prob=0.1:seed={s}",
    "cli.input=io_error:nth=1",
    "cli.input=enospc:nth=2",
    "cli.input=delay:ms=1",
    "alloc=fail:after_mb=0",
];

/// Compose a deterministic storm: one to three clauses drawn from
/// [`TEMPLATES`], every clause path-scoped to `dir` so concurrently running
/// tests in this binary are untouched.
fn storm_spec(storm: u64, dir: &Path) -> String {
    let mut state = storm.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let clauses = 1 + (splitmix64(&mut state) % 3) as usize;
    (0..clauses)
        .map(|_| {
            let template = TEMPLATES[(splitmix64(&mut state) as usize) % TEMPLATES.len()];
            let seeded = template.replace("{s}", &splitmix64(&mut state).to_string());
            // The alloc site has no path; it only fires on the arming
            // thread, which keeps it private to this test already.
            if seeded.starts_with("alloc=") {
                seeded
            } else {
                format!("{seeded}:path={}", dir.display())
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn seeded_fault_storms_never_panic_and_never_change_the_labels() {
    let inputs = adversarial_disagreeing(100, 4);
    let clean_dir = chaos_dir("reference");
    let reference = chaos_run(&clean_dir, &inputs, capped());
    std::fs::remove_dir_all(&clean_dir).ok();
    assert!(
        reference
            .warnings
            .iter()
            .any(|w| w.kind() == "memory_degraded_to_lazy_oracle"),
        "the chaos workload must run over the lazy oracle: {:?}",
        reference.warnings
    );

    for storm in 0..48u64 {
        let dir = chaos_dir(&format!("storm{storm}"));
        let spec = storm_spec(storm, &dir);
        let alloc_storm = spec.contains("alloc=");
        let budget = if alloc_storm {
            RunBudget::unlimited()
        } else {
            capped()
        };
        let guard = arm(FaultPlan::parse(&spec).expect("storm spec must parse"));
        let result = chaos_run(&dir, &inputs, budget);
        let log = guard.injection_log();
        drop(guard);
        if alloc_storm {
            assert!(
                log.iter().any(|l| l.starts_with("alloc")),
                "storm {storm}: the alloc fault must refuse the dense matrix"
            );
        }
        // Every storm runs over the lazy oracle, refused either by the cap
        // or by the injected allocation failure.
        assert!(
            result
                .warnings
                .iter()
                .any(|w| w.kind() == "memory_degraded_to_lazy_oracle"),
            "storm {storm} ({log:?}) left the lazy rung: {:?}",
            result.warnings
        );
        // Checkpoint, input-read and allocation faults are absorbed by
        // retries or oracle degradation — none of them may alter the
        // consensus labels, and the anytime contract holds regardless.
        assert_eq!(
            render_labels(&result.clustering),
            render_labels(&reference.clustering),
            "storm {storm} ({log:?}) changed the labels"
        );
        // Whatever the storm broke is visible as typed warnings, never as
        // silence plus a wrong answer.
        for w in &result.warnings {
            assert!(!w.kind().is_empty(), "storm {storm}: warning without kind");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn the_same_plan_and_seed_replay_the_same_injection_sequence() {
    let dir = chaos_dir("replay");
    let spec = format!(
        "replay.write=io_error:prob=0.5:seed=42,replay.fsync=torn:prob=0.25:seed=9:path={}",
        dir.display()
    );
    let drive = || {
        let guard = arm(FaultPlan::parse(&spec).expect("parse"));
        // A fixed op sequence through the facade: the injection log must be
        // a pure function of (plan, seed, op sequence).
        for i in 0..32 {
            let path = dir.join(format!("f{i}"));
            let _ = iofs::write_file_atomic("replay", &path, b"payload");
        }
        guard.injection_log()
    };
    let first = drive();
    let second = drive();
    assert!(!first.is_empty(), "a prob=0.5 storm over 32 ops must fire");
    assert_eq!(
        first, second,
        "injection sequence must replay bit-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alloc_storms_degrade_to_anytime_labels_not_panics() {
    let inputs = adversarial_disagreeing(100, 4);
    // Every tracked allocation beyond the first mebibyte fails: the run
    // must walk the degradation chain and still produce full-length labels.
    let guard = arm(FaultPlan::parse("alloc=fail:after_mb=1").expect("parse"));
    let result = ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .try_aggregate(&inputs)
        .expect("alloc storm must degrade, not fail");
    drop(guard);
    assert_eq!(result.clustering.labels().len(), 100);
}

#[test]
fn clock_skew_still_produces_anytime_labels_under_a_deadline() {
    let inputs = adversarial_disagreeing(100, 4);
    // +50ms of injected skew on the system clock makes the deadline appear
    // nearer than it is; the run may be cut short but must stay well-formed.
    let guard = arm(FaultPlan::parse("clock=skew:ms=50").expect("parse"));
    let result = ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .budget(RunBudget::unlimited().with_deadline_ms(60))
        .try_aggregate(&inputs)
        .expect("skewed run must stay well-formed");
    drop(guard);
    assert_eq!(result.clustering.labels().len(), 100);
}

#[test]
fn torn_checkpoints_under_injection_resume_fresh_or_valid_never_garbage() {
    let inputs = adversarial_disagreeing(100, 4);
    for storm in 0..8u64 {
        let dir = chaos_dir(&format!("torn{storm}"));
        let spec = format!(
            "snapshot.write=torn:prob=0.8:seed={storm}:path={}",
            dir.display()
        );
        let guard = arm(FaultPlan::parse(&spec).expect("parse"));
        let result = chaos_builder(&dir, capped())
            .try_aggregate(&inputs)
            .expect("run");
        drop(guard);
        assert_eq!(result.clustering.labels().len(), 100);
        // Whatever the torn writer left behind, loading it yields a typed
        // outcome: a valid snapshot, a clean miss, or a detected corruption.
        match load_snapshot(&dir.join("ckpt.bin")) {
            SnapshotLoad::Loaded(_) | SnapshotLoad::Missing | SnapshotLoad::Corrupt(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
