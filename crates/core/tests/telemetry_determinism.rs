//! Counter-determinism properties of the telemetry layer.
//!
//! Two contracts from the observability design:
//!
//! 1. **Thread invariance** — for the deterministic kernels, every counter
//!    total is bit-identical across `--threads` settings. The parallel
//!    layer partitions work but never changes *what* work is done, so
//!    oracle evaluations, node visits, moves, and merges must all agree
//!    across 1/2/4 threads (and the serially-accumulated improvement sum
//!    must agree to the bit).
//! 2. **Resume invariance** — an interrupt-at-k + resume run performs the
//!    same counted work as the uninterrupted run: resumption is replay
//!    from the snapshot, not repetition, so oracle-evaluation and move
//!    counters match exactly.
//!
//! Each measured run records into its own registry ([`measure`]), so the
//! tests run in parallel and every count is exact: nothing else running
//! in the process reaches a run's snapshot. A third test checks that
//! directly by running two instances at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use aggclust_core::algorithms::local_search::LocalSearchInit;
use aggclust_core::algorithms::{
    agglomerative::agglomerative, balls::balls, furthest::furthest, local_search::local_search,
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::DenseOracle;
use aggclust_core::parallel::with_num_threads;
use aggclust_core::snapshot::{load_snapshot, Checkpointer, SnapshotLoad};
use aggclust_core::telemetry::{measure, MetricsSnapshot};
use aggclust_core::RunBudget;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy_inputs(n: usize, m: usize, k: u32, noise: f64, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    (0..m)
        .map(|_| {
            Clustering::from_labels(
                truth
                    .iter()
                    .map(|&t| {
                        if rng.gen_bool(noise) {
                            rng.gen_range(0..k)
                        } else {
                            t
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Every algorithm once, under one thread override; the run's metrics are
/// the quantity under test.
fn run_all(oracle: &DenseOracle, threads: usize) -> MetricsSnapshot {
    let (_, metrics) = measure(|| {
        with_num_threads(threads, || {
            (
                balls(oracle, BallsParams::practical()),
                agglomerative(oracle, AgglomerativeParams::paper()),
                furthest(oracle, FurthestParams::default()),
                local_search(
                    oracle,
                    LocalSearchParams {
                        init: LocalSearchInit::Random { k: 8, seed: 99 },
                        max_passes: 3,
                        epsilon: 1e-9,
                    },
                ),
            )
        })
    });
    metrics
}

#[test]
fn counters_are_thread_invariant_across_chunking_gates() {
    // n = 2200 crosses MIN_CHUNK_PAIRS, so the multi-chunk code paths
    // execute with real workers.
    let inputs = noisy_inputs(2200, 4, 10, 0.3, 7);
    let oracle = DenseOracle::from_clusterings(&inputs);
    let t1 = run_all(&oracle, 1);
    let t2 = run_all(&oracle, 2);
    let t4 = run_all(&oracle, 4);
    assert!(t1.oracle_dense_evals > 0, "instrumentation not firing");
    assert!(t1.ls_nodes_visited > 0);
    assert_eq!(t1, t2, "1-thread vs 2-thread counters differ");
    assert_eq!(t1, t4, "1-thread vs 4-thread counters differ");
}

/// Interrupt a LOCALSEARCH run at the iteration cap (checkpointing every
/// node), resume it from the on-disk snapshot, and return the *combined*
/// metrics of both halves.
fn interrupted_run(
    algorithm: &Algorithm,
    oracle: &DenseOracle,
    cap: u64,
    dir: &std::path::Path,
) -> MetricsSnapshot {
    let path = dir.join("run.ckpt");
    std::fs::remove_file(&path).ok();
    let (_, metrics) = measure(|| {
        let mut ckpt = Checkpointer::new(path.clone(), Duration::ZERO);
        let capped = algorithm
            .run_resumable(
                oracle,
                &RunBudget::unlimited().with_max_iters(cap),
                None,
                Some(&mut ckpt),
            )
            .expect("capped run");
        if capped.status.is_converged() {
            return;
        }
        let snapshot = match load_snapshot(&path) {
            SnapshotLoad::Loaded(s) => Some(s),
            SnapshotLoad::Missing => None,
            SnapshotLoad::Corrupt(reason) => panic!("checkpoint corrupt: {reason}"),
        };
        algorithm
            .run_resumable(
                oracle,
                &RunBudget::unlimited(),
                snapshot.as_ref().map(|s| &s.state),
                None,
            )
            .expect("resumed run");
    });
    metrics
}

/// Two different instances measured at the same time on two threads,
/// each with two workers, report exactly what each reports alone: the
/// runs' metrics are disjoint, down to the bits of the float sum.
#[test]
fn concurrent_runs_keep_their_own_exact_counters() {
    let a = DenseOracle::from_clusterings(&noisy_inputs(800, 4, 10, 0.3, 11));
    let b = DenseOracle::from_clusterings(&noisy_inputs(700, 5, 8, 0.2, 12));
    let alone_a = run_all(&a, 2);
    let alone_b = run_all(&b, 2);
    assert!(alone_a.oracle_dense_evals > 0 && alone_a.ls_moves > 0);
    assert_ne!(alone_a, alone_b, "the two instances must do different work");
    let start = Barrier::new(2);
    let (together_a, together_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| {
            start.wait();
            run_all(&a, 2)
        });
        let hb = scope.spawn(|| {
            start.wait();
            run_all(&b, 2)
        });
        (ha.join().expect("run a"), hb.join().expect("run b"))
    });
    for (alone, together) in [(&alone_a, &together_a), (&alone_b, &together_b)] {
        assert_eq!(alone, together, "concurrent run's metrics differ");
        assert_eq!(
            alone.ls_improvement.to_bits(),
            together.ls_improvement.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small random instances: the full counter delta (not just labels)
    /// agrees across 1/2/4 threads.
    #[test]
    fn counters_thread_invariant_on_random_instances(
        labels in prop::collection::vec(
            prop::collection::vec(0u32..6, 40), 2..5
        )
    ) {
        let inputs: Vec<Clustering> =
            labels.into_iter().map(Clustering::from_labels).collect();
        let oracle = DenseOracle::from_clusterings(&inputs);
        let t1 = run_all(&oracle, 1);
        let t2 = run_all(&oracle, 2);
        let t4 = run_all(&oracle, 4);
        prop_assert_eq!(&t1, &t2);
        prop_assert_eq!(&t1, &t4);
    }

    /// Interrupt-at-k + resume performs exactly the counted work of the
    /// uninterrupted run: identical oracle evaluations, node visits,
    /// passes, and accepted moves.
    #[test]
    fn localsearch_counters_survive_interrupt_and_resume(
        labels in prop::collection::vec(
            prop::collection::vec(0u32..4, 24), 2..5
        ),
        cap in 0u64..120,
        seed in 0u64..50,
    ) {
        let inputs: Vec<Clustering> =
            labels.into_iter().map(Clustering::from_labels).collect();
        let oracle = DenseOracle::from_clusterings(&inputs);
        let algorithm = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Random { k: 3, seed },
            ..Default::default()
        });
        let (_, reference) = measure(|| {
            algorithm
                .run_budgeted(&oracle, &RunBudget::unlimited())
                .expect("reference run")
        });
        // Unique across threads and across concurrent test processes.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aggclust_telemetry_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let combined = interrupted_run(&algorithm, &oracle, cap, &dir);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            combined.oracle_dense_evals, reference.oracle_dense_evals,
            "oracle evaluations differ (cap {})", cap
        );
        prop_assert_eq!(combined.oracle_lazy_evals, reference.oracle_lazy_evals);
        prop_assert_eq!(
            combined.ls_moves, reference.ls_moves,
            "accepted moves differ (cap {})", cap
        );
        prop_assert_eq!(combined.ls_nodes_visited, reference.ls_nodes_visited);
        prop_assert_eq!(combined.ls_passes, reference.ls_passes);
    }
}
