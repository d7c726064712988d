//! The LOCALSEARCH algorithm: steepest-descent node moves.
//!
//! Starting from some clustering, repeatedly pick up a node and place it in
//! the cluster (possibly a fresh singleton) minimizing the cost
//!
//! ```text
//! d(v, C_i) = Σ_{u ∈ C_i} X_vu + Σ_{u ∉ C_i} (1 − X_vu),
//! ```
//!
//! until no move improves the solution. The paper computes `d(v, C_i)`
//! through the per-cluster sums `M(v, C_i) = Σ_{u ∈ C_i} X_vu`:
//! with `T_v = Σ_u X_vu` the move cost collapses to
//! `d(v, C_i) = 2·M(v, C_i) − T_v + (n − 1) − |C_i \ {v}|`,
//! so evaluating all clusters for one node costs `O(n)` oracle lookups and
//! a pass over the data is `O(n²)` — matching the paper's `O(I·n²)`.
//!
//! LOCALSEARCH doubles as a post-processing step for any other algorithm
//! (see [`local_search_from`]); the experiments show it improves solutions
//! significantly at the price of many iterations.
//!
//! ## Label counts on total inputs
//!
//! When every input labels every object, `m·X_vu` is the number of inputs
//! separating `v` and `u`, so `m·M(v, C) = m·|C \ {v}| − A(v, C)` where
//! the *agreement count* `A(v, C) = Σ_i cnt_i[C][ℓ_i(v)]` adds up, over
//! the inputs, how many members of `C` share `v`'s label. Relative to a
//! fresh singleton, placing `v` in `C` then costs exactly
//! `m·|C \ {v}| − 2·A(v, C)` disagreement units. The
//! `local_search_labels_*` entry points keep those counts per input and
//! label (the clusters holding the label and how many members they hold,
//! `O(n·m)` in total) and never touch an `n²` matrix: a visit reads the
//! clusters reached through `v`'s `m` labels — `O(m · touched clusters)`
//! — and a move updates `2m` counts. A cluster sharing no label with `v`
//! scores `m·|C| > 0` and can never beat the fresh singleton, so it is
//! never looked at. The scores are exact integers; the decisions (a fresh
//! singleton wins ties, then the lowest cluster id; a move needs
//! `cur − best > epsilon·m`) are the oracle path's.
//!
//! Both scorers are serial: steepest descent is inherently sequential —
//! every move changes the labels the next visit depends on.

use crate::clustering::Clustering;
use crate::error::{AggError, AggResult};
use crate::instance::DistanceOracle;
use crate::robust::{MemCharge, MemGauge, RunBudget, RunOutcome, RunStatus};
use crate::snapshot::{AlgorithmSnapshot, Checkpointer, LocalSearchSnapshot};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The starting point for [`local_search`].
#[derive(Clone, Debug, Default)]
pub enum LocalSearchInit {
    /// Every node in its own cluster.
    #[default]
    Singletons,
    /// All nodes in one cluster.
    OneCluster,
    /// A uniformly random assignment into `k` clusters.
    Random {
        /// Number of clusters in the random start.
        k: usize,
        /// RNG seed (the algorithm is deterministic given the seed).
        seed: u64,
    },
    /// Start from a given clustering (for standalone use; prefer
    /// [`local_search_from`] when post-processing).
    Given(Clustering),
}

/// Parameters for [`local_search`].
#[derive(Clone, Debug)]
pub struct LocalSearchParams {
    /// Initial clustering.
    pub init: LocalSearchInit,
    /// Safety cap on full passes over the data (the algorithm usually
    /// converges long before; the paper notes `I` tends to be large but
    /// finite).
    pub max_passes: usize,
    /// Minimum cost improvement for a move to be taken (guards against
    /// floating-point oscillation).
    pub epsilon: f64,
}

impl Default for LocalSearchParams {
    fn default() -> Self {
        LocalSearchParams {
            init: LocalSearchInit::Singletons,
            max_passes: 200,
            epsilon: 1e-9,
        }
    }
}

/// Run LOCALSEARCH from the configured initial clustering.
pub fn local_search<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: LocalSearchParams,
) -> Clustering {
    let n = oracle.len();
    let start = match &params.init {
        LocalSearchInit::Singletons => Clustering::singletons(n),
        LocalSearchInit::OneCluster => Clustering::one_cluster(n),
        LocalSearchInit::Random { k, seed } => {
            let k = (*k).max(1) as u32;
            let mut rng = StdRng::seed_from_u64(*seed);
            Clustering::from_labels((0..n).map(|_| rng.gen_range(0..k)).collect())
        }
        LocalSearchInit::Given(c) => {
            assert_eq!(c.len(), n, "given clustering does not match the instance");
            c.clone()
        }
    };
    local_search_from(oracle, &start, params.max_passes, params.epsilon)
}

/// Run LOCALSEARCH as a post-processing step from an explicit start.
///
/// Guaranteed never to increase the correlation cost; each accepted move
/// strictly decreases it by more than `epsilon`.
pub fn local_search_from<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
) -> Clustering {
    let n = oracle.len();
    assert_eq!(start.len(), n, "clustering does not match the instance");
    if n <= 1 {
        return start.clone();
    }
    let (labels, _, _) = descend_resumable(
        n,
        |_| OracleScorer::new(oracle),
        start,
        max_passes,
        epsilon,
        &RunBudget::unlimited(),
        None,
        None,
        [0; 4],
    );
    Clustering::from_labels(labels)
}

/// Budget-aware [`local_search`]: validates the parameters and runs the
/// descent under `budget`, returning the best-so-far clustering when the
/// budget trips (see [`local_search_from_budgeted`]).
pub fn local_search_budgeted<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: LocalSearchParams,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    local_search_resumable(oracle, params, budget, None, None)
}

/// [`local_search_budgeted`] with crash-safe checkpoint/resume.
///
/// A valid `resume` snapshot replaces the configured init entirely — the
/// descent re-enters the pass loop at the exact node where the snapshot was
/// taken, with the budget meter pre-charged so an iteration cap bounds the
/// *total* work across interrupts. A snapshot whose labels do not cover this
/// instance is ignored (fresh run). When `ckpt` is given, state is persisted
/// at its cadence after node visits and once more when the budget trips.
///
/// Resumed runs are **bit-identical** to uninterrupted ones: the snapshot
/// carries the labels, the pass/node cursor, and the pass-level `moved`
/// flag, which together determine every subsequent steepest-descent
/// decision. (Cluster *ids* may differ after a resume when the interrupted
/// run had empty trailing clusters, but [`Clustering::from_labels`]
/// normalizes ids by first occurrence, and move evaluation never depends on
/// id values — only on the relative order of non-empty clusters, which is
/// preserved.)
pub fn local_search_resumable<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: LocalSearchParams,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    run_from_init(
        oracle.len(),
        |_| OracleScorer::new(oracle),
        params,
        budget,
        resume,
        ckpt,
    )
}

/// [`local_search_resumable`] for total inputs, scored from per-cluster
/// label counts instead of a distance oracle (see the module docs): the
/// same moves, snapshots and counters as the oracle path over the
/// instance the `inputs` define, with `O(n·m)` memory charged to
/// `budget`'s gauge and no `n²` matrix.
pub(crate) fn local_search_labels_resumable(
    inputs: &[Clustering],
    params: LocalSearchParams,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    let n = inputs_len(inputs)?;
    let gauge = budget.mem_gauge();
    run_from_init(
        n,
        |labels| LabelProfile::new(inputs, labels, gauge),
        params,
        budget,
        resume,
        ckpt,
    )
}

/// Resolve the start of a [`LocalSearchParams`] run (or take it from a
/// valid `resume` snapshot) and descend with the scorer `make` builds.
fn run_from_init<S: Scorer>(
    n: usize,
    make: impl FnOnce(&[u32]) -> S,
    params: LocalSearchParams,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    let resume = resume.filter(|s| s.labels.len() == n && s.next_node as usize <= n);
    let (start, rng_state) = if resume.is_some() {
        // The snapshot supersedes the init; the labels inside it are the
        // start. A placeholder keeps the code path uniform.
        (Clustering::singletons(n), resume.map_or([0; 4], |s| s.rng))
    } else {
        match &params.init {
            LocalSearchInit::Singletons => (Clustering::singletons(n), [0; 4]),
            LocalSearchInit::OneCluster => (Clustering::one_cluster(n), [0; 4]),
            LocalSearchInit::Random { k, seed } => {
                let k = (*k).max(1) as u32;
                let mut rng = StdRng::seed_from_u64(*seed);
                let labels = (0..n).map(|_| rng.gen_range(0..k)).collect();
                (Clustering::from_labels(labels), rng.state())
            }
            LocalSearchInit::Given(c) => {
                if c.len() != n {
                    return Err(AggError::invalid_parameter(
                        "init",
                        format!(
                            "given clustering covers {} objects, instance has {n}",
                            c.len()
                        ),
                    ));
                }
                (c.clone(), [0; 4])
            }
        }
    };
    if params.epsilon.is_nan() {
        return Err(AggError::invalid_parameter("epsilon", "must not be NaN"));
    }
    if n <= 1 {
        return Ok(RunOutcome::converged(start));
    }
    let (labels, status, iterations) = descend_resumable(
        n,
        make,
        &start,
        params.max_passes,
        params.epsilon,
        budget,
        resume,
        ckpt,
        rng_state,
    );
    Ok(RunOutcome {
        clustering: Clustering::from_labels(labels),
        status,
        iterations,
    })
}

/// Budget-aware [`local_search_from`] with **anytime semantics**: every
/// accepted move strictly decreases the correlation cost, so whenever the
/// deadline, iteration cap, or cancel token trips, the current labels are a
/// valid clustering costing no more than `start` — they are returned with
/// [`RunStatus::BudgetExceeded`] / [`RunStatus::Cancelled`] instead of an
/// error. One budget iteration is one node visit (`O(n)` oracle lookups).
pub fn local_search_from_budgeted<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    local_search_from_resumable(oracle, start, max_passes, epsilon, budget, None, None)
}

/// [`local_search_from_budgeted`] with crash-safe checkpoint/resume; the
/// post-processing analogue of [`local_search_resumable`]. A valid `resume`
/// snapshot supersedes `start`.
pub fn local_search_from_resumable<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    let make = |_: &[u32]| OracleScorer::new(oracle);
    run_from_start(
        oracle.len(),
        make,
        start,
        max_passes,
        epsilon,
        budget,
        resume,
        ckpt,
    )
}

/// [`local_search_from_resumable`] for total inputs, scored from
/// per-cluster label counts (see [`local_search_labels_resumable`]).
pub(crate) fn local_search_labels_from_resumable(
    inputs: &[Clustering],
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    let n = inputs_len(inputs)?;
    let gauge = budget.mem_gauge();
    let make = |labels: &[u32]| LabelProfile::new(inputs, labels, gauge);
    run_from_start(n, make, start, max_passes, epsilon, budget, resume, ckpt)
}

/// Validate an explicit `start` (or take a valid `resume` snapshot
/// instead) and descend with the scorer `make` builds.
#[allow(clippy::too_many_arguments)]
fn run_from_start<S: Scorer>(
    n: usize,
    make: impl FnOnce(&[u32]) -> S,
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    if start.len() != n {
        return Err(AggError::invalid_parameter(
            "start",
            format!(
                "clustering covers {} objects, instance has {n}",
                start.len()
            ),
        ));
    }
    if epsilon.is_nan() {
        return Err(AggError::invalid_parameter("epsilon", "must not be NaN"));
    }
    if n <= 1 {
        return Ok(RunOutcome::converged(start.clone()));
    }
    let resume = resume.filter(|s| s.labels.len() == n && s.next_node as usize <= n);
    let rng_state = resume.map_or([0; 4], |s| s.rng);
    let (labels, status, iterations) = descend_resumable(
        n, make, start, max_passes, epsilon, budget, resume, ckpt, rng_state,
    );
    Ok(RunOutcome {
        clustering: Clustering::from_labels(labels),
        status,
        iterations,
    })
}

/// The object count shared by `inputs`, or a typed error when there are
/// none or they disagree.
fn inputs_len(inputs: &[Clustering]) -> AggResult<usize> {
    let n = inputs.first().map(Clustering::len).ok_or_else(|| {
        AggError::invalid_parameter("inputs", "need at least one input clustering")
    })?;
    match inputs.iter().find(|c| c.len() != n) {
        Some(bad) => Err(AggError::invalid_parameter(
            "inputs",
            format!(
                "input clusterings disagree on the object count: {n} vs {}",
                bad.len()
            ),
        )),
        None => Ok(n),
    }
}

/// The one steepest-descent engine behind every entry point, with
/// checkpoint/resume hooks. Callers guarantee `start.len() == n` and
/// `n >= 2`. `resume`, when present, is pre-validated (`labels.len() == n`,
/// `next_node <= n`) and overrides `start`; `make` builds the per-visit
/// scorer from the labels the descent starts at; `rng_state` is stamped
/// into snapshots so a resumed `Random`-init run stays fully determined by
/// the file.
#[allow(clippy::too_many_arguments)]
fn descend_resumable<S: Scorer>(
    n: usize,
    make: impl FnOnce(&[u32]) -> S,
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    mut ckpt: Option<&mut Checkpointer>,
    rng_state: [u64; 4],
) -> (Vec<u32>, RunStatus, u64) {
    let _span = crate::span!(
        "local_search",
        n = n,
        max_passes = max_passes,
        resuming = resume.is_some(),
        scorer = S::NAME
    );
    // Where to re-enter the loop: (labels, pass, first unvisited node of
    // that pass, `moved` flag carried into it, completed budget iterations).
    let (mut labels, first_pass, resume_node, resumed_moved, done): (Vec<u32>, _, _, _, u64) =
        match resume {
            Some(s) => (
                s.labels.clone(),
                s.pass as usize,
                s.next_node as usize,
                s.moved_in_pass,
                s.iterations,
            ),
            None => (start.labels().to_vec(), 0, 0, false, 0),
        };
    // Cluster sizes, indexed by label; empty slots may appear as nodes move
    // out and are reused only implicitly (fresh singletons get new ids).
    let mut sizes: Vec<usize> = {
        let k = (labels.iter().copied().max().unwrap_or(0) + 1) as usize;
        let mut s = vec![0usize; k];
        for &l in &labels {
            s[l as usize] += 1;
        }
        s
    };
    let mut scorer = make(&labels);

    let mut meter = budget.meter_from(done);
    let mut heartbeat = telemetry::Heartbeat::new("local_search", n as u64).with_budget(budget);
    for pass in first_pass..max_passes {
        // The pass in progress when the snapshot was taken resumes its
        // node cursor and its pass-level convergence flag.
        let resuming = pass == first_pass && resume.is_some();
        let skip_before = if resuming { resume_node } else { 0 };
        let mut moved = resuming && resumed_moved;
        for v in skip_before..n {
            // One budget iteration per node visit: the labels between
            // visits always describe a valid clustering no costlier
            // than the start.
            if let Err(interrupt) = meter.tick() {
                if let Some(c) = ckpt.as_deref_mut() {
                    // Final checkpoint at the interrupt point; `v` has
                    // not been visited, and the failed tick is not
                    // completed work.
                    let _ = c.save_now(AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
                        labels: labels.clone(),
                        pass: pass as u64,
                        next_node: v as u64,
                        moved_in_pass: moved,
                        iterations: meter.iterations() - 1,
                        rng: rng_state,
                    }));
                }
                return (labels, interrupt.status(), meter.iterations());
            }
            telemetry::record(|m| m.ls_nodes_visited.incr());
            if let Some((best, gain)) = scorer.best_move(v, epsilon, &labels, &sizes) {
                let cur = labels[v] as usize;
                sizes[cur] -= 1;
                let target = best.unwrap_or_else(|| {
                    if sizes[cur] == 0 {
                        // Moving a singleton to a fresh singleton is a
                        // no-op; keep the label. (Unreachable because
                        // the costs are equal, but kept for safety.)
                        cur
                    } else {
                        sizes.push(0);
                        sizes.len() - 1
                    }
                });
                sizes[target] += 1;
                labels[v] = target as u32;
                scorer.moved(v, cur, target);
                telemetry::record(|m| {
                    m.ls_moves.incr();
                    // The move's strict cost improvement; accumulated
                    // serially (the descent visits nodes one at a
                    // time), so the sum's rounding order is fixed and
                    // the total is bit-reproducible.
                    m.ls_improvement.add(gain);
                    m.ls_delta_hist.observe(gain);
                });
                moved = true;
            }
            // Progress within the current pass; each pass restarts the
            // cursor, so `done/total` reads as pass completion.
            heartbeat.tick((v + 1) as u64);
            if let Some(c) = ckpt.as_deref_mut() {
                c.maybe_save(|| {
                    AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
                        labels: labels.clone(),
                        pass: pass as u64,
                        next_node: (v + 1) as u64,
                        moved_in_pass: moved,
                        iterations: meter.iterations(),
                        rng: rng_state,
                    })
                });
            }
        }
        // Completed passes only, so an interrupt-at-k + resume run counts
        // each pass exactly once — matching the uninterrupted run.
        telemetry::record(|m| m.ls_passes.incr());
        if !moved {
            break;
        }
    }

    (labels, RunStatus::Converged, meter.iterations())
}

/// The per-visit half of the descent: how one node's candidate clusters
/// are scored. Everything else — budget, checkpoints, counters, applying
/// a move — is [`descend_resumable`]'s and shared.
trait Scorer {
    /// Trace label of this scorer on the `local_search` span.
    const NAME: &'static str;

    /// Evaluate every candidate move for `v` against the current labels.
    /// Returns the move to take — `None` for a fresh singleton, else the
    /// target cluster — and its cost improvement, or `None` when no
    /// candidate beats `v`'s current cluster by more than `epsilon`. A
    /// fresh singleton wins ties, then the lowest cluster id.
    fn best_move(
        &mut self,
        v: usize,
        epsilon: f64,
        labels: &[u32],
        sizes: &[usize],
    ) -> Option<(Option<usize>, f64)>;

    /// `v` moved from cluster `from` to cluster `to`.
    fn moved(&mut self, _v: usize, _from: usize, _to: usize) {}
}

/// Scores a visit from the `n − 1` distances `X_vu` of a
/// [`DistanceOracle`], read in ascending `u` order.
struct OracleScorer<'a, O: ?Sized> {
    oracle: &'a O,
    m_sums: Vec<f64>,
}

impl<'a, O: DistanceOracle + Sync + ?Sized> OracleScorer<'a, O> {
    fn new(oracle: &'a O) -> Self {
        OracleScorer {
            oracle,
            m_sums: Vec::new(),
        }
    }
}

impl<O: DistanceOracle + Sync + ?Sized> Scorer for OracleScorer<'_, O> {
    const NAME: &'static str = "oracle";

    fn best_move(
        &mut self,
        v: usize,
        epsilon: f64,
        labels: &[u32],
        sizes: &[usize],
    ) -> Option<(Option<usize>, f64)> {
        let n = labels.len();
        let k = sizes.len();
        let m_sums = &mut self.m_sums;
        m_sums.clear();
        m_sums.resize(k, 0.0);
        let mut t_v = 0.0;
        for u in 0..n {
            if u != v {
                let x = self.oracle.dist(v, u);
                m_sums[labels[u] as usize] += x;
                t_v += x;
            }
        }
        let cur = labels[v] as usize;
        let others = (n - 1) as f64;
        // d(v, C_i) = 2·M_i − T_v + (n−1) − |C_i \ {v}|
        let move_cost = |i: usize| -> f64 {
            let size_wo_v = sizes[i] - usize::from(i == cur);
            2.0 * m_sums[i] - t_v + others - size_wo_v as f64
        };

        let mut best_i = usize::MAX; // MAX = fresh singleton
        let mut best_cost = others - t_v;
        for (i, &size) in sizes.iter().enumerate() {
            if size == 0 && i != cur {
                continue;
            }
            let c = move_cost(i);
            if c < best_cost {
                best_cost = c;
                best_i = i;
            }
        }
        let cur_cost = move_cost(cur);
        (best_cost < cur_cost - epsilon && best_i != cur).then(|| {
            (
                (best_i != usize::MAX).then_some(best_i),
                cur_cost - best_cost,
            )
        })
    }
}

/// Per-cluster label counts of total inputs: for each input `i` and label
/// `ℓ`, the clusters holding objects that input `i` labels `ℓ`, and how
/// many such members each holds. Every object contributes one count per
/// input, so the structure is `O(n·m)` whatever the number of labels or
/// clusters; it scores visits from the agreement counts described in the
/// module docs.
struct LabelProfile {
    m: usize,
    /// `lists[v·m + i]`: the list of the label input `i` gives `v`.
    lists: Vec<usize>,
    /// List `l` is `entries[start[l]..start[l] + len[l]]`. Its capacity,
    /// `start[l + 1] − start[l]`, is the number of objects carrying its
    /// label — every cluster in the list holds at least one of them, so a
    /// list never outgrows it.
    start: Vec<usize>,
    len: Vec<usize>,
    /// `(cluster, members of the cluster carrying the list's label)`.
    entries: Vec<(u32, u32)>,
    /// Per-visit agreement counts `A(v, C)`, indexed by cluster; zero
    /// outside a visit.
    agree: Vec<u32>,
    /// Clusters with a nonzero `agree` entry in the current visit.
    touched: Vec<usize>,
    _charge: MemCharge,
}

impl LabelProfile {
    /// Count the clusters of `labels` per input label; the bytes are
    /// charged to `gauge` for as long as the profile lives.
    fn new(inputs: &[Clustering], labels: &[u32], gauge: &MemGauge) -> Self {
        let (n, m) = (labels.len(), inputs.len());
        let mut first_list = Vec::with_capacity(m);
        let mut num_lists = 0usize;
        for c in inputs {
            first_list.push(num_lists);
            num_lists += c.num_clusters();
        }
        let mut lists = vec![0usize; n * m];
        let mut start = vec![0usize; num_lists + 1];
        for v in 0..n {
            for (i, c) in inputs.iter().enumerate() {
                let l = first_list[i] + c.label(v) as usize;
                lists[v * m + i] = l;
                start[l + 1] += 1;
            }
        }
        for l in 0..num_lists {
            start[l + 1] += start[l];
        }
        let k = labels.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let word = std::mem::size_of::<usize>() as u64;
        let bytes = (n * m + 2 * num_lists + 1) as u64 * word + (n * m) as u64 * 8 + k as u64 * 4;
        let mut profile = LabelProfile {
            m,
            lists,
            start,
            len: vec![0; num_lists],
            entries: vec![(0, 0); n * m],
            agree: vec![0; k],
            touched: Vec::new(),
            _charge: gauge.charge(bytes),
        };
        // Enter the objects cluster by cluster: a cluster's entry in a
        // list, if it has one yet, is then the list's last.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| labels[v]);
        for v in order {
            let c = labels[v];
            for i in 0..m {
                let l = profile.lists[v * m + i];
                let end = profile.start[l] + profile.len[l];
                match profile.entries[..end].last_mut() {
                    Some(last) if profile.len[l] > 0 && last.0 == c => last.1 += 1,
                    _ => {
                        profile.entries[end] = (c, 1);
                        profile.len[l] += 1;
                    }
                }
            }
        }
        profile
    }

    /// Count `v`, a member of cluster `c`, under each of its labels.
    fn enter(&mut self, v: usize, c: usize) {
        for i in 0..self.m {
            let l = self.lists[v * self.m + i];
            match self.find(l, c) {
                Some(p) => self.entries[p].1 += 1,
                None => {
                    self.entries[self.start[l] + self.len[l]] = (c as u32, 1);
                    self.len[l] += 1;
                }
            }
        }
    }

    /// Undo [`LabelProfile::enter`]: drop entries whose count reaches 0.
    fn leave(&mut self, v: usize, c: usize) {
        for i in 0..self.m {
            let l = self.lists[v * self.m + i];
            if let Some(p) = self.find(l, c) {
                self.entries[p].1 -= 1;
                if self.entries[p].1 == 0 {
                    self.len[l] -= 1;
                    self.entries.swap(p, self.start[l] + self.len[l]);
                }
            }
        }
    }

    fn list(&self, l: usize) -> &[(u32, u32)] {
        &self.entries[self.start[l]..self.start[l] + self.len[l]]
    }

    /// Position of cluster `c`'s entry in list `l`, if it holds the label.
    fn find(&self, l: usize, c: usize) -> Option<usize> {
        self.list(l)
            .iter()
            .position(|&(e, _)| e as usize == c)
            .map(|p| self.start[l] + p)
    }
}

impl Scorer for LabelProfile {
    const NAME: &'static str = "labels";

    fn best_move(
        &mut self,
        v: usize,
        epsilon: f64,
        labels: &[u32],
        sizes: &[usize],
    ) -> Option<(Option<usize>, f64)> {
        let m = self.m;
        if self.agree.len() < sizes.len() {
            self.agree.resize(sizes.len(), 0);
        }
        for i in 0..m {
            let l = self.lists[v * m + i];
            for &(c, count) in &self.entries[self.start[l]..self.start[l] + self.len[l]] {
                let c = c as usize;
                if self.agree[c] == 0 {
                    self.touched.push(c);
                }
                self.agree[c] += count;
            }
        }
        let cur = labels[v] as usize;
        // `v` sits in every one of its own lists, inside `cur`.
        self.agree[cur] -= m as u32;
        // m·d(v, C) − m·d(v, fresh singleton) = m·|C \ {v}| − 2·A(v, C)
        let score = |c: usize, agree: u32| -> i64 {
            let size_wo_v = sizes[c] - usize::from(c == cur);
            (m * size_wo_v) as i64 - 2 * i64::from(agree)
        };
        let cur_score = score(cur, self.agree[cur]);
        let (mut best, mut best_score) = (None, 0i64);
        for &c in &self.touched {
            let s = score(c, self.agree[c]);
            if s < best_score || (s == best_score && best.is_some_and(|b| c < b)) {
                best = Some(c);
                best_score = s;
            }
        }
        for &c in &self.touched {
            self.agree[c] = 0;
        }
        self.touched.clear();
        let gain = cur_score - best_score;
        (best != Some(cur) && gain as f64 > epsilon * m as f64)
            .then(|| (best, gain as f64 / m as f64))
    }

    fn moved(&mut self, v: usize, from: usize, to: usize) {
        self.leave(v, from);
        self.enter(v, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    fn figure1_oracle() -> DenseOracle {
        DenseOracle::from_clusterings(&[
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ])
    }

    #[test]
    fn recovers_figure1_optimum_from_singletons() {
        let result = local_search(&figure1_oracle(), LocalSearchParams::default());
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn recovers_figure1_optimum_from_one_cluster() {
        let result = local_search(
            &figure1_oracle(),
            LocalSearchParams {
                init: LocalSearchInit::OneCluster,
                ..Default::default()
            },
        );
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn random_inits_converge_to_low_cost() {
        let oracle = figure1_oracle();
        let opt_cost = 5.0 / 3.0;
        for seed in 0..5 {
            let result = local_search(
                &oracle,
                LocalSearchParams {
                    init: LocalSearchInit::Random { k: 3, seed },
                    ..Default::default()
                },
            );
            let cost = correlation_cost(&oracle, &result);
            assert!(cost <= opt_cost + 1e-9, "seed {seed}: cost {cost}");
        }
    }

    #[test]
    fn never_increases_cost_as_postprocessor() {
        let oracle = figure1_oracle();
        let starts = [
            Clustering::singletons(6),
            Clustering::one_cluster(6),
            c(&[0, 0, 0, 1, 1, 1]),
            c(&[0, 1, 1, 0, 2, 0]),
        ];
        for s in &starts {
            let refined = local_search_from(&oracle, s, 100, 1e-9);
            assert!(correlation_cost(&oracle, &refined) <= correlation_cost(&oracle, s) + 1e-9);
        }
    }

    #[test]
    fn local_optimum_is_fixed_point() {
        let oracle = figure1_oracle();
        let opt = c(&[0, 1, 0, 1, 2, 2]);
        let refined = local_search_from(&oracle, &opt, 100, 1e-9);
        assert_eq!(refined, opt);
    }

    #[test]
    fn perfect_consensus_is_reproduced() {
        let consensus = c(&[0, 0, 1, 1, 2]);
        let oracle = DenseOracle::from_clusterings(&[consensus.clone(), consensus.clone()]);
        assert_eq!(
            local_search(&oracle, LocalSearchParams::default()),
            consensus
        );
    }

    #[test]
    fn given_init_is_used() {
        let oracle = figure1_oracle();
        let given = c(&[0, 1, 0, 1, 2, 2]);
        let result = local_search(
            &oracle,
            LocalSearchParams {
                init: LocalSearchInit::Given(given.clone()),
                max_passes: 0,
                epsilon: 1e-9,
            },
        );
        assert_eq!(result, given);
    }

    #[test]
    fn tiny_instances() {
        let o1 = DenseOracle::from_fn(1, |_, _| 0.0);
        assert_eq!(
            local_search(&o1, LocalSearchParams::default()).num_clusters(),
            1
        );
        let o0 = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(local_search(&o0, LocalSearchParams::default()).len(), 0);
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        let oracle = figure1_oracle();
        let plain = local_search(&oracle, LocalSearchParams::default());
        let outcome = local_search_budgeted(
            &oracle,
            LocalSearchParams::default(),
            &RunBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.clustering, plain);
        assert_eq!(outcome.status, RunStatus::Converged);
        assert!(outcome.iterations > 0);
    }

    #[test]
    fn budget_trip_returns_best_so_far() {
        use crate::cost::correlation_cost;
        let oracle = figure1_oracle();
        let start = Clustering::singletons(6);
        // A one-iteration cap trips immediately; the result must still be a
        // valid clustering no costlier than the start.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome = local_search_from_budgeted(&oracle, &start, 200, 1e-9, &tight).unwrap();
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
        assert!(
            correlation_cost(&oracle, &outcome.clustering)
                <= correlation_cost(&oracle, &start) + 1e-9
        );
    }

    #[test]
    fn cancellation_is_reported() {
        let oracle = figure1_oracle();
        let token = crate::robust::CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel_token(token);
        let outcome =
            local_search_budgeted(&oracle, LocalSearchParams::default(), &budget).unwrap();
        assert_eq!(outcome.status, RunStatus::Cancelled);
    }

    #[test]
    fn mismatched_start_is_a_typed_error() {
        let oracle = figure1_oracle();
        let bad = Clustering::singletons(3);
        let err = local_search_from_budgeted(&oracle, &bad, 200, 1e-9, &RunBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
        let err = local_search_budgeted(
            &oracle,
            LocalSearchParams {
                init: LocalSearchInit::Given(bad),
                ..Default::default()
            },
            &RunBudget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }

    #[test]
    fn interrupt_and_resume_matches_uninterrupted() {
        use crate::snapshot::{load_snapshot, SnapshotLoad};
        use std::time::Duration;

        let oracle = DenseOracle::from_fn(24, |u, v| ((u * 7 + v * 13) % 11) as f64 / 11.0);
        let params = LocalSearchParams {
            init: LocalSearchInit::Random { k: 4, seed: 42 },
            ..Default::default()
        };
        let full = local_search_budgeted(&oracle, params.clone(), &RunBudget::unlimited()).unwrap();
        assert_eq!(full.status, RunStatus::Converged);

        let dir =
            std::env::temp_dir().join(format!("aggclust_ls_resume_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        for cap in [1u64, 2, 5, 11, 23, 24, 25, 47, 90] {
            let tight = RunBudget::unlimited().with_max_iters(cap);
            let mut ckpt = Checkpointer::new(&path, Duration::ZERO);
            let partial =
                local_search_resumable(&oracle, params.clone(), &tight, None, Some(&mut ckpt))
                    .unwrap();
            if partial.status == RunStatus::Converged {
                assert_eq!(partial.clustering, full.clustering);
                continue;
            }
            let snap = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("cap {cap}: expected snapshot, got {other:?}"),
            };
            let AlgorithmSnapshot::LocalSearch(ls) = snap.state else {
                panic!("cap {cap}: wrong snapshot variant");
            };
            assert_eq!(ls.iterations, cap, "snapshot records completed work");
            let resumed = local_search_resumable(
                &oracle,
                params.clone(),
                &RunBudget::unlimited(),
                Some(&ls),
                None,
            )
            .unwrap();
            assert_eq!(
                resumed.clustering, full.clustering,
                "cap {cap}: resumed labels differ"
            );
            assert_eq!(
                resumed.iterations, full.iterations,
                "cap {cap}: resumed total work differs"
            );
            assert_eq!(resumed.status, RunStatus::Converged);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_snapshot_is_ignored() {
        let oracle = figure1_oracle();
        let stale = LocalSearchSnapshot {
            labels: vec![0; 99],
            pass: 1,
            next_node: 3,
            moved_in_pass: true,
            iterations: 12,
            rng: [0; 4],
        };
        let outcome = local_search_resumable(
            &oracle,
            LocalSearchParams::default(),
            &RunBudget::unlimited(),
            Some(&stale),
            None,
        )
        .unwrap();
        assert_eq!(outcome.clustering, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn nan_epsilon_rejected() {
        let oracle = figure1_oracle();
        let start = Clustering::singletons(6);
        let err =
            local_search_from_budgeted(&oracle, &start, 10, f64::NAN, &RunBudget::unlimited())
                .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }

    /// `m` total inputs over `n` objects: a planted `k`-block truth, each
    /// input relabelling about a quarter of the objects at random, so the
    /// descent has real moves and ties to make.
    fn noisy_inputs(n: usize, m: usize, k: u32, seed: u64) -> Vec<Clustering> {
        let mut state = seed;
        let mut next =
            |bound: u32| (crate::test_support::splitmix64(&mut state) % u64::from(bound)) as u32;
        (0..m)
            .map(|_| {
                let labels = (0..n)
                    .map(|v| {
                        if next(4) == 0 {
                            next(k + 2)
                        } else {
                            v as u32 % k
                        }
                    })
                    .collect();
                Clustering::from_labels(labels)
            })
            .collect()
    }

    /// A run's labels with its pass, visit and move counters.
    fn counted(run: impl FnOnce() -> RunOutcome) -> (Clustering, [u64; 3]) {
        let (outcome, counters) = telemetry::measure(run);
        let counts = [
            counters.ls_passes,
            counters.ls_nodes_visited,
            counters.ls_moves,
        ];
        (outcome.clustering, counts)
    }

    fn label_run(inputs: &[Clustering], params: LocalSearchParams) -> (Clustering, [u64; 3]) {
        counted(|| {
            local_search_labels_resumable(inputs, params, &RunBudget::unlimited(), None, None)
                .unwrap()
        })
    }

    #[test]
    fn label_counts_match_the_dense_oracle_exactly() {
        // With m a power of two every `k/m` and every sum of them is exact
        // in f64, so the oracle path decides exactly too: both paths must
        // make the same moves, on small and large instances.
        for (n, ms) in [(120usize, &[1usize, 2, 4, 8][..]), (2100, &[2][..])] {
            for &m in ms {
                let inputs = noisy_inputs(n, m, 7, (n * 31 + m) as u64);
                let oracle = DenseOracle::from_clusterings(&inputs);
                let inits = [
                    LocalSearchInit::Singletons,
                    LocalSearchInit::OneCluster,
                    LocalSearchInit::Random { k: 5, seed: 9 },
                    LocalSearchInit::Given(Clustering::from_labels(
                        (0..n as u32).map(|v| v % 3).collect(),
                    )),
                ];
                for init in inits {
                    let params = LocalSearchParams {
                        init: init.clone(),
                        ..Default::default()
                    };
                    let want = counted(|| {
                        local_search_budgeted(&oracle, params.clone(), &RunBudget::unlimited())
                            .unwrap()
                    });
                    let got = label_run(&inputs, params);
                    assert_eq!(got, want, "n {n} m {m} init {init:?}");
                    assert!(got.1[2] > 0, "n {n} m {m} init {init:?}: no moves made");
                }
                // Refinement from another algorithm's answer.
                let start = inputs[m - 1].clone();
                let want = counted(|| {
                    local_search_from_budgeted(&oracle, &start, 200, 1e-9, &RunBudget::unlimited())
                        .unwrap()
                });
                let got = counted(|| {
                    let budget = RunBudget::unlimited();
                    local_search_labels_from_resumable(
                        &inputs, &start, 200, 1e-9, &budget, None, None,
                    )
                    .unwrap()
                });
                assert_eq!(got, want, "n {n} m {m} refinement");
            }
        }
    }

    #[test]
    fn oracle_path_reads_each_other_node_once_per_visit() {
        // A visit reads `X_vu` for every `u ≠ v` and never the diagonal,
        // at any instance size (2000 and 2100 straddle 2048).
        for n in [2000usize, 2100] {
            let inputs = noisy_inputs(n, 2, 7, n as u64);
            let oracle = DenseOracle::from_clusterings(&inputs);
            let budget = RunBudget::unlimited();
            let (outcome, counters) = telemetry::measure(|| {
                local_search_from_resumable(&oracle, &inputs[0], 200, 1e-9, &budget, None, None)
                    .unwrap()
            });
            assert!(outcome.status.is_converged(), "n {n}");
            assert!(counters.ls_nodes_visited >= n as u64, "n {n}");
            assert_eq!(
                counters.oracle_dense_evals,
                counters.ls_nodes_visited * (n as u64 - 1),
                "n {n}"
            );
        }
    }

    #[test]
    fn label_counts_recover_figure1_and_reject_bad_inputs() {
        let inputs = [
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ];
        let (got, _) = label_run(&inputs, LocalSearchParams::default());
        assert_eq!(got, c(&[0, 1, 0, 1, 2, 2]));
        let budget = RunBudget::unlimited();
        let err =
            local_search_labels_resumable(&[], LocalSearchParams::default(), &budget, None, None)
                .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
        let ragged = [c(&[0, 0, 1]), c(&[0, 1])];
        let err = local_search_labels_resumable(
            &ragged,
            LocalSearchParams::default(),
            &budget,
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }

    #[test]
    fn label_counts_interrupt_and_resume_matches_uninterrupted() {
        use crate::snapshot::{load_snapshot, SnapshotLoad};
        use std::time::Duration;

        let inputs = noisy_inputs(60, 3, 4, 5);
        let params = LocalSearchParams {
            init: LocalSearchInit::Random { k: 4, seed: 42 },
            ..Default::default()
        };
        let budget = RunBudget::unlimited();
        let full =
            local_search_labels_resumable(&inputs, params.clone(), &budget, None, None).unwrap();
        assert_eq!(full.status, RunStatus::Converged);
        assert!(full.iterations > 90, "every cap must interrupt the run");

        let dir =
            std::env::temp_dir().join(format!("aggclust_ls_labels_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        for cap in [1u64, 2, 5, 23, 90] {
            let tight = RunBudget::unlimited().with_max_iters(cap);
            let mut ckpt = Checkpointer::new(&path, Duration::ZERO);
            let partial = local_search_labels_resumable(
                &inputs,
                params.clone(),
                &tight,
                None,
                Some(&mut ckpt),
            )
            .unwrap();
            assert_eq!(partial.status, RunStatus::BudgetExceeded, "cap {cap}");
            let snap = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("cap {cap}: expected snapshot, got {other:?}"),
            };
            let AlgorithmSnapshot::LocalSearch(ls) = snap.state else {
                panic!("cap {cap}: wrong snapshot variant");
            };
            assert_eq!(ls.iterations, cap, "snapshot records completed work");
            let resumed =
                local_search_labels_resumable(&inputs, params.clone(), &budget, Some(&ls), None)
                    .unwrap();
            assert_eq!(
                resumed.clustering, full.clustering,
                "cap {cap}: resumed labels differ"
            );
            assert_eq!(
                resumed.iterations, full.iterations,
                "cap {cap}: resumed total work differs"
            );
            assert_eq!(resumed.status, RunStatus::Converged);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn label_counts_are_thread_count_invariant() {
        let inputs = noisy_inputs(400, 3, 6, 11);
        let reference = label_run(&inputs, LocalSearchParams::default());
        for threads in [1usize, 2, 4] {
            let got = crate::parallel::with_num_threads(threads, || {
                label_run(&inputs, LocalSearchParams::default())
            });
            assert_eq!(got, reference, "{threads} threads");
        }
    }
}
