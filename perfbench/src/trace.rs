//! The traced run: the solve pipeline replayed stage by stage through the
//! public functions `ConsensusBuilder::try_aggregate_partial` calls, with a
//! benchmark-side span around each call and the program's integer work
//! counters read around the whole replay.

use crate::host::json_str;
use crate::workloads::{Stage, Workload};
use aggclust_core::algorithms::local_search::{
    local_search_from_resumable, local_search_resumable,
};
use aggclust_core::algorithms::sampling::{sampling_with_details, SamplingParams};
use aggclust_core::algorithms::{AgglomerativeParams, LocalSearchParams};
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::instance::CorrelationInstance;
use aggclust_core::linkage::{linkage_resumable, CondensedMatrix, LinkageMethod};
use aggclust_core::obs::metrics;
use aggclust_core::robust::Interrupt;
use aggclust_core::{Clustering, DistanceOracle, MissingPolicy, PartialClustering, RunBudget};
use std::hint::black_box;
use std::time::Instant;

/// Refinement settings `ConsensusBuilder` passes to LOCALSEARCH.
const REFINE_MAX_PASSES: usize = 200;
const REFINE_EPSILON: f64 = 1e-9;

/// One closed span: a call into one layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, named after its module.
    pub name: &'static str,
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that made this call; `None` for a replay's root.
    pub parent: Option<usize>,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    /// End, in ns since the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for one run; every span shares the run id.
pub struct Tracer {
    /// Identifier shared by every span of this run.
    pub run_id: String,
    epoch: Instant,
    /// Closed and open spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, a child of the innermost open
    /// span. Returns `f`'s value and the span's index.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Share of span `root` that none of its direct children covers.
    pub fn unattributed(&self, root: usize) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let total = self.spans[root].end_ns - self.spans[root].start_ns;
        total.saturating_sub(covered) as f64 / total.max(1) as f64
    }

    /// Seconds spent in spans called `name` under root span `root`.
    pub fn secs_under(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.root_of(s.id) == root)
            .map(Span::secs)
            .sum()
    }

    fn root_of(&self, mut id: usize) -> usize {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        id
    }

    /// The run's spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                    json_str(&self.run_id),
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect()
    }
}

/// The program's integer work counters (the float `ls_improvement` sum is
/// deliberately not read).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub dense_evals: u64,
    pub lazy_evals: u64,
    pub packed_evals: u64,
    pub row_batches: u64,
    pub ls_passes: u64,
    pub ls_nodes_visited: u64,
    pub ls_moves: u64,
    pub linkage_merges: u64,
    pub sampling_assigned: u64,
}

impl Counters {
    /// Current values of the process-wide registry.
    pub fn capture() -> Counters {
        let m = metrics();
        Counters {
            dense_evals: m.oracle_dense_evals.get(),
            lazy_evals: m.oracle_lazy_evals.get(),
            packed_evals: m.oracle_packed_evals.get(),
            row_batches: m.kernels_row_batches.get(),
            ls_passes: m.ls_passes.get(),
            ls_nodes_visited: m.ls_nodes_visited.get(),
            ls_moves: m.ls_moves.get(),
            linkage_merges: m.linkage_merges.get(),
            sampling_assigned: m.sampling_assigned.get(),
        }
    }

    /// Work done since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            dense_evals: self.dense_evals - before.dense_evals,
            lazy_evals: self.lazy_evals - before.lazy_evals,
            packed_evals: self.packed_evals - before.packed_evals,
            row_batches: self.row_batches - before.row_batches,
            ls_passes: self.ls_passes - before.ls_passes,
            ls_nodes_visited: self.ls_nodes_visited - before.ls_nodes_visited,
            ls_moves: self.ls_moves - before.ls_moves,
            linkage_merges: self.linkage_merges - before.linkage_merges,
            sampling_assigned: self.sampling_assigned - before.sampling_assigned,
        }
    }
}

/// What one replay produced besides its spans.
pub struct Replay {
    /// Consensus labels; must equal the end-to-end call's.
    pub clustering: Clustering,
    /// Root span of the replay.
    pub root: usize,
    /// Bytes of the dense matrix, when one was built.
    pub dense_bytes: Option<u64>,
    /// SAMPLING's own phase times (cluster, assign, recluster), in seconds.
    pub sampling_phases: Option<[f64; 3]>,
    /// Counter deltas over the replay.
    pub counters: Counters,
}

/// Replay `try_aggregate_partial` for `w` on `inputs` at `threads` worker
/// threads, one traced call per stage.
pub fn replay(
    w: &Workload,
    inputs: Vec<PartialClustering>,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let before = Counters::capture();
    let (out, root) = aggclust_core::parallel::with_num_threads(threads, || {
        tracer.span("consensus", |t| replay_stages(w, inputs, t))
    });
    let (clustering, dense_bytes, sampling_phases) = out?;
    Ok(Replay {
        clustering,
        root,
        dense_bytes,
        sampling_phases,
        counters: Counters::capture().since(before),
    })
}

type StageOut = (Clustering, Option<u64>, Option<[f64; 3]>);

fn replay_stages(
    w: &Workload,
    inputs: Vec<PartialClustering>,
    t: &mut Tracer,
) -> Result<StageOut, String> {
    let (instance, _) = t.span("instance", |_| {
        CorrelationInstance::try_from_partial(inputs, MissingPolicy::default())
    });
    let instance = instance.map_err(|e| format!("instance: {e}"))?;
    if w.sampled() {
        let (lazy, _) = t.span("instance.lazy_oracle", |_| instance.lazy_oracle());
        let params = SamplingParams::new(w.sample_size, w.algorithm(), 0);
        let (details, _) = t.span("sampling", |_| sampling_with_details(&lazy, &params));
        let phases = [
            details.cluster_time.as_secs_f64(),
            details.assign_time.as_secs_f64(),
            details.recluster_time.as_secs_f64(),
        ];
        return Ok((details.clustering, None, Some(phases)));
    }
    let budget = w.budget();
    let (dense, _) = t.span("instance.dense_oracle", |_| {
        instance.try_dense_oracle(&budget)
    });
    match dense {
        Ok(dense) => {
            let c = finish(w, &dense, &budget, t)?;
            Ok((c, Some(instance.dense_bytes()), None))
        }
        Err(Interrupt::MemoryExceeded { .. }) if w.stage == Stage::LocalSearch => {
            let (lazy, _) = t.span("instance.lazy_oracle", |_| instance.lazy_oracle());
            Ok((finish(w, &lazy, &budget, t)?, None, None))
        }
        Err(e) => Err(format!("dense oracle: {e:?}")),
    }
}

/// The main stage, refinement, cost and lower bound over `oracle`.
fn finish<O: DistanceOracle + Sync>(
    w: &Workload,
    oracle: &O,
    budget: &RunBudget,
    t: &mut Tracer,
) -> Result<Clustering, String> {
    let mut clustering = match w.stage {
        Stage::LocalSearch => {
            let (out, _) = t.span("local_search", |_| {
                local_search_resumable(oracle, LocalSearchParams::default(), budget, None, None)
            });
            out.map_err(|e| format!("local search: {e}"))?.clustering
        }
        Stage::Agglomerative => {
            let (matrix, _) = t.span("linkage.condensed_fill", |_| {
                CondensedMatrix::try_from_oracle(oracle, budget)
            });
            let matrix = matrix.map_err(|e| format!("condensed matrix: {e:?}"))?;
            let ((dendrogram, _, _), _) = t.span("linkage.merge", |_| {
                linkage_resumable(matrix, LinkageMethod::Average, budget, None, None)
            });
            let threshold = AgglomerativeParams::default().threshold;
            t.span("linkage.cut", |_| dendrogram.cut_height(threshold))
                .0
        }
    };
    if w.refine {
        let (out, _) = t.span("local_search", |_| {
            local_search_from_resumable(
                oracle,
                &clustering,
                REFINE_MAX_PASSES,
                REFINE_EPSILON,
                budget,
                None,
                None,
            )
        });
        clustering = out.map_err(|e| format!("refinement: {e}"))?.clustering;
    }
    t.span("cost.correlation", |_| {
        black_box(correlation_cost(oracle, &clustering));
    });
    t.span("cost.lower_bound", |_| {
        black_box(lower_bound(oracle));
    });
    Ok(clustering)
}
