//! The pinned workloads: how each input is generated from a seed, and the
//! builder configuration its solve runs with.
//!
//! The program only ever sees the generated clusterings, rendered as
//! label-matrix text and parsed back through the CLI's parser.

use aggclust_core::algorithms::local_search::LocalSearchParams;
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::{ConsensusBuilder, MissingPolicy, PartialClustering, RunBudget};
use aggclust_data::presets;
use aggclust_data::to_clusterings::attribute_clusterings;

/// The main aggregation stage a workload runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stage {
    /// LOCALSEARCH from singletons.
    LocalSearch,
    /// AGGLOMERATIVE with the paper's ½ threshold.
    Agglomerative,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Input {
    /// Nine planted blocks, three total clusterings.
    Planted,
    /// `mushrooms_like` subsampled, one clustering per attribute.
    Mushrooms,
    /// `census_like`, one clustering per attribute.
    Census,
}

/// One workload at one scale.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Objects `n`.
    pub n: usize,
    /// Worker threads the end-to-end solve runs with.
    pub threads: usize,
    /// Main stage.
    pub stage: Stage,
    /// LOCALSEARCH refinement after the main stage.
    pub refine: bool,
    /// Memory cap in bytes, if any.
    pub mem_cap: Option<u64>,
    /// Above this many objects the builder takes SAMPLING.
    pub sampling_threshold: usize,
    /// SAMPLING's sample size.
    pub sample_size: usize,
    input: Input,
}

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Every workload name, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = [
    "planted-ls",
    "mushrooms-agglo",
    "census-sampling",
    "planted-ls-capped",
];

impl Workload {
    /// The workload called `name`; `tiny` shrinks it to a smoke-test size
    /// that still takes the same code path.
    pub fn by_name(name: &str, tiny: bool) -> Option<Workload> {
        let base = Workload {
            name: "",
            n: 0,
            threads: 1,
            stage: Stage::LocalSearch,
            refine: false,
            mem_cap: None,
            sampling_threshold: 6_000,
            sample_size: 1_600,
            input: Input::Planted,
        };
        let mut w = match name {
            "planted-ls" => Workload {
                name: "planted-ls",
                n: 5_000,
                ..base
            },
            "planted-ls-capped" => Workload {
                name: "planted-ls-capped",
                n: 5_000,
                mem_cap: Some(20 << 20),
                ..base
            },
            "mushrooms-agglo" => Workload {
                name: "mushrooms-agglo",
                n: 5_000,
                threads: 2,
                stage: Stage::Agglomerative,
                refine: true,
                input: Input::Mushrooms,
                ..base
            },
            "census-sampling" => Workload {
                name: "census-sampling",
                n: 32_561,
                threads: 2,
                stage: Stage::Agglomerative,
                refine: true,
                input: Input::Census,
                ..base
            },
            _ => return None,
        };
        if tiny {
            w.n = if w.input == Input::Census { 1_500 } else { 300 };
            w.sampling_threshold = 1_000;
            w.sample_size = 200;
            // Small enough to refuse the tiny dense matrix (~360 KB).
            w.mem_cap = w.mem_cap.map(|_| 100 << 10);
        }
        Some(w)
    }

    /// `true` when the builder takes SAMPLING on this workload.
    pub fn sampled(&self) -> bool {
        self.n > self.sampling_threshold
    }

    /// `true` when every input labels every object, so the result's
    /// `disagreements` is exact and must match the recount.
    pub fn total_inputs(&self) -> bool {
        self.input == Input::Planted
    }

    /// The main algorithm handed to the builder.
    pub fn algorithm(&self) -> Algorithm {
        match self.stage {
            Stage::LocalSearch => Algorithm::LocalSearch(LocalSearchParams::default()),
            Stage::Agglomerative => Algorithm::Agglomerative(AgglomerativeParams::default()),
        }
    }

    /// A fresh budget for one solve.
    pub fn budget(&self) -> RunBudget {
        match self.mem_cap {
            Some(bytes) => RunBudget::unlimited().with_mem_limit_bytes(bytes),
            None => RunBudget::unlimited(),
        }
    }

    /// The builder the end-to-end solve calls. Every setting the stage
    /// replay depends on is pinned here rather than left to a default.
    pub fn builder(&self) -> ConsensusBuilder {
        ConsensusBuilder::new()
            .algorithm(self.algorithm())
            .refine(self.refine)
            .missing_policy(MissingPolicy::default())
            .sampling_threshold(self.sampling_threshold)
            .sample_size(self.sample_size)
            .seed(0)
            .budget(self.budget())
    }

    /// The input clusterings for `seed`: the workload's pinned instance with
    /// its objects shuffled by `seed`. Every seed gives an isomorphic
    /// instance, so the optimum and the work barely move between seeds
    /// while the order the algorithms visit objects in does.
    pub fn generate(&self, seed: u64) -> Vec<PartialClustering> {
        let pinned = match self.input {
            Input::Planted => planted(self.n),
            Input::Mushrooms => {
                let (ds, _) = presets::mushrooms_like(PINNED_SEED);
                attribute_clusterings(&ds.subsample_random(self.n, PINNED_SEED))
            }
            Input::Census => {
                let (ds, _) = presets::census_like_scaled(self.n, PINNED_SEED);
                attribute_clusterings(&ds)
            }
        };
        shuffle_objects(&pinned, seed)
    }
}

/// Seed of the pinned datasets the workloads shuffle.
const PINNED_SEED: u64 = 0;

/// The planted nine-block family of the repository's perf gate: object `w`
/// sits in block `w mod 9`; the second input moves every fifth object and
/// the third every seventh to the next block.
fn planted(n: usize) -> Vec<PartialClustering> {
    let column = |shift: fn(usize) -> bool| {
        let labels = (0..n)
            .map(|w| Some(((w % 9 + usize::from(shift(w))) % 9) as u32))
            .collect();
        PartialClustering::from_labels(labels)
    };
    vec![
        column(|_| false),
        column(|w| w % 5 == 0),
        column(|w| w % 7 == 0),
    ]
}

/// The same clusterings with the objects in a seeded random order.
fn shuffle_objects(inputs: &[PartialClustering], seed: u64) -> Vec<PartialClustering> {
    let n = inputs.first().map_or(0, |c| c.len());
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64(seed);
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    inputs
        .iter()
        .map(|c| PartialClustering::from_labels(order.iter().map(|&w| c.label(w)).collect()))
        .collect()
}

/// Render clusterings as label-matrix CSV text: one row per object, one
/// column per clustering, `?` for a missing label.
pub fn render(inputs: &[PartialClustering]) -> String {
    let n = inputs.first().map_or(0, |c| c.len());
    let mut out = String::with_capacity(n * inputs.len() * 3);
    for v in 0..n {
        for (j, c) in inputs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match c.label(v) {
                Some(l) => out.push_str(&l.to_string()),
                None => out.push('?'),
            }
        }
        out.push('\n');
    }
    out
}

/// The SplitMix64 generator: a seeded, dependency-free source of the
/// benchmark's own randomness (input shuffles, pair samples).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
