//! Detecting outliers with clustering aggregation (paper §2): a node that
//! no clustering places consistently — or that every clustering isolates —
//! ends up a singleton in the aggregate, and the consensus diagnostics
//! rank it as an outlier before any clustering is even run.
//!
//! The paper's example: a horror movie featuring actress Julia Roberts and
//! directed by the "independent" director Lars von Trier — common values,
//! but no consensus on a common cluster.
//!
//! ```text
//! cargo run --release -p aggclust-bench --example outlier_detection
//! ```

use aggclust_core::clustering::Clustering;
use aggclust_core::consensus::ConsensusBuilder;
use aggclust_core::instance::CorrelationInstance;
use aggclust_metrics::stability::{ambiguity_scores, isolation_scores, top_outliers};

fn main() -> Result<(), aggclust_core::AggError> {
    // A movie table clustered by three attributes. Movies 0–3 are romantic
    // comedies (Julia Roberts / mainstream directors), movies 4–7 are
    // horror films; movie 8 is the paper's pathological case: a horror
    // movie (genre says horror) starring Julia Roberts (actress says
    // rom-com) directed by Lars von Trier (director says neither).
    let by_genre = Clustering::from_labels(vec![0, 0, 0, 0, 1, 1, 1, 1, 1]);
    let by_actress = Clustering::from_labels(vec![0, 0, 0, 0, 1, 1, 1, 1, 0]);
    let by_director = Clustering::from_labels(vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
    let inputs = vec![by_genre, by_actress, by_director];

    let instance = CorrelationInstance::from_clusterings(&inputs);
    let oracle = instance.dense_oracle();

    // Diagnostics before clustering: movie 8 has no consensus.
    let iso = isolation_scores(&oracle);
    let amb = ambiguity_scores(&oracle);
    println!("movie  isolation  ambiguity");
    for v in 0..9 {
        println!("{v:>5}  {:>9.3}  {:>9.3}", iso[v], amb[v]);
    }
    let suspects = top_outliers(&oracle, 2);
    println!("\ntop outlier candidates: {suspects:?}");
    assert_eq!(suspects[0], 8);

    // The aggregation agrees: movie 8 becomes a singleton.
    let result = ConsensusBuilder::new().try_aggregate(&inputs)?;
    let label8 = result.clustering.label(8);
    let alone = (0..8).all(|v| result.clustering.label(v) != label8);
    println!(
        "\naggregate: k = {}, movie 8 {} (cost {:.3}, lower bound {:.3})",
        result.clustering.num_clusters(),
        if alone {
            "is isolated as a singleton — an outlier"
        } else {
            "joined a cluster"
        },
        result.cost,
        result.lower_bound.unwrap()
    );
    Ok(())
}
