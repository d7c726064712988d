//! Output checks. A failed check is counted against the run, never fatal.

use aggclust_core::{AggResult, Clustering, ConsensusBuilder, ConsensusResult, PartialClustering};
use std::collections::HashMap;

/// Exact `D(C) = Σ_i d_V(C_i, C)` in integers, `O(n·m)`: per input, pairs
/// together in `C_i` plus pairs together in `C` minus twice the pairs
/// together in both, over the objects `C_i` labels. Pairs where the input's
/// label is missing are skipped.
pub fn disagreements(inputs: &[PartialClustering], c: &Clustering) -> u64 {
    let pairs = |k: u64| k * k.saturating_sub(1) / 2;
    let mut total = 0u64;
    for input in inputs {
        let mut in_input: HashMap<u32, u64> = HashMap::new();
        let mut in_result: HashMap<u32, u64> = HashMap::new();
        let mut in_both: HashMap<(u32, u32), u64> = HashMap::new();
        for (v, label) in input.labels().iter().enumerate() {
            if let Some(l) = *label {
                *in_input.entry(l).or_default() += 1;
                *in_result.entry(c.label(v)).or_default() += 1;
                *in_both.entry((l, c.label(v))).or_default() += 1;
            }
        }
        let sum = |counts: &mut dyn Iterator<Item = u64>| counts.map(pairs).sum::<u64>();
        total += sum(&mut in_input.values().copied()) + sum(&mut in_result.values().copied())
            - 2 * sum(&mut in_both.values().copied());
    }
    total
}

/// Check one end-to-end result: it ran to convergence, covers all `n`
/// objects, and — where the result's own count is exact — reports the
/// recounted `D(C)`. Returns the consensus labels.
pub fn check_result(
    result: AggResult<ConsensusResult>,
    inputs: &[PartialClustering],
    exact_count: bool,
) -> Result<Clustering, String> {
    let result = result.map_err(|e| format!("solve returned an error: {e}"))?;
    if !result.status.is_converged() {
        return Err(format!("solve ended {:?}", result.status));
    }
    let n = inputs.first().map_or(0, |c| c.len());
    if result.clustering.len() != n {
        return Err(format!(
            "result covers {} of {n} objects",
            result.clustering.len()
        ));
    }
    if exact_count {
        let recount = disagreements(inputs, &result.clustering);
        if recount != result.disagreements {
            return Err(format!(
                "result reports {} disagreements, recount gives {recount}",
                result.disagreements
            ));
        }
    }
    Ok(result.clustering)
}

/// `Ok` when `got` equals the labels of an earlier solve.
pub fn same_labels(what: &str, reference: &Clustering, got: &Clustering) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!("{what}: labels differ from the first solve"))
    }
}

/// The paper's Figure 1: three clusterings of six objects whose optimal
/// aggregate is {v1,v3},{v2,v4},{v5,v6}, through the same entry point.
pub fn figure1() -> Result<(), String> {
    let inputs: Vec<PartialClustering> =
        [[0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 2, 3], [0, 1, 0, 1, 2, 2]]
            .iter()
            .map(|ls| PartialClustering::from_labels(ls.iter().map(|&l| Some(l)).collect()))
            .collect();
    let result = ConsensusBuilder::new().try_aggregate_partial(inputs.clone());
    let got = check_result(result, &inputs, true)?;
    let want = Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]);
    if got == want {
        Ok(())
    } else {
        Err(format!("Figure 1 gave {:?}", got.labels()))
    }
}

/// FNV-1a over the labels, to compare a child process's result with the
/// parent's without shipping `n` labels back.
pub fn labels_hash(c: &Clustering) -> u64 {
    c.labels().iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
        l.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `D(C)` by walking every pair, skipping pairs an input leaves
    /// unlabelled on either side.
    fn brute_force(inputs: &[PartialClustering], c: &Clustering) -> u64 {
        let n = c.len();
        let mut d = 0;
        for input in inputs {
            for u in 0..n {
                for v in u + 1..n {
                    if let (Some(a), Some(b)) = (input.label(u), input.label(v)) {
                        d += u64::from((a == b) != c.same_cluster(u, v));
                    }
                }
            }
        }
        d
    }

    #[test]
    fn recount_matches_pairwise_count_with_missing_labels() {
        let inputs = vec![
            PartialClustering::from_labels(vec![Some(0), Some(0), None, Some(1), Some(1), Some(2)]),
            PartialClustering::from_labels(vec![Some(0), None, Some(0), Some(0), Some(1), None]),
            PartialClustering::from_labels(vec![None, Some(1), Some(1), Some(0), Some(0), Some(0)]),
        ];
        for labels in [
            vec![0, 0, 1, 1, 2, 2],
            vec![0, 0, 0, 0, 0, 0],
            vec![0, 1, 2, 3, 4, 5],
        ] {
            let c = Clustering::from_labels(labels);
            assert_eq!(disagreements(&inputs, &c), brute_force(&inputs, &c));
        }
    }

    #[test]
    fn figure1_passes() {
        assert_eq!(figure1(), Ok(()));
    }
}
