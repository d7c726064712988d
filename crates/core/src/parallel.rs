//! Deterministic data-parallel execution layer.
//!
//! Every parallel `O(n²)` kernel in this crate — oracle and condensed-matrix
//! materialization, the cost functions, and the per-node scans inside BALLS
//! and FURTHEST — funnels through the primitives in this module. The
//! design goal is *bit-identical results at any thread count*, so the
//! thread count can never change what an algorithm returns:
//!
//! * Work is split into **fixed chunks whose boundaries depend only on the
//!   problem size**, never on the number of worker threads.
//! * Floating-point reductions compute one partial per chunk (each partial
//!   accumulated in ascending index order) and combine the partials
//!   **sequentially in chunk order**. The arg-max combine keeps the
//!   earliest-index winner on ties, matching a serial strict-comparison
//!   scan.
//! * At one thread the *same* chunked schedule runs sequentially on the
//!   calling thread, so a serial run agrees bit-for-bit too.
//!
//! Threads are plain `std::thread::scope` workers draining a shared queue
//! of chunk jobs; the environment is expected to be offline, so no external
//! thread-pool crate is used. The worker count comes from, in order of
//! precedence: a scoped [`with_num_threads`] override (used by the
//! determinism tests to compare thread counts inside one process), the
//! `RAYON_NUM_THREADS` environment variable (read once), and
//! `std::thread::available_parallelism`. At a count of 1 no threads are
//! ever spawned.

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use crate::robust::{Interrupt, RunBudget};

/// Upper bound on the number of chunks a task is split into. More chunks
/// than threads keeps the shared queue effective at balancing uneven work;
/// the constant is fixed so chunk boundaries never depend on thread count.
const TARGET_CHUNKS: usize = 128;

/// Minimum elements per chunk for index-spaces (slices, rows): below this,
/// per-chunk scheduling overhead dominates the work.
const MIN_CHUNK_ITEMS: usize = 1024;

/// Minimum pairs per chunk for pair-spaces (`n(n−1)/2` triangles).
const MIN_CHUNK_PAIRS: usize = 8192;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The number of worker threads parallel primitives may use on this thread.
///
/// Results never depend on this value — only wall-clock time does.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.get() {
        return n;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the worker-thread count pinned to `threads` (minimum 1) on
/// the current thread, restoring the previous setting afterwards (also on
/// panic). Intended for tests and benchmarks that compare thread counts
/// within one process; production callers should prefer the
/// `RAYON_NUM_THREADS` environment variable.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// Execute every job, in parallel when the thread count allows.
/// Job order of *execution* is unspecified; callers must make each job
/// write to disjoint state (typically a `&mut` chunk or partial slot).
fn run_jobs<T, F>(jobs: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if jobs.len() > 1 {
        let threads = current_num_threads().min(jobs.len());
        if threads > 1 {
            let queue = std::sync::Mutex::new(jobs.into_iter());
            let work = || loop {
                // A worker can only have panicked inside `f`, which never
                // leaves a partially-updated job; recover the queue so the
                // remaining workers drain it.
                let job = queue
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .next();
                match job {
                    Some(job) => f(job),
                    None => break,
                }
            };
            // Workers record into the caller's run registry, if it has one.
            crate::telemetry::with_run_metrics(|registry| {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| match registry {
                            Some(registry) => crate::telemetry::with_metrics(registry, work),
                            None => work(),
                        });
                    }
                })
            });
            return;
        }
    }
    for job in jobs {
        f(job);
    }
}

/// Chunk size for a `len`-element index space (function of `len` only).
fn chunk_size(len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(MIN_CHUNK_ITEMS)
}

/// Split `0..len` into consecutive ranges of roughly equal total `weight`,
/// with at most `TARGET_CHUNKS` ranges and at least `min_weight` per
/// range. Boundaries are a pure function of the weights, so reductions
/// chunked this way are deterministic.
pub fn balanced_ranges(
    len: usize,
    min_weight: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let total: usize = (0..len).map(&weight).sum();
    let target = total.div_ceil(TARGET_CHUNKS).max(min_weight).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..len {
        acc += weight(i);
        if acc >= target {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < len {
        ranges.push(start..len);
    }
    ranges
}

/// Row ranges covering `0..n` such that each range holds roughly the same
/// number of pairs `(u, v)` with `u` in the range and `u < v < n`.
pub(crate) fn row_ranges(n: usize) -> Vec<Range<usize>> {
    balanced_ranges(n, MIN_CHUNK_PAIRS, |u| n - 1 - u)
}

/// In-place parallel update: calls `f(i, &mut out[i])` for every index.
pub fn update_slice<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let cs = chunk_size(out.len());
    let mut jobs: Vec<(usize, &mut [T])> = Vec::new();
    let mut start = 0usize;
    for chunk in out.chunks_mut(cs.max(1)) {
        let len = chunk.len();
        jobs.push((start, chunk));
        start += len;
    }
    run_jobs(jobs, |(start, chunk)| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            f(start + i, slot);
        }
    });
}

/// Parallel map into a slice: `out[i] = f(i)`.
pub fn fill_slice<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    update_slice(out, |i, slot| *slot = f(i));
}

/// Deterministic sum of `f(i)` for `i in 0..len`: fixed chunks, partials
/// combined in chunk order. Identical at every thread count.
pub fn sum_indexed<F>(len: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    if len == 0 {
        return 0.0;
    }
    let cs = chunk_size(len);
    let n_chunks = len.div_ceil(cs);
    let mut partials = vec![0.0f64; n_chunks];
    let jobs: Vec<(usize, &mut f64)> = partials.iter_mut().enumerate().collect();
    run_jobs(jobs, |(ci, slot)| {
        let mut acc = 0.0;
        for i in ci * cs..((ci + 1) * cs).min(len) {
            acc += f(i);
        }
        *slot = acc;
    });
    partials.into_iter().sum()
}

/// Deterministic sum of `f(job)` over a fixed job list, one partial per
/// job, combined in job order. The caller fixes the job boundaries (e.g.
/// via [`balanced_ranges`]) so the grouping is independent of thread count.
pub fn sum_jobs<T, S, F>(jobs: Vec<T>, f: F) -> S
where
    T: Send,
    S: Copy + Default + Send + std::iter::Sum,
    F: Fn(T) -> S + Sync,
{
    let mut partials = vec![S::default(); jobs.len()];
    let zipped: Vec<(T, &mut S)> = jobs.into_iter().zip(partials.iter_mut()).collect();
    run_jobs(zipped, |(job, slot)| *slot = f(job));
    partials.into_iter().sum()
}

/// [`sum_jobs`] specialized to index ranges.
pub fn sum_ranges<S, F>(ranges: Vec<Range<usize>>, f: F) -> S
where
    S: Copy + Default + Send + std::iter::Sum,
    F: Fn(Range<usize>) -> S + Sync,
{
    sum_jobs(ranges, f)
}

/// Deterministic sum of `f(u, v)` over all pairs `u < v < n`, chunked by
/// row ranges; within a chunk pairs are visited in `(u asc, v asc)` order.
pub fn sum_pairs<F>(n: usize, f: F) -> f64
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    sum_ranges(row_ranges(n), |rows| {
        let mut acc = 0.0;
        for u in rows {
            for v in u + 1..n {
                acc += f(u, v);
            }
        }
        acc
    })
}

/// Allocate the condensed vector and pre-fault its pages under a
/// `condensed_alloc` span.
///
/// `vec![0.0; len]` is served by lazily zeroed pages, so without this
/// the page faults — the tier-independent floor that dominates the
/// dense build at large `n` (~40 ms for the 100 MB triangle at n=5000)
/// — would fire at first write inside the worker fill jobs and be
/// smeared across `condensed_fill`. Touching one element per 4 KiB page
/// here moves that cost into its own span, so the run report's
/// `timings` block puts a number on the alloc/fault/write floor. The
/// store goes through [`std::hint::black_box`] so the write of "0.0
/// over fresh zeroes" cannot be optimized out, taking the fault with
/// it.
fn alloc_condensed(len: usize) -> Vec<f64> {
    let _span = crate::span!("condensed_alloc", len = len);
    let mut data = vec![0.0f64; len];
    const PAGE_STRIDE: usize = 4096 / std::mem::size_of::<f64>();
    for i in (0..data.len()).step_by(PAGE_STRIDE) {
        data[i] = std::hint::black_box(0.0);
    }
    data
}

/// Build the condensed upper-triangle vector of length `n(n−1)/2` in
/// parallel row chunks, walking each chunk's columns in fixed `band`-wide
/// stripes (`for band: for u: for v in band`) so a short stripe of packed
/// label rows stays cache-resident while the chunk's rows stream against
/// it.
///
/// Each `(row, column-band)` intersection goes to `g(scratch, u, lo..hi,
/// seg)`, where `seg` is the condensed slice for pairs `(u, lo), …, (u,
/// hi − 1)`. Each worker job calls `make_scratch()` once and threads the
/// same `&mut S` through every `g` call it makes, so batch kernels reuse
/// one count buffer across all their row segments. Segment boundaries
/// depend only on `n` and `band`, every entry is written exactly once at
/// its row-major condensed index, and segments never exceed `band`
/// entries — so a `g` that writes `seg` from pure per-pair values produces
/// the identical vector at any thread count and any band width. With
/// `band = n` the walk is plain row-major order. Per-pair functions plug
/// in through [`pairwise`].
pub fn fill_condensed<S, M, G>(n: usize, band: usize, make_scratch: M, g: G) -> Vec<f64>
where
    M: Fn() -> S + Sync,
    G: Fn(&mut S, usize, Range<usize>, &mut [f64]) + Sync,
{
    fill_walk(n, band, None, make_scratch, g).0
}

/// Budget-aware [`fill_condensed`]: workers poll the budget's deadline and
/// cancel token between chunk jobs, so a trip is honored within one
/// chunk's worth of work. On a trip the partially-filled buffer is
/// discarded and the interrupt returned; callers degrade gracefully (e.g.
/// fall back to singletons). Iteration caps are algorithm-level and are
/// not consumed here. Unlimited budgets skip the polling; either way the
/// result is bit-identical to the unbudgeted fill at any thread count.
pub fn try_fill_condensed<S, M, G>(
    n: usize,
    band: usize,
    make_scratch: M,
    g: G,
    budget: &RunBudget,
) -> Result<Vec<f64>, Interrupt>
where
    M: Fn() -> S + Sync,
    G: Fn(&mut S, usize, Range<usize>, &mut [f64]) + Sync,
{
    let budget = (!budget.is_unlimited()).then_some(budget);
    match fill_walk(n, band, budget, make_scratch, g) {
        (data, None) => Ok(data),
        (_, Some(interrupt)) => Err(interrupt),
    }
}

/// Adapt a per-pair distance function to the segment callback of
/// [`fill_condensed`] / [`try_fill_condensed`] (no scratch): each segment
/// entry `(u, v)` is set to `f(u, v)`.
pub fn pairwise<F>(f: F) -> impl Fn(&mut (), usize, Range<usize>, &mut [f64]) + Sync
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    move |(): &mut (), u, vs, seg| {
        for (entry, v) in seg.iter_mut().zip(vs) {
            *entry = f(u, v);
        }
    }
}

/// The one condensed walk behind both public fills: split `0..n` into
/// pair-balanced row chunks, poll `budget` (if any) before each chunk, and
/// fill each chunk's slice band by band. Returns the buffer and the first
/// interrupt seen, if any (the buffer is then only partially written).
fn fill_walk<S, M, G>(
    n: usize,
    band: usize,
    budget: Option<&RunBudget>,
    make_scratch: M,
    g: G,
) -> (Vec<f64>, Option<Interrupt>)
where
    M: Fn() -> S + Sync,
    G: Fn(&mut S, usize, Range<usize>, &mut [f64]) + Sync,
{
    let band = band.max(1);
    let len = n * n.saturating_sub(1) / 2;
    let mut data = alloc_condensed(len);
    let mut jobs: Vec<(Range<usize>, &mut [f64])> = Vec::new();
    let mut rest: &mut [f64] = &mut data;
    for rows in row_ranges(n) {
        let pairs: usize = rows.clone().map(|u| n - 1 - u).sum();
        let (head, tail) = rest.split_at_mut(pairs);
        jobs.push((rows, head));
        rest = tail;
    }
    // First trip wins; later jobs see it and return without touching the
    // clock.
    let tripped: Mutex<Option<Interrupt>> = Mutex::new(None);
    let _fill = crate::span!("condensed_fill", len = len);
    run_jobs(jobs, |(rows, out)| {
        if let Some(budget) = budget {
            let mut tripped = tripped.lock().unwrap_or_else(|p| p.into_inner());
            if tripped.is_some() {
                return;
            }
            if let Err(interrupt) = budget.poll() {
                *tripped = Some(interrupt);
                return;
            }
        }
        let mut scratch = make_scratch();
        let mut band_start = rows.start + 1;
        while band_start < n {
            let band_end = (band_start + band).min(n);
            let mut off = 0usize;
            for u in rows.clone() {
                let lo = band_start.max(u + 1);
                if lo < band_end {
                    let idx0 = off + (lo - u - 1);
                    g(
                        &mut scratch,
                        u,
                        lo..band_end,
                        &mut out[idx0..idx0 + (band_end - lo)],
                    );
                }
                off += n - 1 - u;
            }
            band_start = band_end;
        }
    });
    let interrupt = tripped.into_inner().unwrap_or_else(|p| p.into_inner());
    (data, interrupt)
}

/// The pair `u < v` maximizing `f(u, v)`, earliest pair (in `(u, v)`
/// lexicographic order) on ties — exactly the result of a serial strict-`>`
/// scan. `None` for `n < 2`.
pub fn max_pair<F>(n: usize, f: F) -> Option<(usize, usize, f64)>
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    if n < 2 {
        return None;
    }
    type Best<'a> = &'a mut Option<(usize, usize, f64)>;
    let ranges = row_ranges(n);
    let mut partials: Vec<Option<(usize, usize, f64)>> = vec![None; ranges.len()];
    let jobs: Vec<(Range<usize>, Best)> = ranges.into_iter().zip(partials.iter_mut()).collect();
    run_jobs(jobs, |(rows, slot)| {
        let mut best: Option<(usize, usize, f64)> = None;
        for u in rows {
            for v in u + 1..n {
                let d = f(u, v);
                if best.is_none_or(|(_, _, bd)| d > bd) {
                    best = Some((u, v, d));
                }
            }
        }
        *slot = best;
    });
    let mut best: Option<(usize, usize, f64)> = None;
    for candidate in partials.into_iter().flatten() {
        if best.is_none_or(|(_, _, bd)| candidate.2 > bd) {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_slice_matches_serial_map() {
        let mut out = vec![0.0f64; 5000];
        fill_slice(&mut out, |i| (i as f64).sqrt());
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i as f64).sqrt());
        }
    }

    #[test]
    fn sums_identical_across_thread_counts() {
        let f = |i: usize| ((i * 2654435761) % 1000) as f64 / 997.0;
        let one = with_num_threads(1, || sum_indexed(100_000, f));
        let four = with_num_threads(4, || sum_indexed(100_000, f));
        assert_eq!(one.to_bits(), four.to_bits());

        let g = |u: usize, v: usize| ((u * 31 + v * 17) % 101) as f64 / 101.0;
        let one = with_num_threads(1, || sum_pairs(700, g));
        let four = with_num_threads(4, || sum_pairs(700, g));
        assert_eq!(one.to_bits(), four.to_bits());
    }

    #[test]
    fn max_pair_takes_earliest_on_ties() {
        // Constant function: the very first pair must win.
        assert_eq!(max_pair(5000, |_, _| 1.0), Some((0, 1, 1.0)));
        // A unique maximum is found regardless of position.
        let target = (4321usize, 4700usize);
        let f = move |u: usize, v: usize| {
            if (u, v) == target {
                2.0
            } else {
                1.0
            }
        };
        assert_eq!(max_pair(5000, f), Some((target.0, target.1, 2.0)));
        assert_eq!(max_pair(1, |_, _| 1.0), None);
    }

    #[test]
    fn balanced_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 1000, 5000] {
            let ranges = balanced_ranges(n, 100, |i| i % 3 + 1);
            let mut covered = 0usize;
            for r in &ranges {
                assert_eq!(r.start, covered, "ranges must be consecutive");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn condensed_fills_match_a_serial_row_major_reference_bit_for_bit() {
        use crate::robust::RunBudget;
        let f = |u: usize, v: usize| ((u * 10_007 + v) as f64).sqrt() / 7.0;
        // A scratch-carrying segment callback: computes into its reused
        // buffer first, then copies, like the batched kernels do.
        let batched = |buf: &mut Vec<f64>, u: usize, vs: Range<usize>, seg: &mut [f64]| {
            buf.clear();
            buf.extend(vs.map(|v| f(u, v)));
            seg.copy_from_slice(buf);
        };
        let generous = RunBudget::unlimited().with_deadline_ms(60_000);
        for n in [0usize, 1, 2, 3, 129, 600] {
            let mut expected = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    expected.push(f(u, v).to_bits());
                }
            }
            for band in [1usize, 64, n] {
                for threads in [1usize, 2, 4] {
                    let bits =
                        |data: Vec<f64>| data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let runs = with_num_threads(threads, || {
                        [
                            fill_condensed(n, band, || (), pairwise(f)),
                            fill_condensed(n, band, Vec::new, batched),
                            try_fill_condensed(n, band, || (), pairwise(f), &generous).unwrap(),
                            try_fill_condensed(n, band, Vec::new, batched, &RunBudget::unlimited())
                                .unwrap(),
                        ]
                    });
                    for (i, data) in runs.into_iter().enumerate() {
                        assert_eq!(
                            bits(data),
                            expected,
                            "fill {i}, n={n} band={band} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn try_fill_condensed_trips_on_deadline_and_cancel() {
        use crate::robust::{CancelToken, Interrupt, RunBudget};
        let n = 300;
        let f = |u: usize, v: usize| ((u * 7 + v) % 13) as f64;
        // An already-expired deadline trips before any work completes.
        let expired = RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            try_fill_condensed(n, 64, || (), pairwise(f), &expired),
            Err(Interrupt::Deadline)
        );
        // A fired cancel token reports Cancelled.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = RunBudget::unlimited().with_cancel_token(token);
        assert_eq!(
            try_fill_condensed(n, 64, || (), pairwise(f), &cancelled),
            Err(Interrupt::Cancelled)
        );
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let outer = current_num_threads();
        assert_eq!(with_num_threads(3, current_num_threads), 3);
        assert_eq!(current_num_threads(), outer);
    }
}
