//! Buffer-level AllReduce: the *semantics* of NCCL's ring algorithm,
//! independent of timing.
//!
//! It runs on plain `f32` slices (one per rank) and is used by
//! `voltascope-train` to average real gradients between simulated GPU
//! replicas, so the numeric data-parallel pipeline is testable: an
//! N-GPU training step must produce the same weights as a single-GPU
//! step on the concatenated batch.

/// Ring AllReduce (NCCL's algorithm): reduce-scatter around the ring,
/// then all-gather, leaving every rank with the elementwise sum.
///
/// The chunking follows the ring structure exactly — rank `r` owns
/// chunk `r` after the reduce-scatter phase — so the test suite can
/// validate intermediate states, not just the final sum.
///
/// # Panics
///
/// Panics if buffers have unequal lengths or there are no ranks.
///
/// # Example
///
/// ```
/// let mut bufs = vec![vec![1.0f32; 5]; 4];
/// voltascope_comm::semantic::ring_all_reduce(&mut bufs);
/// assert!(bufs.iter().all(|b| b.iter().all(|&v| v == 4.0)));
/// ```
pub fn ring_all_reduce(buffers: &mut [Vec<f32>]) {
    check(buffers);
    let n = buffers.len();
    if n == 1 {
        return;
    }
    let len = buffers[0].len();
    let bounds: Vec<(usize, usize)> = (0..n)
        .map(|c| {
            let start = c * len / n;
            let end = (c + 1) * len / n;
            (start, end)
        })
        .collect();

    // Reduce-scatter: in step s, rank r sends chunk (r - s) to r + 1.
    for step in 0..n - 1 {
        for rank in 0..n {
            let next = (rank + 1) % n;
            let chunk = (rank + n - step) % n;
            let (start, end) = bounds[chunk];
            let (dst, src) = two_mut(buffers, next, rank);
            for i in start..end {
                dst[i] += src[i];
            }
        }
    }
    // All-gather: in step s, rank r sends its completed chunk (r+1-s).
    for step in 0..n - 1 {
        for rank in 0..n {
            let next = (rank + 1) % n;
            let chunk = (rank + 1 + n - step) % n;
            let (start, end) = bounds[chunk];
            let (dst, src) = two_mut(buffers, next, rank);
            dst[start..end].copy_from_slice(&src[start..end]);
        }
    }
}

/// AllReduce followed by averaging: what synchronous SGD actually needs
/// (gradients averaged over `buffers.len()` replicas).
///
/// # Panics
///
/// Panics if buffers have unequal lengths or there are no ranks.
pub fn all_reduce_average(buffers: &mut [Vec<f32>]) {
    let n = buffers.len() as f32;
    ring_all_reduce(buffers);
    for buf in buffers.iter_mut() {
        for v in buf.iter_mut() {
            *v /= n;
        }
    }
}

fn check(buffers: &[Vec<f32>]) {
    assert!(!buffers.is_empty(), "collective needs at least one rank");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "collective buffers must have equal length"
    );
}

/// Disjoint mutable borrows of two ranks' buffers.
fn two_mut(buffers: &mut [Vec<f32>], a: usize, b: usize) -> (&mut Vec<f32>, &Vec<f32>) {
    assert_ne!(a, b);
    if a < b {
        let (left, right) = buffers.split_at_mut(b);
        (&mut left[a], &right[0])
    } else {
        let (left, right) = buffers.split_at_mut(a);
        (&mut right[0], &left[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn make(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|r| (0..len).map(|i| (r * len + i) as f32).collect())
            .collect()
    }

    #[test]
    fn ring_all_reduce_matches_naive_sum() {
        for n in 1..=8 {
            for len in [1usize, 2, 7, 16, 33] {
                let mut bufs = make(n, len);
                let expect: Vec<f32> = (0..len)
                    .map(|i| (0..n).map(|r| (r * len + i) as f32).sum())
                    .collect();
                ring_all_reduce(&mut bufs);
                for (rank, b) in bufs.iter().enumerate() {
                    assert_eq!(*b, expect, "n={n} len={len} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn all_reduce_average_divides_by_ranks() {
        let mut bufs = vec![vec![2.0, 4.0], vec![6.0, 8.0]];
        all_reduce_average(&mut bufs);
        assert_eq!(bufs[0], vec![4.0, 6.0]);
        assert_eq!(bufs[1], vec![4.0, 6.0]);
    }

    #[test]
    fn single_rank_all_reduce_is_identity() {
        let mut bufs = vec![vec![1.0, 2.0, 3.0]];
        ring_all_reduce(&mut bufs);
        assert_eq!(bufs[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_buffers_panic() {
        let mut bufs = vec![vec![1.0], vec![1.0, 2.0]];
        ring_all_reduce(&mut bufs);
    }

    proptest! {
        /// AllReduce equals the naive per-element sum for random data.
        #[test]
        fn all_reduce_equals_sum(
            n in 1usize..8,
            len in 1usize..40,
            seed in 0u64..1000,
        ) {
            let mut bufs: Vec<Vec<f32>> = (0..n)
                .map(|r| {
                    (0..len)
                        .map(|i| {
                            let x = seed
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add((r * len + i) as u64);
                            ((x >> 40) % 1000) as f32 / 100.0 - 5.0
                        })
                        .collect()
                })
                .collect();
            let expect: Vec<f32> = (0..len)
                .map(|i| (0..n).map(|r| bufs[r][i]).sum())
                .collect();
            ring_all_reduce(&mut bufs);
            for b in &bufs {
                for (got, want) in b.iter().zip(&expect) {
                    prop_assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
                }
            }
        }
    }
}
