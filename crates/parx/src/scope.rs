//! Scoped fork–join helpers.
//!
//! These are the workhorses behind the numeric kernels. Each call splits an
//! index range into contiguous chunks (one per thread) and runs the body on
//! scoped threads, so borrows of surrounding data work without `Arc`.
//! For small ranges the helpers degrade to a sequential loop — spawn cost
//! would otherwise swamp the work (see the perf-book guidance on
//! parallelization thresholds).

use crate::chunk::{chunk_ranges, Chunk};

/// Minimum number of items per spawned thread before parallelism pays off.
/// Below `threads * MIN_ITEMS_PER_THREAD` items the helpers run sequentially.
const MIN_ITEMS_PER_THREAD: usize = 256;

/// Runs `body(chunk)` for every chunk of `0..n`, in parallel across up to
/// `threads` scoped threads.
///
/// The chunk partition is a pure function of `(n, threads)`, so side effects
/// that are chunk-local (e.g. writing disjoint slices) are deterministic.
pub fn parallel_for<F>(n: usize, threads: usize, body: F)
where
    F: Fn(Chunk) + Sync,
{
    assert!(threads > 0, "parallel_for: threads must be positive");
    if n == 0 {
        return;
    }
    let chunks = chunk_ranges(n, threads);
    if chunks.len() == 1 || n < threads * MIN_ITEMS_PER_THREAD {
        for c in chunks {
            body(c);
        }
        return;
    }
    fork_join(chunks, body);
}

/// Like [`parallel_for`], but with an explicit grain: the thread count is
/// *reduced* (rather than falling back to fully sequential) until every
/// chunk holds at least `min_items_per_thread` items, and the sequential
/// path runs without any heap allocation.
///
/// Unlike [`parallel_for`], the chunk partition depends on the effective
/// thread count, so callers must only use bodies whose results do not
/// depend on how `0..n` is grouped (e.g. disjoint-slice writes where each
/// index's output is computed independently). The GEMM engine in `tensor`
/// is the intended caller: its row panels are independent by construction.
pub fn parallel_for_grained<F>(n: usize, threads: usize, min_items_per_thread: usize, body: F)
where
    F: Fn(Chunk) + Sync,
{
    assert!(threads > 0, "parallel_for_grained: threads must be positive");
    if n == 0 {
        return;
    }
    let grain = min_items_per_thread.max(1);
    let t = threads.min((n / grain).max(1));
    if t == 1 {
        // Allocation-free sequential path (no `chunk_ranges` Vec).
        body(Chunk {
            index: 0,
            start: 0,
            end: n,
        });
        return;
    }
    fork_join(chunk_ranges(n, t), body);
}

/// Runs `body(i, chunk)` for every `chunk_len`-element chunk of `data`
/// (the last may be shorter), in parallel across up to `threads` scoped
/// threads. Chunk `i` starts at `data[i * chunk_len]`.
///
/// Threads take contiguous runs of chunks on the [`chunk_ranges`]
/// partition of the chunk count — the same split as
/// [`parallel_for_grained`] with grain 1 — and each thread receives its
/// run as its own `&mut` sub-slice (`split_at_mut`), so disjoint writes
/// need no raw pointers. One thread or one chunk runs inline without heap
/// allocation.
///
/// # Panics
/// Panics if `threads == 0` or `chunk_len == 0` for non-empty `data`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(threads > 0, "parallel_chunks_mut: threads must be positive");
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len must be positive");
    let n = data.len().div_ceil(chunk_len);
    if threads == 1 || n == 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            body(i, chunk);
        }
        return;
    }
    let mut rest = data;
    let runs: Vec<(usize, &mut [T])> = chunk_ranges(n, threads)
        .into_iter()
        .map(|c| {
            let len = (c.len() * chunk_len).min(rest.len());
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (c.start, run)
        })
        .collect();
    fork_join(runs, |(first, run)| {
        for (j, chunk) in run.chunks_mut(chunk_len).enumerate() {
            body(first + j, chunk);
        }
    });
}

/// Maps `f` over `0..n` in parallel and collects results in index order.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "parallel_map: threads must be positive");
    let threads = if n < threads * MIN_ITEMS_PER_THREAD {
        1
    } else {
        threads
    };
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    parallel_chunks_mut(&mut out, 1, threads, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|x| x.expect("parallel_map: every index filled"))
        .collect()
}

/// Runs `body` on every item: the first on the calling thread, the rest
/// on scoped threads, joining all before returning.
fn fork_join<I, F>(items: Vec<I>, body: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    std::thread::scope(|scope| {
        let mut items = items.into_iter();
        let first = items.next();
        let body = &body;
        let handles: Vec<_> = items.map(|item| scope.spawn(move || body(item))).collect();
        if let Some(item) = first {
            body(item);
        }
        for h in handles {
            h.join().expect("parx worker panicked");
        }
    });
}

/// Reduces `0..n` in parallel: each chunk folds locally with `fold`, then
/// the per-chunk partials are combined **in chunk order** with `combine`.
///
/// Combining in chunk order keeps floating-point reductions reproducible for
/// a fixed `(n, threads)` pair.
pub fn parallel_reduce<T, Fold, Combine>(
    n: usize,
    threads: usize,
    identity: T,
    fold: Fold,
    combine: Combine,
) -> T
where
    T: Send + Clone,
    Fold: Fn(T, usize) -> T + Sync,
    Combine: Fn(T, T) -> T,
{
    if n == 0 {
        return identity;
    }
    let chunks = chunk_ranges(n, threads);
    let partials: Vec<T> = if chunks.len() == 1 || n < threads * MIN_ITEMS_PER_THREAD {
        chunks
            .iter()
            .map(|c| (c.start..c.end).fold(identity.clone(), &fold))
            .collect()
    } else {
        let fold = &fold;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&c| {
                    let id = identity.clone();
                    scope.spawn(move || (c.start..c.end).fold(id, fold))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel_reduce worker panicked"))
                .collect()
        })
    };
    partials.into_iter().fold(identity, combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 8, |chunk| {
            for i in chunk.start..chunk.end {
                counters[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_items_is_noop() {
        parallel_for(0, 4, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_grained_touches_every_index_once() {
        for (n, threads, grain) in [(10_000, 8, 1), (100, 8, 64), (7, 4, 1), (1, 16, 256)] {
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_grained(n, threads, grain, |chunk| {
                for i in chunk.start..chunk.end {
                    counters[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "missed index for n={n} threads={threads} grain={grain}"
            );
        }
    }

    #[test]
    fn parallel_for_grained_caps_threads_by_grain() {
        // 100 items with grain 64 admit only one full-grain chunk, so the
        // body must see the whole range as a single chunk.
        let calls = AtomicUsize::new(0);
        parallel_for_grained(100, 8, 64, |chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((chunk.start, chunk.end), (0, 100));
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_chunks_mut_matches_sequential_chunks() {
        for (len, chunk_len, threads) in [(10_000, 7, 8), (100, 64, 4), (5, 1, 16), (9, 3, 1), (1, 4, 3)] {
            let mut data = vec![0usize; len];
            parallel_chunks_mut(&mut data, chunk_len, threads, |i, chunk| {
                assert!(chunk.len() == chunk_len || (i + 1) * chunk_len >= len);
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += i * chunk_len + j + 1;
                }
            });
            let expect: Vec<usize> = (1..=len).collect();
            assert_eq!(data, expect, "len={len} chunk_len={chunk_len} threads={threads}");
        }
    }

    #[test]
    fn parallel_chunks_mut_gives_each_thread_one_chunk_range_run() {
        // 13 chunks on 4 threads: the chunk_ranges runs 0..4, 4..7, 7..10
        // and 10..13, each on its own thread.
        let mut owner = vec![None; 13];
        parallel_chunks_mut(&mut owner, 1, 4, |_, slot| {
            slot[0] = Some(std::thread::current().id());
        });
        for c in chunk_ranges(13, 4) {
            let run = &owner[c.start..c.end];
            assert!(run.iter().all(|t| t.is_some() && *t == run[0]), "{c:?}");
        }
        let firsts: std::collections::HashSet<_> =
            chunk_ranges(13, 4).iter().map(|c| owner[c.start]).collect();
        assert_eq!(firsts.len(), 4, "every run on a distinct thread");
    }

    #[test]
    fn parallel_chunks_mut_empty_data_is_noop() {
        let mut data: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut data, 0, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let v = parallel_map(5000, 7, |i| i * 3);
        assert_eq!(v.len(), 5000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 3);
        }
    }

    #[test]
    fn parallel_map_small_input_sequential_path() {
        let v = parallel_map(3, 16, |i| i + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn parallel_reduce_sums_like_sequential() {
        let n = 100_000;
        let par = parallel_reduce(n, 8, 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        let seq: u64 = (0..n as u64).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_reduce_float_deterministic_for_fixed_threads() {
        let n = 50_000;
        let run = || parallel_reduce(n, 6, 0.0f64, |acc, i| acc + (i as f64).sqrt(), |a, b| a + b);
        let bits_a = run().to_bits();
        let bits_b = run().to_bits();
        assert_eq!(bits_a, bits_b);
    }

    #[test]
    fn parallel_reduce_empty_returns_identity() {
        let r = parallel_reduce(0, 4, 42u32, |acc, _| acc + 1, |a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_panics() {
        parallel_for(10, 0, |_| {});
    }
}
