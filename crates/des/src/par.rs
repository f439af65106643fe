//! Scoped, order-preserving parallel map over mutable slices.
//!
//! One fan-out, [`par_chunks_mut`], hands disjoint `&mut` chunks of a
//! slice to scoped workers and gathers the per-chunk results **in
//! chunk-index order**, so any result derived only from the chunk
//! contents is byte-identical at every thread count. Scoped workers may
//! borrow from the caller — a long-lived arena for the duration of one
//! tick, or a sweep's seed list and scenario closure. The sharded market
//! sweep (DESIGN.md §15) hands each worker a chunk of the auctioneer
//! arena; the Monte-Carlo runner (§13) uses one result slot per scenario.
//!
//! Built on [`std::thread::scope`] alone — no `unsafe`, no allocation
//! beyond the result slots — and degrades to a plain sequential loop when
//! one worker (or one chunk) suffices.
//!
//! ```
//! let mut slots: Vec<u64> = (0..100).collect();
//! let sums = gm_des::par_chunks_mut(4, &mut slots, 10, |_, _, chunk| {
//!     chunk.iter_mut().for_each(|x| *x *= *x);
//!     chunk.iter().sum::<u64>()
//! });
//! assert_eq!(slots[9], 81);
//! assert_eq!(sums.len(), 10);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Split `data` into contiguous chunks of `chunk_size` and run
/// `f(chunk_index, base_offset, chunk)` on up to `threads` scoped workers.
/// Results are returned **in chunk order** (chunk `i` covers
/// `data[i*chunk_size .. (i+1)*chunk_size]`), regardless of which worker
/// executed which chunk — so any result derived only from the chunk
/// contents is byte-identical at every thread count.
///
/// A panic inside `f` propagates to the caller when the scope joins.
///
/// # Panics
/// Panics if `chunk_size` is zero.
pub fn par_chunks_mut<T, R, F>(threads: usize, data: &mut [T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = data.len().div_ceil(chunk_size);
    if n_chunks == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n_chunks);
    if workers == 1 {
        return data
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(i, c)| f(i, i * chunk_size, c))
            .collect();
    }

    // Each chunk lives in a one-shot cell a worker `take`s exactly once;
    // results land in per-chunk cells so no ordering is imposed by the
    // execution schedule.
    let chunks: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk_size)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let results: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let chunk = chunks[i]
                    .lock()
                    .expect("chunk cell poisoned")
                    .take()
                    .expect("chunk taken twice");
                let r = f(i, i * chunk_size, chunk);
                *results[i].lock().expect("result cell poisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result cell poisoned")
                .expect("worker skipped a chunk")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_chunk_order() {
        let mut data: Vec<u64> = (0..100).collect();
        let out = par_chunks_mut(4, &mut data, 7, |i, base, chunk| {
            (i, base, chunk.iter().sum::<u64>())
        });
        assert_eq!(out.len(), 15);
        for (i, (ci, base, _)) in out.iter().enumerate() {
            assert_eq!(*ci, i);
            assert_eq!(*base, i * 7);
        }
        let total: u64 = out.iter().map(|(_, _, s)| s).sum();
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn mutations_land_in_the_right_slots() {
        let mut data = vec![0u32; 64];
        par_chunks_mut(8, &mut data, 5, |_, base, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (base + k) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        let run = |threads| {
            let mut data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
            par_chunks_mut(threads, &mut data, 33, |_, _, chunk| {
                chunk.iter_mut().for_each(|v| *v = v.sqrt());
                chunk.iter().sum::<f64>().to_bits()
            })
        };
        let a = run(1);
        assert_eq!(a, run(2));
        assert_eq!(a, run(8));
        assert_eq!(a, run(64));
    }

    #[test]
    fn empty_input_and_oversized_chunks() {
        let mut empty: Vec<u8> = Vec::new();
        assert!(par_chunks_mut(4, &mut empty, 3, |_, _, _| 1).is_empty());
        let mut small = vec![1u8, 2, 3];
        let out = par_chunks_mut(16, &mut small, 100, |i, base, c| (i, base, c.len()));
        assert_eq!(out, vec![(0, 0, 3)]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_rejected() {
        let mut data = vec![1u8];
        let _ = par_chunks_mut(2, &mut data, 0, |_, _, _| ());
    }
}
