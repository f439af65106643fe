//! # gm-exec — scoped parallel map
//!
//! The parallel substrate: one fan-out, [`par_chunks_mut`], that hands
//! disjoint `&mut` chunks of a slice to scoped workers and gathers the
//! per-chunk results in chunk order, so any result derived only from the
//! chunk contents is byte-identical at every thread count. The sharded
//! market tick runs on it (DESIGN.md §15), and so does the Monte-Carlo
//! runner (§13): a sweep is a bag of independent seeded scenarios, one
//! result slot per scenario, one slot per chunk. Built on
//! [`std::thread::scope`] alone, so the workspace carries no external
//! runtime dependencies.
//!
//! ```
//! let mut slots: Vec<u64> = (0..100).collect();
//! let sums = gm_exec::par_chunks_mut(4, &mut slots, 10, |_, _, chunk| {
//!     chunk.iter_mut().for_each(|x| *x *= *x);
//!     chunk.iter().sum::<u64>()
//! });
//! assert_eq!(slots[9], 81);
//! assert_eq!(sums.len(), 10);
//! ```

mod scoped;

pub use scoped::par_chunks_mut;
