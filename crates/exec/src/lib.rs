//! # gm-exec — thread pool
//!
//! The parallel substrate. Experiments run on the deterministic simulator,
//! and a Monte-Carlo sweep is a trivially parallel bag-of-tasks — one
//! seeded scenario per task, the workload shape the paper targets. This
//! crate provides the pool that runs it (a fixed set of workers draining a
//! shared FIFO run queue) and the scoped chunk map that shards the market
//! tick, built entirely on `std::sync` so the workspace carries no external
//! runtime dependencies.
//!
//! ```
//! use gm_exec::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.try_par_map((0..100).collect::<Vec<u64>>(), |x| x * x);
//! assert_eq!(squares[9], Ok(81));
//! ```

pub mod pool;
pub mod scoped;
pub mod wait_group;

pub use pool::{panic_message, ThreadPool};
pub use scoped::par_chunks_mut;
pub use wait_group::WaitGroup;
