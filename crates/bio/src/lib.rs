//! # gm-bio — the bioinformatics pilot application
//!
//! The paper's workload (§5.1): "identify protein regions with high or low
//! similarity to the rest of the human proteome … a blast sequence
//! alignment search tool performing stepwise similarity searches using a
//! sliding window algorithm", a trivially parallelizable bag-of-tasks.
//!
//! The experiments only require the workload to be CPU-intensive (§5.1:
//! "none of the experiments depend in any way on the application-specific
//! node processing"), so the application is modelled by its CPU work:
//! [`workload`] calibrates the simulated cost (the paper's 212 min/chunk)
//! and generates the xRSL submissions for the §5 experiments.

pub mod workload;

pub use workload::{BioWorkload, CHUNK_MINUTES_AT_FULL_CPU};
