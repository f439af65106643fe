//! Per-job concurrency statistics (the paper's "Nodes" metric).

/// Average and peak number of a job's concurrently running sub-jobs,
/// sampled once per tick by the allocator that runs the job.
///
/// Every allocation policy keeps its jobs' concurrency in one of these,
/// but each decides which ticks it samples, so `avg` reads differently
/// across policies (DESIGN.md §10):
///
/// * FIFO batch queue: every tick from the job's first dispatch until it
///   finishes, including ticks where it waits with nothing running;
/// * equal share, G-commerce and winner-takes-all: every tick from
///   admission until the job finishes, zero-node ticks included;
/// * VCG (`gm-optimal`): only ticks that delivered work, counting
///   rate-weighted (fractional) hosts;
/// * Tycoon (`gm-grid` agent): every agent pre-tick while the job is
///   `Running`, zero-node ticks included.
///
/// All but Tycoon sample after the tick's work, so a job's completing
/// tick is not sampled; Tycoon samples before the market tick, so it is.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeStat {
    samples: u64,
    sum: f64,
    peak: usize,
}

impl NodeStat {
    /// Record one tick with `nodes` concurrent sub-jobs. The peak keeps
    /// the rounded count, so fractional samples report whole nodes.
    pub fn sample(&mut self, nodes: f64) {
        self.samples += 1;
        self.sum += nodes;
        self.peak = self.peak.max(nodes.round() as usize);
    }

    /// Mean concurrency over the sampled ticks (0 before any sample).
    pub fn avg(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }

    /// Largest (rounded) concurrency sampled.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::NodeStat;

    #[test]
    fn averages_samples_and_rounds_the_peak() {
        let mut s = NodeStat::default();
        assert_eq!((s.avg(), s.peak()), (0.0, 0));
        for n in [0.0, 3.0, 1.5] {
            s.sample(n);
        }
        assert_eq!(s.avg(), 1.5);
        assert_eq!(s.peak(), 3);
        s.sample(3.5);
        assert_eq!(s.peak(), 4);
    }
}
