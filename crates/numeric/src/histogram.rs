//! Fixed-range histograms.
//!
//! Used as the "measured" reference distribution in the window-approximation
//! experiment (paper Fig. 7) and for rendering the price-bracket plots of
//! Fig. 6. The *self-adjusting* slot table the auctioneer keeps lives in
//! `gm-predict::slots`; this type is the plain equal-width histogram.

/// An equal-width histogram over `[lo, hi)` with `bins` buckets.
/// Out-of-range samples are clamped into the first/last bucket so that
/// proportions always sum to 1 (matching how the paper's price brackets
/// absorb extreme prices).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// New histogram over `[lo, hi)` with `bins` equal-width buckets.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `bins >= 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram requires lo < hi");
        assert!(bins >= 1, "histogram requires at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Build directly from samples.
    pub fn from_samples(lo: f64, hi: f64, bins: usize, xs: &[f64]) -> Self {
        let mut h = Histogram::new(lo, hi, bins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Bucket index for a value (clamped into range).
    #[inline]
    pub fn bin_of(&self, x: f64) -> usize {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / w).floor();
        (idx.max(0.0) as usize).min(self.counts.len() - 1)
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Proportion of samples in each bucket (all zeros when empty).
    pub fn proportions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(5.5);
        h.add(9.99);
        assert_eq!(h.counts, &[1, 0, 0, 0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-100.0);
        h.add(100.0);
        h.add(1.0); // exactly hi clamps into last bucket
        assert_eq!(h.counts, &[1, 0, 0, 2]);
    }

    #[test]
    fn proportions_sum_to_one() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 / 97.0).collect();
        let h = Histogram::from_samples(0.0, 1.0, 13, &xs);
        let s: f64 = h.proportions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_proportions_are_zero() {
        let h = Histogram::new(0.0, 1.0, 5);
        assert_eq!(h.proportions(), vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn bad_range_rejected() {
        Histogram::new(1.0, 1.0, 4);
    }
}
