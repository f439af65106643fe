//! The self-adjusting slot table (§4.1).
//!
//! "To track the price distribution dynamically we implement a
//! self-adjusting slot table recording the proportion of prices that fall
//! into certain ranges." Prices are non-negative but their scale is not
//! known in advance, so the table starts with a small range and *doubles*
//! it whenever a price lands beyond the top edge, merging adjacent slot
//! pairs so no information is lost. The number of slots stays constant.

/// A fixed-slot, growing-range histogram over `[0, range)`.
#[derive(Clone, Debug)]
pub struct SlotTable {
    counts: Vec<u64>,
    range: f64,
    total: u64,
}

impl SlotTable {
    /// New table with `slots` buckets covering `[0, initial_range)`.
    ///
    /// # Panics
    /// Panics unless `slots` is even and ≥ 2 and `initial_range > 0`.
    pub fn new(slots: usize, initial_range: f64) -> SlotTable {
        assert!(slots >= 2 && slots.is_multiple_of(2), "slots must be even and >= 2");
        assert!(initial_range > 0.0 && initial_range.is_finite());
        SlotTable {
            counts: vec![0; slots],
            range: initial_range,
            total: 0,
        }
    }

    /// Record one price.
    ///
    /// # Panics
    /// Panics on negative or non-finite prices (spot prices are positive).
    pub fn add(&mut self, price: f64) {
        assert!(price >= 0.0 && price.is_finite(), "bad price {price}");
        while price >= self.range {
            self.double_range();
        }
        let w = self.range / self.counts.len() as f64;
        let idx = ((price / w) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    fn double_range(&mut self) {
        // Merge adjacent pairs into the lower half; zero the upper half.
        let n = self.counts.len();
        for i in 0..n / 2 {
            self.counts[i] = self.counts[2 * i] + self.counts[2 * i + 1];
        }
        for c in &mut self.counts[n / 2..] {
            *c = 0;
        }
        self.range *= 2.0;
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.counts.len()
    }

    /// Current top edge of the covered range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Total number of recorded prices.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw counts per slot.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Proportion of prices per slot (zeros when empty).
    pub fn proportions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// `(left_edge, right_edge)` of slot `i`.
    pub fn slot_edges(&self, i: usize) -> (f64, f64) {
        let w = self.range / self.counts.len() as f64;
        (i as f64 * w, (i + 1) as f64 * w)
    }

    /// Reset all counts (range is kept).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_initial_range() {
        let mut t = SlotTable::new(4, 1.0);
        t.add(0.1);
        t.add(0.3);
        t.add(0.9);
        assert_eq!(t.counts(), &[1, 1, 0, 1]);
        assert_eq!(t.range(), 1.0);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn out_of_range_price_doubles_range_and_merges() {
        let mut t = SlotTable::new(4, 1.0);
        t.add(0.1); // slot 0
        t.add(0.6); // slot 2
        t.add(1.5); // forces doubling to [0,2): old slots merge pairwise
        assert_eq!(t.range(), 2.0);
        // After merge: slot0 = old(0+1) = 1, slot1 = old(2+3) = 1; 1.5 → slot 3
        assert_eq!(t.counts(), &[1, 1, 0, 1]);
    }

    #[test]
    fn repeated_doubling_for_huge_price() {
        let mut t = SlotTable::new(8, 1.0);
        t.add(0.5);
        t.add(100.0);
        assert_eq!(t.range(), 128.0);
        assert_eq!(t.total(), 2);
        let s: u64 = t.counts().iter().sum();
        assert_eq!(s, 2, "no samples lost during merges");
    }

    #[test]
    fn proportions_sum_to_one() {
        let mut t = SlotTable::new(6, 0.5);
        for i in 0..100 {
            t.add(i as f64 * 0.07);
        }
        let p: f64 = t.proportions().iter().sum();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_counts_keeps_range() {
        let mut t = SlotTable::new(4, 1.0);
        t.add(3.0);
        t.clear();
        assert_eq!(t.total(), 0);
        assert_eq!(t.range(), 4.0);
        assert_eq!(t.proportions(), vec![0.0; 4]);
    }

    #[test]
    fn slot_edges() {
        let t = SlotTable::new(4, 2.0);
        assert_eq!(t.slot_edges(0), (0.0, 0.5));
        assert_eq!(t.slot_edges(3), (1.5, 2.0));
    }

    #[test]
    #[should_panic(expected = "bad price")]
    fn negative_price_rejected() {
        SlotTable::new(4, 1.0).add(-0.1);
    }

    #[test]
    #[should_panic(expected = "slots must be even")]
    fn odd_slots_rejected() {
        SlotTable::new(5, 1.0);
    }
}
