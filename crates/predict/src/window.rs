//! Moving-window price distributions via the paper's dual-table
//! approximation (§4.5, Fig. 6–7).
//!
//! "The approach taken is to keep track of two price distributions for each
//! window at all times. The distributions will contain twice as many
//! snapshots as is required by the windows and have a time lag of the same
//! size as the window." Table k restarts every `2n` snapshots, with table 2
//! phase-shifted by `n`; the reported distribution merges both tables with
//! weights
//!
//! `w_{i,1} = 1 − |n₁ − n| / n`, `r_{i,j} = w₁·s₁ⱼ + (1 − w₁)·s₂ⱼ`
//!
//! so the table that currently holds closest to `n` snapshots dominates.

use crate::slots::SlotTable;

/// Distribution of the last ~`n` price snapshots, approximated with two
/// lag-shifted slot tables.
#[derive(Clone, Debug)]
pub struct DualWindowDistribution {
    window_n: u64,
    tables: [SlotTable; 2],
    /// Snapshots currently accumulated in each table.
    counts: [u64; 2],
    /// Total snapshots ever seen.
    seen: u64,
}

impl DualWindowDistribution {
    /// New window of `window_n` snapshots using `slots` price brackets
    /// starting at `initial_range`.
    ///
    /// # Panics
    /// Panics if `window_n == 0` (slot constraints as in [`SlotTable`]).
    pub fn new(window_n: u64, slots: usize, initial_range: f64) -> Self {
        assert!(window_n >= 1, "window must be >= 1 snapshot");
        DualWindowDistribution {
            window_n,
            tables: [
                SlotTable::new(slots, initial_range),
                SlotTable::new(slots, initial_range),
            ],
            counts: [0, 0],
            seen: 0,
        }
    }

    /// Window size in snapshots.
    pub fn window(&self) -> u64 {
        self.window_n
    }

    /// Record one price snapshot.
    pub fn add(&mut self, price: f64) {
        let n = self.window_n;
        // Table 1 restarts at snapshots 0, 2n, 4n, …; table 2 at n, 3n, ….
        // (Before its first start, table 2 simply has not begun filling.)
        if self.seen.is_multiple_of(2 * n) {
            self.tables[0].clear();
            self.counts[0] = 0;
        }
        if self.seen >= n && (self.seen - n).is_multiple_of(2 * n) {
            self.tables[1].clear();
            self.counts[1] = 0;
        }
        self.tables[0].add(price);
        self.counts[0] += 1;
        if self.seen >= n {
            self.tables[1].add(price);
            self.counts[1] += 1;
        }
        self.seen += 1;
    }

    /// The merged window distribution: proportion of prices per slot.
    ///
    /// Both tables are first re-binned onto the wider of the two ranges so
    /// the slot edges agree, then merged with the lag weights.
    pub fn proportions(&self) -> Vec<f64> {
        if self.seen == 0 {
            return vec![0.0; self.tables[0].slots()];
        }
        let n = self.window_n as f64;
        // Weight of table 1 per the paper; table 2 gets the complement.
        let w1 = (1.0 - (self.counts[0] as f64 - n).abs() / n).clamp(0.0, 1.0);
        let (s1, s2) = self.aligned_proportions();
        if self.counts[1] == 0 {
            return s1;
        }
        s1.iter()
            .zip(&s2)
            .map(|(a, b)| w1 * a + (1.0 - w1) * b)
            .collect()
    }

    /// Mean spot price of the merged window distribution (slot midpoints
    /// weighted by their proportions), or `None` before any snapshot.
    ///
    /// This is the degraded-mode price source (`DESIGN.md` §12): when live
    /// quotes are unreachable, consumers bid against this predicted price
    /// instead of a stale or missing quote.
    pub fn mean(&self) -> Option<f64> {
        if self.seen == 0 {
            return None;
        }
        let mean = self
            .proportions()
            .iter()
            .zip(self.slot_edges())
            .map(|(p, (lo, hi))| p * 0.5 * (lo + hi))
            .sum();
        Some(mean)
    }

    /// The common slot edges of the merged distribution.
    pub fn slot_edges(&self) -> Vec<(f64, f64)> {
        let slots = self.tables[0].slots();
        let range = self.tables[0].range().max(self.tables[1].range());
        let w = range / slots as f64;
        (0..slots).map(|i| (i as f64 * w, (i + 1) as f64 * w)).collect()
    }

    /// Re-bin both tables onto the wider range so slots line up.
    fn aligned_proportions(&self) -> (Vec<f64>, Vec<f64>) {
        let r0 = self.tables[0].range();
        let r1 = self.tables[1].range();
        let target = r0.max(r1);
        (
            rebin(&self.tables[0], target),
            rebin(&self.tables[1], target),
        )
    }
}

/// Project a table's proportions onto a range `target ≥ table.range()`
/// (ranges only ever differ by powers of two, so slots merge exactly).
fn rebin(table: &SlotTable, target: f64) -> Vec<f64> {
    let slots = table.slots();
    let props = table.proportions();
    let ratio = (target / table.range()).round() as usize;
    if ratio <= 1 {
        return props;
    }
    let mut out = vec![0.0; slots];
    for (i, p) in props.iter().enumerate() {
        out[i / ratio] += p;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::Pcg32;
    use gm_numeric::samplers::{Beta, Exponential, Normal, Sampler, Uniform};
    use gm_numeric::Histogram;

    fn tv(a: &[f64], b: &[f64]) -> f64 {
        0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
    }

    #[test]
    fn empty_distribution_is_zero() {
        let d = DualWindowDistribution::new(10, 8, 1.0);
        assert_eq!(d.proportions(), vec![0.0; 8]);
    }

    #[test]
    fn proportions_sum_to_one_after_samples() {
        let mut d = DualWindowDistribution::new(10, 8, 1.0);
        for i in 0..35 {
            d.add((i % 7) as f64 * 0.1);
        }
        let s: f64 = d.proportions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum {s}");
    }

    #[test]
    fn tracks_a_distribution_shift() {
        // Feed low prices, then high prices; after >2n high snapshots the
        // window must have forgotten the low regime.
        let mut d = DualWindowDistribution::new(50, 8, 2.0);
        for _ in 0..200 {
            d.add(0.1);
        }
        for _ in 0..200 {
            d.add(1.9);
        }
        let p = d.proportions();
        let low_mass: f64 = p[..4].iter().sum();
        assert!(low_mass < 0.05, "window kept stale low prices: {p:?}");
    }

    /// The paper's Fig. 7 experiment: approximation vs measured for
    /// Normal(0.5, 0.15), Exp(2) and Beta(5, 1) with a lag of half the
    /// window and uniform noise outside the window.
    #[test]
    fn fig7_window_approximation_is_close() {
        let n = 400u64;
        let slots = 16;
        let mut rng = Pcg32::seed_from_u64(20060704);

        type BoxedSampler = Box<dyn Fn(&mut Pcg32) -> f64>;
        let cases: Vec<(&str, BoxedSampler)> = vec![
            ("norm", {
                let s = Normal::new(0.5, 0.15);
                Box::new(move |r: &mut Pcg32| s.sample(r).max(0.0))
            }),
            ("exp", {
                let s = Exponential::new(2.0);
                Box::new(move |r: &mut Pcg32| s.sample(r))
            }),
            ("beta", {
                let s = Beta::new(5.0, 1.0);
                Box::new(move |r: &mut Pcg32| s.sample(r))
            }),
        ];

        for (name, sampler) in cases {
            let mut d = DualWindowDistribution::new(n, slots, 1.0);
            let noise = Uniform::new(0.0, 1.0);
            // Noise outside the window (time lag n/2 = max foreign influence).
            for _ in 0..(n / 2) {
                d.add(noise.sample(&mut rng));
            }
            // The window's real samples.
            let mut real = Vec::new();
            for _ in 0..n {
                let x = sampler(&mut rng);
                real.push(x);
                d.add(x);
            }
            let approx = d.proportions();
            // Measured distribution over the same slot edges.
            let range = d.slot_edges().last().unwrap().1;
            let measured = Histogram::from_samples(0.0, range, slots, &real).proportions();
            let dist = tv(&approx, &measured);
            assert!(
                dist < 0.30,
                "{name}: approximation too far from measured (TV {dist:.3})\napprox {approx:?}\nmeasured {measured:?}"
            );
        }
    }

    #[test]
    fn rebinning_aligns_ranges() {
        // Force table ranges to diverge, then check proportions still sum
        // to one and merge cleanly.
        let mut d = DualWindowDistribution::new(4, 8, 1.0);
        for _ in 0..4 {
            d.add(0.5); // table 1 only at range 1
        }
        d.add(100.0); // both tables, forces doubling in both
        d.add(0.5);
        let p = d.proportions();
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn window_one_tracks_last_snapshot_region() {
        let mut d = DualWindowDistribution::new(1, 4, 1.0);
        d.add(0.1);
        d.add(0.9);
        let p = d.proportions();
        assert!(p[3] > 0.4, "latest snapshot should dominate: {p:?}");
    }

    #[test]
    fn mean_tracks_the_window() {
        let mut d = DualWindowDistribution::new(10, 16, 1.0);
        assert_eq!(d.mean(), None, "no snapshots, no mean");
        for _ in 0..40 {
            d.add(0.5);
        }
        let m = d.mean().unwrap();
        // Slot quantisation bounds the error to one slot width.
        assert!((m - 0.5).abs() < 1.0 / 16.0 + 1e-9, "mean {m}");
    }

    #[test]
    fn weights_change_with_phase() {
        // Right after table 1 restarts, table 2 (holding ~n samples) must
        // dominate the merge. We verify via a regime change at the restart.
        let n = 100u64;
        let mut d = DualWindowDistribution::new(n, 8, 1.0);
        for _ in 0..(2 * n) {
            d.add(0.1); // fills table1 to 2n (restart next add), table2 to n
        }
        d.add(0.9); // table 1 restarts with this single high sample
        let p = d.proportions();
        // Low-price mass (slot 0) must still dominate: table 2 carries the
        // window's history.
        assert!(p[0] > 0.5, "history lost at table restart: {p:?}");
    }
}
