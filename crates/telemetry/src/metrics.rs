//! The metrics registry: named counters, gauges and histograms.
//!
//! Design constraints (`DESIGN.md` §9):
//!
//! * **Cheap handles.** Recording must be safe to call from the live
//!   service threads. A [`Counter`]/[`Gauge`] is an `Arc`-shared atomic; a
//!   [`Histogram`] handle shares one buffer behind a `std::sync::Mutex`.
//!   No external dependencies, std locks only.
//! * **Deterministic readout.** [`Registry::snapshot`] walks every name
//!   in `BTreeMap` order, so a deterministic run produces a
//!   byte-identical export.
//! * **Log-bucketed histograms.** Values are bucketed by the top
//!   `11 + 3` bits of their IEEE-754 representation: every power of two is
//!   split into 8 sub-buckets, giving ≤ 12.5 % relative quantile error for
//!   every normal positive `f64` — `f64::MAX` lands in the highest bucket,
//!   while zero and subnormals share the 8 lowest buckets (representable,
//!   but with no relative-error guarantee that far down). Negative, NaN
//!   and infinite samples are counted as `invalid` and not bucketed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: each power of two is split into `2^SUB_BITS`
/// log-spaced buckets.
const SUB_BITS: u32 = 3;

/// Bucket index of a finite, non-negative `f64`: the exponent and top
/// `SUB_BITS` mantissa bits of its bit representation.
fn bucket_of(v: f64) -> u16 {
    debug_assert!(v.is_finite() && v >= 0.0);
    (v.to_bits() >> (52 - SUB_BITS)) as u16
}

/// Inclusive lower bound of bucket `idx`.
fn bucket_lo(idx: u16) -> f64 {
    f64::from_bits((idx as u64) << (52 - SUB_BITS))
}

/// Representative value reported for bucket `idx`: the bucket midpoint, or
/// the lower bound for the topmost bucket (whose upper edge is infinite).
fn bucket_mid(idx: u16) -> f64 {
    let lo = bucket_lo(idx);
    let hi = bucket_lo(idx + 1);
    if hi.is_finite() {
        lo + (hi - lo) / 2.0
    } else {
        lo
    }
}

/// The merged contents of one histogram (or one shard of one).
///
/// `merge` is associative and commutative over the bucket counts, so
/// shards can be combined in any grouping and order and yield the same
/// totals (property-tested in `tests/properties.rs`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistData {
    buckets: BTreeMap<u16, u64>,
    count: u64,
    invalid: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl HistData {
    /// Empty data.
    pub fn new() -> HistData {
        HistData::default()
    }

    /// Record one sample. Negative, NaN and infinite values count as
    /// `invalid` and are excluded from the buckets and statistics.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.invalid += 1;
            return;
        }
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Record `v` `n` times, bit for bit what `n` [`HistData::record`]
    /// calls do: the sum still adds `v` once per sample, since float
    /// addition repeated is not one multiplication. `n = 0` records
    /// nothing.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        if !v.is_finite() || v < 0.0 {
            self.invalid += n;
            return;
        }
        *self.buckets.entry(bucket_of(v)).or_insert(0) += n;
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &HistData) {
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
        self.count += other.count;
        self.invalid += other.invalid;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of valid samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of rejected (negative/NaN/infinite) samples.
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Sum of valid samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile (`0 < q <= 1`) as the representative value of the
    /// bucket containing that rank, `None` when empty. Relative error is
    /// bounded by the bucket width (≤ 12.5 %); `min`/`max` are exact.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                // Exact endpoints beat the bucket approximation.
                let mid = bucket_mid(b);
                let lo = self.min.expect("count > 0");
                let hi = self.max.expect("count > 0");
                return Some(mid.clamp(lo, hi));
            }
        }
        self.max
    }

    /// Condense into the summary used by snapshots and exporters.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            invalid: self.invalid,
            sum: self.sum,
            min: self.min.unwrap_or(0.0),
            max: self.max.unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Valid samples recorded.
    pub count: u64,
    /// Rejected (negative/NaN/infinite) samples.
    pub invalid: u64,
    /// Sum of valid samples.
    pub sum: f64,
    /// Smallest valid sample (exact; `0` when empty).
    pub min: f64,
    /// Largest valid sample (exact; `0` when empty).
    pub max: f64,
    /// Median (bucket-resolution; `0` when empty).
    pub p50: f64,
    /// 90th percentile (bucket-resolution; `0` when empty).
    pub p90: f64,
    /// 99th percentile (bucket-resolution; `0` when empty).
    pub p99: f64,
}

impl HistSummary {
    /// Arithmetic mean of the valid samples (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (`0.0` before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Handle to a histogram. Recording locks its buffer's mutex. Cloning
/// shares the buffer.
#[derive(Clone, Debug)]
pub struct Histogram {
    shard: Arc<Mutex<HistData>>,
}

impl Histogram {
    fn new_shard() -> Histogram {
        Histogram {
            shard: Arc::new(Mutex::new(HistData::new())),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        self.shard.lock().expect("histogram shard poisoned").record(v);
    }

    /// Record `v` `n` times under one lock ([`HistData::record_n`]).
    pub fn record_n(&self, v: f64, n: u64) {
        self.shard.lock().expect("histogram shard poisoned").record_n(v, n);
    }

    /// Record an integer microsecond duration (the common case for
    /// latency histograms named `*_us`).
    pub fn record_micros(&self, us: u64) {
        self.record(us as f64);
    }

    /// Copy of this histogram's data.
    pub fn shard_data(&self) -> HistData {
        self.shard.lock().expect("histogram shard poisoned").clone()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// The metric registry: a name → instrument map shared by every layer of
/// the stack. Cloning is cheap and shares the underlying state.
///
/// Naming scheme (`DESIGN.md` §9): `layer.metric[.qualifier]`, snake
/// case, with a `_us` suffix for microsecond histograms — e.g.
/// `market.tick_us`, `grid.dispatches`, `market.spot.host003`.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("registry poisoned");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("registry poisoned");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Get or create histogram `name`. Every handle to one name shares
    /// its buffer.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.hists.lock().expect("registry poisoned");
        map.entry(name.to_owned())
            .or_insert_with(Histogram::new_shard)
            .clone()
    }

    /// Merged point-in-time view of every instrument, deterministically
    /// ordered by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .hists
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, h)| {
                let mut merged = HistData::new();
                merged.merge(&h.shard_data());
                (k.clone(), merged.summary())
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A merged, deterministically ordered view of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.count").get(), 5, "same name shares the cell");
        let g = r.gauge("a.level");
        g.set(2.5);
        assert_eq!(r.gauge("a.level").get(), 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a.count"], 5);
        assert_eq!(snap.gauges["a.level"], 2.5);
    }

    #[test]
    fn histogram_buckets_zero_subnormal_and_huge() {
        let mut h = HistData::new();
        h.record(0.0);
        h.record(5e-324); // smallest subnormal
        h.record(f64::MIN_POSITIVE);
        h.record(f64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.invalid(), 0);
        let s = h.summary();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, f64::MAX);
        // Quantiles stay finite and inside [min, max].
        for q in [0.5, 0.9, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!(v.is_finite() && (0.0..=f64::MAX).contains(&v));
        }
    }

    #[test]
    fn histogram_rejects_invalid_samples() {
        let mut h = HistData::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.invalid(), 3);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary().p50, 0.0);
    }

    #[test]
    fn record_n_matches_n_records() {
        // Zero, a non-integer whose repeated sum rounds differently from
        // a product, a subnormal, and the invalid values.
        let values = [0.0, 0.1, 1.0 / 3.0, 5e-324, 7.0, -1.0, f64::NAN, f64::INFINITY];
        let (mut looped, mut batched) = (HistData::new(), HistData::new());
        for (i, &v) in values.iter().enumerate() {
            for n in [0, 1, 3, 10 + i as u64] {
                for _ in 0..n {
                    looped.record(v);
                }
                batched.record_n(v, n);
                assert_eq!(batched, looped, "{v} x {n}");
                assert_eq!(batched.sum().to_bits(), looped.sum().to_bits(), "{v} x {n}");
            }
        }
        // Ten additions of 0.1 sum to 0.9999999999999999, not 0.1 * 10.
        let mut h = HistData::new();
        h.record_n(0.1, 10);
        assert_ne!(h.sum().to_bits(), (0.1f64 * 10.0).to_bits());
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = HistData::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 <= 0.125, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 <= 0.125, "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1000.0), "max is exact");
    }

    #[test]
    fn single_value_histogram_reports_it_exactly() {
        let mut h = HistData::new();
        h.record(7.25);
        // min == max clamps the bucket representative to the exact value.
        assert_eq!(h.quantile(0.5), Some(7.25));
        assert_eq!(h.summary().p99, 7.25);
    }

    #[test]
    fn histogram_primary_shard_is_shared() {
        let r = Registry::new();
        r.histogram("y").record(1.0);
        r.histogram("y").record(2.0);
        assert_eq!(r.snapshot().histograms["y"].count, 2);
    }

    #[test]
    fn bucket_round_trips_preserve_order() {
        let vals = [0.0, 1e-300, 0.5, 1.0, 1.4, 2.0, 3.0, 1e18, f64::MAX];
        for w in vals.windows(2) {
            assert!(bucket_of(w[0]) <= bucket_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &v in &vals[1..] {
            let b = bucket_of(v);
            assert!(bucket_lo(b) <= v, "lo({b}) > {v}");
            assert!(bucket_mid(b).is_finite());
        }
    }

    #[test]
    fn snapshot_orders_names_deterministically() {
        let r = Registry::new();
        r.counter("z");
        r.counter("a");
        r.counter("m");
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a", "m", "z"]);
    }
}
