//! Time-series recording.
//!
//! Experiments sample the spot price of every host each allocation interval
//! (10 s in the paper) and feed the traces to the prediction models. A
//! [`Series`] is a single `(time, value)` stream; a [`Trace`] is a keyed
//! collection of series (one per host, per user, …).

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A sample was offered with a timestamp earlier than the last recorded
/// one. Accepting it would silently corrupt every window query (they
/// binary-search on sorted times), so [`Series::try_push`] refuses it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeWentBackwards {
    /// Timestamp of the newest sample already in the series.
    pub last: SimTime,
    /// The earlier timestamp that was refused.
    pub attempted: SimTime,
}

impl fmt::Display for TimeWentBackwards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "series time went backwards: last sample at {:?}, new sample at {:?}",
            self.last, self.attempted
        )
    }
}

impl std::error::Error for TimeWentBackwards {}

/// One sampled time series.
#[derive(Clone, Debug, Default)]
pub struct Series {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl Series {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` at `time`, refusing out-of-order timestamps.
    ///
    /// On `Err` the series is unchanged. Equal timestamps are accepted
    /// (two samples in the same allocation interval).
    pub fn try_push(&mut self, time: SimTime, value: f64) -> Result<(), TimeWentBackwards> {
        if let Some(&last) = self.times.last() {
            if time < last {
                return Err(TimeWentBackwards {
                    last,
                    attempted: time,
                });
            }
        }
        self.times.push(time);
        self.values.push(value);
        Ok(())
    }

    /// Record `value` at `time`. Times must be non-decreasing.
    ///
    /// # Panics
    /// Panics (in every build profile — this used to be a `debug_assert`)
    /// if `time` is earlier than the last recorded sample; a series with
    /// unsorted times would return wrong answers from [`Series::window`]
    /// without any further diagnostic. Callers that cannot guarantee
    /// ordering should use [`Series::try_push`].
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Err(e) = self.try_push(time, value) {
            panic!("{e}");
        }
    }

    /// [`Series::push`] of `value` at `start, start + dt, …` (`k >= 1`
    /// times): one ordering check, then both columns extended in place.
    fn push_steps(&mut self, start: SimTime, dt: SimDuration, k: u64, value: f64) {
        self.push(start, value);
        self.times.extend((1..k).map(|j| start + dt * j));
        self.values.resize(self.times.len(), value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sampled values in time order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Values whose timestamps fall in the half-open window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[f64] {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        &self.values[lo..hi]
    }

    /// Arithmetic mean of all values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Last recorded value.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }
}

/// A keyed collection of [`Series`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    series: BTreeMap<String, Series>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` for `key` at `time`, creating the series on first use.
    pub fn record(&mut self, key: &str, time: SimTime, value: f64) {
        if let Some(s) = self.series.get_mut(key) {
            s.push(time, value);
        } else {
            let mut s = Series::new();
            s.push(time, value);
            self.series.insert(key.to_owned(), s);
        }
    }

    /// Record `value` for `key` at the `k` times `start, start + dt, …`:
    /// the effect of `k` [`Trace::record`] calls with one series lookup.
    /// `k = 0` records nothing and creates no series.
    ///
    /// # Panics
    /// Panics like [`Series::push`] if `start` is earlier than the last
    /// sample of `key`; the series is then unchanged.
    pub fn record_steps(&mut self, key: &str, start: SimTime, dt: SimDuration, k: u64, value: f64) {
        if k == 0 {
            return;
        }
        if let Some(s) = self.series.get_mut(key) {
            s.push_steps(start, dt, k, value);
        } else {
            let mut s = Series::new();
            s.push_steps(start, dt, k, value);
            self.series.insert(key.to_owned(), s);
        }
    }

    /// Get a series by key.
    pub fn get(&self, key: &str) -> Option<&Series> {
        self.series.get(key)
    }

    /// Iterate over `(key, series)` in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, s)| (k.as_str(), s))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Render as CSV (`key,time_s,value` rows) for offline plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("key,time_s,value\n");
        for (k, s) in self.iter() {
            for (t, v) in s.iter() {
                out.push_str(&format!("{k},{:.6},{v:.9}\n", t.as_secs_f64()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn series_records_and_windows() {
        let mut s = Series::new();
        for i in 0..10 {
            s.push(t(i), i as f64);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.window(t(3), t(6)), &[3.0, 4.0, 5.0]);
        assert_eq!(s.window(t(0), t(100)).len(), 10);
        assert_eq!(s.window(t(20), t(30)).len(), 0);
        assert_eq!(s.mean(), Some(4.5));
        assert_eq!(s.last(), Some((t(9), 9.0)));
    }

    #[test]
    fn empty_series() {
        let s = Series::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn trace_keys_are_deterministic() {
        let mut tr = Trace::new();
        tr.record("z", t(0), 1.0);
        tr.record("a", t(0), 2.0);
        tr.record("m", t(0), 3.0);
        let keys: Vec<&str> = tr.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn trace_appends_to_existing_series() {
        let mut tr = Trace::new();
        tr.record("h0", t(0), 1.0);
        tr.record("h0", t(10), 2.0);
        assert_eq!(tr.get("h0").unwrap().values(), &[1.0, 2.0]);
        assert_eq!(tr.len(), 1);
    }

    fn samples(tr: &Trace) -> Vec<(String, Vec<(SimTime, u64)>)> {
        tr.iter()
            .map(|(k, s)| {
                (k.to_owned(), s.iter().map(|(t, v)| (t, v.to_bits())).collect())
            })
            .collect()
    }

    #[test]
    fn record_steps_matches_k_records() {
        let dt = SimDuration::from_secs(10);
        let (mut stepped, mut batched) = (Trace::new(), Trace::new());
        for tr in [&mut stepped, &mut batched] {
            tr.record("old", t(5), 0.25);
        }
        // An existing key, a new key, and a start equal to the last sample.
        let spans = [("old", t(5), 4, 0.1), ("new", t(0), 7, 1.0 / 3.0), ("old", t(35), 1, 2.5)];
        for (key, start, k, v) in spans {
            for j in 0..k {
                stepped.record(key, start + dt * j, v);
            }
            batched.record_steps(key, start, dt, k, v);
        }
        assert_eq!(samples(&batched), samples(&stepped));
        assert_eq!(batched.get("old").unwrap().len(), 6);
        assert_eq!(batched.get("new").unwrap().times[6], t(60));
    }

    #[test]
    fn record_steps_of_zero_samples_is_a_no_op() {
        let mut tr = Trace::new();
        tr.record("h0", t(10), 1.0);
        // k = 0 neither checks the start time nor creates a series.
        tr.record_steps("h0", t(0), SimDuration::from_secs(10), 0, 2.0);
        tr.record_steps("h1", t(0), SimDuration::from_secs(10), 0, 2.0);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.get("h0").unwrap().values(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn record_steps_panics_on_a_start_before_the_last_sample() {
        let mut tr = Trace::new();
        tr.record("h0", t(10), 1.0);
        tr.record_steps("h0", t(9), SimDuration::from_secs(10), 3, 2.0);
    }

    #[test]
    fn out_of_order_push_is_refused_and_leaves_series_intact() {
        let mut s = Series::new();
        s.push(t(10), 1.0);
        s.push(t(10), 1.5); // equal timestamps are fine
        let err = s.try_push(t(5), 2.0).unwrap_err();
        assert_eq!(
            err,
            TimeWentBackwards {
                last: t(10),
                attempted: t(5)
            }
        );
        assert!(err.to_string().contains("went backwards"));
        // The rejected sample must not have been half-applied.
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[1.0, 1.5]);
        assert_eq!(s.last(), Some((t(10), 1.5)));
        // The series still accepts in-order samples afterwards.
        s.try_push(t(11), 3.0).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn push_panics_on_backwards_time_in_release_too() {
        let mut s = Series::new();
        s.push(t(10), 1.0);
        s.push(t(9), 2.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new();
        tr.record("p", t(1), 0.5);
        let csv = tr.to_csv();
        assert!(csv.starts_with("key,time_s,value\n"));
        assert!(csv.contains("p,1.000000,0.500000000"));
    }
}
