//! The Monte-Carlo chaos engine: a deterministic parallel scenario
//! runner with panic quarantine and confidence-interval reports.
//!
//! The paper validates its market claims with a handful of fixed-seed
//! runs; this module is the throughput multiplier that turns each of
//! those anecdotes into a population. A [`MonteCarlo`] runner fans N
//! seeded scenarios over scoped workers ([`gm_des::par_chunks_mut`],
//! one item per chunk) and guarantees three properties (DESIGN.md §13):
//!
//! 1. **Byte determinism** — per-seed results are assembled by *seed
//!    index*, never by completion order, so the same seed list yields
//!    bit-identical [`McBatch`]es (and rendered reports) at any thread
//!    count and under any scheduling interleaving.
//! 2. **Panic quarantine** — a panicking scenario becomes a
//!    [`ScenarioFailure`] data point carrying its seed, the panic
//!    message, and a replay hint; the other N − 1 scenarios complete
//!    and the process survives.
//! 3. **Honest aggregates** — [`McReport`] summarises every metric with
//!    mean / variance / p50–p99 and a Student-t confidence interval
//!    ([`gm_numeric::student`]), so "money is conserved under random
//!    fault schedules" ships with a sample size and an interval, not a
//!    seed triple.
//!
//! Telemetry (the `mc.*` scenario counters) is registered lazily via
//! [`MonteCarlo::with_registry`], mirroring the `net.*` convention:
//! default runs keep the historical metric set byte-identical.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gm_des::{Rng64, SplitMix64};
use gm_numeric::Summary;
use gm_telemetry::{Counter, Registry};

/// Confidence level of every aggregate report interval.
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// A quarantined scenario: the panic became a data point, not a dead
/// process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// The scenario seed that panicked — the replay key.
    pub seed: u64,
    /// Position of that seed in the submitted seed list.
    pub index: usize,
    /// Rendered panic payload (`&str`/`String` payloads verbatim).
    pub panic_message: String,
    /// How to reproduce this exact scenario in isolation.
    pub replay_hint: String,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#018x} (index {}): {} — {}",
            self.seed, self.index, self.panic_message, self.replay_hint
        )
    }
}

/// One scenario's slot in a [`McBatch`], in seed-index order.
#[derive(Clone, Debug)]
pub struct McOutcome<T> {
    /// The scenario seed.
    pub seed: u64,
    /// Position in the submitted seed list.
    pub index: usize,
    /// The scenario's result, or its quarantined failure.
    pub result: Result<T, ScenarioFailure>,
}

/// The results of one [`MonteCarlo::run`]: one outcome per submitted
/// seed, **always** ordered by seed index regardless of which worker
/// finished first.
#[derive(Clone, Debug)]
pub struct McBatch<T> {
    /// Per-seed outcomes in seed-index order.
    pub outcomes: Vec<McOutcome<T>>,
}

impl<T> McBatch<T> {
    /// Reassemble a batch from outcomes (used by callers that fan one
    /// tagged run out over several logical batches — e.g. the per-policy
    /// chaos sweep regrouping one `(seed × policy)` run by policy).
    pub fn from_outcomes(outcomes: Vec<McOutcome<T>>) -> McBatch<T> {
        McBatch { outcomes }
    }

    /// Completed `(seed, result)` pairs in seed-index order.
    pub fn completed(&self) -> impl Iterator<Item = (u64, &T)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| (o.seed, r)))
    }

    /// Quarantined failures in seed-index order.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioFailure> {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().err())
    }

    /// Seeds of every quarantined scenario (the replay list).
    pub fn quarantined_seeds(&self) -> Vec<u64> {
        self.failures().map(|f| f.seed).collect()
    }

    /// Aggregate a report over the completed scenarios.
    ///
    /// `metrics` maps one scenario result to its named metric values;
    /// every completed scenario must report the same metric names in the
    /// same order (the extraction is a pure function of the result, so
    /// this holds by construction for any honest extractor).
    ///
    /// # Panics
    /// Panics if two scenarios disagree on the metric name set.
    pub fn report(&self, metrics: impl Fn(&T) -> Vec<(&'static str, f64)>) -> McReport {
        let mut names: Vec<&'static str> = Vec::new();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for (_, result) in self.completed() {
            let row = metrics(result);
            if names.is_empty() {
                names = row.iter().map(|(n, _)| *n).collect();
                columns = vec![Vec::new(); names.len()];
            }
            assert_eq!(
                row.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                names,
                "scenario metric names must be identical across seeds"
            );
            for (col, (_, v)) in columns.iter_mut().zip(&row) {
                col.push(*v);
            }
        }
        let metrics = names
            .iter()
            .zip(&columns)
            .filter_map(|(&name, col)| {
                Summary::of(col, DEFAULT_CONFIDENCE).map(|summary| MetricSummary { name, summary })
            })
            .collect();
        McReport {
            requested: self.outcomes.len(),
            completed: self.completed().count(),
            metrics,
            quarantined: self
                .failures()
                .map(|f| (f.seed, f.panic_message.clone()))
                .collect(),
        }
    }
}

/// One metric's aggregate statistics in a [`McReport`].
#[derive(Clone, Copy, Debug)]
pub struct MetricSummary {
    /// Metric name (as reported by the extractor).
    pub name: &'static str,
    /// Descriptive statistics + Student-t confidence interval.
    pub summary: Summary,
}

/// Aggregate robustness report over one Monte-Carlo batch.
#[derive(Clone, Debug)]
pub struct McReport {
    /// Scenarios submitted.
    pub requested: usize,
    /// Scenarios that completed (requested − quarantined).
    pub completed: usize,
    /// Per-metric summaries, in extractor order.
    pub metrics: Vec<MetricSummary>,
    /// `(seed, panic message)` of every quarantined scenario.
    pub quarantined: Vec<(u64, String)>,
}

impl McReport {
    /// Look up one metric's summary by name.
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.summary)
    }

    /// Render the report as an aligned text table (deterministic: a pure
    /// function of the batch contents).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "monte-carlo: {} scenarios, {} completed, {} quarantined  ({}% CI, Student-t)",
            self.requested,
            self.completed,
            self.quarantined.len(),
            DEFAULT_CONFIDENCE * 100.0
        )
        .unwrap();
        writeln!(
            s,
            "{:<24} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "metric", "n", "mean", "±ci", "p50", "p99", "min", "max"
        )
        .unwrap();
        for m in &self.metrics {
            let x = &m.summary;
            writeln!(
                s,
                "{:<24} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                m.name,
                x.count,
                x.mean,
                x.ci_half_width(),
                x.p50,
                x.p99,
                x.min,
                x.max
            )
            .unwrap();
        }
        if !self.quarantined.is_empty() {
            writeln!(s, "quarantined seeds:").unwrap();
            for (seed, msg) in &self.quarantined {
                writeln!(s, "  {seed:#018x}  {msg}").unwrap();
            }
        }
        s
    }
}

/// Telemetry handles, resolved once at attach time (lazy surface: only
/// runs that call [`MonteCarlo::with_registry`] export `mc.*`).
struct McInstruments {
    /// `mc.scenarios_started`
    started: Counter,
    /// `mc.scenarios_completed`
    completed: Counter,
    /// `mc.scenarios_panicked`
    panicked: Counter,
}

/// The deterministic parallel scenario runner. See the module docs for
/// the determinism and quarantine contract.
pub struct MonteCarlo {
    threads: usize,
    replay_template: String,
    instruments: Option<McInstruments>,
}

impl MonteCarlo {
    /// Runner that fans scenarios over up to `threads` scoped workers per
    /// run; with one, every scenario runs on the caller's thread.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> MonteCarlo {
        assert!(threads > 0, "Monte-Carlo runner needs a thread");
        MonteCarlo {
            threads,
            replay_template: "replay: re-run this scenario with seed {seed} (any thread count)"
                .to_owned(),
            instruments: None,
        }
    }

    /// Template for [`ScenarioFailure::replay_hint`]; every `{seed}` is
    /// replaced with the failing seed in hex.
    pub fn replay_hint(mut self, template: &str) -> Self {
        self.replay_template = template.to_owned();
        self
    }

    /// Attach telemetry: `mc.scenarios_started` / `mc.scenarios_completed`
    /// / `mc.scenarios_panicked` counters.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.instruments = Some(McInstruments {
            started: registry.counter("mc.scenarios_started"),
            completed: registry.counter("mc.scenarios_completed"),
            panicked: registry.counter("mc.scenarios_panicked"),
        });
        self
    }

    /// Run `scenario(seed)` for every seed in parallel.
    ///
    /// The returned batch holds one outcome per seed **in seed-index
    /// order**; a panicking scenario is quarantined as a
    /// [`ScenarioFailure`] while the rest complete. The scenario function
    /// must be a pure function of its seed for the determinism contract
    /// to mean anything (every in-repo scenario is).
    pub fn run<T: Send>(&self, seeds: &[u64], scenario: impl Fn(u64) -> T + Sync) -> McBatch<T> {
        let items: Vec<(u64, ())> = seeds.iter().map(|&s| (s, ())).collect();
        self.run_tagged(&items, |seed, ()| scenario(seed))
    }

    /// Like [`MonteCarlo::run`], but every scenario carries an arbitrary
    /// tag alongside its seed — the fan-out axis for sweeps that vary
    /// more than the seed (e.g. the chaos sweep running every *(seed ×
    /// policy)* pair through one run). The determinism and quarantine
    /// contract is identical: outcomes come back in submission order,
    /// and a panicking `(seed, tag)` pair is quarantined on its own.
    pub fn run_tagged<K: Sync, T: Send>(
        &self,
        items: &[(u64, K)],
        scenario: impl Fn(u64, &K) -> T + Sync,
    ) -> McBatch<T> {
        if let Some(ins) = &self.instruments {
            ins.started.add(items.len() as u64);
        }
        // One slot per item, filled by item index on whichever worker
        // claims it; each scenario's unwind is caught into its own slot,
        // so a detonating scenario cannot take the sweep down with it.
        let mut slots: Vec<Option<Result<T, String>>> = items.iter().map(|_| None).collect();
        gm_des::par_chunks_mut(self.threads, &mut slots, 1, |index, _, slot| {
            let (seed, tag) = &items[index];
            slot[0] = Some(
                catch_unwind(AssertUnwindSafe(|| scenario(*seed, tag)))
                    .map_err(|payload| panic_message(payload.as_ref())),
            );
        });
        let outcomes = items
            .iter()
            .zip(slots)
            .enumerate()
            .map(|(index, (&(seed, _), slot))| {
                let result = slot
                    .expect("every slot is filled")
                    .map_err(|panic_message| ScenarioFailure {
                        seed,
                        index,
                        replay_hint: self
                            .replay_template
                            .replace("{seed}", &format!("{seed:#x}")),
                        panic_message,
                    });
                if let Some(ins) = &self.instruments {
                    match &result {
                        Ok(_) => ins.completed.inc(),
                        Err(_) => ins.panicked.inc(),
                    }
                }
                McOutcome {
                    seed,
                    index,
                    result,
                }
            })
            .collect();
        McBatch { outcomes }
    }
}

/// Render a caught panic payload as the human-readable message
/// (`panic!("…")` produces `&str` or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Derive `n` scenario seeds from one base seed (a SplitMix64 stream —
/// the standard seed-sequence construction, so neighbouring base seeds
/// do not produce overlapping scenario seeds).
pub fn seed_stream(base: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(base);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-scenario: a short arithmetic walk whose
    /// result depends only on the seed.
    fn walk(seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut acc = 0.0;
        let mut peak: f64 = 0.0;
        for _ in 0..100 {
            acc += rng.next_f64() - 0.5;
            peak = peak.max(acc.abs());
        }
        vec![acc, peak]
    }

    fn walk_metrics(r: &[f64]) -> Vec<(&'static str, f64)> {
        vec![("endpoint", r[0]), ("peak", r[1])]
    }

    /// Bit-exact fingerprint of a batch of float results.
    fn fingerprint(batch: &McBatch<Vec<f64>>) -> Vec<(u64, Result<Vec<u64>, String>)> {
        batch
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.seed,
                    o.result
                        .as_ref()
                        .map(|v| v.iter().map(|x| x.to_bits()).collect())
                        .map_err(|f| f.panic_message.clone()),
                )
            })
            .collect()
    }

    #[test]
    fn results_are_byte_identical_across_thread_counts() {
        let seeds = seed_stream(0xC0FFEE, 40);
        let baseline = MonteCarlo::new(1).run(&seeds, walk);
        for threads in [2, 8] {
            let batch = MonteCarlo::new(threads).run(&seeds, walk);
            assert_eq!(fingerprint(&baseline), fingerprint(&batch), "threads={threads}");
            assert_eq!(
                baseline.report(|r| walk_metrics(r)).render(),
                batch.report(|r| walk_metrics(r)).render(),
                "report differs at threads={threads}"
            );
        }
    }

    #[test]
    fn panicking_seed_is_quarantined_with_the_right_seed() {
        let seeds = seed_stream(7, 16);
        let bad = seeds[5];
        // One worker runs every scenario on the caller's thread; four
        // spread them over scoped workers. Both quarantine the same seed.
        for threads in [1, 4] {
            let mc = MonteCarlo::new(threads).replay_hint("re-run --seed {seed}");
            let batch = mc.run(&seeds, move |s| {
                if s == bad {
                    panic!("scenario exploded on purpose");
                }
                walk(s)
            });
            assert_eq!(batch.quarantined_seeds(), vec![bad], "threads={threads}");
            let failure = batch.failures().next().unwrap();
            assert_eq!(failure.seed, bad);
            assert_eq!(failure.index, 5);
            assert_eq!(failure.panic_message, "scenario exploded on purpose");
            assert_eq!(failure.replay_hint, format!("re-run --seed {bad:#x}"));
            // The other 15 completed, in order.
            assert_eq!(batch.completed().count(), 15);
            // Aggregates exclude the quarantined seed but report it.
            let report = batch.report(|r| walk_metrics(r));
            assert_eq!(report.requested, 16);
            assert_eq!(report.completed, 15);
            assert_eq!(report.metric("endpoint").unwrap().count, 15);
            assert_eq!(report.quarantined, vec![(bad, "scenario exploded on purpose".into())]);
            assert!(report.render().contains("quarantined seeds:"));
            // The caught panic left the runner usable.
            let again = mc.run(&seeds, walk);
            assert_eq!(again.completed().count(), 16, "threads={threads}");
            assert_eq!(fingerprint(&again), fingerprint(&MonteCarlo::new(1).run(&seeds, walk)));
        }
    }

    #[test]
    fn panic_message_extraction() {
        let str_payload: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(str_payload.as_ref()), "literal");
        let string_payload: Box<dyn std::any::Any + Send> = Box::new(format!("value {}", 42));
        assert_eq!(panic_message(string_payload.as_ref()), "value 42");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(panic_message(opaque.as_ref()), "non-string panic payload");
    }

    #[test]
    fn telemetry_is_lazy_and_counts_scenarios() {
        // Default: no registry, no mc.* metrics anywhere.
        let silent = Registry::new();
        MonteCarlo::new(2).run(&seed_stream(1, 4), walk);
        assert!(silent.snapshot().counters.is_empty());

        // Attached: the scenario counters appear, and nothing else.
        let registry = Registry::new();
        let mc = MonteCarlo::new(2).with_registry(&registry);
        let bad = seed_stream(1, 6)[2];
        mc.run(&seed_stream(1, 6), move |s| {
            if s == bad {
                panic!("boom");
            }
            walk(s)
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counters["mc.scenarios_started"], 6);
        assert_eq!(snap.counters["mc.scenarios_completed"], 5);
        assert_eq!(snap.counters["mc.scenarios_panicked"], 1);
        assert_eq!(snap.counters.len(), 3);
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn report_on_empty_and_degenerate_batches() {
        let empty = MonteCarlo::new(1).run(&[], walk);
        let r = empty.report(|r| walk_metrics(r));
        assert_eq!(r.requested, 0);
        assert!(r.metrics.is_empty());

        let one = MonteCarlo::new(1).run(&[42], walk);
        let r = one.report(|r| walk_metrics(r));
        assert_eq!(r.completed, 1);
        let m = r.metric("endpoint").unwrap();
        // Single observation: degenerate interval at the mean.
        assert_eq!(m.ci_lo, m.mean);
        assert_eq!(m.ci_hi, m.mean);
    }

    #[test]
    fn seed_stream_is_stable_and_distinct() {
        let a = seed_stream(5, 8);
        let b = seed_stream(5, 8);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "seed collision in stream");
    }
}
