//! The layer trace of the scenario workloads: a timing wrapper around
//! `TycoonPolicy` that the driver runs in its place.
//!
//! Every `AllocationPolicy` hook is one call into a layer:
//!
//! | hook                         | layer                          |
//! |------------------------------|--------------------------------|
//! | `admit`                      | gm-grid (token, xRSL, submit)  |
//! | `place`                      | gm-grid `JobManager::pre_tick` |
//! | `advance`                    | gm-tycoon `Market::tick` + `post_tick` |
//! | `settle` on an audit tick    | gm-ledger conservation audit   |
//! | `apply_fault(BankRestart)`   | gm-ledger `Bank::recover` + audit |
//! | `apply_fault(other kinds)`   | gm-grid fault handlers         |
//! | the remaining hooks          | gridmarket policy glue         |
//!
//! Audit ticks are recognised by the `ledger.audits` counter moving, so
//! the split follows the policy's audit cadence without restating it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use gm_core::{AllocationPolicy, JobOutcome, JobRequest, PolicyError, TickCtx};
use gm_des::{FaultEvent, FaultKind, SimTime};
use gm_telemetry::Counter;
use gridmarket::TycoonPolicy;

/// Hook timings of one or more traced runs.
#[derive(Default)]
pub struct Tally {
    pub admit_s: f64,
    pub admit_calls: u64,
    /// Duration of every `place` call, µs.
    pub pre_tick_us: Vec<f64>,
    /// Duration of every `advance` call, µs.
    pub advance_us: Vec<f64>,
    /// Duration of every audit `settle`, ms.
    pub audit_ms: Vec<f64>,
    /// Journal records each audit replayed.
    pub audit_records: Vec<f64>,
    /// `apply_fault` seconds and calls per fault kind.
    pub faults: BTreeMap<String, (f64, u64)>,
    /// `begin_tick`, plain `settle`, `price`, `all_settled`, `outcomes`.
    pub glue_s: Cell<f64>,
}

impl Tally {
    pub fn pre_tick_s(&self) -> f64 {
        self.pre_tick_us.iter().sum::<f64>() * 1e-6
    }

    pub fn advance_s(&self) -> f64 {
        self.advance_us.iter().sum::<f64>() * 1e-6
    }

    pub fn audit_s(&self) -> f64 {
        self.audit_ms.iter().sum::<f64>() * 1e-3
    }

    pub fn restart(&self) -> (f64, u64) {
        self.faults.get(RESTART).copied().unwrap_or_default()
    }

    /// Seconds in fault handlers other than the bank restart.
    pub fn fault_s(&self) -> f64 {
        self.faults
            .iter()
            .filter(|(k, _)| *k != RESTART)
            .map(|(_, v)| v.0)
            .sum()
    }

    /// Seconds inside any hook.
    pub fn hooks_s(&self) -> f64 {
        self.admit_s
            + self.pre_tick_s()
            + self.advance_s()
            + self.audit_s()
            + self.faults.values().map(|v| v.0).sum::<f64>()
            + self.glue_s.get()
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, o: Tally) {
        self.admit_s += o.admit_s;
        self.admit_calls += o.admit_calls;
        self.pre_tick_us.extend(o.pre_tick_us);
        self.advance_us.extend(o.advance_us);
        self.audit_ms.extend(o.audit_ms);
        self.audit_records.extend(o.audit_records);
        for (k, (s, n)) in o.faults {
            let e = self.faults.entry(k).or_default();
            e.0 += s;
            e.1 += n;
        }
        self.glue_s.set(self.glue_s.get() + o.glue_s.get());
    }
}

const RESTART: &str = "BankRestart";

/// `TycoonPolicy` behind a stopwatch on every hook.
pub struct Timed<'a> {
    inner: &'a mut TycoonPolicy,
    tally: &'a mut Tally,
    audits: Counter,
}

impl<'a> Timed<'a> {
    /// Wrap `inner`; `audits` is the run's `ledger.audits` counter.
    pub fn new(inner: &'a mut TycoonPolicy, tally: &'a mut Tally, audits: Counter) -> Timed<'a> {
        Timed {
            inner,
            tally,
            audits,
        }
    }

    fn glue<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let g = &self.tally.glue_s;
        g.set(g.get() + t0.elapsed().as_secs_f64());
        out
    }
}

impl AllocationPolicy for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_tick(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.begin_tick(ctx);
        let g = &self.tally.glue_s;
        g.set(g.get() + t0.elapsed().as_secs_f64());
    }

    fn apply_fault(&mut self, ctx: &TickCtx, ev: &FaultEvent) {
        let t0 = Instant::now();
        self.inner.apply_fault(ctx, ev);
        let s = t0.elapsed().as_secs_f64();
        let kind = match ev.kind {
            FaultKind::BankRestart => RESTART.to_owned(),
            k => format!("{k:?}"),
        };
        let e = self.tally.faults.entry(kind).or_default();
        e.0 += s;
        e.1 += 1;
    }

    fn admit(&mut self, ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        let t0 = Instant::now();
        let out = self.inner.admit(ctx, req);
        self.tally.admit_s += t0.elapsed().as_secs_f64();
        self.tally.admit_calls += 1;
        out
    }

    fn place(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.place(ctx);
        self.tally
            .pre_tick_us
            .push(t0.elapsed().as_secs_f64() * 1e6);
    }

    fn advance(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.advance(ctx);
        self.tally.advance_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    fn settle(&mut self, ctx: &TickCtx) {
        let before = self.audits.get();
        let t0 = Instant::now();
        self.inner.settle(ctx);
        let s = t0.elapsed().as_secs_f64();
        if self.audits.get() != before {
            self.tally.audit_ms.push(s * 1e3);
            let records = self
                .inner
                .market()
                .journal()
                .map_or(0, |j| j.record_count());
            self.tally.audit_records.push(records as f64);
        } else {
            let g = &self.tally.glue_s;
            g.set(g.get() + s);
        }
    }

    fn price(&self, ctx: &TickCtx) -> Option<f64> {
        self.glue(|| self.inner.price(ctx))
    }

    fn all_settled(&self) -> bool {
        self.glue(|| self.inner.all_settled())
    }

    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome> {
        self.glue(|| self.inner.outcomes(now))
    }
}
