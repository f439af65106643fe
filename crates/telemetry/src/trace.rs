//! Structured event tracing: timestamped events and enter/exit spans
//! recorded into a bounded ring buffer.
//!
//! The [`Tracer`] never allocates beyond its fixed capacity: when the ring
//! is full the **oldest** record is overwritten and a drop counter is
//! incremented, so a long-running live service keeps the most recent
//! history and an exact count of what it lost. Timestamps come from the
//! injected [`Clock`], so DES runs emit byte-identical traces for the same
//! seed (`DESIGN.md` §9).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the clock origin.
    pub at_micros: u64,
    /// Event name, following the same `layer.event` scheme as metrics.
    pub name: String,
    /// Deterministically ordered key/value annotations.
    pub fields: BTreeMap<String, String>,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// A bounded, clock-driven event recorder. Cloning shares the ring and
/// clock, so one tracer can be handed to every layer of the stack.
#[derive(Clone)]
pub struct Tracer {
    ring: Arc<Mutex<Ring>>,
    clock: Arc<dyn Clock>,
}

impl Tracer {
    /// A tracer keeping at most `capacity` events, stamped by `clock`.
    pub fn new(capacity: usize, clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            ring: Arc::new(Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity),
                capacity,
                dropped: 0,
            })),
            clock,
        }
    }

    /// Record a point event with no annotations.
    pub fn event(&self, name: &str) {
        self.event_with(name, &[]);
    }

    /// Record a point event with key/value annotations.
    pub fn event_with(&self, name: &str, fields: &[(&str, String)]) {
        let ev = TraceEvent {
            at_micros: self.clock.now_micros(),
            name: name.to_owned(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        };
        self.ring.lock().expect("trace ring poisoned").push(ev);
    }

    /// Number of events overwritten (or rejected by a zero-capacity ring)
    /// so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").dropped
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// The tracer's clock, for stamping work outside the tracer itself.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn tracer(cap: usize) -> (Tracer, ManualClock) {
        let clock = ManualClock::new();
        (Tracer::new(cap, Arc::new(clock.clone())), clock)
    }

    #[test]
    fn events_are_stamped_by_the_clock() {
        let (t, clock) = tracer(8);
        clock.set_micros(5);
        t.event("a");
        clock.set_micros(9);
        t.event_with("b", &[("k", "v".to_owned())]);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].at_micros, evs[0].name.as_str()), (5, "a"));
        assert_eq!(evs[1].fields["k"], "v");
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let (t, _clock) = tracer(3);
        for i in 0..5 {
            t.event(&format!("e{i}"));
        }
        assert_eq!(t.dropped(), 2);
        let names: Vec<String> = t.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let (t, _clock) = tracer(0);
        t.event("a");
        assert_eq!(t.dropped(), 1);
        assert!(t.events().is_empty());
    }
}
