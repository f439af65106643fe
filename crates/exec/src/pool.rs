//! Shared-queue thread pool.
//!
//! Layout: a single global `Mutex<VecDeque>` run queue with a condition
//! variable for parking idle workers. The bag-of-tasks workload this crate
//! serves (Monte-Carlo scenario fan-out) submits coarse tasks, so a
//! contended global queue is not the bottleneck; the trade-off buys
//! dependency-free portability (std-only primitives).
//!
//! Panics inside tasks are caught per-task; `try_par_map` turns each into
//! an `Err` in its slot after all tasks settle, so a poisoned run cannot
//! deadlock `wait`. Every caught panic — including ones `execute` absorbs
//! to keep the pool alive — is counted in [`ThreadPool::tasks_panicked`]
//! and its payload logged to stderr, so a quarantined task is a
//! diagnosable data point, never a silent no-op.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::wait_group::WaitGroup;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wakeup: Condvar,
    executed: AtomicUsize,
    panicked: AtomicUsize,
}

/// Render a caught panic payload as the human-readable message
/// (`panic!("…")` produces `&str` or `String`; anything else is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl Shared {
    /// Count and log one caught panic.
    fn note_panic(&self, payload: &(dyn std::any::Any + Send)) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "gm-exec[{}]: task panicked: {}",
            std::thread::current().name().unwrap_or("?"),
            panic_message(payload)
        );
    }
}

/// A fixed-size thread pool over a shared run queue.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            executed: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
        });

        let handles = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gm-exec-{idx}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool thread")
            })
            .collect();

        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total tasks picked up for execution so far (diagnostics). Counted
    /// when a worker dequeues the task, so once a batch call like
    /// [`ThreadPool::try_par_map`] returns, every task of that batch is
    /// included.
    pub fn tasks_executed(&self) -> usize {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Total task panics caught so far (diagnostics).
    ///
    /// Covers both capture paths: fire-and-forget [`execute`] tasks
    /// caught by the worker loop, and [`try_par_map`] tasks (which are
    /// *also* returned to the caller as `Err` slots).
    ///
    /// [`execute`]: ThreadPool::execute
    /// [`try_par_map`]: ThreadPool::try_par_map
    pub fn tasks_panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Submit a task for asynchronous execution.
    pub fn execute(&self, f: impl FnOnce() + Send + 'static) {
        let mut q = self.shared.queue.lock().unwrap();
        q.tasks.push_back(Box::new(f));
        drop(q);
        self.shared.wakeup.notify_one();
    }

    /// Map `f` over `items` in parallel, preserving order, quarantining
    /// panics instead of propagating them: a panicking task yields
    /// `Err(panic message)` in its slot while every other task completes.
    /// Quarantined panics still count toward [`ThreadPool::tasks_panicked`]
    /// and are logged once to stderr. Slots are filled by *item index*,
    /// never completion order.
    pub fn try_par_map<T, U>(
        &self,
        items: Vec<T>,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Vec<Result<U, String>>
    where
        T: Send + 'static,
        U: Send + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, Result<U, String>)>();
        let wg = WaitGroup::new();
        wg.add(n);

        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let wg = wg.clone();
            let shared = Arc::clone(&self.shared);
            self.execute(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| {
                    shared.note_panic(p.as_ref());
                    panic_message(p.as_ref())
                });
                // Receiver outlives all tasks (rx lives until fn end), but
                // ignore send errors defensively if the caller panicked.
                let _ = tx.send((i, out));
                wg.done();
            });
        }
        drop(tx);
        wg.wait();

        let mut slots: Vec<Option<Result<U, String>>> = (0..n).map(|_| None).collect();
        for (i, res) in rx.iter() {
            slots[i] = Some(res);
        }
        slots
            .into_iter()
            .map(|s| s.expect("try_par_map slot unfilled"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.wakeup.wait(q).unwrap();
            }
        };
        // Count at dequeue, not completion: `try_par_map` batches are
        // released by a WaitGroup *inside* the task, so counting after the
        // task returns would let a caller observe n-1 for an n-task batch
        // that has fully settled.
        shared.executed.fetch_add(1, Ordering::Relaxed);
        if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
            shared.note_panic(p.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn executes_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let wg = WaitGroup::new();
        wg.add(1000);
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            let wg = wg.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
                wg.done();
            });
        }
        wg.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn try_par_map_preserves_order() {
        let pool = ThreadPool::new(8);
        let out = pool.try_par_map((0..500u64).collect(), |x| x * 2);
        assert_eq!(out, (0..500u64).map(|x| Ok(x * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_empty_input() {
        let pool = ThreadPool::new(2);
        assert!(pool.try_par_map(Vec::<u32>::new(), |x| x).is_empty());
    }

    #[test]
    fn try_par_map_on_single_thread_pool() {
        let pool = ThreadPool::new(1);
        let out = pool.try_par_map(vec![3, 1, 4, 1, 5], |x| x + 1);
        assert_eq!(out, vec![Ok(4), Ok(2), Ok(5), Ok(2), Ok(6)]);
    }

    #[test]
    fn work_is_distributed() {
        // With enough slow tasks, more than one worker must participate.
        let pool = ThreadPool::new(4);
        let ids = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let ids2 = Arc::clone(&ids);
        pool.try_par_map((0..64).collect::<Vec<u32>>(), move |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            ids2.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.lock().unwrap().len() > 1, "only one worker ran tasks");
    }

    #[test]
    fn try_par_map_quarantines_a_panic_in_its_slot() {
        let pool = ThreadPool::new(2);
        let out = pool.try_par_map(vec![1, 2, 3], |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
        assert_eq!(out, vec![Ok(1), Err("boom".to_owned()), Ok(3)]);
        assert_eq!(pool.tasks_panicked(), 1);
        // Pool still usable afterwards.
        assert_eq!(
            pool.try_par_map(vec![1, 2, 3], |x| x * 10),
            vec![Ok(10), Ok(20), Ok(30)]
        );
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = ThreadPool::new(4);
        for _ in 0..100 {
            pool.execute(|| {});
        }
        drop(pool); // must not hang or panic
    }

    #[test]
    fn tasks_executed_is_settled_when_a_batch_returns() {
        // Regression: the counter used to be bumped after the task body,
        // i.e. after the WaitGroup released the caller, so a freshly
        // returned batch could observe n-1.
        for _ in 0..20 {
            let pool = ThreadPool::new(4);
            pool.try_par_map((0..16).collect::<Vec<u32>>(), |x| x);
            assert_eq!(pool.tasks_executed(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ThreadPool::new(0);
    }

    #[test]
    fn execute_panics_are_counted_not_swallowed() {
        let pool = ThreadPool::new(2);
        let wg = WaitGroup::new();
        wg.add(3);
        for i in 0..3 {
            let wg = wg.clone();
            pool.execute(move || {
                // WaitGroup::done must run even when the task panics.
                struct Done(WaitGroup);
                impl Drop for Done {
                    fn drop(&mut self) {
                        self.0.done();
                    }
                }
                let _done = Done(wg);
                if i == 1 {
                    panic!("boom in execute");
                }
            });
        }
        wg.wait();
        // The `Done` guard wakes the waiter while the panicking task is
        // still unwinding, before the worker's `catch_unwind` counts it:
        // give the count a bounded moment to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.tasks_panicked() == 0 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(pool.tasks_panicked(), 1);
        // Pool still alive and usable.
        assert_eq!(pool.try_par_map(vec![1, 2], |x| x * 2), vec![Ok(2), Ok(4)]);
    }

    #[test]
    fn panic_message_extraction() {
        let str_payload = catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(str_payload.as_ref()), "literal");
        let string_payload = catch_unwind(|| panic!("value {}", 42)).unwrap_err();
        assert_eq!(panic_message(string_payload.as_ref()), "value 42");
        let opaque = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(opaque.as_ref()), "non-string panic payload");
    }
}
