//! Bounded parallelism over indexed work items: a persistent
//! [`WorkerPool`].
//!
//! The workspace's parallel sections (rollout workers, evaluation
//! queues, the multi-node epoch fan-out) all share the same shape: a
//! fixed list of independent items, a worker function producing one
//! output per item, and a cap on simultaneous threads. [`WorkerPool`]
//! implements that shape with threads spawned once and an atomic work
//! queue — no external dependency, and a serial fast path when one
//! thread (or one item) makes waking workers pointless. Callers that
//! fan out *repeatedly* over small item counts (the multi-node simulator
//! runs one fan-out per arrival instant) pay spawn/join once per pool
//! instead of once per call.
//!
//! Results are returned **in item order** regardless of which worker
//! claimed which item, so callers stay deterministic for a fixed input
//! regardless of the thread count: `pool.map(n, f)` is
//! `(0..n).map(f).collect()` — scheduling is an execution detail.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of worker threads to use when the caller passes `0`
/// ("auto"): the machine's available parallelism.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A lifetime-erased pointer to the current epoch's work closure.
///
/// Soundness: [`WorkerPool::map`] publishes the pointer under the pool
/// mutex and blocks on the same mutex until every worker has finished
/// the epoch, so the closure (and everything it borrows) strictly
/// outlives every dereference.
#[derive(Clone, Copy)]
struct ErasedFn(*const (dyn Fn(usize) + Sync));

// The pointee is `Sync` and the pointer only crosses threads while the
// publisher keeps the closure alive (see above).
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

/// One epoch of pool work: the erased closure plus the item count.
#[derive(Clone, Copy)]
struct Task {
    call: ErasedFn,
    n: usize,
}

/// Pool coordination state, guarded by [`Shared::ctrl`].
struct Ctrl {
    /// Bumped once per published epoch; workers use it to tell a new
    /// epoch from a spurious wakeup.
    epoch: u64,
    /// Highest epoch whose workers have all finished. Publishers wait
    /// on *their* epoch number, so a concurrent publisher slipping a
    /// new epoch in cannot be mistaken for one's own completion.
    completed: u64,
    /// The in-flight epoch (`None` between maps).
    task: Option<Task>,
    /// Workers that have not yet finished the in-flight epoch. Every
    /// worker participates in every epoch (possibly claiming zero
    /// items), so the epoch is over exactly when this reaches zero.
    active: usize,
    /// First caught panic payload per epoch, drained by that epoch's
    /// publisher (keyed so a later epoch cannot clobber an unobserved
    /// failure).
    panics: Vec<(u64, Box<dyn std::any::Any + Send>)>,
    shutdown: bool,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    /// Workers wait here for the next epoch.
    work: Condvar,
    /// The publisher waits here for epoch completion.
    done: Condvar,
    /// The epoch's atomic item cursor (reset under the lock before each
    /// publish).
    cursor: AtomicUsize,
}

/// Raw results pointer smuggled into the erased closure; distinct
/// indices write distinct slots, so concurrent writes never alias.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Write `v` to slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and no other thread may target the same
    /// slot (the epoch cursor hands out distinct indices).
    unsafe fn write(&self, i: usize, v: T) {
        unsafe { self.0.add(i).write(v) };
    }
}

/// A persistent worker pool.
///
/// Threads are spawned once at construction and parked between calls;
/// [`WorkerPool::map`] wakes them for one epoch of index-claiming work
/// and returns the outputs in item order, whichever worker claimed
/// which item:
///
/// ```
/// use hrp_core::par::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// for _ in 0..3 {
///     let pooled = pool.map(8, |i| i * i);
///     assert_eq!(pooled, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// }
/// ```
///
/// Calls are serialised: a `map` that arrives while another is in
/// flight waits for it. Dropping the pool joins every worker.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (`0` = available parallelism).
    /// A resolved count of 1 spawns no threads at all: `map` then runs
    /// serially on the caller.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = resolve_threads(threads);
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                epoch: 0,
                completed: 0,
                task: None,
                active: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let handles = if threads <= 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect()
        };
        Self { shared, handles }
    }

    /// Number of worker threads backing the pool (1 means "serial on
    /// the caller").
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len().max(1)
    }

    /// Apply `f` to every index in `0..n` on the pool's workers and
    /// collect the outputs in index order: the result is
    /// `(0..n).map(f).collect()` for any thread count.
    ///
    /// # Panics
    /// Propagates a panic from `f`.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.handles.is_empty() || n <= 1 {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let slots = SendPtr(out.as_mut_ptr());
        let call = |i: usize| {
            let v = f(i);
            // Distinct indices target distinct slots; `None` needs no
            // drop, so an overwrite-free `write` is enough.
            unsafe { slots.write(i, Some(v)) };
        };
        self.run_epoch(&call, n);
        out.into_iter()
            .map(|v| v.expect("every index claimed exactly once"))
            .collect()
    }

    /// Run `f` over every index in `0..n` on the pool's workers without
    /// collecting outputs — one synchronized fan-out round with no
    /// per-call result buffer. The workhorse behind effect-only epochs
    /// (the multi-node drivers advance nodes behind mutexes and keep
    /// nothing per index).
    ///
    /// # Panics
    /// Propagates a panic from `f`.
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.handles.is_empty() || n <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        self.run_epoch(&f, n);
    }

    /// Publish one epoch of work and block until every worker finished
    /// it (the shared core of [`WorkerPool::map`] and
    /// [`WorkerPool::for_each`]).
    fn run_epoch(&self, f: &(dyn Fn(usize) + Sync), n: usize) {
        #[allow(clippy::missing_transmute_annotations)]
        let call = ErasedFn(unsafe {
            // Erase the borrow's lifetime; the publisher blocks until
            // every worker finished the epoch (see `ErasedFn`).
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), _>(f)
        });

        let mut ctrl = self.shared.ctrl.lock().expect("pool lock");
        while ctrl.task.is_some() || ctrl.active > 0 {
            ctrl = self.shared.done.wait(ctrl).expect("pool lock");
        }
        self.shared.cursor.store(0, Ordering::Relaxed);
        ctrl.task = Some(Task { call, n });
        ctrl.active = self.handles.len();
        ctrl.epoch += 1;
        let my_epoch = ctrl.epoch;
        self.shared.work.notify_all();
        // Wait for *this* epoch specifically: a concurrent publisher
        // may slip its own epoch in between our completion and our
        // wakeup, and that must not be mistaken for ours.
        while ctrl.completed < my_epoch {
            ctrl = self.shared.done.wait(ctrl).expect("pool lock");
        }
        let payload = ctrl
            .panics
            .iter()
            .position(|(e, _)| *e == my_epoch)
            .map(|i| ctrl.panics.swap_remove(i).1);
        drop(ctrl);
        if let Some(payload) = payload {
            // Re-raise the worker's original panic (e.g. the node
            // simulator's deadlock diagnostic), as a scoped spawn
            // would.
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut ctrl = self.shared.ctrl.lock().expect("pool lock");
            ctrl.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut ctrl = shared.ctrl.lock().expect("pool lock");
            loop {
                if ctrl.shutdown {
                    return;
                }
                if ctrl.epoch != seen {
                    if let Some(task) = ctrl.task {
                        seen = ctrl.epoch;
                        break task;
                    }
                }
                ctrl = shared.work.wait(ctrl).expect("pool lock");
            }
        };
        // Claim items until the cursor runs out. Panics in `f` are
        // contained so the epoch still completes and the publisher can
        // re-raise instead of deadlocking.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let f = unsafe { &*task.call.0 };
            loop {
                let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= task.n {
                    break;
                }
                f(i);
            }
        }));
        let mut ctrl = shared.ctrl.lock().expect("pool lock");
        if let Err(payload) = outcome {
            // Keep the first payload per epoch for its publisher.
            if !ctrl.panics.iter().any(|(e, _)| *e == seen) {
                ctrl.panics.push((seen, payload));
            }
        }
        ctrl.active -= 1;
        if ctrl.active == 0 {
            ctrl.task = None;
            ctrl.completed = seen;
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        for threads in [1, 2, 4, 0] {
            let got = WorkerPool::new(threads).map(17, |i| i * i);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        // Every worker takes part in the epoch; most claim nothing.
        assert_eq!(WorkerPool::new(16).map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let expensive = |i: usize| -> u64 {
            let mut acc = i as u64;
            for k in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let serial = WorkerPool::new(1).map(32, expensive);
        let parallel = WorkerPool::new(4).map(32, expensive);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_map_is_equivalent_to_the_serial_map() {
        // Same `f`, same outputs, in item order, for any thread count.
        let f = |i: usize| -> u64 {
            let mut acc = i as u64 ^ 0xdead_beef;
            for k in 0..500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        for threads in [1usize, 2, 4, 0] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 3, 17, 64] {
                assert_eq!(
                    pool.map(n, f),
                    (0..n).map(f).collect::<Vec<_>>(),
                    "threads = {threads}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn pool_survives_repeated_epochs() {
        let pool = WorkerPool::new(4);
        for round in 0..50 {
            let got = pool.map(9, |i| i + round);
            let want: Vec<usize> = (0..9).map(|i| i + round).collect();
            assert_eq!(got, want, "round {round}");
        }
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn pool_for_each_visits_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for threads in [1usize, 2, 4, 0] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicU32> = (0..33).map(|_| AtomicU32::new(0)).collect();
            pool.for_each(33, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
            // And the pool stays usable for collecting calls after.
            assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
        }
    }

    #[test]
    fn pool_with_one_thread_runs_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.map(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn pool_propagates_the_original_panic_payload() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(8, |i| {
                assert!(i != 5, "boom at item 5");
                i
            })
        }));
        // The worker's own message reaches the caller (a scoped spawn
        // would re-raise it too; diagnostics like the node simulator's
        // deadlock panic must not be replaced by a generic one).
        let payload = result.expect_err("the panic must surface to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("boom at item 5"), "payload lost: {msg:?}");
        // The pool stays usable after a panicked epoch.
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }
}
