//! Spans around the calls into each layer, recorded from this crate
//! only, and the counting allocator of the traced run.
//!
//! A span is entered with [`enter`] and closed when the guard drops.
//! Each thread keeps its own stack of open spans, so a span's parent
//! is whatever the same thread had open when it was entered; a span's
//! self time is its duration minus the durations of the spans it was
//! the parent of. Closed spans are folded into per-name totals (calls,
//! total time, self time) held in memory until the run ends: the serve
//! workloads close some ten million spans in a run, too many to keep
//! one by one.
//!
//! While tracing is off, [`enter`] costs one relaxed load and records
//! nothing, which is how the end-to-end run and the traced run share
//! one driver loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// A layer boundary the benchmark records a span around. The
        /// name is `<crate>.<module>.<function>` of what is called.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span { $(#[doc = $name] $variant,)* }

        impl Span {
            /// Every span, in declaration order.
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// The metric-name stem of the span.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    // The benchmark's own loop around one traced input: the root of
    // the serve and batch traces, reported only through
    // `trace.unattributed_share`.
    BenchPass => "bench.pass",
    SourcePoll => "serve.source.poll",
    ServiceStep => "serve.service.step",
    ServiceWake => "serve.service.wake",
    ServiceFinish => "serve.service.finish",
    CheckpointEncode => "serve.checkpoint.encode",
    CheckpointRestore => "serve.checkpoint.restore",
    MultinodeRun => "cluster.multinode.run",
    StateEncode => "core.cluster_env.encode",
    InferGreedy => "nn.infer.greedy",
    SelectSelect => "cluster.select.select",
    CoschedPlacement => "cluster.cosched.next_placement",
    BackfillPlacement => "cluster.backfill.next_placement",
    TraceGenerate => "cluster.trace.generate",
    TrainEnv => "core.train.train_env",
    MakeEnv => "core.rl.make_env",
    EnvStep => "core.env.step",
    EnvState => "core.env.state",
    Act => "core.rl.act",
    Snapshot => "core.rl.snapshot",
    Learn => "nn.dqn.learn",
    Remember => "nn.replay.remember",
    SuiteBuild => "workloads.suite.build",
    RepoBuild => "profile.repo.build",
    PlaceTrain => "cluster.place.train",
}

const N: usize = Span::ALL.len();

/// One open span on a thread's stack.
struct Frame {
    span: Span,
    start_ns: u64,
    child_ns: u64,
}

/// What closing a span yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed {
    /// The span that closed.
    pub span: Span,
    /// Its whole duration.
    pub total_ns: u64,
    /// Its duration minus that of the spans it was the parent of.
    pub self_ns: u64,
}

/// A thread's stack of open spans, with the clock passed in so the
/// parent/child arithmetic can be tested without one.
#[derive(Default)]
pub struct Frames(Vec<Frame>);

impl Frames {
    /// Open `span` at `now_ns` as a child of the innermost open span.
    pub fn enter(&mut self, span: Span, now_ns: u64) {
        self.0.push(Frame {
            span,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost open span at `now_ns` and charge its
    /// duration to its parent's child time. `None` if nothing is open.
    pub fn exit(&mut self, now_ns: u64) -> Option<Closed> {
        let frame = self.0.pop()?;
        let total_ns = now_ns.saturating_sub(frame.start_ns);
        if let Some(parent) = self.0.last_mut() {
            parent.child_ns += total_ns;
        }
        Some(Closed {
            span: frame.span,
            total_ns,
            self_ns: total_ns.saturating_sub(frame.child_ns),
        })
    }

    /// Whether no span is open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
static TOTAL_NS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
static SELF_NS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

thread_local! {
    static FRAMES: RefCell<Frames> = RefCell::new(Frames::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording and allocation counting on or off, for every
/// thread. Spans open across the switch are the caller's to avoid.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    open: bool,
}

/// Open `span` on this thread until the returned guard drops. Records
/// nothing while tracing is off.
pub fn enter(span: Span) -> Guard {
    let open = ENABLED.load(Relaxed);
    if open {
        FRAMES.with(|f| f.borrow_mut().enter(span, now_ns()));
    }
    Guard { open }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let now = now_ns();
        // A thread that is exiting may have torn its stack down
        // already; the span is then lost, never a panic in drop.
        let closed = FRAMES
            .try_with(|f| {
                let mut f = f.try_borrow_mut().ok()?;
                Some((f.exit(now)?, f.is_empty()))
            })
            .ok()
            .flatten();
        if let Some((c, was_root)) = closed {
            let i = c.span as usize;
            CALLS[i].fetch_add(1, Relaxed);
            TOTAL_NS[i].fetch_add(c.total_ns, Relaxed);
            SELF_NS[i].fetch_add(c.self_ns, Relaxed);
            if was_root {
                flush_allocs();
            }
        }
    }
}

/// Per-span totals since the last [`take_totals`].
#[derive(Debug, Clone, PartialEq)]
pub struct Totals {
    calls: [u64; N],
    total_ns: [u64; N],
    self_ns: [u64; N],
}

impl Default for Totals {
    fn default() -> Self {
        Self {
            calls: [0; N],
            total_ns: [0; N],
            self_ns: [0; N],
        }
    }
}

impl Totals {
    /// Spans of this name that closed.
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Summed duration of the span, milliseconds.
    #[must_use]
    pub fn total_ms(&self, span: Span) -> f64 {
        self.total_ns[span as usize] as f64 / 1e6
    }

    /// Summed self time of the span, milliseconds.
    #[must_use]
    pub fn self_ms(&self, span: Span) -> f64 {
        self.self_ns[span as usize] as f64 / 1e6
    }
}

/// Read the totals of every closed span and reset them to zero. Call
/// it only while no traced thread is running.
#[must_use]
pub fn take_totals() -> Totals {
    let mut t = Totals::default();
    for i in 0..N {
        t.calls[i] = CALLS[i].swap(0, Relaxed);
        t.total_ns[i] = TOTAL_NS[i].swap(0, Relaxed);
        t.self_ns[i] = SELF_NS[i].swap(0, Relaxed);
    }
    t
}

/// The process allocator, counting calls and bytes while tracing is
/// on. Installed by the binary and the test targets of this crate.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Counted per thread and folded into the statics whenever the
    // thread closes a root span: two atomic adds per allocation would
    // cost a DES pass (175 allocations a job) a third of its time.
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor registers anything.
    static LOCAL_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    if ENABLED.load(Relaxed) {
        let _ = LOCAL_ALLOCS.try_with(|local| {
            let (calls, total) = local.get();
            local.set((calls + 1, total + bytes as u64));
        });
    }
}

/// Fold this thread's allocation counts into the process totals.
fn flush_allocs() {
    let _ = LOCAL_ALLOCS.try_with(|local| {
        let (calls, bytes) = local.replace((0, 0));
        if calls > 0 {
            ALLOC_CALLS.fetch_add(calls, Relaxed);
            ALLOC_BYTES.fetch_add(bytes, Relaxed);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter beside the
// calls is a plain thread-local cell and allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested since the last call, while
/// tracing was on: by this thread, and by every other thread up to
/// the last root span it closed.
#[must_use]
pub fn take_allocs() -> (u64, u64) {
    flush_allocs();
    (ALLOC_CALLS.swap(0, Relaxed), ALLOC_BYTES.swap(0, Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut f = Frames::default();
        f.enter(Span::ServiceStep, 100);
        f.enter(Span::SourcePoll, 110);
        assert_eq!(
            f.exit(130),
            Some(Closed {
                span: Span::SourcePoll,
                total_ns: 20,
                self_ns: 20
            })
        );
        f.enter(Span::SourcePoll, 150);
        // A grandchild is charged to its parent, not to the root.
        f.enter(Span::InferGreedy, 155);
        assert_eq!(f.exit(160).map(|c| c.self_ns), Some(5));
        assert_eq!(
            f.exit(170),
            Some(Closed {
                span: Span::SourcePoll,
                total_ns: 20,
                self_ns: 15
            })
        );
        assert_eq!(
            f.exit(200),
            Some(Closed {
                span: Span::ServiceStep,
                total_ns: 100,
                self_ns: 60
            })
        );
        assert_eq!(f.exit(210), None);
    }

    #[test]
    fn sibling_roots_do_not_charge_each_other() {
        let mut f = Frames::default();
        f.enter(Span::EnvStep, 0);
        assert_eq!(f.exit(7).map(|c| c.self_ns), Some(7));
        f.enter(Span::EnvState, 7);
        assert_eq!(f.exit(9).map(|c| (c.total_ns, c.self_ns)), Some((2, 2)));
    }

    #[test]
    fn span_names_are_unique_and_well_formed() {
        for (i, a) in Span::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i, "ALL is in discriminant order");
            assert_eq!(a.name().split('.').count(), 3 - usize::from(i == 0));
            for b in &Span::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
