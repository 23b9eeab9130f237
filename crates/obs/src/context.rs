//! Job-scoped observability contexts.
//!
//! An [`ObsContext`] owns everything one profiling job records: its span
//! collector, metrics registry, event-sink slot, and (optionally) an
//! allocation-budget slot. Contexts are cheap `Arc` handles; cloning one
//! shares the underlying state, so a job can hand its context to worker
//! threads and every recording lands in the same place.
//!
//! Instrumentation hooks ([`crate::span!`], [`crate::counter_add`], the
//! event hooks) resolve "the current context" instead of touching process
//! globals:
//!
//! 1. a fast global count of recording contexts ([`ACTIVE`]) — when zero,
//!    every hook is a single relaxed atomic load, exactly as before;
//! 2. the calling thread's context stack (installed via
//!    [`ObsContext::install`], propagated into pool workers by the
//!    parallel substrate).
//!
//! Two jobs with two contexts record concurrently without blocking or
//! bleeding into each other.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::events::{EventKind, EventSink, SinkSlot};
use crate::metrics::{MetricsSnapshot, MetricsStore};
use crate::report::RunReport;
use crate::span::SpanRecord;

/// Context-id source. Ids start at 1 so 0 can mean "no context" in
/// thread-local caches.
static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// Number of contexts currently recording, across the whole process. The
/// disabled fast path for every hook is `ACTIVE == 0`: one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Contexts installed on this thread, innermost last.
    static STACK: RefCell<Vec<ObsContext>> = const { RefCell::new(Vec::new()) };
    /// Cache of the last `(context id, small thread id)` lookup, so hot
    /// span entry under one context skips the thread-table lock.
    static THREAD_CACHE: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

pub(crate) struct CtxInner {
    id: u64,
    /// Whether this context is still collecting. Cleared exactly once
    /// (swap) so [`ACTIVE`] stays balanced.
    recording: AtomicBool,
    /// Completed spans, appended by [`crate::SpanGuard`] drops.
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    /// Entry-ordered span-id source (unique within the context).
    pub(crate) next_span_id: AtomicU64,
    /// Threads that recorded under this context, in first-span order; the
    /// index is the small per-context thread id.
    threads: Mutex<Vec<std::thread::ThreadId>>,
    /// Counters, gauges, histograms, and time series.
    pub(crate) metrics: MetricsStore,
    /// The streaming event sink, if one is installed.
    pub(crate) sink: SinkSlot,
    /// Index of the [`crate::alloc::AllocSlot`] charged for allocations
    /// made while this context is installed; `usize::MAX` when unset.
    alloc_slot: AtomicUsize,
}

impl Drop for CtxInner {
    fn drop(&mut self) {
        // A context dropped without `finish_report` must still release its
        // ACTIVE count (and flush its sink) or the fast path stays slow.
        if self.recording.swap(false, Ordering::SeqCst) {
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
        self.sink.uninstall();
    }
}

/// A handle to one job's observability state. Clones share state; see the
/// [module docs](self) for how hooks resolve the current context.
#[derive(Clone)]
pub struct ObsContext {
    inner: Arc<CtxInner>,
}

impl Default for ObsContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsContext {
    /// Creates a fresh, recording context with empty span and metric
    /// state and no event sink.
    pub fn new() -> Self {
        crate::span::pin_epoch();
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        Self {
            inner: Arc::new(CtxInner {
                id: NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed),
                recording: AtomicBool::new(true),
                spans: Mutex::new(Vec::new()),
                next_span_id: AtomicU64::new(1),
                threads: Mutex::new(Vec::new()),
                metrics: MetricsStore::new(),
                sink: SinkSlot::new(),
                alloc_slot: AtomicUsize::new(usize::MAX),
            }),
        }
    }

    /// This context's process-unique id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether the context is still collecting.
    pub fn is_recording(&self) -> bool {
        self.inner.recording.load(Ordering::Relaxed)
    }

    /// Stops collecting (idempotent). Hooks resolving this context become
    /// no-ops; an installed sink is flushed and removed.
    pub fn stop(&self) {
        if self.inner.recording.swap(false, Ordering::SeqCst) {
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
        self.inner.sink.uninstall();
    }

    /// Installs this context on the calling thread; hooks on the thread
    /// (and pool workers the thread submits to) record here until the
    /// returned guard drops.
    #[must_use = "the context is only current while the guard lives"]
    pub fn install(&self) -> ContextGuard {
        STACK.with(|s| s.borrow_mut().push(self.clone()));
        let prev_slot = match self.inner.alloc_slot.load(Ordering::Relaxed) {
            usize::MAX => None,
            idx => Some(crate::alloc::set_thread_slot(idx)),
        };
        ContextGuard { ctx: self.clone(), prev_slot }
    }

    /// The innermost context installed on the calling thread, if any —
    /// what the parallel substrate captures to propagate into its
    /// workers.
    pub fn current() -> Option<ObsContext> {
        if ACTIVE.load(Ordering::Relaxed) == 0 {
            return None;
        }
        STACK.try_with(|s| s.borrow().last().cloned()).ok().flatten()
    }

    /// Stops collecting and assembles the report skeleton (span tree +
    /// metric snapshot, no sections), draining the context's state.
    pub fn finish_report(&self) -> RunReport {
        self.stop();
        let spans = std::mem::take(&mut *lock(&self.inner.spans));
        let metrics = self.inner.metrics.snapshot();
        RunReport::assemble(spans, metrics)
    }

    /// Copies the context's metrics registry without stopping collection.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Installs `sink` as this context's event sink, replacing (and
    /// flushing) any previous one. Event `seq` restarts at 1.
    pub fn install_sink(&self, sink: Box<dyn EventSink>) {
        self.inner.sink.install(sink);
    }

    /// Removes and flushes this context's sink, if any; returns whether
    /// one was installed.
    pub fn uninstall_sink(&self) -> bool {
        self.inner.sink.uninstall()
    }

    /// True while an event sink is installed on this context.
    pub fn streaming(&self) -> bool {
        self.inner.sink.streaming()
    }

    /// Stamps and delivers one event through this context's sink.
    pub(crate) fn emit(&self, kind: EventKind) {
        self.inner.sink.emit(kind);
    }

    /// Charges allocations made while this context is installed to
    /// `slot` (see [`crate::alloc::AllocSlot`]). Call before
    /// [`ObsContext::install`].
    pub fn set_alloc_slot(&self, slot: &crate::alloc::AllocSlot) {
        self.inner.alloc_slot.store(slot.index(), Ordering::Relaxed);
    }

    /// The small per-context id of the calling thread, assigned on first
    /// use (0 = first thread that recorded under this context).
    pub(crate) fn thread_id_for_current(&self) -> usize {
        let cached = THREAD_CACHE.try_with(Cell::get).unwrap_or((0, 0));
        if cached.0 == self.inner.id {
            return cached.1;
        }
        let me = std::thread::current().id();
        let mut threads = lock(&self.inner.threads);
        let id = match threads.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                threads.push(me);
                threads.len() - 1
            }
        };
        drop(threads);
        let _ = THREAD_CACHE.try_with(|c| c.set((self.inner.id, id)));
        id
    }

    pub(crate) fn inner(&self) -> &CtxInner {
        &self.inner
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keeps an [`ObsContext`] current on one thread; dropping pops it (and
/// restores the thread's previous allocation-slot tag).
pub struct ContextGuard {
    ctx: ObsContext,
    prev_slot: Option<usize>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev_slot {
            crate::alloc::set_thread_slot(prev);
        }
        let id = self.ctx.id();
        let _ = STACK.try_with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in LIFO order per thread, so the top is ours; be
            // defensive anyway (a guard moved across threads would desync).
            if s.last().map(ObsContext::id) == Some(id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|c| c.id() == id) {
                s.remove(pos);
            }
        });
    }
}

/// The innermost *recording* context installed on the calling thread.
/// `None` (after one relaxed load) when no context anywhere is recording.
pub(crate) fn current_recording() -> Option<ObsContext> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    STACK.try_with(|s| s.borrow().iter().rev().find(|c| c.is_recording()).cloned()).ok().flatten()
}

/// The current recording context, but only if it is streaming events.
pub(crate) fn streaming_ctx() -> Option<ObsContext> {
    current_recording().filter(ObsContext::streaming)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_contexts_record_concurrently_without_bleeding() {
        let barrier = std::sync::Barrier::new(2);
        let run = |tag: &str| {
            let ctx = ObsContext::new();
            let guard = ctx.install();
            barrier.wait();
            {
                let _s = crate::span!("job.work");
                crate::counter_add("job.units", 1);
                crate::counter_add(&format!("job.{tag}"), 7);
            }
            barrier.wait();
            drop(guard);
            ctx.finish_report()
        };
        let (a, b) = std::thread::scope(|s| {
            let ha = s.spawn(|| run("a"));
            let hb = s.spawn(|| run("b"));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        for (report, mine, other) in [(&a, "job.a", "job.b"), (&b, "job.b", "job.a")] {
            assert!(report.find_span("job.work").is_some());
            assert_eq!(report.metrics.counters["job.units"], 1, "no cross-job counts");
            assert_eq!(report.metrics.counters[mine], 7);
            assert!(!report.metrics.counters.contains_key(other), "foreign counter leaked");
        }
    }

    #[test]
    fn stopped_context_is_invisible_to_hooks() {
        let ctx = ObsContext::new();
        let _guard = ctx.install();
        ctx.stop();
        {
            let _s = crate::span!("after.stop");
        }
        crate::counter_add("after.stop", 1);
        let report = ctx.finish_report();
        assert!(report.find_span("after.stop").is_none());
        assert!(report.metrics.counters.is_empty());
    }

    #[test]
    fn context_ids_and_thread_ids_are_per_context() {
        let a = ObsContext::new();
        let b = ObsContext::new();
        assert_ne!(a.id(), b.id());
        // Each context assigns this thread its own small id starting at 0.
        assert_eq!(a.thread_id_for_current(), 0);
        assert_eq!(b.thread_id_for_current(), 0);
        assert_eq!(a.thread_id_for_current(), 0, "cache keeps ids stable");
        let other = std::thread::scope(|s| s.spawn(|| a.thread_id_for_current()).join().unwrap());
        assert_eq!(other, 1);
    }
}
