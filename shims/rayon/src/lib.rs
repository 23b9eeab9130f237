//! Offline stand-in for `rayon` with *real* parallelism.
//!
//! The workspace builds hermetically without crates.io, so this crate keeps
//! the `into_par_iter()` / `par_iter()` entry points but executes them on a
//! chunked, order-preserving **persistent worker pool**: workers are spawned
//! once (lazily, on first parallel region) and parked on a condvar between
//! regions, so a parallel region costs a wakeup instead of a thread
//! spawn+join. Hot paths like the Lloyd loop run thousands of short regions
//! per second; scoped spawning made each one pay ~100 µs of thread churn.
//!
//! # Determinism contract
//!
//! Results are **bit-identical** for every worker count, including 1:
//!
//! * `map`/`collect` preserve input order: chunk boundaries depend only on
//!   the chunk size, workers *steal* chunk indices from a shared counter,
//!   and every chunk's output lands in the slot of its input index — so
//!   which worker executes a chunk can never change the output vector.
//! * `sum` is *always* computed as fixed-size chunk partials folded in chunk
//!   order ([`SUM_CHUNK`] items per partial, independent of the worker
//!   count), because floating-point addition is not associative. The
//!   single-threaded fallback uses the exact same chunking, so a 1-thread
//!   run and an N-thread run associate additions identically.
//! * [`join`] runs each of its two closures whole on one thread, so a
//!   closure that is deterministic on its own returns the same bits
//!   whichever thread ran it.
//!
//! # Worker-count resolution
//!
//! 1. A programmatic override installed with [`set_threads`] (the CLI's
//!    `--threads` flag lands here);
//! 2. the `SIMPROF_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallel regions run sequentially on the worker that encounters
//! them (a thread-local depth guard), so a parallel outer loop over
//! workloads does not multiply threads with the parallel k-means inside it.
//! The submitting thread participates in its own region (it steals chunks
//! like any worker), so `--threads N` means N executing threads, not N+1.

use std::cell::{Cell, UnsafeCell};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Items per summation chunk. Fixed (never derived from the worker count) so
/// that `sum` associates floating-point additions identically at every
/// thread count.
pub const SUM_CHUNK: usize = 256;

/// Below this many items a parallel call runs sequentially: waking the pool
/// and waiting for its workers costs more than so few items can recoup.
/// Callers whose items are cheap decide on their own work estimate before
/// entering a region (the Lloyd assignment step, DESIGN.md §15.3).
const PAR_THRESHOLD: usize = 4;

/// Programmatic worker-count override; `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker count resolved from the environment, computed once.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set while the current thread is executing inside a parallel region;
    /// nested regions then run sequentially instead of spawning again.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Installs a workspace-wide worker-count override (the CLI `--threads`
/// flag). Passing `0` clears the override, restoring the
/// `SIMPROF_THREADS`-then-`available_parallelism` resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count parallel regions will currently use (≥ 1).
pub fn current_threads() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    *ENV_THREADS.get_or_init(|| {
        std::env::var("SIMPROF_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// A write-once output slot shared across workers. Safety: each slot index
/// is handed to exactly one worker (distinct chunk indices from the shared
/// counter), and the submitter only reads after the pool barrier.
struct Slot<V>(UnsafeCell<V>);

unsafe impl<V: Send> Sync for Slot<V> {}

impl<V> Slot<V> {
    fn new(v: V) -> Self {
        Slot(UnsafeCell::new(v))
    }
    fn into_inner(self) -> V {
        self.0.into_inner()
    }
    fn get(&self) -> *mut V {
        self.0.get()
    }
}

/// The type-erased job currently published to the pool: a pointer to a
/// `&(dyn Fn() + Sync)` living on the submitting thread's stack. Workers
/// may only dereference it between claiming a slot and decrementing
/// `active`; the submitter blocks until `active == 0` with the job closed,
/// so the borrow can never outlive the stack frame.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    vtable: *const (),
}

unsafe impl Send for RawJob {}

impl RawJob {
    fn erase(f: &(dyn Fn() + Sync)) -> Self {
        // Decompose the wide reference; reassembled in `call`.
        let parts: (*const (), *const ()) = unsafe { std::mem::transmute(f) };
        RawJob { data: parts.0, vtable: parts.1 }
    }

    unsafe fn call(self) {
        let f: &(dyn Fn() + Sync) = unsafe { std::mem::transmute((self.data, self.vtable)) };
        f();
    }
}

/// Pool bookkeeping behind one mutex. `epoch` increments per published job;
/// workers claim one of `open_slots` participation slots, run the job, and
/// decrement `active`. `closed` stops late wakers from claiming a job whose
/// chunks are already drained (or whose submitter is tearing it down).
struct PoolState {
    epoch: u64,
    job: Option<RawJob>,
    /// The submitter's observability context, propagated so worker spans,
    /// metrics, and allocation charges attribute to the submitting job
    /// (concurrent jobs never share a region: `submit` serializes them).
    ctx: Option<simprof_obs::ObsContext>,
    open_slots: usize,
    active: usize,
    closed: bool,
    spawned: usize,
    /// Id of the last context whose region every offered worker joined.
    joined: Option<u64>,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Serializes whole jobs: one parallel region owns the pool at a time
    /// (concurrent top-level submitters queue here; nested regions never
    /// reach the pool thanks to the `IN_PARALLEL` guard).
    submit: Mutex<()>,
}

/// Hard cap on persistent workers, a guard against pathological
/// `set_threads` values; the pool grows lazily up to this.
const MAX_POOL_WORKERS: usize = 256;

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            ctx: None,
            open_slots: 0,
            active: 0,
            closed: true,
            spawned: 0,
            joined: None,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        submit: Mutex::new(()),
    })
}

fn worker_main() {
    // Persistent workers live inside parallel regions by definition, so any
    // nested region they encounter runs sequentially.
    IN_PARALLEL.with(|flag| flag.set(true));
    let pool = pool();
    let mut last_epoch = 0u64;
    let mut st = pool.state.lock().expect("pool lock");
    loop {
        while st.epoch == last_epoch {
            st = pool.work_cv.wait(st).expect("pool lock");
        }
        last_epoch = st.epoch;
        if st.closed || st.open_slots == 0 {
            continue;
        }
        let Some(job) = st.job else { continue };
        let ctx = st.ctx.clone();
        st.open_slots -= 1;
        st.active += 1;
        if st.open_slots == 0 {
            // A submitter may be waiting for the last claim.
            pool.done_cv.notify_all();
        }
        drop(st);
        {
            // Record under the submitting job's context (if it has one) so
            // concurrent jobs don't bleed worker activity into each other.
            let _installed = ctx.as_ref().map(simprof_obs::ObsContext::install);
            // Attribute this worker's wall-clock to its own span (and
            // thread id) so timelines show pool activity; one relaxed load
            // when no obs session is active.
            let _span = simprof_obs::span!("parallel.worker");
            // The chunk loop inside catches panics itself; `call` never
            // unwinds.
            unsafe { job.call() };
        }
        st = pool.state.lock().expect("pool lock");
        st.active -= 1;
        if st.active == 0 && st.closed {
            pool.done_cv.notify_all();
        }
    }
}

/// Runs `work` on up to `extra` pool workers plus the calling thread, all
/// stealing from the same chunk counter, and returns once every
/// participant is done. `work` must be panic-free (callers wrap the chunk
/// bodies in `catch_unwind`).
fn pool_run(extra: usize, work: &(dyn Fn() + Sync)) {
    let pool = pool();
    let _submit = pool.submit.lock().expect("pool submit lock");
    let extra = extra.min(MAX_POOL_WORKERS);
    {
        let mut st = pool.state.lock().expect("pool lock");
        while st.spawned < extra {
            std::thread::Builder::new()
                .name("simprof-par".into())
                .spawn(worker_main)
                .expect("spawn pool worker");
            st.spawned += 1;
        }
        st.epoch += 1;
        st.job = Some(RawJob::erase(work));
        st.ctx = simprof_obs::ObsContext::current();
        st.open_slots = extra;
        st.active = 0;
        st.closed = false;
    }
    pool.work_cv.notify_all();

    // Participate: the submitter steals chunks like any worker. Mark the
    // thread in-parallel so a nested region inside `work` runs sequentially
    // instead of re-entering the (non-reentrant) submit lock.
    IN_PARALLEL.with(|flag| flag.set(true));
    work();
    IN_PARALLEL.with(|flag| flag.set(false));

    // Close the job (late wakers may no longer claim it) and wait out the
    // workers that did claim it — after this, no reference to `work`'s
    // stack frame survives. The first region under each observability
    // context also stays open until every offered slot is claimed, so
    // every worker joins — and records a `parallel.worker` span in — at
    // least one region of each observed run, however late it woke, instead
    // of only when it happened to wake before the submitter drained a
    // region's chunks. Later regions under the same context pay no wait.
    let mut st = pool.state.lock().expect("pool lock");
    let ctx = st.ctx.as_ref().map(simprof_obs::ObsContext::id);
    if ctx.is_some() && ctx != st.joined {
        while st.open_slots > 0 {
            st = pool.done_cv.wait(st).expect("pool lock");
        }
        st.joined = ctx;
    }
    st.closed = true;
    st.job = None;
    st.ctx = None;
    while st.active > 0 {
        st = pool.done_cv.wait(st).expect("pool lock");
    }
}

/// Runs `f` over `items` chunk by chunk on the persistent worker pool,
/// returning per-chunk outputs in chunk order. `chunk_size` controls only
/// scheduling granularity for `collect`; summation callers pass
/// [`SUM_CHUNK`] so the partials are thread-count independent.
///
/// Chunk boundaries depend only on `chunk_size`; participants (the pool
/// workers plus the submitting thread) steal chunk indices from a shared
/// counter and write each chunk's output into the slot of its input index,
/// so the reassembled result is order-preserving by construction no matter
/// which thread ran what.
fn run_chunks<I, T, F>(items: Vec<I>, chunk_size: usize, f: &F) -> Vec<Vec<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let chunk_size = chunk_size.max(1);
    let workers = current_threads();
    let sequential = workers <= 1 || n < PAR_THRESHOLD || IN_PARALLEL.with(Cell::get);

    // Split into owned chunks; chunk boundaries depend only on `chunk_size`.
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(n.div_ceil(chunk_size));
    let mut it = items.into_iter();
    loop {
        let c: Vec<I> = it.by_ref().take(chunk_size).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }

    if sequential {
        return chunks.into_iter().map(|c| c.into_iter().map(f).collect()).collect();
    }

    let n_chunks = chunks.len();
    let input: Vec<Slot<Option<Vec<I>>>> = chunks.into_iter().map(|c| Slot::new(Some(c))).collect();
    let out: Vec<Slot<Option<Vec<T>>>> = (0..n_chunks).map(|_| Slot::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);

    // Each participant (pool worker or submitter) runs this same loop.
    let work = || loop {
        let ci = next.fetch_add(1, Ordering::Relaxed);
        if ci >= n_chunks {
            break;
        }
        // Safety: `ci` values are unique across participants, so each input
        // slot is taken and each output slot written by exactly one thread.
        let chunk = unsafe { (*input[ci].get()).take().expect("chunk taken once") };
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            chunk.into_iter().map(f).collect::<Vec<T>>()
        })) {
            Ok(r) => unsafe { *out[ci].get() = Some(r) },
            Err(_) => panicked.store(true, Ordering::SeqCst),
        }
    };
    pool_run(workers - 1, &work);

    if panicked.load(Ordering::SeqCst) {
        panic!("parallel worker panicked");
    }
    out.into_iter().map(|c| c.into_inner().expect("every chunk produced")).collect()
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results (crates.io rayon's signature).
///
/// The two closures form one two-task pool region: one pool worker is
/// offered, and the submitter runs whichever task it claims first, then the
/// other if no worker has claimed it yet. Each task runs to completion on
/// one thread, so its result cannot depend on which thread that was. Like
/// every region, `join` runs inline — `oper_a` then `oper_b` on the caller
/// — at one thread or inside another region, and the submitter's
/// observability context reaches the worker. Unlike `map`, it ignores the
/// small-input threshold: two tasks are the whole point. A panic in either
/// closure is re-raised once both have finished.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_threads() <= 1 || IN_PARALLEL.with(Cell::get) {
        return (oper_a(), oper_b());
    }
    type Outcome<R> = Option<std::thread::Result<R>>;
    let a = Slot::new(Some(oper_a));
    let b = Slot::new(Some(oper_b));
    let ra: Slot<Outcome<RA>> = Slot::new(None);
    let rb: Slot<Outcome<RB>> = Slot::new(None);
    let next = AtomicUsize::new(0);
    // Safety: `fetch_add` hands task 0 and task 1 to one participant each,
    // so each closure slot is taken and each result slot written once.
    let work = || loop {
        match next.fetch_add(1, Ordering::Relaxed) {
            0 => unsafe {
                let f = (*a.get()).take().expect("task a taken once");
                *ra.get() = Some(std::panic::catch_unwind(AssertUnwindSafe(f)));
            },
            1 => unsafe {
                let f = (*b.get()).take().expect("task b taken once");
                *rb.get() = Some(std::panic::catch_unwind(AssertUnwindSafe(f)));
            },
            _ => break,
        }
    };
    pool_run(1, &work);
    let ra = ra.into_inner().expect("task a ran");
    let rb = rb.into_inner().expect("task b ran");
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
    }
}

/// An order-preserving parallel iterator over owned items.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Maps every item through `f` in parallel; order is preserved.
    pub fn map<T, F>(self, f: F) -> ParMap<I, F>
    where
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Sums the items directly (equivalent to `.map(|x| x).sum()`).
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<I> + std::iter::Sum<S> + Send,
    {
        self.map(|x| x).sum()
    }

    /// Collects the items into `C` (identity map).
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<I>,
    {
        self.items.into_iter().collect()
    }
}

/// A mapped parallel iterator: the terminal `collect`/`sum` runs the pool.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, F> ParMap<I, F> {
    /// Runs the map on the pool and collects outputs in input order.
    pub fn collect<T, C>(self) -> C
    where
        T: Send,
        F: Fn(I) -> T + Sync,
        C: FromIterator<T>,
    {
        let n = self.items.len();
        // Scheduling-only granularity: ~4 chunks per worker amortizes spawn
        // cost while keeping round-robin assignment balanced.
        let chunk = n.div_ceil(current_threads().max(1) * 4).max(1);
        run_chunks(self.items, chunk, &self.f).into_iter().flatten().collect()
    }

    /// Runs the map on the pool and sums outputs via fixed-size chunk
    /// partials folded in chunk order (see the crate-level determinism
    /// contract).
    pub fn sum<T, S>(self) -> S
    where
        T: Send,
        F: Fn(I) -> T + Sync,
        S: std::iter::Sum<T> + std::iter::Sum<S> + Send,
    {
        let partials: Vec<S> = run_chunks(self.items, SUM_CHUNK, &self.f)
            .into_iter()
            .map(|c| c.into_iter().sum::<S>())
            .collect();
        partials.into_iter().sum()
    }
}

/// The rayon prelude: import to get `into_par_iter()`/`par_iter()`.
pub mod prelude {
    pub use super::{ParIter, ParMap};

    /// Parallel stand-in for `rayon::iter::IntoParallelIterator`.
    pub trait IntoParallelIterator {
        /// The element type.
        type Item: Send;

        /// Converts into an order-preserving parallel iterator.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<I: IntoIterator> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        type Item = I::Item;

        fn into_par_iter(self) -> ParIter<I::Item> {
            ParIter { items: self.into_iter().collect() }
        }
    }

    /// Parallel stand-in for `rayon::iter::IntoParallelRefIterator`.
    pub trait IntoParallelRefIterator<'a> {
        /// The element type (a reference).
        type Item: Send + 'a;

        /// Returns a borrowing parallel iterator.
        fn par_iter(&'a self) -> ParIter<Self::Item>;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;

        fn par_iter(&'a self) -> ParIter<&'a T> {
            ParIter { items: self.iter().collect() }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;

        fn par_iter(&'a self) -> ParIter<&'a T> {
            ParIter { items: self.iter().collect() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the global thread override.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = THREADS_LOCK.lock().unwrap();
        set_threads(n);
        let r = f();
        set_threads(0);
        r
    }

    #[test]
    fn every_worker_joins_an_observed_run() {
        // A region far too small for a parked worker to wake before the
        // submitter drains it: each observed run still records a
        // `parallel.worker` span on every offered worker's thread.
        fn worker_threads(nodes: &[simprof_obs::SpanNode], out: &mut Vec<usize>) {
            for n in nodes {
                if n.name == "parallel.worker" && !out.contains(&n.thread) {
                    out.push(n.thread);
                }
                worker_threads(&n.children, out);
            }
        }
        for _ in 0..3 {
            let report = with_threads(3, || {
                let ctx = simprof_obs::ObsContext::new();
                let installed = ctx.install();
                let v: Vec<u32> = (0..8u32).into_par_iter().map(|x| x + 1).collect();
                assert_eq!(v, (1..9).collect::<Vec<_>>());
                let report = ctx.finish_report();
                drop(installed);
                report
            });
            let mut threads = Vec::new();
            worker_threads(&report.spans, &mut threads);
            assert_eq!(threads.len(), 2, "both offered workers appear: {threads:?}");
        }
    }

    #[test]
    fn par_pipelines_match_sequential() {
        let doubled: Vec<usize> = (0..10).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(doubled, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let v = vec![1.0f64, 2.0, 3.0];
        let s: f64 = v.par_iter().sum();
        assert_eq!(s, 6.0);
    }

    #[test]
    fn collect_preserves_order_across_thread_counts() {
        let expect: Vec<u64> = (0..10_000u64).map(|i| i.wrapping_mul(i)).collect();
        for threads in [1, 2, 3, 8] {
            let got: Vec<u64> = with_threads(threads, || {
                (0..10_000u64).into_par_iter().map(|i| i.wrapping_mul(i)).collect()
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn sum_is_bit_identical_across_thread_counts() {
        // Values chosen so the sum is sensitive to association order.
        let f = |i: u64| ((i as f64) * 1e-3).sin() * 1e8 + 1e-7 * (i as f64);
        let one: f64 = with_threads(1, || (0..50_000u64).into_par_iter().map(f).sum());
        for threads in [2, 3, 5, 16] {
            let many: f64 = with_threads(threads, || (0..50_000u64).into_par_iter().map(f).sum());
            assert_eq!(one.to_bits(), many.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn nested_regions_do_not_explode() {
        let got: Vec<usize> = with_threads(4, || {
            (0..64usize)
                .into_par_iter()
                .map(|i| (0..32usize).into_par_iter().map(move |j| i + j).sum())
                .collect()
        });
        let expect: Vec<usize> = (0..64).map(|i| (0..32).map(|j| i + j).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(got.is_empty());
        let s: f64 = Vec::<f64>::new().into_par_iter().sum();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                let _: Vec<usize> = (0..100usize)
                    .into_par_iter()
                    .map(|i| if i == 57 { panic!("boom") } else { i })
                    .collect();
            })
        });
        assert!(caught.is_err(), "panic in a chunk must surface");
        // The pool must still be usable after a panicked job.
        let ok: Vec<usize> = with_threads(4, || (0..100usize).into_par_iter().map(|i| i).collect());
        assert_eq!(ok.len(), 100);
    }

    #[test]
    fn pool_survives_many_small_regions() {
        // Thousands of short regions exercise park/wake reuse; any missed
        // wakeup or slot-accounting bug deadlocks or corrupts output here.
        with_threads(4, || {
            for round in 0..2_000usize {
                let got: usize = (0..32usize).into_par_iter().map(|i| i + round).sum();
                assert_eq!(got, (0..32).map(|i| i + round).sum::<usize>());
            }
        });
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        with_threads(3, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|t| {
                        s.spawn(move || {
                            let got: Vec<usize> =
                                (0..500usize).into_par_iter().map(move |i| i * t).collect();
                            assert_eq!(got, (0..500).map(|i| i * t).collect::<Vec<_>>());
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("submitter thread");
                }
            });
        });
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2, 4] {
            let (a, b) = with_threads(threads, || join(|| 6 * 7, || "b".to_string()));
            assert_eq!((a, b.as_str()), (42, "b"), "threads = {threads}");
        }
    }

    #[test]
    fn join_reraises_a_panic_from_either_side() {
        for side in [0, 1] {
            let caught = with_threads(2, || {
                std::panic::catch_unwind(|| {
                    join(
                        || if side == 0 { panic!("a") } else { 1 },
                        || if side == 1 { panic!("b") } else { 2 },
                    )
                })
            });
            let payload = caught.expect_err("the panic must surface");
            let expect = if side == 0 { "a" } else { "b" };
            assert_eq!(payload.downcast_ref::<&str>(), Some(&expect));
            // The pool still serves the next region.
            let ok: Vec<usize> = with_threads(2, || (0..100usize).into_par_iter().collect());
            assert_eq!(ok.len(), 100);
            assert_eq!(with_threads(2, || join(|| 1, || 2)), (1, 2));
        }
    }

    #[test]
    fn join_inside_a_region_runs_inline() {
        let inline: Vec<bool> = with_threads(4, || {
            (0..16usize)
                .into_par_iter()
                .map(|_| {
                    let me = std::thread::current().id();
                    let (a, b) =
                        join(|| std::thread::current().id(), || std::thread::current().id());
                    a == me && b == me
                })
                .collect()
        });
        assert!(inline.iter().all(|&same| same));
    }

    #[test]
    fn join_at_one_thread_runs_on_the_caller() {
        let me = std::thread::current().id();
        let (a, b) = with_threads(1, || {
            join(|| std::thread::current().id(), || std::thread::current().id())
        });
        assert_eq!((a, b), (me, me));
    }

    #[test]
    fn join_carries_the_submitter_context() {
        fn has_span(nodes: &[simprof_obs::SpanNode], name: &str) -> bool {
            nodes.iter().any(|n| n.name == name || has_span(&n.children, name))
        }
        let report = with_threads(2, || {
            let ctx = simprof_obs::ObsContext::new();
            let installed = ctx.install();
            let (a, b) = join(
                || 1,
                || {
                    let _span = simprof_obs::span!("test.join_b");
                    2
                },
            );
            assert_eq!((a, b), (1, 2));
            let report = ctx.finish_report();
            drop(installed);
            report
        });
        assert!(has_span(&report.spans, "test.join_b"), "spans: {:?}", report.spans);
    }

    #[test]
    fn override_beats_environment() {
        let _guard = THREADS_LOCK.lock().unwrap();
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
    }
}
