//! Observability substrate for SimProf.
//!
//! A profiling run used to be a black box: wall-clock went *somewhere*,
//! stages processed *some* number of units, and fault/retry events only
//! existed inside the trace. This crate makes a run inspectable without
//! changing what it computes:
//!
//! * [`context`] — job-scoped [`ObsContext`] handles owning all recorded
//!   state (spans, metrics, event sink, allocation budget). Many contexts
//!   record concurrently; nothing here is process-exclusive.
//! * [`span`](mod@span) — hierarchical RAII span timing on monotonic clocks. Spans
//!   nest through a thread-local stack, so each thread (including the
//!   parallel substrate's workers) gets its own correctly attributed
//!   subtree, tagged with a stable per-context thread id.
//! * [`metrics`] — a registry of named counters, gauges and histograms
//!   (units profiled, snapshots dropped, k-means iterations, fault events,
//!   …).
//! * [`report`] — a single versioned JSON document assembling the span
//!   tree, the metric snapshot, and caller-supplied sections (phase
//!   summary, Eq. 1 allocation table).
//!
//! # The determinism contract
//!
//! Observability is strictly *read-only*: spans and metrics record what the
//! pipeline did, and **nothing downstream ever reads them back**. Reports
//! carry timings; they never feed into sampling decisions. With no
//! recording [`ObsContext`] anywhere in the process, every hook is a
//! single relaxed atomic load and the pipeline's outputs are bit-identical
//! to an uninstrumented build (`tests/obs_determinism.rs` pins this).
//!
//! # Usage
//!
//! One job, one context:
//!
//! ```
//! use simprof_obs as obs;
//!
//! let ctx = obs::ObsContext::new();
//! {
//!     let _installed = ctx.install();
//!     let _outer = obs::span!("analyze");
//!     let _inner = obs::span!("choose_k");
//!     obs::counter_add("kmeans.iterations", 12);
//! }
//! let report = ctx.finish_report();
//! assert_eq!(report.version, obs::REPORT_VERSION);
//! assert!(report.find_span("choose_k").is_some());
//! ```

pub mod alloc;
pub mod context;
pub mod events;
pub mod fleet;
pub mod hist;
pub mod metrics;
pub mod report;
pub mod span;
pub mod timeline;

pub use alloc::{
    current_alloc_bytes, peak_alloc_bytes, reset_peak, AllocSlot, TrackingAllocator, ALLOC_SLOTS,
};
pub use context::{ContextGuard, ObsContext};
pub use events::{
    early_stop, fault_event, phase_reformed, salvage_event, sink_degraded, sink_retry, unit_closed,
    Event, EventKind, EventSink, JsonlEventWriter, TeeSink, EVENT_SCHEMA_VERSION,
};
pub use fleet::{FleetJob, FleetReport, FleetTotals, TenantStats, FLEET_REPORT_VERSION};
pub use hist::Log2Histogram;
pub use metrics::{
    counter_add, gauge_set, histogram_observe, timeseries_push, HistogramSummary, MetricsSnapshot,
    TimePoint, TimeSeries,
};
pub use report::{RunReport, SpanNode, REPORT_VERSION};
pub use span::{SpanGuard, SpanRecord};
pub use timeline::{
    chrome_trace, fleet_chrome_trace, write_chrome_trace, write_fleet_timeline, JobSlice,
};

/// True while the context visible to the calling thread is streaming to an
/// [`events::EventSink`] (re-export of [`events::streaming`] for hook
/// sites outside this crate).
#[inline]
pub fn event_streaming() -> bool {
    events::streaming()
}

/// True while a recording [`ObsContext`] is installed on the calling
/// thread.
#[inline]
pub fn enabled() -> bool {
    context::current_recording().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_guards_are_noops() {
        // No context installed on this thread: hooks must not record.
        assert!(!enabled());
        let g = SpanGuard::enter("never");
        assert!(!g.is_recording());
        drop(g);
        counter_add("never.counter", 3);
        // A fresh context sees none of the above.
        let report = ObsContext::new().finish_report();
        assert!(report.spans.is_empty());
        assert!(report.metrics.counters.is_empty());
    }

    #[test]
    fn context_collects_nested_spans_and_metrics() {
        let ctx = ObsContext::new();
        let installed = ctx.install();
        {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
                counter_add("work.items", 7);
                counter_add("work.items", 5);
                gauge_set("work.level", 2.5);
                histogram_observe("work.size", 10.0);
                histogram_observe("work.size", 30.0);
            }
        }
        let report = ctx.finish_report();
        assert!(!enabled(), "finish disables collection");
        drop(installed);
        assert_eq!(report.version, REPORT_VERSION);

        let outer = report.find_span("outer").expect("outer span recorded");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert!(outer.elapsed_us >= outer.children[0].elapsed_us);

        assert_eq!(report.metrics.counters["work.items"], 12);
        assert_eq!(report.metrics.gauges["work.level"], 2.5);
        let h = &report.metrics.histograms["work.size"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 30.0);
        assert_eq!(h.mean, 20.0);
    }

    #[test]
    fn contexts_do_not_leak_between_runs() {
        let ctx = ObsContext::new();
        {
            let _installed = ctx.install();
            let _a = span!("first_run");
            counter_add("first.counter", 1);
        }
        let first = ctx.finish_report();
        assert!(first.find_span("first_run").is_some());

        let ctx = ObsContext::new();
        {
            let _installed = ctx.install();
            let _b = span!("second_run");
        }
        let second = ctx.finish_report();
        assert!(second.find_span("first_run").is_none(), "prior context cleared");
        assert!(second.find_span("second_run").is_some());
        assert!(!second.metrics.counters.contains_key("first.counter"));
    }

    #[test]
    fn worker_thread_spans_root_at_their_thread() {
        let ctx = ObsContext::new();
        {
            let _installed = ctx.install();
            let _main = span!("driver");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _installed = ctx.install();
                    let _w = span!("worker_task");
                });
            });
        }
        let report = ctx.finish_report();
        let driver = report.find_span("driver").expect("driver span");
        let worker = report.find_span("worker_task").expect("worker span");
        // The worker's span is attributed to its own thread, not nested
        // under the driver's stack.
        assert_ne!(driver.thread, worker.thread);
        assert!(driver.children.iter().all(|c| c.name != "worker_task"));
    }

    #[test]
    fn dropped_context_discards_collection() {
        let ctx = ObsContext::new();
        {
            let _installed = ctx.install();
            let _s = span!("doomed");
        }
        drop(ctx);
        assert!(!enabled());
        let report = ObsContext::new().finish_report();
        assert!(report.find_span("doomed").is_none());
    }

    #[test]
    fn inner_context_shadows_the_outer_without_bleeding() {
        let outer = ObsContext::new();
        let outer_installed = outer.install();
        counter_add("outer.counter", 1);
        let job = ObsContext::new();
        {
            let _installed = job.install();
            // The installed context shadows the outer one on this thread.
            counter_add("job.counter", 5);
        }
        counter_add("outer.counter", 1);
        let job_report = job.finish_report();
        drop(outer_installed);
        let outer_report = outer.finish_report();
        assert_eq!(job_report.metrics.counters["job.counter"], 5);
        assert!(!job_report.metrics.counters.contains_key("outer.counter"));
        assert_eq!(outer_report.metrics.counters["outer.counter"], 2);
        assert!(!outer_report.metrics.counters.contains_key("job.counter"));
    }
}
