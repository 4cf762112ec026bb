//! `cr-obs` — zero-dependency observability for the social-systems
//! workspace.
//!
//! Three pieces:
//!
//! * a process-wide **metrics registry** ([`Registry`]) of named
//!   [`Counter`]s, [`Gauge`]s, and log-linear latency [`Histogram`]s,
//!   all recorded with relaxed atomics (no locks on hot paths — the
//!   registry lock is only taken when a handle is first resolved);
//! * **snapshot rendering** ([`MetricsSnapshot`]) as hand-rolled JSON,
//!   Prometheus text exposition, or a human-readable table;
//! * a **flight recorder** ([`trace`]) of hierarchical trace spans in
//!   a lock-free bounded ring, with a Chrome trace-event exporter and
//!   a slow-request log — off by default and armed at runtime.
//!
//! Metrics are **always on**: there is no collection switch, and every
//! instrumentation site records unconditionally. Tracing keeps its own
//! runtime gate ([`trace::enable`]) because it costs a span per operator.
//!
//! ```
//! let reg = cr_obs::Registry::global();
//! reg.counter("demo.requests").inc();
//! reg.histogram("demo.work_ns").record(1_500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(1));
//! assert_eq!(snap.histogram("demo.work_ns").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]

pub mod histogram;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, QUANTILE_RELATIVE_ERROR};
pub use registry::{install, Counter, Gauge, Registry};
pub use snapshot::MetricsSnapshot;
pub use trace::{FlightRecorder, SlowQuery, SpanContext, SpanId, SpanRecord, TraceId, TraceSpan};
