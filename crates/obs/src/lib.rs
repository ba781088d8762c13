//! # rispp-obs — RISPP observability
//!
//! Structured run-time events and pluggable sinks for the RISPP
//! simulator. Producers (the fabric and the run-time manager) hold a
//! [`SinkHandle`] and emit [`Event`]s at the source; consumers choose
//! what to do with the stream:
//!
//! * [`NullSink`] / [`SinkHandle::null`] — observability off. A disabled
//!   handle costs one branch per event site and never constructs the
//!   event.
//! * [`CountersSink`] — per-SI execution counters and forecast
//!   issued/retracted/hit/miss counters, for callers that ask about one
//!   SI.
//! * [`TimelineSink`] — the full ordered event [`Timeline`] behind the
//!   paper's Fig. 6 timelines and the waveform renderer.
//! * [`JsonlSink`] — streaming JSON Lines export; [`jsonl::replay`]
//!   turns an exported stream back into any sink, reproducing the live
//!   timeline exactly, and [`jsonl::LineReader`] decodes a live tail one
//!   line at a time with the same header rule and line numbers.
//! * [`BinarySink`] — the compact binary sibling of the JSONL export:
//!   varint/delta-packed, length-prefixed records with batched buffered
//!   writes (an order of magnitude cheaper per event); [`bin::replay`] /
//!   [`StreamDecoder`] decode complete streams and live tails back into
//!   identical events.
//! * [`SpanBuilder`] — derived causality spans: stitches
//!   `ForecastUpdated → Reselect → rotations → first hardware execution`
//!   into per-`(task, si)` time-to-hardware stories (Fig. 6 as data).
//! * [`MetricsSink`] — a run's numbers: the event count, the all-SI
//!   [`LatencyHistogram`] and time-weighted gauges (container occupancy,
//!   logic utilization, rotation-bus busyness, forecast
//!   precision/recall, cycles saved vs software); with a
//!   Prometheus-style text exposition.
//! * [`WindowSink`] — sliding-window rates and latency quantiles over
//!   the event stream, keyed by simulated time so replays are
//!   deterministic.
//! * [`AlertEngine`] — declarative SLO alert rules (metric, op,
//!   threshold, hold-for) parsed from a TOML subset and evaluated
//!   against live metric lookups.
//! * [`trace`] — Chrome-trace-event (Perfetto-loadable) export of a
//!   [`Timeline`] into per-container, per-task, and counter tracks.
//!
//! Everything here observes the simulated machine, in simulated cycles.
//! No event carries host time, so a seeded run exports the same bytes
//! every time; host time is measured from outside the program, by the
//! benchmark's traced run (`perfbench/`).
//!
//! ```
//! use rispp_obs::{jsonl, Event, JsonlSink, SinkHandle, TimelineSink};
//! use std::{cell::RefCell, rc::Rc};
//!
//! // A producer would receive this handle and emit into it.
//! let live = Rc::new(RefCell::new(TimelineSink::new()));
//! let export = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
//! let sink = SinkHandle::tee(
//!     SinkHandle::shared(live.clone()),
//!     SinkHandle::shared(export.clone()),
//! );
//! sink.emit_with(42, || Event::ForecastRetracted { task: 0, si: rispp_core::si::SiId(1) });
//!
//! // The exported stream replays into an identical timeline.
//! let text = String::from_utf8(export.borrow().writer().clone()).unwrap();
//! let mut replayed = TimelineSink::new();
//! jsonl::replay(&text, &mut replayed).unwrap();
//! assert_eq!(replayed.timeline(), live.borrow().timeline());
//! ```

#![warn(missing_docs)]
// The observability layer must never consume deprecated items.
#![deny(deprecated)]

pub mod alert;
pub mod bin;
pub mod counters;
pub mod event;
pub mod jsonl;
pub mod latency;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod timeline;
pub mod trace;
pub mod window;

pub use alert::{AlertEngine, AlertOp, AlertRule, AlertStatus};
pub use bin::{BinError, BinarySink, StreamDecoder};
pub use counters::{CountersSink, FcCounters, SiCounters};
pub use event::{Event, Record, ReselectTrigger, TaskId, MAX_CONTAINERS};
pub use jsonl::{JsonlError, JsonlSink};
pub use latency::LatencyHistogram;
pub use metrics::{ForecastStats, MetricsSink, MetricsSummary};
pub use sink::{EventSink, NullSink, SinkHandle};
pub use span::{LadderStep, Span, SpanBuilder, SpanClose};
pub use timeline::{Timeline, TimelineSink};
pub use trace::{render_chrome_trace, TraceConfig};
pub use window::{WindowConfig, WindowSink, WindowSnapshot};
