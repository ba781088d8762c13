//! Causality spans: stitching the event stream into per-`(task, si)`
//! **time-to-hardware** stories.
//!
//! The paper's Fig. 6 argues *temporally*: a forecast fires, the manager
//! re-selects, rotations load the upgrade ladder stage by stage, and at
//! some point the SI's executions flip from software to hardware. The
//! [`SpanBuilder`] sink reconstructs exactly that chain from the raw
//! [`Event`] stream — no extra instrumentation at the producers — by
//! correlating on `(task, si)`:
//!
//! ```text
//! ForecastUpdated ──► Reselect ──► RotationStarted … RotationCompleted
//!        │                              (upgrade ladder, per step)
//!        └──────────────────────────► first hardware SiExecuted
//! ```
//!
//! A span opens at a forecast, collects the first reselect, the ladder of
//! [`Event::UpgradeStep`]s (with per-step dwell times), the first rotation
//! activity and the first hardware execution, and closes at the next
//! forecast or retraction of the same `(task, si)` — or at
//! [`SpanBuilder::finish`]. The headline quantity is
//! [`Span::time_to_hardware`]: cycles from the forecast to the first
//! hardware execution, the latency the "Rotation in Advance" strategy
//! exists to minimise.

use std::fmt;

use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;

use crate::event::{Event, TaskId};
use crate::sink::EventSink;

/// One rung of an SI's upgrade ladder, as staged by the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Cycle at which the scheduler staged this rung.
    pub at: u64,
    /// Zero-based position in the upgrade path.
    pub step: u32,
    /// The rung's target Molecule.
    pub molecule: Molecule,
}

/// Why a span stopped collecting events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClose {
    /// The same `(task, si)` was forecast again (a new span opened).
    Reforecast,
    /// The forecast was retracted (Fig. 6's T2).
    Retracted,
    /// The stream ended ([`SpanBuilder::finish`]).
    EndOfStream,
}

impl fmt::Display for SpanClose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpanClose::Reforecast => "reforecast",
            SpanClose::Retracted => "retracted",
            SpanClose::EndOfStream => "end-of-stream",
        })
    }
}

/// The reconstructed causality span of one forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The forecasting task.
    pub task: TaskId,
    /// The forecast SI.
    pub si: SiId,
    /// Cycle of the opening [`Event::ForecastUpdated`].
    pub forecast_at: u64,
    /// Cycle of the first [`Event::Reselect`] at or after the forecast.
    pub reselect_at: Option<u64>,
    /// The upgrade ladder staged for this SI while the span was open.
    pub ladder: Vec<LadderStep>,
    /// Cycle of the first [`Event::RotationStarted`] after the ladder
    /// began (the fabric physically moving for this demand).
    pub first_rotation_started: Option<u64>,
    /// Cycle of the first [`Event::RotationCompleted`] after the first
    /// rotation start.
    pub first_rotation_completed: Option<u64>,
    /// Cycle of the first *hardware* [`Event::SiExecuted`] of
    /// `(task, si)` inside the span.
    pub first_hw_execution: Option<u64>,
    /// Software executions of `(task, si)` before hardware was reached.
    pub sw_executions_before_hw: u64,
    /// Hardware executions of `(task, si)` inside the span.
    pub hw_executions: u64,
    /// Cycle and reason the span closed (`None` while still open).
    pub closed: Option<(u64, SpanClose)>,
}

impl Span {
    fn open(task: TaskId, si: SiId, at: u64) -> Self {
        Span {
            task,
            si,
            forecast_at: at,
            reselect_at: None,
            ladder: Vec::new(),
            first_rotation_started: None,
            first_rotation_completed: None,
            first_hw_execution: None,
            sw_executions_before_hw: 0,
            hw_executions: 0,
            closed: None,
        }
    }

    /// Cycles from the forecast to the first hardware execution — the
    /// span's headline metric (`None` when hardware was never reached).
    #[must_use]
    pub fn time_to_hardware(&self) -> Option<u64> {
        self.first_hw_execution.map(|t| t - self.forecast_at)
    }

    /// Dwell time of each ladder rung: cycles from a rung being staged to
    /// the next rung (the last rung dwells until the span closes, or
    /// open-ended `None` for a still-open span).
    #[must_use]
    pub fn ladder_dwell(&self) -> Vec<(u32, Option<u64>)> {
        let mut out = Vec::with_capacity(self.ladder.len());
        for (i, rung) in self.ladder.iter().enumerate() {
            let until = match self.ladder.get(i + 1) {
                Some(next) => Some(next.at),
                None => self.closed.map(|(at, _)| at),
            };
            out.push((rung.step, until.map(|t| t.saturating_sub(rung.at))));
        }
        out
    }
}

/// Sink reconstructing [`Span`]s from a live or replayed event stream.
///
/// Feed it events (directly, via a [`SinkHandle`](crate::SinkHandle) tee,
/// or through [`jsonl::replay`](crate::jsonl::replay)), then call
/// [`SpanBuilder::finish`] and query [`SpanBuilder::spans`].
#[derive(Debug, Clone, Default)]
pub struct SpanBuilder {
    /// Open spans in forecast order (few at a time; linear scans are
    /// cheaper than a map for the access patterns here).
    open: Vec<Span>,
    /// Closed spans in closing order.
    completed: Vec<Span>,
    /// Largest timestamp seen.
    now: u64,
}

impl SpanBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes every still-open span as [`SpanClose::EndOfStream`] at the
    /// last seen timestamp. Idempotent; call once the stream ends.
    pub fn finish(&mut self) {
        let now = self.now;
        for mut span in self.open.drain(..) {
            span.closed = Some((now, SpanClose::EndOfStream));
            self.completed.push(span);
        }
    }

    /// All closed spans, in closing order. Call
    /// [`SpanBuilder::finish`] first to include still-open spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.completed
    }

    /// Spans of one `(task, si)`, in closing order.
    pub fn spans_for(&self, task: TaskId, si: SiId) -> impl Iterator<Item = &Span> {
        self.completed
            .iter()
            .filter(move |s| s.task == task && s.si == si)
    }

    /// The first span of `(task, si)` that reached hardware, if any.
    #[must_use]
    pub fn first_hw_span(&self, task: TaskId, si: SiId) -> Option<&Span> {
        self.spans_for(task, si)
            .filter(|s| s.first_hw_execution.is_some())
            .min_by_key(|s| s.forecast_at)
    }

    fn close(&mut self, task: TaskId, si: SiId, at: u64, why: SpanClose) {
        if let Some(i) = self.open.iter().position(|s| s.task == task && s.si == si) {
            let mut span = self.open.remove(i);
            span.closed = Some((at, why));
            self.completed.push(span);
        }
    }
}

impl EventSink for SpanBuilder {
    fn emit(&mut self, at: u64, event: &Event) {
        self.now = self.now.max(at);
        match event {
            Event::ForecastUpdated { task, si, .. } => {
                self.close(*task, *si, at, SpanClose::Reforecast);
                self.open.push(Span::open(*task, *si, at));
            }
            Event::ForecastRetracted { task, si } => {
                self.close(*task, *si, at, SpanClose::Retracted);
            }
            Event::Reselect { .. } => {
                for span in &mut self.open {
                    span.reselect_at.get_or_insert(at);
                }
            }
            Event::UpgradeStep {
                si,
                task,
                step,
                molecule,
            } => {
                for span in &mut self.open {
                    if span.si != *si {
                        continue;
                    }
                    // The correlation id, when present, pins the ladder to
                    // one task; without it every open span of the SI
                    // collects the rung (they share the fabric anyway).
                    if task.is_some() && *task != Some(span.task) {
                        continue;
                    }
                    span.ladder.push(LadderStep {
                        at,
                        step: *step,
                        molecule: molecule.clone(),
                    });
                }
            }
            Event::RotationStarted { .. } => {
                for span in &mut self.open {
                    if !span.ladder.is_empty() {
                        span.first_rotation_started.get_or_insert(at);
                    }
                }
            }
            Event::RotationCompleted { .. } => {
                for span in &mut self.open {
                    if span.first_rotation_started.is_some() {
                        span.first_rotation_completed.get_or_insert(at);
                    }
                }
            }
            Event::SiExecuted { task, si, hw, .. } => {
                if let Some(span) = self
                    .open
                    .iter_mut()
                    .find(|s| s.task == *task && s.si == *si)
                {
                    if *hw {
                        span.first_hw_execution.get_or_insert(at);
                        span.hw_executions += 1;
                    } else if span.first_hw_execution.is_none() {
                        span.sw_executions_before_hw += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::AtomKind;

    fn feed(sink: &mut SpanBuilder, records: &[(u64, Event)]) {
        for (at, ev) in records {
            sink.emit(*at, ev);
        }
    }

    fn ladder_scenario() -> Vec<(u64, Event)> {
        let si = SiId(1);
        vec![
            (
                10,
                Event::ForecastUpdated {
                    task: 0,
                    si,
                    probability: 1.0,
                    expected_executions: 100.0,
                },
            ),
            (
                10,
                Event::UpgradeStep {
                    si,
                    task: Some(0),
                    step: 0,
                    molecule: Molecule::from_counts([1, 1]),
                },
            ),
            (
                10,
                Event::Reselect {
                    trigger: crate::event::ReselectTrigger::Forecast,
                },
            ),
            (
                10,
                Event::RotationStarted {
                    container: 0,
                    kind: AtomKind(0),
                },
            ),
            (
                20,
                Event::SiExecuted {
                    task: 0,
                    si,
                    hw: false,
                    cycles: 500,
                    molecule: None,
                },
            ),
            (
                10_000,
                Event::RotationCompleted {
                    container: 0,
                    kind: AtomKind(0),
                },
            ),
            (
                10_000,
                Event::ContainerLoaded {
                    container: 0,
                    kind: AtomKind(0),
                },
            ),
            (
                12_000,
                Event::UpgradeStep {
                    si,
                    task: Some(0),
                    step: 1,
                    molecule: Molecule::from_counts([2, 1]),
                },
            ),
            (
                15_000,
                Event::SiExecuted {
                    task: 0,
                    si,
                    hw: true,
                    cycles: 20,
                    molecule: Some(Molecule::from_counts([1, 1])),
                },
            ),
            (20_000, Event::ForecastRetracted { task: 0, si }),
        ]
    }

    #[test]
    fn span_stitches_forecast_to_first_hw() {
        let mut b = SpanBuilder::new();
        feed(&mut b, &ladder_scenario());
        b.finish();
        assert_eq!(b.spans().len(), 1);
        let s = &b.spans()[0];
        assert_eq!((s.task, s.si), (0, SiId(1)));
        assert_eq!(s.forecast_at, 10);
        assert_eq!(s.reselect_at, Some(10));
        assert_eq!(s.first_rotation_started, Some(10));
        assert_eq!(s.first_rotation_completed, Some(10_000));
        assert_eq!(s.first_hw_execution, Some(15_000));
        assert_eq!(s.time_to_hardware(), Some(14_990));
        assert_eq!(s.sw_executions_before_hw, 1);
        assert_eq!(s.hw_executions, 1);
        assert_eq!(s.closed, Some((20_000, SpanClose::Retracted)));
        // Ladder: step 0 staged at 10, step 1 at 12 000, close at 20 000.
        assert_eq!(s.ladder.len(), 2);
        assert_eq!(s.ladder_dwell(), vec![(0, Some(11_990)), (1, Some(8_000))]);
    }

    #[test]
    fn reforecast_closes_and_reopens() {
        let si = SiId(2);
        let fv = |at| {
            (
                at,
                Event::ForecastUpdated {
                    task: 3,
                    si,
                    probability: 0.5,
                    expected_executions: 10.0,
                },
            )
        };
        let mut b = SpanBuilder::new();
        feed(&mut b, &[fv(5), fv(50)]);
        b.finish();
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.spans()[0].closed, Some((50, SpanClose::Reforecast)));
        assert_eq!(b.spans()[1].forecast_at, 50);
        assert_eq!(b.spans()[1].closed, Some((50, SpanClose::EndOfStream)));
    }

    #[test]
    fn correlation_id_separates_tasks() {
        let si = SiId(0);
        let fv = |task, at| {
            (
                at,
                Event::ForecastUpdated {
                    task,
                    si,
                    probability: 1.0,
                    expected_executions: 10.0,
                },
            )
        };
        let rung = |task, at| {
            (
                at,
                Event::UpgradeStep {
                    si,
                    task: Some(task),
                    step: 0,
                    molecule: Molecule::from_counts([1]),
                },
            )
        };
        let mut b = SpanBuilder::new();
        feed(&mut b, &[fv(0, 1), fv(1, 2), rung(1, 3)]);
        b.finish();
        let task0 = b.spans_for(0, si).next().unwrap();
        let task1 = b.spans_for(1, si).next().unwrap();
        assert!(task0.ladder.is_empty());
        assert_eq!(task1.ladder.len(), 1);
    }

    #[test]
    fn never_reaching_hw_leaves_tth_none() {
        let si = SiId(1);
        let mut b = SpanBuilder::new();
        feed(
            &mut b,
            &[
                (
                    0,
                    Event::ForecastUpdated {
                        task: 0,
                        si,
                        probability: 1.0,
                        expected_executions: 5.0,
                    },
                ),
                (
                    10,
                    Event::SiExecuted {
                        task: 0,
                        si,
                        hw: false,
                        cycles: 400,
                        molecule: None,
                    },
                ),
            ],
        );
        b.finish();
        let s = &b.spans()[0];
        assert_eq!(s.time_to_hardware(), None);
        assert_eq!(s.sw_executions_before_hw, 1);
        assert_eq!(s.closed, Some((10, SpanClose::EndOfStream)));
        assert!(b.first_hw_span(0, si).is_none());
    }
}
