//! The [`Timeline`]: an append-only, queryable record of every event —
//! the data behind the paper's Fig. 6 — and the [`TimelineSink`] that
//! accumulates one from a live event stream.

use std::fmt;

use rispp_core::si::SiId;

use crate::event::{Event, Record, TaskId};
use crate::sink::EventSink;

/// An append-only event timeline with the query helpers the figure
/// reproductions need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    records: Vec<Record>,
}

impl Timeline {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event at cycle `at`.
    pub fn push(&mut self, at: u64, event: Event) {
        self.records.push(Record { at, event });
    }

    /// All records in emission order (non-decreasing time).
    #[must_use]
    pub fn entries(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` for an empty timeline.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// SI executions of one task, as `(at, cycles, hardware)`.
    pub fn executions(
        &self,
        task: TaskId,
        si: SiId,
    ) -> impl Iterator<Item = (u64, u64, bool)> + '_ {
        self.records.iter().filter_map(move |r| match r.event {
            Event::SiExecuted {
                task: t,
                si: s,
                hw,
                cycles,
                ..
            } if t == task && s == si => Some((r.at, cycles, hw)),
            _ => None,
        })
    }

    /// Time of the first hardware execution of `(task, si)` at or after
    /// `from`.
    #[must_use]
    pub fn first_hw_execution_after(&self, task: TaskId, si: SiId, from: u64) -> Option<u64> {
        self.executions(task, si)
            .find(|&(at, _, hw)| hw && at >= from)
            .map(|(at, _, _)| at)
    }

    /// Count of completed rotations.
    #[must_use]
    pub fn rotations_completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.event, Event::RotationCompleted { .. }))
            .count()
    }

    /// Time of the first forecast of `si` by `task`.
    #[must_use]
    pub fn forecast_time(&self, task: TaskId, si: SiId) -> Option<u64> {
        self.records.iter().find_map(|r| match r.event {
            Event::ForecastUpdated { task: t, si: s, .. } if t == task && s == si => Some(r.at),
            _ => None,
        })
    }

    /// Time of the first retraction of `si` by `task`.
    #[must_use]
    pub fn retract_time(&self, task: TaskId, si: SiId) -> Option<u64> {
        self.records.iter().find_map(|r| match r.event {
            Event::ForecastRetracted { task: t, si: s } if t == task && s == si => Some(r.at),
            _ => None,
        })
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Sink accumulating every event into a [`Timeline`].
///
/// By default the timeline grows without bound; long soaks that only
/// need recent context (a debugging tail, a crash snapshot) should use
/// [`TimelineSink::with_capacity`] instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineSink {
    timeline: Timeline,
    /// Keep-last-N bound; `None` grows without limit.
    capacity: Option<usize>,
    /// Records evicted (or refused, at capacity 0) by the bound — the
    /// proof a bounded capture is incomplete.
    dropped_events: u64,
}

impl TimelineSink {
    /// Creates an unbounded timeline sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bounded sink keeping (at least) the most recent
    /// `capacity` records. To stay amortized O(1) per event, eviction
    /// runs in batches: the timeline holds between `capacity` and
    /// `2 × capacity` records once full, and the oldest are dropped
    /// `capacity` at a time. A capacity of 0 keeps nothing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TimelineSink {
            timeline: Timeline::new(),
            capacity: Some(capacity),
            dropped_events: 0,
        }
    }

    /// The keep-last bound, when one was configured.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Events this sink received but no longer holds: evicted by the
    /// [`TimelineSink::with_capacity`] bound (or refused outright at
    /// capacity 0). Always 0 for an unbounded sink — a nonzero value is
    /// the signal that the captured timeline is a truncated tail, not
    /// the whole run.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The accumulated timeline.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Consumes the sink, returning the timeline.
    #[must_use]
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }
}

impl EventSink for TimelineSink {
    fn emit(&mut self, at: u64, event: &Event) {
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.dropped_events += 1;
                return;
            }
            if self.timeline.records.len() >= cap.saturating_mul(2) {
                self.timeline.records.drain(..cap);
                self.dropped_events += cap as u64;
            }
        }
        self.timeline.push(at, event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::AtomKind;

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.push(
            10,
            Event::ForecastUpdated {
                task: 0,
                si: SiId(1),
                probability: 1.0,
                expected_executions: 40.0,
            },
        );
        t.push(
            20,
            Event::SiExecuted {
                task: 0,
                si: SiId(1),
                hw: false,
                cycles: 500,
                molecule: None,
            },
        );
        t.push(
            30,
            Event::RotationCompleted {
                container: 2,
                kind: AtomKind(0),
            },
        );
        t.push(
            40,
            Event::SiExecuted {
                task: 0,
                si: SiId(1),
                hw: true,
                cycles: 20,
                molecule: None,
            },
        );
        t.push(
            50,
            Event::ForecastRetracted {
                task: 0,
                si: SiId(1),
            },
        );
        t
    }

    #[test]
    fn query_helpers_find_events() {
        let t = sample();
        assert_eq!(t.forecast_time(0, SiId(1)), Some(10));
        assert_eq!(t.retract_time(0, SiId(1)), Some(50));
        assert_eq!(t.first_hw_execution_after(0, SiId(1), 0), Some(40));
        assert_eq!(t.rotations_completed(), 1);
        assert_eq!(t.executions(0, SiId(1)).count(), 2);
        assert_eq!(t.executions(1, SiId(1)).count(), 0);
    }

    #[test]
    fn sink_accumulates_in_order() {
        let mut sink = TimelineSink::new();
        for r in sample().entries() {
            sink.emit(r.at, &r.event);
        }
        assert_eq!(sink.timeline(), &sample());
    }

    #[test]
    fn bounded_sink_keeps_the_most_recent_records() {
        let mut sink = TimelineSink::with_capacity(4);
        assert_eq!(sink.capacity(), Some(4));
        for at in 0..100u64 {
            sink.emit(
                at,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0),
                },
            );
            let len = sink.timeline().len();
            assert!(len <= 8, "batched eviction bounds the buffer: {len}");
            // The newest record is always retained…
            assert_eq!(sink.timeline().entries().last().unwrap().at, at);
            // …and so are at least the last min(at+1, 4) records.
            let kept = sink.timeline().entries().len() as u64;
            assert!(kept >= (at + 1).min(4), "kept only {kept} at {at}");
        }
        // Order is preserved across evictions.
        let ats: Vec<u64> = sink.timeline().entries().iter().map(|r| r.at).collect();
        assert!(ats.windows(2).all(|w| w[0] + 1 == w[1]));
        // Nothing vanishes silently: held + dropped = emitted.
        assert_eq!(sink.dropped_events() + sink.timeline().len() as u64, 100);
        assert!(sink.dropped_events() > 0);

        // Capacity 0 records nothing; unbounded keeps everything.
        let mut none = TimelineSink::with_capacity(0);
        none.emit(
            0,
            &Event::ForecastRetracted {
                task: 0,
                si: SiId(0),
            },
        );
        assert!(none.timeline().is_empty());
        assert_eq!(none.dropped_events(), 1);
        assert_eq!(TimelineSink::new().capacity(), None);
        assert_eq!(TimelineSink::new().dropped_events(), 0);
    }

    #[test]
    fn display_renders_every_record() {
        let s = sample().to_string();
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("task0"));
        assert!(s.contains("HW 20cyc"));
        assert!(s.contains("rotation done"));
    }
}
