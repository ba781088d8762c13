//! The [`CountersSink`]: per-SI execution and forecast-monitoring
//! counters folded from the event stream (the paper's run-time task (a),
//! "monitoring FCs and SIs"), plus the number of rotations that started.
//!
//! Run-level totals (rotations completed or failed, port stalls,
//! container loads and evictions, re-selections) are read from a
//! `MetricsSink` or a `Timeline`; this sink answers questions about one SI.

use std::collections::BTreeMap;

use rispp_core::si::SiId;

use crate::event::Event;
use crate::sink::EventSink;

/// Per-SI execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiCounters {
    /// Hardware executions.
    pub hw_executions: u64,
    /// Software executions.
    pub sw_executions: u64,
    /// Total cycles spent in this SI.
    pub cycles: u64,
    /// Cycles spent in hardware Molecules (subset of `cycles`).
    pub hw_cycles: u64,
}

impl SiCounters {
    /// Cycles spent in the software Molecule.
    #[must_use]
    pub fn sw_cycles(&self) -> u64 {
        self.cycles - self.hw_cycles
    }
}

/// Per-SI forecast monitoring counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FcCounters {
    /// Forecasts announced for this SI (over all tasks).
    pub issued: u64,
    /// Negative forecasts (retractions).
    pub retracted: u64,
    /// Monitored outcomes where the SI was actually reached.
    pub hits: u64,
    /// Monitored outcomes where it was not.
    pub misses: u64,
}

impl FcCounters {
    /// Fraction of monitored outcomes that were hits (`None` before any
    /// outcome was recorded).
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Aggregating sink: per-SI counters, no per-event storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountersSink {
    per_si: BTreeMap<usize, SiCounters>,
    fc: BTreeMap<usize, FcCounters>,
    rotations_started: u64,
}

impl CountersSink {
    /// Creates an empty counters sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Execution counters of one SI (zeroed default when never seen).
    #[must_use]
    pub fn si(&self, si: SiId) -> SiCounters {
        self.per_si.get(&si.index()).copied().unwrap_or_default()
    }

    /// Forecast counters of one SI (zeroed default when never seen).
    #[must_use]
    pub fn fc(&self, si: SiId) -> FcCounters {
        self.fc.get(&si.index()).copied().unwrap_or_default()
    }

    /// Rotations that started ([`Event::RotationStarted`]).
    #[must_use]
    pub fn rotations_started(&self) -> u64 {
        self.rotations_started
    }

    /// Folds another sink's counters into this one, as if every event
    /// emitted into `other` had been emitted here instead: per-SI
    /// counters add SI by SI, saturating at `u64::MAX` as [`emit`] does.
    /// Associative and commutative, so fleet shards can be folded in any
    /// order.
    ///
    /// [`emit`]: EventSink::emit
    pub fn merge(&mut self, other: &Self) {
        for (si, theirs) in &other.per_si {
            let mine = self.per_si.entry(*si).or_default();
            mine.hw_executions = mine.hw_executions.saturating_add(theirs.hw_executions);
            mine.sw_executions = mine.sw_executions.saturating_add(theirs.sw_executions);
            mine.cycles = mine.cycles.saturating_add(theirs.cycles);
            mine.hw_cycles = mine.hw_cycles.saturating_add(theirs.hw_cycles);
        }
        for (si, theirs) in &other.fc {
            let mine = self.fc.entry(*si).or_default();
            mine.issued = mine.issued.saturating_add(theirs.issued);
            mine.retracted = mine.retracted.saturating_add(theirs.retracted);
            mine.hits = mine.hits.saturating_add(theirs.hits);
            mine.misses = mine.misses.saturating_add(theirs.misses);
        }
        self.rotations_started = self
            .rotations_started
            .saturating_add(other.rotations_started);
    }
}

impl EventSink for CountersSink {
    fn emit(&mut self, _at: u64, event: &Event) {
        match event {
            Event::RotationStarted { .. } => self.rotations_started += 1,
            Event::SiExecuted { si, hw, cycles, .. } => {
                let c = self.per_si.entry(si.index()).or_default();
                // A foreign log may carry any cycle count: the sums
                // saturate instead of overflowing.
                if *hw {
                    c.hw_executions += 1;
                    c.hw_cycles = c.hw_cycles.saturating_add(*cycles);
                } else {
                    c.sw_executions += 1;
                }
                c.cycles = c.cycles.saturating_add(*cycles);
            }
            Event::ForecastUpdated { si, .. } => {
                self.fc.entry(si.index()).or_default().issued += 1;
            }
            Event::ForecastRetracted { si, .. } => {
                self.fc.entry(si.index()).or_default().retracted += 1;
            }
            Event::FcOutcome { si, reached, .. } => {
                let c = self.fc.entry(si.index()).or_default();
                if *reached {
                    c.hits += 1;
                } else {
                    c.misses += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReselectTrigger;
    use rispp_core::atom::AtomKind;

    #[test]
    fn counters_aggregate_every_event_kind() {
        let mut sink = CountersSink::new();
        let si = SiId(3);
        sink.emit(
            0,
            &Event::ForecastUpdated {
                task: 0,
                si,
                probability: 1.0,
                expected_executions: 10.0,
            },
        );
        sink.emit(
            1,
            &Event::RotationStarted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            2,
            &Event::SiExecuted {
                task: 0,
                si,
                hw: false,
                cycles: 500,
                molecule: None,
            },
        );
        sink.emit(
            3,
            &Event::RotationCompleted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            4,
            &Event::SiExecuted {
                task: 0,
                si,
                hw: true,
                cycles: 20,
                molecule: None,
            },
        );
        sink.emit(
            5,
            &Event::FcOutcome {
                task: 0,
                si,
                reached: true,
            },
        );
        sink.emit(
            6,
            &Event::FcOutcome {
                task: 0,
                si,
                reached: false,
            },
        );
        sink.emit(7, &Event::ForecastRetracted { task: 0, si });
        sink.emit(
            8,
            &Event::Reselect {
                trigger: ReselectTrigger::Retract,
            },
        );
        sink.emit(
            9,
            &Event::UpgradeStep {
                si,
                task: Some(0),
                step: 0,
                molecule: rispp_core::molecule::Molecule::from_counts([1, 0]),
            },
        );
        sink.emit(
            10,
            &Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            11,
            &Event::ContainerEvicted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            12,
            &Event::RotationFailed {
                container: 1,
                kind: AtomKind(0),
            },
        );
        sink.emit(13, &Event::PortStalled { until: 99 });
        sink.emit(14, &Event::ContainerQuarantined { container: 1 });

        let s = sink.si(si);
        assert_eq!(s.hw_executions, 1);
        assert_eq!(s.sw_executions, 1);
        assert_eq!(s.cycles, 520);
        assert_eq!(s.hw_cycles, 20);
        assert_eq!(s.sw_cycles(), 500);

        let fc = sink.fc(si);
        assert_eq!((fc.issued, fc.retracted, fc.hits, fc.misses), (1, 1, 1, 1));
        assert_eq!(fc.hit_rate(), Some(0.5));
        assert_eq!(sink.rotations_started(), 1);
        // Unseen SIs read as zeroed counters.
        assert_eq!(sink.si(SiId(9)).cycles, 0);
    }

    #[test]
    fn counters_merge_matches_the_single_sink_oracle() {
        // Splitting an event stream across two sinks and merging must be
        // indistinguishable from one sink that saw every event.
        let stream = [
            Event::SiExecuted {
                task: 0,
                si: SiId(0),
                hw: true,
                cycles: 20,
                molecule: None,
            },
            Event::SiExecuted {
                task: 1,
                si: SiId(1),
                hw: false,
                cycles: 900,
                molecule: None,
            },
            Event::ForecastUpdated {
                task: 0,
                si: SiId(0),
                probability: 0.5,
                expected_executions: 4.0,
            },
            Event::RotationStarted {
                container: 0,
                kind: AtomKind(0),
            },
            Event::RotationCompleted {
                container: 0,
                kind: AtomKind(0),
            },
            Event::Reselect {
                trigger: ReselectTrigger::Retract,
            },
            Event::ForecastRetracted {
                task: 0,
                si: SiId(0),
            },
            Event::SiExecuted {
                task: 0,
                si: SiId(0),
                hw: false,
                cycles: 480,
                molecule: None,
            },
        ];
        let (mut a, mut b, mut oracle) = (
            CountersSink::new(),
            CountersSink::new(),
            CountersSink::new(),
        );
        for (at, e) in stream.iter().enumerate() {
            oracle.emit(at as u64, e);
            if at % 2 == 0 {
                a.emit(at as u64, e);
            } else {
                b.emit(at as u64, e);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, oracle);
        // Commutative: the reverse fold sees the same events.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, oracle);
        // Merging an empty sink is the identity.
        ab.merge(&CountersSink::new());
        assert_eq!(ab, oracle);
        // Spot-check merged per-SI counters.
        let s = ab.si(SiId(0));
        assert_eq!((s.hw_executions, s.sw_executions, s.cycles), (1, 1, 500));
        assert_eq!(ab.fc(SiId(0)).issued, 1);
    }

    #[test]
    fn cycle_sums_saturate_live_and_after_merge() {
        let exec = |hw| Event::SiExecuted {
            task: 0,
            si: SiId(0),
            hw,
            cycles: u64::MAX,
            molecule: None,
        };
        let mut live = CountersSink::new();
        live.emit(0, &exec(true));
        live.emit(1, &exec(true));
        live.emit(2, &exec(false));
        let c = live.si(SiId(0));
        assert_eq!((c.cycles, c.hw_cycles), (u64::MAX, u64::MAX));
        assert_eq!((c.hw_executions, c.sw_executions), (2, 1));
        assert_eq!(c.sw_cycles(), 0);

        let mut merged = live.clone();
        merged.merge(&live);
        let c = merged.si(SiId(0));
        assert_eq!((c.cycles, c.hw_cycles), (u64::MAX, u64::MAX));
        assert_eq!((c.hw_executions, c.sw_executions), (4, 2));
    }
}
