//! Container-occupancy waveforms: the rendering behind the paper's
//! Fig. 6, where each Atom Container is a row and time runs to the right.
//!
//! The occupancy history is reconstructed from the timeline's rotation
//! events: a container is *loading* between `RotationStarted` and
//! `RotationCompleted`, holds the written Atom afterwards, and its
//! previous content disappears at the rotation start (matching the fabric
//! semantics). A failed rotation (`RotationFailed`) or a fault that
//! destroys the Atom (`ContainerEvicted`) leaves the container empty; an
//! overwrite's eviction is followed in the same cycle by its
//! `RotationStarted`, so it never shows. Because the [`Timeline`] can
//! come from a replayed JSONL export just as well as from a live run, the
//! same renderer serves both.

use rispp_core::atom::{AtomKind, AtomSet};
use rispp_obs::{Event, Timeline};

/// Occupancy of one container during one time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occupancy {
    /// Nothing loaded: not yet, or the last rotation failed, or a fault
    /// evicted the Atom.
    Empty,
    /// A rotation is writing this Atom.
    Loading(AtomKind),
    /// The Atom is usable.
    Loaded(AtomKind),
}

/// One container's occupancy timeline: `(from_cycle, occupancy)` change
/// points, in time order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainerTimeline {
    /// Change points; the occupancy holds until the next entry.
    pub changes: Vec<(u64, Occupancy)>,
}

impl ContainerTimeline {
    /// Occupancy at a given cycle.
    #[must_use]
    pub fn at(&self, cycle: u64) -> Occupancy {
        let mut current = Occupancy::Empty;
        for &(t, occ) in &self.changes {
            if t > cycle {
                break;
            }
            current = occ;
        }
        current
    }
}

/// Reconstructs per-container occupancy timelines from an event timeline.
#[must_use]
pub fn container_timelines(timeline: &Timeline, containers: usize) -> Vec<ContainerTimeline> {
    let mut timelines = vec![ContainerTimeline::default(); containers];
    for record in timeline.entries() {
        let (container, occupancy) = match record.event {
            Event::RotationStarted { container, kind } => (container, Occupancy::Loading(kind)),
            Event::RotationCompleted { container, kind } => (container, Occupancy::Loaded(kind)),
            Event::RotationFailed { container, .. } | Event::ContainerEvicted { container, .. } => {
                (container, Occupancy::Empty)
            }
            _ => continue,
        };
        if let Some(t) = timelines.get_mut(container as usize) {
            t.changes.push((record.at, occupancy));
        }
    }
    timelines
}

/// Renders the Fig. 6-style ASCII waveform: one row per container,
/// `columns` samples across `[0, end]`. Loaded Atoms print their name's
/// first letter, loading prints it lower-case, empty prints `.`.
#[must_use]
pub fn render_waveform(
    timeline: &Timeline,
    atoms: &AtomSet,
    containers: usize,
    end: u64,
    columns: usize,
) -> String {
    assert!(columns > 0, "need at least one column");
    let timelines = container_timelines(timeline, containers);
    let letter = |kind: AtomKind, upper: bool| {
        let c = atoms.name(kind).chars().next().unwrap_or('?');
        if upper {
            c.to_ascii_uppercase()
        } else {
            c.to_ascii_lowercase()
        }
    };
    let mut out = String::new();
    for (i, timeline) in timelines.iter().enumerate() {
        out.push_str(&format!("AC{i}: "));
        for col in 0..columns {
            let cycle = end * col as u64 / columns as u64;
            let ch = match timeline.at(cycle) {
                Occupancy::Empty => '.',
                Occupancy::Loading(k) => letter(k, false),
                Occupancy::Loaded(k) => letter(k, true),
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::h264_fabric;
    use crate::spec::{Scenario, ShardSpec, SinkSpec};
    use rispp_core::atom::AtomKind;
    use rispp_h264::si_library::atom_set;

    fn traced_run() -> (Timeline, u64) {
        let out = ShardSpec::new(Scenario::Fig6, 0)
            .with_sink(SinkSpec::Timeline)
            .run();
        (out.timeline.expect("timeline captured"), out.sim_cycles)
    }

    #[test]
    fn failed_rotations_and_fault_evictions_leave_the_container_empty() {
        let (a, b) = (AtomKind(0), AtomKind(1));
        let started = |container, kind| Event::RotationStarted { container, kind };
        let completed = |container, kind| Event::RotationCompleted { container, kind };
        let failed = |container, kind| Event::RotationFailed { container, kind };
        let evicted = |container, kind| Event::ContainerEvicted { container, kind };
        let mut timeline = Timeline::new();
        for (at, event) in [
            // AC0 loads A, then a fault evicts it; AC1's rotation of B
            // fails.
            (10, started(0, a)),
            (20, completed(0, a)),
            (20, started(1, b)),
            (30, evicted(0, a)),
            (40, failed(1, b)),
            // AC0 reloads A; an overwrite evicts it and starts B in one
            // cycle.
            (50, started(0, a)),
            (60, completed(0, a)),
            (70, evicted(0, a)),
            (70, started(0, b)),
        ] {
            timeline.push(at, event);
        }
        let containers = container_timelines(&timeline, 2);
        let (ac0, ac1) = (&containers[0], &containers[1]);
        assert_eq!(ac0.at(25), Occupancy::Loaded(a));
        assert_eq!(ac0.at(30), Occupancy::Empty);
        assert_eq!(ac0.at(65), Occupancy::Loaded(a));
        assert_eq!(ac0.at(70), Occupancy::Loading(b));
        assert_eq!(ac1.at(30), Occupancy::Loading(b));
        assert_eq!(ac1.at(40), Occupancy::Empty);
        assert_eq!(ac1.at(u64::MAX), Occupancy::Empty);
    }

    #[test]
    fn timelines_follow_rotation_events() {
        let (trace, _) = traced_run();
        let timelines = container_timelines(&trace, 6);
        assert_eq!(timelines.len(), 6);
        // At time 0 everything is empty or just starting to load.
        for t in &timelines {
            assert!(matches!(t.at(0), Occupancy::Empty | Occupancy::Loading(_)));
        }
        // Something eventually gets loaded.
        let loaded_any = timelines
            .iter()
            .any(|t| matches!(t.at(u64::MAX), Occupancy::Loaded(_)));
        assert!(loaded_any);
    }

    #[test]
    fn occupancy_transitions_are_loading_then_loaded() {
        let (trace, _) = traced_run();
        for t in container_timelines(&trace, 6) {
            let mut prev: Option<Occupancy> = None;
            for &(_, occ) in &t.changes {
                if let (Some(Occupancy::Loading(k)), Occupancy::Loaded(k2)) = (prev, occ) {
                    assert_eq!(k, k2, "completed a different atom than started");
                }
                prev = Some(occ);
            }
        }
    }

    #[test]
    fn waveform_renders_one_row_per_container() {
        let (trace, end) = traced_run();
        let art = render_waveform(&trace, &atom_set(), 6, end, 64);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.len() == 64 + 5)); // "ACi: " prefix
                                                          // The steady state contains loaded atoms (upper-case letters).
        assert!(art.chars().any(|c| c.is_ascii_uppercase()));
    }

    #[test]
    fn empty_trace_renders_dots() {
        let fabric = h264_fabric(2);
        let art = render_waveform(&Timeline::new(), fabric.atoms(), 2, 100, 8);
        assert_eq!(art, "AC0: ........\nAC1: ........\n");
    }
}
