//! Chrome-trace-event export: renders a [`Timeline`] into the JSON the
//! Perfetto UI and `chrome://tracing` load directly.
//!
//! Track mapping (one simulated cycle = 1 µs of trace time):
//!
//! * **pid 1 — "fabric containers"**: one thread per Atom Container
//!   (`AC0`, `AC1`, …). Atom residency renders as a `ph:"X"` span from
//!   [`Event::ContainerLoaded`] to [`Event::ContainerEvicted`] named
//!   after the Atom; each rotation renders as a `rotate <atom>` span
//!   from [`Event::RotationStarted`] to its completion or failure, with
//!   the outcome in `args`. Quarantines appear as instant events.
//! * **pid 2 — "tasks"**: one thread per task;
//!   [`Event::SiExecuted`] renders as a slice of `cycles` µs named
//!   after the SI, `args.hw` telling hardware from software fallback.
//! * **pid 1 counter tracks**: `occupancy` (containers holding a usable
//!   Atom) and `bus_busy` (the single reconfiguration port), updated on
//!   every transition — the paper's Fig. 6 occupancy ribbon as a
//!   Perfetto counter.
//!
//! Spans still open when the timeline ends are closed at its final
//! timestamp, so a truncated capture still loads.

use std::fmt::Write as _;

use crate::event::Event;
use crate::timeline::Timeline;

/// Names and shape used when rendering a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Atom names indexed by [`AtomKind`](rispp_core::atom::AtomKind)
    /// index; kinds beyond the list render as `atom#N`.
    pub atom_names: Vec<String>,
    /// Number of container threads to declare up front (grown on demand
    /// when the timeline mentions a higher container index).
    pub containers: usize,
}

impl TraceConfig {
    /// A config with explicit atom names and container count.
    #[must_use]
    pub fn new(atom_names: Vec<String>, containers: usize) -> Self {
        TraceConfig {
            atom_names,
            containers,
        }
    }

    /// Derives the container count from the highest container index the
    /// timeline mentions (atom names stay generic).
    #[must_use]
    pub fn infer(timeline: &Timeline) -> Self {
        let mut containers = 0usize;
        for r in timeline.entries() {
            let c = match r.event {
                Event::RotationStarted { container, .. }
                | Event::RotationCompleted { container, .. }
                | Event::RotationFailed { container, .. }
                | Event::ContainerQuarantined { container }
                | Event::ContainerLoaded { container, .. }
                | Event::ContainerEvicted { container, .. } => Some(container),
                _ => None,
            };
            if let Some(c) = c {
                containers = containers.max(c as usize + 1);
            }
        }
        TraceConfig {
            atom_names: Vec::new(),
            containers,
        }
    }

    fn atom_name(&self, index: usize) -> String {
        self.atom_names
            .get(index)
            .cloned()
            .unwrap_or_else(|| format!("atom#{index}"))
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

const PID_FABRIC: u32 = 1;
const PID_TASKS: u32 = 2;

/// Accumulates trace events as rendered JSON objects.
struct TraceWriter {
    events: Vec<String>,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter { events: Vec::new() }
    }

    fn meta(&mut self, pid: u32, tid: Option<u32>, what: &str, name: &str) {
        let tid_field = match tid {
            Some(t) => format!(",\"tid\":{t}"),
            None => String::new(),
        };
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid}{tid_field},\"name\":\"{what}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    fn complete(&mut self, pid: u32, tid: u32, ts: u64, dur: u64, name: &str, args: &str) {
        let args_field = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{}\"{args_field}}}",
            json_escape(name)
        ));
    }

    fn instant(&mut self, pid: u32, tid: u32, ts: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{}\"}}",
            json_escape(name)
        ));
    }

    fn counter(&mut self, pid: u32, ts: u64, name: &str, value: u64) {
        self.events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"name\":\"{name}\",\
             \"args\":{{\"value\":{value}}}}}"
        ));
    }
}

/// Renders a timeline as a Chrome trace JSON object
/// (`{"displayTimeUnit":…, "traceEvents":[…]}`) that the Perfetto UI
/// loads directly. See the module docs for the track mapping.
#[must_use]
pub fn render_chrome_trace(timeline: &Timeline, config: &TraceConfig) -> String {
    let mut w = TraceWriter::new();
    let end = timeline.entries().last().map(|r| r.at).unwrap_or(0);

    // Open spans per container: (start, name, args) for residency and
    // rotations — each container has at most one of each in flight.
    let mut containers = config.containers;
    for r in timeline.entries() {
        if let Event::RotationStarted { container, .. }
        | Event::RotationCompleted { container, .. }
        | Event::RotationFailed { container, .. }
        | Event::ContainerQuarantined { container }
        | Event::ContainerLoaded { container, .. }
        | Event::ContainerEvicted { container, .. } = r.event
        {
            containers = containers.max(container as usize + 1);
        }
    }

    w.meta(PID_FABRIC, None, "process_name", "fabric containers");
    for c in 0..containers {
        w.meta(PID_FABRIC, Some(c as u32), "thread_name", &format!("AC{c}"));
    }
    w.meta(PID_TASKS, None, "process_name", "tasks");

    let mut residency: Vec<Option<(u64, String)>> = vec![None; containers];
    let mut rotation: Vec<Option<(u64, String)>> = vec![None; containers];
    let mut loaded = vec![false; containers];
    let mut occupancy = 0u64;
    let mut task_tids: Vec<u32> = Vec::new();

    w.counter(PID_FABRIC, 0, "occupancy", 0);
    w.counter(PID_FABRIC, 0, "bus_busy", 0);

    for r in timeline.entries() {
        let at = r.at;
        match &r.event {
            Event::RotationStarted { container, kind } => {
                let c = *container as usize;
                rotation[c] = Some((at, config.atom_name(kind.index())));
                w.counter(PID_FABRIC, at, "bus_busy", 1);
            }
            Event::RotationCompleted { container, .. }
            | Event::RotationFailed { container, .. } => {
                let c = *container as usize;
                let outcome = if matches!(r.event, Event::RotationCompleted { .. }) {
                    "completed"
                } else {
                    "failed"
                };
                if let Some((start, atom)) = rotation[c].take() {
                    w.complete(
                        PID_FABRIC,
                        c as u32,
                        start,
                        at.saturating_sub(start),
                        &format!("rotate {atom}"),
                        &format!("\"outcome\":\"{outcome}\""),
                    );
                }
                w.counter(PID_FABRIC, at, "bus_busy", 0);
            }
            Event::ContainerLoaded { container, kind } => {
                let c = *container as usize;
                residency[c] = Some((at, config.atom_name(kind.index())));
                if !loaded[c] {
                    loaded[c] = true;
                    occupancy += 1;
                    w.counter(PID_FABRIC, at, "occupancy", occupancy);
                }
            }
            Event::ContainerEvicted { container, .. } => {
                let c = *container as usize;
                if let Some((start, atom)) = residency[c].take() {
                    w.complete(
                        PID_FABRIC,
                        c as u32,
                        start,
                        at.saturating_sub(start),
                        &atom,
                        "",
                    );
                }
                if loaded[c] {
                    loaded[c] = false;
                    occupancy = occupancy.saturating_sub(1);
                    w.counter(PID_FABRIC, at, "occupancy", occupancy);
                }
            }
            Event::ContainerQuarantined { container } => {
                w.instant(PID_FABRIC, *container, at, "quarantined");
            }
            Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                ..
            } => {
                if !task_tids.contains(task) {
                    task_tids.push(*task);
                    w.meta(
                        PID_TASKS,
                        Some(*task),
                        "thread_name",
                        &format!("task{task}"),
                    );
                }
                w.complete(
                    PID_TASKS,
                    *task,
                    at,
                    *cycles,
                    &format!("{si}"),
                    &format!("\"hw\":{hw}"),
                );
            }
            _ => {}
        }
    }

    // Close anything still open at the end of the capture.
    for (c, open) in residency.iter_mut().enumerate() {
        if let Some((start, atom)) = open.take() {
            w.complete(
                PID_FABRIC,
                c as u32,
                start,
                end.saturating_sub(start),
                &atom,
                "",
            );
        }
    }
    for (c, open) in rotation.iter_mut().enumerate() {
        if let Some((start, atom)) = open.take() {
            w.complete(
                PID_FABRIC,
                c as u32,
                start,
                end.saturating_sub(start),
                &format!("rotate {atom}"),
                "\"outcome\":\"in-flight\"",
            );
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in w.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::AtomKind;
    use rispp_core::si::SiId;

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.push(
            0,
            Event::RotationStarted {
                container: 1,
                kind: AtomKind(0),
            },
        );
        t.push(
            100,
            Event::RotationCompleted {
                container: 1,
                kind: AtomKind(0),
            },
        );
        t.push(
            100,
            Event::ContainerLoaded {
                container: 1,
                kind: AtomKind(0),
            },
        );
        t.push(
            120,
            Event::SiExecuted {
                task: 3,
                si: SiId(2),
                hw: true,
                cycles: 40,
                molecule: None,
            },
        );
        t.push(
            200,
            Event::ContainerEvicted {
                container: 1,
                kind: AtomKind(0),
            },
        );
        t.push(
            210,
            Event::RotationStarted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        t.push(250, Event::ContainerQuarantined { container: 2 });
        t
    }

    #[test]
    fn renders_container_task_and_counter_tracks() {
        let config = TraceConfig::new(vec!["QSub4".to_string(), "SAV".to_string()], 3);
        let trace = render_chrome_trace(&sample(), &config);
        // Residency span with the Atom's name and the rotation span.
        assert!(trace.contains(
            "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,\"dur\":100,\"name\":\"QSub4\""
        ));
        assert!(trace.contains("\"name\":\"rotate QSub4\""));
        assert!(trace.contains("\"outcome\":\"completed\""));
        // SI slice on the task track.
        assert!(trace
            .contains("\"ph\":\"X\",\"pid\":2,\"tid\":3,\"ts\":120,\"dur\":40,\"name\":\"si#2\""));
        assert!(trace.contains("\"hw\":true"));
        // Counter tracks move on the transitions.
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("\"name\":\"occupancy\""));
        assert!(trace.contains("\"name\":\"bus_busy\""));
        // One thread-name metadata record per declared container.
        for c in 0..3 {
            assert!(trace.contains(&format!("\"args\":{{\"name\":\"AC{c}\"}}")));
        }
        // The in-flight rotation on AC0 is closed at the end timestamp.
        assert!(trace.contains("\"outcome\":\"in-flight\""));
        assert!(trace.contains("\"name\":\"quarantined\""));
    }

    #[test]
    fn infer_counts_containers_and_names_fall_back() {
        let config = TraceConfig::infer(&sample());
        assert_eq!(config.containers, 3);
        let trace = render_chrome_trace(&sample(), &config);
        assert!(trace.contains("\"name\":\"atom#0\""));
    }

    #[test]
    fn empty_timeline_is_still_valid_and_names_are_escaped() {
        let trace = render_chrome_trace(&Timeline::new(), &TraceConfig::default());
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.trim_end().ends_with("]}"));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
