//! Chaos harness: the paper's scenarios under deterministic fault
//! injection, with invariant checkers over the resulting event timeline.
//!
//! A chaos run installs a seeded [`FaultPlan`] on the fabric, replays a
//! known scenario (the Fig. 6 two-task story, or the live H.264 encoder)
//! and then audits the recorded [`Timeline`] against the invariants the
//! degradation machinery must preserve *under any fault schedule*:
//!
//! * **Monotone time** — event timestamps never go backwards.
//! * **Occupancy pairing** — per container, [`Event::ContainerLoaded`]
//!   and [`Event::ContainerEvicted`] strictly alternate (faults evict,
//!   they never double-load).
//! * **Upgrade ladder** — every hardware [`Event::SiExecuted`] uses a
//!   Molecule covered by the Atoms loaded *at that instant*, as replayed
//!   from the occupancy events alone.
//! * **Spans resolve** — every forecast span closes and saw a reselect.
//! * **Fault recovery** — every [`Event::RotationFailed`] is followed by
//!   a successful rotation of the same Atom kind or by a software
//!   execution of an SI that wanted it: a fault always degrades, it
//!   never strands.
//!
//! Functional outputs stay **bit-exact**: faults cost cycles, never
//! correctness. The codec runner's encoded bits and PSNR under any plan
//! must equal the fault-free run's, and the Fig. 6 scenario must execute
//! exactly the same SI stream.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use rispp_core::atom::AtomKind;
use rispp_core::si::{SiId, SiLibrary};
use rispp_fabric::FaultPlan;
use rispp_obs::{Event, EventSink, SinkHandle, SpanBuilder, Timeline, TimelineSink};

use crate::codec_runner::CodecRunOutcome;
use crate::spec::{Scenario, ShardSpec, SinkSpec};

/// The audit result of one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Scenario name (`"fig6"`, `"codec"`, …).
    pub scenario: String,
    /// The installed fault plan, in its compact text form.
    pub plan: String,
    /// End-of-run cycle.
    pub end: u64,
    /// `RotationFailed` events observed.
    pub rotation_failures: usize,
    /// `PortStalled` events observed.
    pub port_stalls: usize,
    /// `ContainerQuarantined` events observed.
    pub quarantined: usize,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// `true` when no invariant was violated.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Audits a timeline: counts the fault events and runs every checker.
    #[must_use]
    pub fn from_timeline(
        scenario: &str,
        plan: &FaultPlan,
        timeline: &Timeline,
        lib: &SiLibrary,
        end: u64,
    ) -> Self {
        let mut rotation_failures = 0;
        let mut port_stalls = 0;
        let mut quarantined = 0;
        for r in timeline.entries() {
            match r.event {
                Event::RotationFailed { .. } => rotation_failures += 1,
                Event::PortStalled { .. } => port_stalls += 1,
                Event::ContainerQuarantined { .. } => quarantined += 1,
                _ => {}
            }
        }
        ChaosReport {
            scenario: scenario.to_owned(),
            plan: plan.to_string(),
            end,
            rotation_failures,
            port_stalls,
            quarantined,
            violations: check_invariants(timeline, lib),
        }
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: plan [{}] -> {} failures, {} stalls, {} quarantined, end {}",
            self.scenario,
            self.plan,
            self.rotation_failures,
            self.port_stalls,
            self.quarantined,
            self.end
        )?;
        if self.violations.is_empty() {
            write!(f, "  all invariants held")
        } else {
            for v in &self.violations {
                writeln!(f, "  VIOLATION: {v}")?;
            }
            write!(f, "  {} violation(s)", self.violations.len())
        }
    }
}

/// Runs every invariant checker and concatenates the violations.
#[must_use]
pub fn check_invariants(timeline: &Timeline, lib: &SiLibrary) -> Vec<String> {
    let mut v = check_monotone_time(timeline);
    v.extend(check_occupancy_pairing(timeline));
    v.extend(check_upgrade_ladder(timeline, lib.width()));
    v.extend(check_spans_resolve(timeline));
    v.extend(check_fault_recovery(timeline, lib));
    v
}

/// Event timestamps never decrease.
#[must_use]
pub fn check_monotone_time(timeline: &Timeline) -> Vec<String> {
    let mut violations = Vec::new();
    let mut last = 0u64;
    for r in timeline.entries() {
        if r.at < last {
            violations.push(format!(
                "time went backwards: {} after {last} ({:?})",
                r.at, r.event
            ));
        }
        last = last.max(r.at);
    }
    violations
}

/// Per container, `ContainerLoaded` / `ContainerEvicted` strictly
/// alternate, starting with a load, with matching Atom kinds.
#[must_use]
pub fn check_occupancy_pairing(timeline: &Timeline) -> Vec<String> {
    let mut violations = Vec::new();
    let mut holding: BTreeMap<u32, AtomKind> = BTreeMap::new();
    for r in timeline.entries() {
        match r.event {
            Event::ContainerLoaded { container, kind } => {
                if let Some(prev) = holding.insert(container, kind) {
                    violations.push(format!(
                        "AC{container} loaded {kind} at {} while still holding {prev} \
                         (missing eviction)",
                        r.at
                    ));
                }
            }
            Event::ContainerEvicted { container, kind } => match holding.remove(&container) {
                Some(held) if held == kind => {}
                Some(held) => violations.push(format!(
                    "AC{container} evicted {kind} at {} but held {held}",
                    r.at
                )),
                None => violations.push(format!(
                    "AC{container} evicted {kind} at {} while empty",
                    r.at
                )),
            },
            _ => {}
        }
    }
    violations
}

/// Every hardware execution's Molecule is covered by the Atom multiset
/// loaded at that instant, as replayed from the occupancy events.
#[must_use]
pub fn check_upgrade_ladder(timeline: &Timeline, width: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let mut loaded = vec![0u32; width];
    for r in timeline.entries() {
        match &r.event {
            Event::ContainerLoaded { kind, .. } => {
                if let Some(n) = loaded.get_mut(kind.index()) {
                    *n += 1;
                }
            }
            Event::ContainerEvicted { kind, .. } => {
                if let Some(n) = loaded.get_mut(kind.index()) {
                    *n = n.saturating_sub(1);
                }
            }
            Event::SiExecuted {
                hw: true,
                molecule: Some(m),
                si,
                ..
            } => {
                let covered = m
                    .iter_nonzero()
                    .all(|(k, need)| loaded.get(k.index()).copied().unwrap_or(0) >= need);
                if !covered {
                    violations.push(format!(
                        "SI{} executed molecule {m} at {} beyond the loaded atoms",
                        si.index(),
                        r.at
                    ));
                }
            }
            _ => {}
        }
    }
    violations
}

/// Every forecast span closes, and every forecast triggered a reselect.
#[must_use]
pub fn check_spans_resolve(timeline: &Timeline) -> Vec<String> {
    let mut builder = SpanBuilder::new();
    for r in timeline.entries() {
        builder.emit(r.at, &r.event);
    }
    builder.finish();
    let mut violations = Vec::new();
    for span in builder.spans() {
        if span.closed.is_none() {
            violations.push(format!(
                "span of task {} SI{} (forecast at {}) never closed",
                span.task,
                span.si.index(),
                span.forecast_at
            ));
        }
        if span.reselect_at.is_none() {
            violations.push(format!(
                "forecast of task {} SI{} at {} never triggered a reselect",
                span.task,
                span.si.index(),
                span.forecast_at
            ));
        }
    }
    violations
}

/// Every `RotationFailed` is eventually answered: a later successful
/// rotation of the same Atom kind (the retry worked), or a later
/// *software* execution of an SI that wanted that kind (the manager
/// degraded gracefully instead of stranding the SI).
#[must_use]
pub fn check_fault_recovery(timeline: &Timeline, lib: &SiLibrary) -> Vec<String> {
    let entries = timeline.entries();
    let mut violations = Vec::new();
    for (i, r) in entries.iter().enumerate() {
        let Event::RotationFailed { kind, container } = r.event else {
            continue;
        };
        let recovered = entries[i + 1..].iter().any(|later| match &later.event {
            Event::RotationCompleted { kind: k, .. } => *k == kind,
            Event::SiExecuted { hw: false, si, .. } => si_uses_kind(lib, *si, kind),
            _ => false,
        });
        if !recovered {
            violations.push(format!(
                "rotation of {kind} into AC{container} failed at {} with no retry \
                 success and no software fallback afterwards",
                r.at
            ));
        }
    }
    violations
}

fn si_uses_kind(lib: &SiLibrary, si: SiId, kind: AtomKind) -> bool {
    lib.try_get(si)
        .is_some_and(|def| def.molecules().iter().any(|m| m.molecule.count(kind) > 0))
}

/// Per-`(task, si)` execution counts — the functional fingerprint of a
/// scenario run. Latencies legitimately change under faults; the executed
/// SI stream must not.
#[must_use]
pub fn execution_counts(timeline: &Timeline) -> Vec<((u32, usize), u64)> {
    let mut counts: BTreeMap<(u32, usize), u64> = BTreeMap::new();
    for r in timeline.entries() {
        if let Event::SiExecuted { task, si, .. } = r.event {
            *counts.entry((task, si.index())).or_default() += 1;
        }
    }
    counts.into_iter().collect()
}

/// One audited Fig. 6 chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6ChaosOutcome {
    /// The invariant audit.
    pub report: ChaosReport,
    /// Per-`(task, si)` execution counts (compare against the fault-free
    /// run's to prove the SI stream is unchanged).
    pub exec_counts: Vec<((u32, usize), u64)>,
}

/// Runs the Fig. 6 scenario under `plan` and audits the timeline. Pass
/// [`FaultPlan::none`] for the fault-free baseline; `export` receives
/// every event beside the audited timeline (e.g. a
/// [`JsonlSink`](rispp_obs::JsonlSink)).
#[must_use]
pub fn run_fig6_chaos(plan: &FaultPlan, export: Option<SinkHandle>) -> Fig6ChaosOutcome {
    let timeline = Rc::new(RefCell::new(TimelineSink::new()));
    let sink = SinkHandle::tee(
        SinkHandle::shared(timeline.clone()),
        export.unwrap_or_else(SinkHandle::null),
    );
    let (mut engine, _sis) = ShardSpec::new(Scenario::Fig6, 0)
        .with_faults(plan.clone())
        .build_fig6(sink);
    let end = engine.run(100_000);
    let lib = engine.manager().library();
    let timeline = timeline.borrow();
    Fig6ChaosOutcome {
        report: ChaosReport::from_timeline("fig6", plan, timeline.timeline(), lib, end),
        exec_counts: execution_counts(timeline.timeline()),
    }
}

/// One audited live-encoder chaos run, with its fault-free twin.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecChaosOutcome {
    /// The invariant audit (bit-exactness violations included).
    pub report: ChaosReport,
    /// The faulted run.
    pub faulty: CodecRunOutcome,
    /// The fault-free twin (same pixels, same seed).
    pub baseline: CodecRunOutcome,
}

/// Runs the live H.264 encoder under `plan` next to its fault-free twin
/// and audits both the timeline invariants and bit-exactness: encoded
/// bits, PSNR and the SI invocation count must be identical — a fabric
/// fault is allowed to cost cycles, never output quality.
#[must_use]
pub fn run_codec_chaos(plan: &FaultPlan, frames: usize, seed: u64) -> CodecChaosOutcome {
    let scenario = Scenario::LiveCodec {
        width: 32,
        height: 32,
        frames,
        containers: 6,
    };
    let spec = ShardSpec::new(scenario, seed);
    let baseline = spec
        .clone()
        .with_sink(SinkSpec::Null)
        .run()
        .codec
        .expect("a live-codec outcome");
    let run = spec
        .with_faults(plan.clone())
        .with_sink(SinkSpec::Timeline)
        .run();
    let faulty = run.codec.expect("a live-codec outcome");
    let timeline = run.timeline.expect("the timeline was captured");
    let (lib, _) = rispp_h264::si_library::build_library();
    let mut report =
        ChaosReport::from_timeline("codec", plan, &timeline, &lib, faulty.total_cycles);
    if faulty.total_bits != baseline.total_bits {
        report.violations.push(format!(
            "encoded bits diverged under faults: {} vs {}",
            faulty.total_bits, baseline.total_bits
        ));
    }
    if faulty.mean_psnr.to_bits() != baseline.mean_psnr.to_bits() {
        report.violations.push(format!(
            "PSNR diverged under faults: {} vs {}",
            faulty.mean_psnr, baseline.mean_psnr
        ));
    }
    if faulty.si_invocations != baseline.si_invocations {
        report.violations.push(format!(
            "SI invocation count diverged under faults: {} vs {}",
            faulty.si_invocations, baseline.si_invocations
        ));
    }
    CodecChaosOutcome {
        report,
        faulty,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_fig6_passes_every_invariant() {
        let out = run_fig6_chaos(&FaultPlan::none(), None);
        assert!(out.report.passed(), "{}", out.report);
        assert_eq!(out.report.rotation_failures, 0);
        assert!(!out.exec_counts.is_empty());
    }

    #[test]
    fn seeded_fig6_chaos_holds_invariants_and_si_stream() {
        let baseline = run_fig6_chaos(&FaultPlan::none(), None);
        let mut failures = 0;
        for seed in 0..4 {
            let plan = FaultPlan::seeded(seed, 6, 2_000_000);
            let out = run_fig6_chaos(&plan, None);
            assert!(out.report.passed(), "seed {seed}: {}", out.report);
            assert_eq!(
                out.exec_counts, baseline.exec_counts,
                "seed {seed}: SI stream diverged"
            );
            failures += out.report.rotation_failures;
        }
        assert!(failures > 0, "no seeded plan ever failed a rotation");
    }

    #[test]
    fn codec_chaos_is_bit_exact() {
        let plan = FaultPlan::seeded(7, 6, 2_000_000);
        let out = run_codec_chaos(&plan, 2, 42);
        assert!(out.report.passed(), "{}", out.report);
        assert_eq!(out.faulty.total_bits, out.baseline.total_bits);
        assert_eq!(out.faulty.mean_psnr, out.baseline.mean_psnr);
    }

    #[test]
    fn checkers_catch_planted_violations() {
        use rispp_core::molecule::Molecule;
        let mut tl = Timeline::new();
        // Double-load without eviction.
        tl.push(
            10,
            Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(0),
            },
        );
        tl.push(
            20,
            Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(1),
            },
        );
        assert_eq!(check_occupancy_pairing(&tl).len(), 1);
        // Hardware execution beyond the loaded atoms.
        tl.push(
            30,
            Event::SiExecuted {
                task: 0,
                si: SiId(0),
                hw: true,
                cycles: 10,
                molecule: Some(Molecule::from_counts([3, 0])),
            },
        );
        assert_eq!(check_upgrade_ladder(&tl, 2).len(), 1);
        // A rotation failure with no recovery whatsoever.
        tl.push(
            40,
            Event::RotationFailed {
                container: 1,
                kind: AtomKind(0),
            },
        );
        let mut lib = SiLibrary::new(2);
        lib.insert(
            rispp_core::si::SpecialInstruction::new(
                "S",
                100,
                vec![rispp_core::si::MoleculeImpl::new(
                    Molecule::from_counts([1, 0]),
                    10,
                )],
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(check_fault_recovery(&tl, &lib).len(), 1);
        // Time reversal.
        tl.push(5, Event::PortStalled { until: 50 });
        assert_eq!(check_monotone_time(&tl).len(), 1);
    }
}
