//! The paper's Fig. 6 run-time scenario: two tasks sharing six Atom
//! Containers.
//!
//! Task A is the H.264 video codec employing `SATD_4x4`; Task B uses two
//! other SIs (here: `SAD_4x4` as the figure's SI0 and `DCT_4x4` as the
//! more important SI1). The scenario walks through the six characteristic
//! situations of the figure:
//!
//! * **T0** — steady state: both tasks execute their SIs in hardware,
//!   with B's SI0 sharing Atoms with A's SATD Molecule;
//! * **T1** — SI1 is forecasted; containers are re-allocated and rotated,
//!   and Task A falls back to executing SATD_4x4 *in software*;
//! * **T2** — SI1 is forecast to be no longer needed; the re-allocation
//!   back towards SATD_4x4 begins;
//! * **T3** — SI0 still executes in hardware on containers that now
//!   "belong" to Task A, because they still hold the Atoms it needs;
//! * **T4** — a rotation completes the minimal SATD Molecule: execution
//!   switches from SW to HW immediately;
//! * **T5** — a further rotation upgrades SATD_4x4 to an even faster
//!   Molecule.

use rispp_core::forecast::ForecastValue;
use rispp_fabric::catalog::{table1_profiles, AtomCatalog};
use rispp_fabric::fabric::Fabric;
use rispp_h264::si_library::{atom_set, build_library, H264Sis};

use crate::spec::{Scenario, ShardSpec, SinkSpec};
use crate::task::{Op, Task};

/// Builds a fabric over the H.264 Atom set with Table 1 hardware profiles
/// (reordered by name to match the library's Atom indices).
///
/// # Panics
///
/// Panics if a profile for one of the H.264 Atoms is missing (cannot
/// happen with the bundled Table 1 data).
#[must_use]
pub fn h264_fabric(containers: usize) -> Fabric {
    let atoms = atom_set();
    let all = table1_profiles();
    let profiles = atoms
        .names()
        .map(|name| {
            all.iter()
                .find(|p| p.name == name)
                .expect("table 1 profiles cover the H.264 atoms")
                .clone()
        })
        .collect();
    Fabric::new(atoms, AtomCatalog::new(profiles), containers)
}

/// The Fig. 6 tasks: Task A (video codec, SATD_4x4) and Task B (SI0 =
/// SAD_4x4, SI1 = DCT_4x4). [`ShardSpec::build_fig6`] runs them on six
/// Atom Containers.
pub(crate) fn fig6_tasks(sis: &H264Sis) -> [Task; 2] {
    [
        // Task A: the codec loop — forecast SATD once, then execute it
        // continuously. The moderate expected-execution count keeps A's
        // demand below B's SI1 burst, so the T1 re-allocation really
        // evicts A's Atoms (the figure's premise: SI1 is "more
        // important").
        Task::new(
            0,
            "video-codec",
            vec![
                Op::Forecast(ForecastValue::new(sis.satd_4x4, 1.0, 300_000.0, 40.0)),
                Op::Repeat {
                    body: vec![Op::ExecSi(sis.satd_4x4), Op::Plain(2_000)],
                    times: 1_500,
                },
            ],
        ),
        // Task B: SI0 phase (long enough for the initial six rotations to
        // finish → T0 steady state) → SI1 burst → SI1 retired.
        Task::new(
            1,
            "task-b",
            vec![
                Op::Forecast(ForecastValue::new(sis.sad_4x4, 1.0, 300_000.0, 10.0)),
                Op::Repeat {
                    body: vec![Op::ExecSi(sis.sad_4x4), Op::Plain(30_000)],
                    times: 25,
                },
                // T1: the more important SI1 is forecasted.
                Op::Forecast(ForecastValue::new(sis.dct_4x4, 1.0, 300_000.0, 5_000.0)),
                Op::Repeat {
                    body: vec![Op::ExecSi(sis.dct_4x4), Op::Plain(30_000)],
                    times: 20,
                },
                // T2: SI1 is no longer needed.
                Op::RetractForecast(sis.dct_4x4),
                // T3: SI0 keeps executing on whatever Atoms remain loaded.
                Op::Repeat {
                    body: vec![Op::ExecSi(sis.sad_4x4), Op::Plain(30_000)],
                    times: 10,
                },
            ],
        ),
    ]
}

/// Summary of a Fig. 6 run, extracted from the event timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Report {
    /// End-of-simulation cycle.
    pub end: u64,
    /// Cycle of Task B's SI1 (DCT) forecast — the figure's T1.
    pub t1: u64,
    /// Cycle of Task B's SI1 retraction — the figure's T2.
    pub t2: u64,
    /// First HW execution of SATD after T2 — the figure's T4.
    pub t4: Option<u64>,
    /// First SATD execution at the upgraded (< minimal-Molecule) latency
    /// after T4 — the figure's T5.
    pub t5: Option<u64>,
    /// Task A SATD executions as `(at, cycles, hardware)`.
    pub satd_execs: Vec<(u64, u64, bool)>,
    /// Task B SI0 (SAD) executions.
    pub sad_execs: Vec<(u64, u64, bool)>,
    /// Task B SI1 (DCT) executions.
    pub dct_execs: Vec<(u64, u64, bool)>,
    /// Total completed rotations.
    pub rotations: usize,
}

/// Runs the scenario and distils the report.
#[must_use]
pub fn run_fig6() -> Fig6Report {
    let out = ShardSpec::new(Scenario::Fig6, 0)
        .with_sink(SinkSpec::Timeline)
        .run();
    let (end, trace) = (out.sim_cycles, out.timeline.expect("timeline captured"));
    let (_, sis) = build_library();
    let t1 = trace
        .forecast_time(1, sis.dct_4x4)
        .expect("task B forecasts DCT");
    let t2 = trace
        .retract_time(1, sis.dct_4x4)
        .expect("task B retracts DCT");
    let satd_execs: Vec<_> = trace.executions(0, sis.satd_4x4).collect();
    let t4 = trace.first_hw_execution_after(0, sis.satd_4x4, t2);
    let t5 = t4.and_then(|t4_at| {
        let min_cycles = satd_execs
            .iter()
            .find(|&&(at, _, hw)| hw && at >= t4_at)
            .map(|&(_, c, _)| c)?;
        satd_execs
            .iter()
            .find(|&&(at, c, hw)| hw && at > t4_at && c < min_cycles)
            .map(|&(at, _, _)| at)
    });
    Fig6Report {
        end,
        t1,
        t2,
        t4,
        t5,
        satd_execs,
        sad_execs: trace.executions(1, sis.sad_4x4).collect(),
        dct_execs: trace.executions(1, sis.dct_4x4).collect(),
        rotations: trace.rotations_completed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t0_steady_state_runs_both_tasks_in_hardware() {
        let r = run_fig6();
        // Before T1 both A and B reach hardware execution.
        assert!(
            r.satd_execs.iter().any(|&(at, _, hw)| hw && at < r.t1),
            "SATD never HW before T1"
        );
        assert!(
            r.sad_execs.iter().any(|&(at, _, hw)| hw && at < r.t1),
            "SAD never HW before T1"
        );
    }

    #[test]
    fn t1_reallocation_forces_satd_to_software() {
        let r = run_fig6();
        // Between T1 and T2, SATD executions drop to software.
        assert!(
            r.satd_execs
                .iter()
                .any(|&(at, _, hw)| !hw && at > r.t1 && at < r.t2),
            "SATD never fell back to SW after T1"
        );
        // And the important SI1 (DCT) reaches hardware.
        assert!(
            r.dct_execs.iter().any(|&(_, _, hw)| hw),
            "DCT never reached HW"
        );
    }

    #[test]
    fn t4_satd_returns_to_hardware_after_retraction() {
        let r = run_fig6();
        let t4 = r.t4.expect("SATD should return to HW after T2");
        assert!(t4 > r.t2);
    }

    #[test]
    fn t5_satd_upgrades_beyond_minimal_molecule() {
        let r = run_fig6();
        let t5 = r.t5.expect("SATD should upgrade to a faster molecule");
        assert!(t5 > r.t4.unwrap());
        // The upgraded latency beats the minimal molecule's 24 cycles.
        let best = r
            .satd_execs
            .iter()
            .filter(|&&(_, _, hw)| hw)
            .map(|&(_, c, _)| c)
            .min()
            .unwrap();
        assert!(best < 24, "best SATD latency {best}");
    }

    #[test]
    fn rotation_count_is_bounded_and_nonzero() {
        let r = run_fig6();
        assert!(r.rotations >= 8, "rotations {}", r.rotations);
        assert!(r.rotations <= 40, "rotations {}", r.rotations);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = run_fig6();
        let b = run_fig6();
        assert_eq!(a, b);
    }
}
