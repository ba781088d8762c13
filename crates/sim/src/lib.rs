//! # rispp-sim — task/processor simulation for RISPP
//!
//! Replaces the paper's DLX-core prototype with an event-driven simulator:
//! tasks are programs of plain-cycle blocks, SI executions and forecast
//! events ([`task`]); the multi-task [`engine`] interleaves them
//! round-robin on one core while the fabric rotates Atoms concurrently;
//! everything is emitted at source into a queryable
//! [`Timeline`] via the `rispp-obs` event sinks.
//!
//! [`scenario`] reconstructs the paper's Fig. 6 two-task scenario (video
//! codec + second task sharing six Atom Containers) end to end.
//!
//! # Examples
//!
//! ```
//! use rispp_sim::scenario::run_fig6;
//!
//! let report = run_fig6();
//! // Task A falls back to software while Task B's SI1 occupies the
//! // containers, and returns to hardware after the retraction (T4).
//! assert!(report.t4.expect("T4 exists") > report.t2);
//! ```

#![warn(missing_docs)]
// The crate must never consume deprecated items.
#![deny(deprecated)]

pub mod asm;
pub mod chaos;
pub mod codec_runner;
pub mod codegen;
pub mod cpu;
pub mod engine;
pub mod fleet;
pub mod multimode;
pub mod scenario;
pub mod spec;
pub mod task;
pub mod waveform;

pub use asm::{assemble, AsmError};
pub use chaos::{
    check_invariants, run_codec_chaos, run_fig6_chaos, ChaosReport, CodecChaosOutcome,
    Fig6ChaosOutcome,
};
pub use codec_runner::{
    run_encoder_on_rispp, run_encoder_on_rispp_configured, run_encoder_on_rispp_with_faults,
    CodecRunOutcome,
};
pub use codegen::{generate_trace_program, lower_block};
pub use cpu::{Cpu, Instr, RunSummary, StopReason};
pub use engine::Engine;
pub use fleet::{
    derive_shard_seed, run_fleet, FleetAggregate, FleetConfig, FleetOutcome, ScenarioFactory,
};
pub use multimode::{run_multimode, MultiModeOutcome, PhaseSpec};
pub use scenario::{
    fig6_engine, fig6_engine_configured, fig6_engine_with_faults, h264_fabric, run_fig6, Fig6Report,
};
pub use spec::{random_platform, Scenario, ShardOutcome, ShardSpec, SinkSpec, StressTotals};
pub use task::{Op, ProgramCursor, Task};
pub use waveform::{container_timelines, render_waveform, ContainerTimeline, Occupancy};
// Event types live in `rispp-obs` now; re-exported so simulator users can
// query an [`Engine`]'s timeline without naming the obs crate directly.
pub use rispp_fabric::clock::Clock;
pub use rispp_obs::{BinaryReader, BinarySink, Event, Record, Timeline, TimelineSink};
