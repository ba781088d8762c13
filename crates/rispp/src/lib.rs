//! # RISPP — Rotating Instruction Set Processing Platform
//!
//! A from-scratch Rust reproduction of *"RISPP: Rotating Instruction Set
//! Processing Platform"* (Lars Bauer, Muhammad Shafique, Simon Kramer,
//! Jörg Henkel — DAC 2007).
//!
//! RISPP is an extensible embedded processor whose *Special Instructions*
//! (SIs) are not frozen in silicon: each SI is composed of reusable
//! elementary data paths (**Atoms**), a concrete implementation is a
//! **Molecule**, and Atoms are *rotated* in and out of reconfigurable Atom
//! Containers at run time, guided by compile-time-inserted forecast
//! points. Every SI also has a software Molecule, so execution upgrades
//! gradually from software through ever faster hardware Molecules.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `rispp-core` | Molecule lattice, SIs, FDF, selection algorithms |
//! | [`fabric`] | `rispp-fabric` | Atom Containers, bitstreams, rotation port |
//! | [`mod@cfg`] | `rispp-cfg` | BB graphs, profiling, SCC, forecast-point insertion |
//! | [`h264`] | `rispp-h264` | pixel kernels, Table 2 SI library, Fig. 7 encoder |
//! | [`rt`] | `rispp-rt` | the run-time manager (monitor / select / schedule) |
//! | [`sim`] | `rispp-sim` | multi-task engine, the Fig. 6 scenario |
//! | [`obs`] | `rispp-obs` | structured events, sinks, timelines, JSONL export |
//! | [`baseline`] | `rispp-baseline` | extensible-processor & software baselines, GE model |
//!
//! # Quickstart
//!
//! ```
//! use rispp::prelude::*;
//!
//! // The H.264 case-study platform: 4 Atom kinds, 4 Atom Containers.
//! let (library, sis) = rispp::h264::build_library();
//! let fabric = rispp::sim::h264_fabric(4);
//! let mut manager = RisppManager::builder(library, fabric).build();
//!
//! // A forecast point fires: SATD_4x4 will be needed soon and often.
//! manager.forecast(0, ForecastValue::new(sis.satd_4x4, 1.0, 400_000.0, 300.0));
//!
//! // Until rotations finish, the SI executes in software (544 cycles) …
//! assert_eq!(manager.execute_si(0, sis.satd_4x4).cycles, 544);
//!
//! // … and in hardware afterwards (24 cycles with the minimal Molecule).
//! let done = manager.all_rotations_done_at().expect("rotations queued");
//! manager.advance_to(done)?;
//! assert!(manager.execute_si(0, sis.satd_4x4).cycles <= 24);
//! # Ok::<(), rispp::fabric::FabricError>(())
//! ```

#![warn(missing_docs)]

/// The formal Atom/Molecule model and the selection/forecast algorithms.
pub use rispp_core as core;

/// The reconfigurable-fabric simulator.
pub use rispp_fabric as fabric;

/// Compile-time basic-block analysis and forecast-point insertion.
pub use rispp_cfg as cfg;

/// The H.264 case-study substrate.
pub use rispp_h264 as h264;

/// The run-time manager.
pub use rispp_rt as rt;

/// The multi-task simulator and the Fig. 6 scenario.
pub use rispp_sim as sim;

/// Structured run-time events, sinks and timelines.
pub use rispp_obs as obs;

/// Comparison baselines (ASIP, pure software) and the GE area model.
pub use rispp_baseline as baseline;

/// The most common types in one import.
pub mod prelude {
    pub use rispp_baseline::{AreaModel, ExtensibleProcessor, SoftwareProcessor};
    pub use rispp_cfg::{BasicBlock, BlockId, Cfg, ForecastPoint, Profile};
    pub use rispp_core::{
        AtomKind, AtomSet, FdfParams, ForecastValue, Molecule, MoleculeImpl, SiId, SiLibrary,
        SpecialInstruction,
    };
    pub use rispp_fabric::{AtomCatalog, Clock, ContainerId, Fabric};
    pub use rispp_h264::{EncoderConfig, Frame, SyntheticVideo};
    pub use rispp_obs::{
        BinaryReader, BinarySink, CountersSink, Event, JsonlSink, MetricsSink, MetricsSummary,
        NullSink, SinkHandle, SpanBuilder, StreamDecoder, Timeline, TimelineSink,
    };
    pub use rispp_rt::{ManagerBuilder, RisppManager, TaskId};
    pub use rispp_sim::{
        derive_shard_seed, run_fleet, Engine, FleetAggregate, FleetConfig, FleetOutcome, Op,
        Scenario, ScenarioFactory, ShardOutcome, ShardSpec, SinkSpec, StressTotals, Task,
    };
}
