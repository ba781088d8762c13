//! # rispp-fabric — reconfigurable-fabric substrate for RISPP
//!
//! The paper prototypes RISPP on a Xilinx XC2V3000 with four partially
//! reconfigurable *Atom Containers* (ACs) attached to the core's execution
//! data paths and loaded through the SelectMap interface. This crate
//! replaces that hardware with a simulator that preserves the properties
//! the RISPP algorithms actually depend on:
//!
//! * per-Atom bitstream sizes and reconfiguration times (Table 1, exactly
//!   reproduced — see [`catalog`]);
//! * a **single** reconfiguration port serialising rotations;
//! * ACs whose previous Atom remains usable until the overwrite starts and
//!   which are unusable while loading;
//! * µs ↔ cycle conversion under a fixed core clock ([`clock`]).
//!
//! # Examples
//!
//! ```
//! use rispp_core::atom::{AtomKind, AtomSet};
//! use rispp_fabric::{AtomCatalog, ContainerId, Fabric};
//! use rispp_fabric::catalog::table1_profiles;
//!
//! let atoms = AtomSet::from_names(["Transform", "SATD", "Pack", "QuadSub"]);
//! let mut fabric = Fabric::new(atoms, AtomCatalog::new(table1_profiles().to_vec()), 4);
//!
//! // Rotate a Transform Atom into AC0 and wait for completion.
//! fabric.request_rotation(ContainerId(0), AtomKind(0))?;
//! let done = fabric.next_completion().expect("rotation in flight");
//! fabric.advance_to(done)?;
//! assert_eq!(fabric.loaded_molecule().count(AtomKind(0)), 1);
//! # Ok::<(), rispp_fabric::FabricError>(())
//! ```

#![warn(missing_docs)]
// The fabric substrate must never consume deprecated items.
#![deny(deprecated)]

pub mod catalog;
pub mod clock;
pub mod container;
pub mod fabric;
pub mod fault;

pub use catalog::{AtomCatalog, AtomHwProfile};
pub use clock::Clock;
pub use container::{AtomContainer, ContainerId, ContainerState};
pub use fabric::{Fabric, FabricError, FabricEvent};
pub use fault::{FaultPlan, FaultPlanParseError, StallWindow};
