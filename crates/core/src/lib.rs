//! # rispp-core — the RISPP Atom/Molecule model
//!
//! Reproduction of the formal model and algorithms of *"RISPP: Rotating
//! Instruction Set Processing Platform"* (Bauer, Shafique, Kramer, Henkel —
//! DAC 2007).
//!
//! RISPP composes *Special Instructions* (SIs) out of reusable elementary
//! data paths called **Atoms**; a concrete implementation of an SI is a
//! **Molecule** — a vector in ℕⁿ recording how many instances of each Atom
//! kind it needs, plus a latency. Atoms are loaded into reconfigurable
//! *Atom Containers* at run time ("instruction rotation"), so the platform
//! can upgrade an SI gradually from software execution through ever faster
//! Molecules.
//!
//! This crate is the paper's primary contribution in pure-algorithm form:
//!
//! * [`molecule`] — the `(ℕⁿ, ∪, ∩, ≤)` lattice of Molecules;
//! * [`si`] — Special Instructions, their Molecules and `Rep(S)`;
//! * [`forecast`] — the Forecast Decision Function (Fig. 4) and run-time
//!   updated forecast values;
//! * [`selection`] — the FC trimming algorithm (Fig. 5) and run-time
//!   Molecule selection under an Atom-Container budget;
//! * [`pareto`] — the area–performance trade-off analysis (Fig. 13).
//!
//! The hardware fabric, CFG analysis, run-time manager and the H.264 case
//! study live in sibling crates (`rispp-fabric`, `rispp-cfg`, `rispp-rt`,
//! `rispp-h264`); the `rispp` facade crate re-exports everything.
//!
//! # Examples
//!
//! ```
//! use rispp_core::molecule::Molecule;
//! use rispp_core::si::{MoleculeImpl, SpecialInstruction};
//!
//! // An SI with two hardware Molecules trading area for speed.
//! let satd = SpecialInstruction::new(
//!     "SATD_4x4",
//!     544,
//!     vec![
//!         MoleculeImpl::new(Molecule::from_counts([1, 1, 1, 1]), 24),
//!         MoleculeImpl::new(Molecule::from_counts([4, 4, 4, 4]), 12),
//!     ],
//! )?;
//!
//! // With only the minimal Molecule loaded, execution takes 24 cycles;
//! // with nothing loaded it falls back to the 544-cycle software Molecule.
//! let loaded = Molecule::from_counts([1, 1, 1, 1]);
//! assert_eq!(satd.exec_cycles(&loaded), 24);
//! assert_eq!(satd.exec_cycles(&Molecule::zero(4)), 544);
//! # Ok::<(), rispp_core::error::CoreError>(())
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod compat;
pub mod energy;
pub mod error;
pub mod forecast;
pub mod molecule;
pub mod pareto;
pub mod selection;
pub mod si;
pub mod synthesis;

pub use atom::{AtomKind, AtomSet};
pub use compat::{compatibility_matrix, molecule_compatibility, select_compatible_sis};
pub use energy::EnergyModel;
pub use error::{CoreError, WidthMismatchError};
pub use forecast::{FdfParams, ForecastValue};
pub use molecule::Molecule;
pub use pareto::{latency_staircase, pareto_front, TradeOffPoint};
pub use selection::{
    select_molecules, select_molecules_exhaustive, selection_benefit, trim_forecast_candidates,
    MoleculeSelection, ResumableGreedy, TrimOutcome,
};
pub use si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
pub use synthesis::{propose_atoms, AtomCandidate, DataPath, DataPathOp};
