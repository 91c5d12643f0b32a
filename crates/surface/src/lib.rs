//! Surface-code substrate for the transversal-architecture reproduction:
//! layouts, syndrome-extraction circuits and transversal-gate experiments.
//!
//! * [`rotated`] — the [[d², 1, d]] rotated surface code: plaquettes,
//!   boundaries, schedules and logical operators (paper §II.3);
//! * [`builder`] — a multi-patch circuit builder that derives detectors
//!   automatically through transversal CNOTs via stabilizer-flow tracking
//!   (the joint detector structure needed for correlated decoding, §II.4);
//! * [`experiments`] — ready-made memory, deep transversal-CNOT,
//!   scheduled-CNOT and GHZ fan-out circuits, the simulation inputs behind
//!   the paper's logical-error model (its Fig. 6a); the experiment engine
//!   in `raa-sim` samples and decodes them;
//! * [`code832`] — the [[8,3,2]] cube code behind the 8T-to-CCZ factory,
//!   including the exact enumeration behind `p_out = 28 p_in²` (its Eq. 8).
//!
//! # Example: a two-patch transversal-CNOT circuit
//!
//! ```no_run
//! use raa_surface::{Basis, NoiseModel, TransversalCnotExperiment};
//! use rand::SeedableRng;
//!
//! let exp = TransversalCnotExperiment {
//!     distance: 3,
//!     patches: 2,
//!     depth: 4,
//!     cnots_per_round: 2.0,
//!     basis: Basis::Z,
//!     noise: NoiseModel::uniform(1e-3),
//! };
//! let circuit = exp.build(&mut rand::rngs::StdRng::seed_from_u64(1));
//! // An initial SE round plus one per two CNOTs, 8 detectors per patch each.
//! assert_eq!(circuit.num_detectors(), exp.expected_se_rounds() * 2 * 8);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod code832;
pub mod experiments;
pub mod rotated;

pub use builder::{Basis, NoiseModel, PatchCircuitBuilder};
pub use code832::Code832MemoryExperiment;
pub use experiments::{
    GhzFanoutExperiment, MemoryExperiment, PauliInjection, ScheduledCnotExperiment,
    TransversalCnotExperiment,
};
pub use rotated::{Plaquette, RotatedSurfaceCode};
