//! Ready-made experiment circuits: surface-code memory, transversal-CNOT,
//! scheduled-CNOT and GHZ fan-out workloads.
//!
//! These build the simulation inputs behind the paper's logical-error model
//! (Fig. 6a): deep CNOT-only transversal circuits between surface-code
//! patches with `x` CNOTs per syndrome-extraction round, with the joint
//! detectors correlated decoding needs. Sampling and decoding them is the
//! experiment engine's job (`raa_sim::engine`).

use crate::builder::{Basis, NoiseModel, PatchCircuitBuilder};
use raa_stabsim::Circuit;
use rand::{Rng, RngExt};

/// A memory experiment: one patch idling for a number of SE rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryExperiment {
    /// Code distance.
    pub distance: u32,
    /// Number of syndrome-extraction rounds (≥ 1).
    pub rounds: usize,
    /// Logical basis protected.
    pub basis: Basis,
    /// Noise strengths.
    pub noise: NoiseModel,
}

impl MemoryExperiment {
    /// Builds the noisy circuit with detectors and one logical observable.
    pub fn build(&self) -> Circuit {
        assert!(self.rounds >= 1, "need at least one SE round");
        let mut b = PatchCircuitBuilder::new(self.distance, 1, self.basis, self.noise);
        b.initialize();
        for _ in 0..self.rounds {
            b.se_round();
        }
        b.finish()
    }
}

/// A two-patch (or ring) transversal-CNOT experiment: a deep logical Clifford
/// circuit of CNOTs with `cnots_per_round` transversal gates per SE round
/// (the paper's `x`), random gate directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransversalCnotExperiment {
    /// Code distance.
    pub distance: u32,
    /// Number of patches (≥ 2); gates act between random distinct pairs.
    pub patches: usize,
    /// Total number of transversal logical CNOTs (the circuit depth).
    pub depth: usize,
    /// CNOTs per SE round, the paper's `x` (e.g. 1.0, 2.0, 0.5).
    pub cnots_per_round: f64,
    /// Logical basis protected.
    pub basis: Basis,
    /// Noise strengths.
    pub noise: NoiseModel,
}

impl TransversalCnotExperiment {
    /// Builds the noisy circuit, drawing random CNOT directions from `rng`.
    ///
    /// The schedule starts with one SE round after initialization, then after
    /// every gate accumulates `1/x` SE rounds, emitting rounds whenever the
    /// accumulator reaches one (so `x = 2` gives a round every two gates,
    /// `x = 0.5` two rounds per gate).
    ///
    /// # Panics
    ///
    /// Panics if `patches < 2`, `depth == 0` or `cnots_per_round ≤ 0`.
    pub fn build<R: Rng>(&self, rng: &mut R) -> Circuit {
        assert!(self.patches >= 2, "need at least two patches");
        assert!(self.depth >= 1, "need at least one CNOT");
        assert!(
            self.cnots_per_round > 0.0 && self.cnots_per_round.is_finite(),
            "cnots_per_round must be positive"
        );
        let mut b = PatchCircuitBuilder::new(self.distance, self.patches, self.basis, self.noise);
        b.initialize();
        b.se_round();
        let per_gate = 1.0 / self.cnots_per_round;
        let mut debt = 0.0f64;
        for _ in 0..self.depth {
            let a = rng.random_range(0..self.patches);
            let mut t = rng.random_range(0..self.patches - 1);
            if t >= a {
                t += 1;
            }
            b.transversal_cx(a, t);
            debt += per_gate;
            while debt >= 1.0 {
                b.se_round();
                debt -= 1.0;
            }
        }
        if debt > 0.0 {
            b.se_round();
        }
        b.finish()
    }

    /// Total SE rounds the schedule will emit (including the initial round).
    pub fn expected_se_rounds(&self) -> usize {
        1 + (self.depth as f64 / self.cnots_per_round).ceil() as usize
    }
}

/// One deterministic Pauli fault injected into a scheduled-CNOT circuit
/// (a probability-1 error channel on a single data qubit), used by the
/// differential tableau-vs-frame conformance tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauliInjection {
    /// Inject after this many SE rounds have been emitted (1 = right after
    /// the initial round). Injections past the last round are dropped.
    pub after_round: usize,
    /// Patch carrying the fault.
    pub patch: usize,
    /// Data-qubit index within the patch.
    pub data: usize,
    /// `true` injects X, `false` injects Z.
    pub x: bool,
}

/// A deterministic scheduled-CNOT workload: `rounds` SE rounds over
/// `patches` patches, with the cycled transversal-CNOT `schedule` applying
/// one layer before every SE round after the first. This is the
/// circuit-level skeleton behind the factory and gadget scenarios: the
/// non-Clifford content of a protocol (T/Toffoli injections) is outside
/// the reach of a stabilizer simulation, but its *Clifford frame* — the
/// deterministic CNOT network that moves and checks the data — is exactly
/// what sets the syndrome structure, and an all-|0⟩ initialization keeps
/// every Z flow and logical observable determined through arbitrary CNOT
/// layers.
///
/// Detectors come out in uniform time layers of `patches × (d² − 1)` per
/// SE round (the first round emits the basis-aligned half, the final
/// transversal readout the other half), so windowed and streaming decoding
/// apply at any depth.
///
/// # Example
///
/// ```
/// use raa_surface::experiments::ScheduledCnotExperiment;
/// use raa_surface::{Basis, NoiseModel};
///
/// let exp = ScheduledCnotExperiment {
///     distance: 3,
///     patches: 2,
///     schedule: vec![vec![(0, 1)], vec![(1, 0)]],
///     rounds: 4,
///     basis: Basis::Z,
///     noise: NoiseModel::uniform(1e-3),
/// };
/// let circuit = exp.build();
/// assert_eq!(exp.cnots(), 3);
/// assert_eq!(circuit.num_detectors(), 4 * 2 * 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCnotExperiment {
    /// Code distance.
    pub distance: u32,
    /// Number of patches (≥ 2).
    pub patches: usize,
    /// CNOT layers, cycled: layer `(r − 1) mod len` runs before SE round
    /// `r + 1` (0-based pairs of (control, target) patch indices).
    pub schedule: Vec<Vec<(usize, usize)>>,
    /// Total SE rounds (≥ 1).
    pub rounds: usize,
    /// Logical basis protected.
    pub basis: Basis,
    /// Noise strengths.
    pub noise: NoiseModel,
}

impl ScheduledCnotExperiment {
    /// Total transversal CNOTs the cycled schedule emits over `rounds`.
    pub fn cnots(&self) -> usize {
        (1..self.rounds)
            .map(|r| self.schedule[(r - 1) % self.schedule.len()].len())
            .sum()
    }

    /// Builds the noisy circuit with detectors and one observable per patch.
    ///
    /// # Panics
    ///
    /// Panics if `patches < 2`, `rounds == 0`, the schedule is empty, or a
    /// layer references an out-of-range or self-targeting pair.
    pub fn build(&self) -> Circuit {
        self.build_with_injections(&[])
    }

    /// Like [`ScheduledCnotExperiment::build`], additionally inserting the
    /// given deterministic Pauli faults after their SE rounds.
    pub fn build_with_injections(&self, injections: &[PauliInjection]) -> Circuit {
        assert!(self.patches >= 2, "need at least two patches");
        assert!(self.rounds >= 1, "need at least one SE round");
        assert!(!self.schedule.is_empty(), "need at least one CNOT layer");
        for layer in &self.schedule {
            for &(c, t) in layer {
                assert!(
                    c < self.patches && t < self.patches && c != t,
                    "bad CNOT pair ({c}, {t}) for {} patches",
                    self.patches
                );
            }
        }
        let mut b = PatchCircuitBuilder::new(self.distance, self.patches, self.basis, self.noise);
        b.initialize();
        let inject_after = |b: &mut PatchCircuitBuilder, emitted: usize| {
            for inj in injections.iter().filter(|i| i.after_round == emitted) {
                if inj.x {
                    b.inject_x_error(inj.patch, inj.data, 1.0);
                } else {
                    b.inject_z_error(inj.patch, inj.data, 1.0);
                }
            }
        };
        b.se_round();
        inject_after(&mut b, 1);
        for r in 1..self.rounds {
            for &(c, t) in &self.schedule[(r - 1) % self.schedule.len()] {
                b.transversal_cx(c, t);
            }
            b.se_round();
            inject_after(&mut b, r + 1);
        }
        b.finish()
    }
}

/// Measurement-based logical GHZ preparation and verification
/// (the CNOT fan-out primitive of paper §III.8, Fig. 10b, at the logical
/// level): `targets` patches are prepared in |+⟩, helper patches between
/// neighbours measure the pairwise ZZ stabilizers via two transversal CNOTs
/// and a destructive logical Z readout, then the GHZ qubits are read out in
/// Z. Every neighbouring pair parity (corrected by its helper outcome) is a
/// logical observable; flips that survive decoding are GHZ preparation
/// errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhzFanoutExperiment {
    /// Code distance.
    pub distance: u32,
    /// Number of GHZ branches (≥ 2).
    pub targets: usize,
    /// Noise strengths.
    pub noise: NoiseModel,
}

impl GhzFanoutExperiment {
    /// Total patches: `targets` GHZ qubits interleaved with their helpers.
    pub fn patches(&self) -> usize {
        2 * self.targets - 1
    }

    /// Transversal CNOTs emitted: two per helper.
    pub fn cnots(&self) -> usize {
        2 * (self.targets - 1)
    }

    /// SE rounds the schedule emits (after init, after the CNOT layer, and
    /// after the helper readout).
    pub fn se_rounds(&self) -> usize {
        3
    }

    /// Builds the noisy circuit: helpers interleave with targets, so patch
    /// `2i` is GHZ qubit `i` and patch `2i+1` its helper.
    ///
    /// # Panics
    ///
    /// Panics if `targets < 2`.
    pub fn build(&self) -> Circuit {
        assert!(self.targets >= 2, "need at least two GHZ branches");
        let num_patches = 2 * self.targets - 1;
        let mut b = PatchCircuitBuilder::new(self.distance, num_patches, Basis::Z, self.noise);
        b.initialize();
        // GHZ qubits start in |+⟩; helpers stay in |0⟩.
        for i in 0..self.targets {
            b.reprepare_patch(2 * i, Basis::X);
        }
        b.se_round();
        // Helper i measures Z_i Z_{i+1}.
        for i in 0..self.targets - 1 {
            b.transversal_cx(2 * i, 2 * i + 1);
            b.transversal_cx(2 * i + 2, 2 * i + 1);
        }
        b.se_round();
        let helper_rows: Vec<Vec<usize>> = (0..self.targets - 1)
            .map(|i| b.measure_patch(2 * i + 1, Basis::Z))
            .collect();
        b.se_round();
        // Record the target logical-row measurement indices, then finish.
        let mut target_rows: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.targets {
            let rows = b.measure_patch(2 * i, Basis::Z);
            target_rows.push(rows);
        }
        for i in 0..self.targets - 1 {
            let mut meas = target_rows[i].clone();
            meas.extend_from_slice(&target_rows[i + 1]);
            meas.extend_from_slice(&helper_rows[i]);
            b.custom_observable(i, &meas);
        }
        b.finish()
    }
}

/// Inverts `p_total = 1 - (1 - p_unit)^units`: the per-unit error rate of
/// `units` independent additive error opportunities compounding to
/// `p_total`. Shared by every per-round / per-CNOT rate in the stack.
pub fn per_unit_rate(p_total: f64, units: f64) -> f64 {
    if p_total <= 0.0 {
        return 0.0;
    }
    if p_total >= 1.0 {
        return 1.0;
    }
    1.0 - (1.0 - p_total).powf(1.0 / units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_decode::mc::{self, CircuitSampler, McConfig};
    use raa_decode::{DecodingGraph, UnionFindDecoder};
    use raa_stabsim::DetectorErrorModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Samples `circuit` and decodes it jointly with union–find; returns the
    /// logical error rate per shot. A check that the circuits decode, not an
    /// engine: sweeps and records go through `raa_sim::engine`.
    fn decoded_rate<R: Rng>(circuit: &Circuit, shots: usize, rng: &mut R) -> f64 {
        let dem = DetectorErrorModel::from_circuit(circuit);
        let (graph, _arbitrary) = DecodingGraph::from_dem_decomposed(&dem);
        let decoder = UnionFindDecoder::new(graph);
        let sampler = CircuitSampler::new(circuit);
        let seed = rng.random();
        mc::logical_error_rate_sampled(&sampler, &decoder, shots, seed, &McConfig::default())
            .expect("the default McConfig uses the ambient pool and cannot fail")
            .logical_error_rate()
    }

    #[test]
    fn memory_error_rate_reasonable_at_moderate_noise() {
        let exp = MemoryExperiment {
            distance: 3,
            rounds: 3,
            basis: Basis::Z,
            noise: NoiseModel::uniform(3e-3),
        };
        let rate = decoded_rate(&exp.build(), 5_000, &mut StdRng::seed_from_u64(1));
        // Well below threshold: logical error rate should be far below 10%.
        assert!(rate < 0.1, "{rate}");
    }

    #[test]
    fn memory_distance_suppression() {
        let p = 2e-3;
        let mut rng = StdRng::seed_from_u64(2);
        let mut rate = |d: u32| {
            let exp = MemoryExperiment {
                distance: d,
                rounds: d as usize,
                basis: Basis::Z,
                noise: NoiseModel::uniform(p),
            };
            decoded_rate(&exp.build(), 20_000, &mut rng)
        };
        let r3 = rate(3);
        let r5 = rate(5);
        assert!(
            r5 < r3.max(1.0 / 20_000.0) * 1.2,
            "no suppression: d3 {r3}, d5 {r5}"
        );
    }

    #[test]
    fn transversal_experiment_builds_and_decodes() {
        let exp = TransversalCnotExperiment {
            distance: 3,
            patches: 2,
            depth: 4,
            cnots_per_round: 1.0,
            basis: Basis::Z,
            noise: NoiseModel::uniform(2e-3),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let circuit = exp.build(&mut rng);
        let rate = decoded_rate(&circuit, 3_000, &mut rng);
        let per_cnot = per_unit_rate(rate, exp.depth as f64);
        assert_eq!(exp.depth, 4);
        assert!(rate < 0.2);
        assert!(per_cnot <= rate);
    }

    #[test]
    fn schedule_accounting() {
        let exp = TransversalCnotExperiment {
            distance: 3,
            patches: 2,
            depth: 8,
            cnots_per_round: 2.0,
            basis: Basis::Z,
            noise: NoiseModel::noiseless(),
        };
        assert_eq!(exp.expected_se_rounds(), 1 + 4);
        let c = exp.build(&mut StdRng::seed_from_u64(5));
        assert!(c.num_detectors() > 0);
    }

    #[test]
    fn ghz_noiseless_is_perfect() {
        let exp = GhzFanoutExperiment {
            distance: 3,
            targets: 3,
            noise: NoiseModel::noiseless(),
        };
        let c = exp.build();
        assert_eq!(c.num_observables(), 2.max(c.num_observables().min(5)));
        use raa_stabsim::FrameSim;
        let s = FrameSim::sample(&c, 64, &mut StdRng::seed_from_u64(11));
        for shot in 0..64 {
            assert!(s.fired_detectors(shot).is_empty());
            assert_eq!(s.observable_mask(shot), 0, "GHZ parity must hold");
        }
    }

    #[test]
    fn ghz_observables_are_deterministic_checks() {
        use raa_stabsim::TableauSim;
        let exp = GhzFanoutExperiment {
            distance: 3,
            targets: 4,
            noise: NoiseModel::noiseless(),
        };
        let c = exp.build();
        let reference = TableauSim::reference_sample(&c);
        for o in 0..c.num_observables() {
            let parity = c
                .observable(o)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "GHZ pair parity {o} not deterministic");
        }
        for d in 0..c.num_detectors() {
            let parity = c
                .detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "detector {d} not deterministic");
        }
    }

    #[test]
    fn ghz_decodes_under_noise() {
        let exp = GhzFanoutExperiment {
            distance: 3,
            targets: 3,
            noise: NoiseModel::uniform(2e-3),
        };
        let rate = decoded_rate(&exp.build(), 4_000, &mut StdRng::seed_from_u64(12));
        assert!(rate < 0.1, "GHZ logical error = {rate}");
    }

    #[test]
    fn per_unit_rate_inverts_compounding() {
        let p_unit: f64 = 0.01;
        let units = 7.0;
        let p_total = 1.0 - (1.0 - p_unit).powf(units);
        assert!((per_unit_rate(p_total, units) - p_unit).abs() < 1e-12);
        assert_eq!(per_unit_rate(0.0, 5.0), 0.0);
    }
}
