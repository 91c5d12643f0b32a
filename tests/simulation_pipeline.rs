//! Integration tests of the full simulation stack: circuit construction →
//! reference/tableau semantics → frame sampling → DEM extraction → decoding.
//! These are the cross-crate checks that the substrate behind Fig. 6(a) is
//! self-consistent.

use raa::sim::{run, DecoderChoice, ExperimentSpec, Rounds, Scenario, ShotBudget};
use raa::stabsim::{DetectorErrorModel, FrameSim, TableauSim};
use raa::surface::{Basis, MemoryExperiment, NoiseModel, PatchCircuitBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A union-find spec of `scenario` at uniform noise `p`.
fn spec(scenario: Scenario, distance: u32, p: f64, shots: usize, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new("pipeline", scenario, distance);
    spec.noise = NoiseModel::uniform(p);
    spec.shots = ShotBudget::Fixed(shots);
    spec.seed = seed;
    spec
}

/// Every detector the builders emit is a deterministic parity check of the
/// noiseless circuit, for memory and multi-patch transversal circuits alike.
#[test]
fn all_detectors_deterministic_across_bases_and_patches() {
    for basis in [Basis::Z, Basis::X] {
        for patches in [1usize, 2, 3] {
            let mut b = PatchCircuitBuilder::new(3, patches, basis, NoiseModel::noiseless());
            b.initialize();
            b.se_round();
            if patches >= 2 {
                b.transversal_cx(0, 1);
                b.se_round();
                if patches == 3 {
                    b.transversal_cx(2, 0);
                    b.se_round();
                }
            }
            let c = b.finish();
            let reference = TableauSim::reference_sample(&c);
            for d in 0..c.num_detectors() {
                let parity = c
                    .detector_measurements(d)
                    .iter()
                    .fold(false, |acc, &m| acc ^ reference[m]);
                assert!(!parity, "basis {basis:?}, {patches} patches, detector {d}");
            }
        }
    }
}

/// The frame sampler and the exact tableau simulator agree on detector
/// statistics for a noisy surface-code round.
#[test]
fn frame_sampler_matches_tableau_statistics() {
    let exp = MemoryExperiment {
        distance: 3,
        rounds: 2,
        basis: Basis::Z,
        noise: NoiseModel::uniform(0.01),
    };
    let c = exp.build();
    let shots = 40_000;
    let samples = FrameSim::sample(&c, shots, &mut rng(1));
    let frame_rate = (0..shots)
        .filter(|&s| !samples.fired_detectors(s).is_empty())
        .count() as f64
        / shots as f64;

    let tab_shots = 4_000;
    let mut r = rng(2);
    let mut tab_hits = 0usize;
    for _ in 0..tab_shots {
        let rec = TableauSim::sample(&c, &mut r);
        let any = (0..c.num_detectors()).any(|d| {
            c.detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ rec[m])
        });
        if any {
            tab_hits += 1;
        }
    }
    let tab_rate = tab_hits as f64 / tab_shots as f64;
    assert!(
        (frame_rate - tab_rate).abs() < 0.03,
        "frame {frame_rate} vs tableau {tab_rate}"
    );
}

/// Below threshold, increasing the distance suppresses the decoded logical
/// error rate of the memory experiment.
#[test]
fn memory_error_suppression_with_distance() {
    let memory = Scenario::Memory {
        rounds: Rounds::TimesDistance(1),
    };
    let rate = |d| run(&spec(memory, d, 2e-3, 40_000, 3)).logical_error_rate();
    let r3 = rate(3);
    let r5 = rate(5);
    assert!(
        r5 <= r3.max(2.5e-5) * 1.2,
        "no suppression: d=3 {r3}, d=5 {r5}"
    );
}

/// The exact matching decoder is at least as accurate as union–find on the
/// same syndromes (it is the MLE-like reference of the α calibration).
#[test]
fn matching_reference_not_worse_than_unionfind() {
    let memory = Scenario::Memory {
        rounds: Rounds::Fixed(3),
    };
    let rate = |decoder| {
        let spec = ExperimentSpec {
            decoder,
            ..spec(memory, 3, 8e-3, 20_000, 4)
        };
        run(&spec).logical_error_rate()
    };
    // Same seed, so both decoders see the same syndromes.
    let r_uf = rate(DecoderChoice::UnionFind);
    let r_m = rate(DecoderChoice::Matching);
    assert!(
        r_m <= r_uf * 1.2 + 0.005,
        "matching {r_m} vs union-find {r_uf}"
    );
}

/// Correlated decoding end to end: a two-patch transversal-CNOT circuit
/// decodes to a usefully low logical error rate, and the per-CNOT error is
/// finite and grows with the physical rate.
#[test]
fn transversal_cnot_pipeline() {
    let cnot = Scenario::TransversalCnot {
        patches: 2,
        depth: 8,
        cnots_per_round: 1.0,
    };
    let per_cnot = |p| {
        let record = run(&spec(cnot, 3, p, 20_000, 5));
        record.error_per_cnot().expect("a CNOT circuit")
    };
    let low = per_cnot(1e-3);
    let high = per_cnot(6e-3);
    assert!(low < high, "error must grow with p: {low} vs {high}");
    assert!(high < 0.5, "decoding must stay useful: {high}");
}

/// The decomposition path: surface-code DEMs contain hyperedges (from Y
/// errors) that decompose into existing graphlike mechanisms.
#[test]
fn dem_decomposition_handles_surface_code() {
    let exp = MemoryExperiment {
        distance: 3,
        rounds: 3,
        basis: Basis::Z,
        noise: NoiseModel::uniform(1e-3),
    };
    let c = exp.build();
    let dem = DetectorErrorModel::from_circuit(&c);
    let hyper = dem.iter().filter(|e| e.detectors.len() > 2).count();
    assert!(hyper > 0, "expected hyperedges from Y errors");
    let (graphlike, _arbitrary) = dem.decompose_graphlike();
    assert!(graphlike.iter().all(|e| e.detectors.len() <= 2));
    // Decomposition must preserve the mechanism mass approximately.
    assert!(graphlike.len() >= dem.len() - hyper);
}
