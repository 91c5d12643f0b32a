//! The experiment engine: spec → circuit → DEM → decoder → statistics.
//!
//! [`run`] is a pure function of its [`ExperimentSpec`]: the spec seed
//! drives both circuit construction (random CNOT directions in the
//! transversal scenario) and the Monte-Carlo decode streams through
//! independent derived streams, and decoding goes through the
//! deterministically-sharded pipeline of [`raa_decode::mc`], so the result
//! is bit-identical for any thread count or batch size.

use crate::record::ExperimentRecord;
use crate::spec::{
    DecoderChoice, ExperimentSpec, Rounds, SamplerChoice, Scenario, SpecError, SweepGrid,
};
use raa_decode::mc::{self, CircuitSampler, DecodeStats, McError};
use raa_decode::{
    BpUnionFindDecoder, Decoder, DecodingGraph, MatchingDecoder, UniformLayers, UnionFindDecoder,
    WindowedDecoder,
};
use raa_stabsim::{Circuit, DemSampler, DetectorErrorModel, StreamingDemSampler};
use raa_surface::{
    Code832MemoryExperiment, GhzFanoutExperiment, MemoryExperiment, ScheduledCnotExperiment,
    TransversalCnotExperiment,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::time::Instant;

/// Stream tag for circuit construction randomness.
const CIRCUIT_STREAM: u64 = 0xC1;
/// Stream tag for the Monte-Carlo decode seed.
const DECODE_STREAM: u64 = 0xDEC0;

/// Derives an independent seed for a stream or grid point from a base
/// seed, via the shared SplitMix64-style [`raa_decode::mc::mix_seed`] (the
/// same construction as the per-batch decode streams).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mc::mix_seed(seed, stream)
}

/// Builds the noisy circuit a spec describes (deterministic in the spec).
///
/// # Panics
///
/// Panics if [`ExperimentSpec::validate`] rejects the spec.
pub fn build_circuit(spec: &ExperimentSpec) -> Circuit {
    if let Err(e) = spec.validate() {
        // raa-audit: allow(panic-path): the documented panic of the infallible builder; the daemon's workers go through try_run, which returns the same error typed.
        panic!("{e}");
    }
    build(spec).0
}

/// `(patches, cnots, se_rounds, cnots_per_round)`: the schedule facts a
/// record reports about its circuit.
type Shape = (usize, usize, usize, Option<f64>);

/// Builds a validated spec's circuit together with its [`Shape`] — the one
/// place the engine matches on the scenario.
fn build(spec: &ExperimentSpec) -> (Circuit, Shape) {
    let (distance, basis, noise) = (spec.distance, spec.basis, spec.noise);
    // Random CNOT directions come from their own stream of the spec seed.
    let transversal = |exp: TransversalCnotExperiment| {
        let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, CIRCUIT_STREAM));
        let shape = (
            exp.patches,
            exp.depth,
            exp.expected_se_rounds(),
            Some(exp.cnots_per_round),
        );
        (exp.build(&mut rng), shape)
    };
    let scheduled = |patches, schedule, rounds: Rounds| {
        let exp = ScheduledCnotExperiment {
            distance,
            patches,
            schedule,
            rounds: rounds.resolve(distance),
            basis,
            noise,
        };
        (exp.build(), (patches, exp.cnots(), exp.rounds, None))
    };
    match spec.scenario {
        Scenario::Memory { rounds } => {
            let rounds = rounds.resolve(distance);
            let exp = MemoryExperiment {
                distance,
                rounds,
                basis,
                noise,
            };
            (exp.build(), (1, 0, rounds, None))
        }
        Scenario::TransversalCnot {
            patches,
            depth,
            cnots_per_round,
        } => transversal(TransversalCnotExperiment {
            distance,
            patches,
            depth,
            cnots_per_round,
            basis,
            noise,
        }),
        Scenario::GhzFanout { targets } => {
            let exp = GhzFanoutExperiment {
                distance,
                targets,
                noise,
            };
            (
                exp.build(),
                (exp.patches(), exp.cnots(), exp.se_rounds(), None),
            )
        }
        Scenario::DeepCnot {
            patches,
            rounds,
            cnots_per_round,
        } => transversal(TransversalCnotExperiment {
            distance,
            patches,
            depth: deep_cnot_depth(rounds.resolve(distance), cnots_per_round),
            cnots_per_round,
            basis,
            noise,
        }),
        Scenario::MagicFactory { protocol, rounds } => {
            scheduled(protocol.patches(), protocol.schedule(), rounds)
        }
        Scenario::Gadget {
            kind,
            width,
            rounds,
        } => scheduled(kind.patches(width), kind.schedule(width), rounds),
        Scenario::Code832Memory { rounds } => {
            let rounds = rounds.resolve(distance);
            let exp = Code832MemoryExperiment { rounds, noise };
            (exp.build(), (1, 0, rounds, None))
        }
    }
}

/// The CNOT depth behind a [`Scenario::DeepCnot`] spec: the round count is
/// the knob, so the depth is the largest one whose schedule (one SE round
/// after initialization plus `⌈depth / x⌉` more) emits **at most**
/// `total_rounds` SE rounds — exactly `total_rounds` whenever
/// `(total_rounds − 1) · x` is an integer, never more.
fn deep_cnot_depth(total_rounds: usize, cnots_per_round: f64) -> usize {
    let rounds_for = |depth: usize| 1 + (depth as f64 / cnots_per_round).ceil() as usize;
    // Start one above the float floor (guarding rounding dirt in the
    // product), then step down until the schedule fits the round budget.
    let mut depth = (((total_rounds - 1) as f64) * cnots_per_round).floor() as usize + 1;
    while depth > 1 && rounds_for(depth) > total_rounds {
        depth -= 1;
    }
    depth
}

/// Runs the spec's shot budget through its chosen sampling path and
/// returns the statistics with the sampling + decoding wall time. The DEM
/// path compiles the engine's already-extracted `dem` (no second
/// extraction); the circuit path re-simulates gate by gate.
fn decode_budget<D: Decoder + Sync>(
    circuit: &Circuit,
    dem: &DetectorErrorModel,
    decoder: &D,
    spec: &ExperimentSpec,
    seed: u64,
) -> Result<(DecodeStats, f64), McError> {
    // raa-audit: allow(nondet-time): decode_seconds lands in RunTiming, not in the ExperimentRecord.
    let start = Instant::now();
    let stats = match spec.sampler {
        SamplerChoice::Dem => {
            let sampler = DemSampler::new(dem);
            mc::logical_error_rate_sampled(&sampler, decoder, spec.shots, seed, &spec.mc)
        }
        SamplerChoice::Circuit => {
            let sampler = CircuitSampler::new(circuit);
            mc::logical_error_rate_sampled(&sampler, decoder, spec.shots, seed, &spec.mc)
        }
    }?;
    Ok((stats, start.elapsed().as_secs_f64()))
}

/// Wall-clock split of one engine run. Never part of the record (records
/// are deterministic; wall time is not).
#[derive(Debug, Clone, Copy)]
pub struct RunTiming {
    /// Circuit construction, DEM extraction, graph decomposition and
    /// decoder construction.
    pub setup_seconds: f64,
    /// Sampling + Monte-Carlo decoding only — the number to use for decoder
    /// throughput comparisons.
    pub decode_seconds: f64,
}

/// Why [`try_run`] produced no record.
#[derive(Debug)]
pub enum RunError {
    /// The spec is invalid ([`ExperimentSpec::validate`], or a streaming
    /// window that covers the whole circuit): a property of the point.
    Spec(SpecError),
    /// The decode thread pool could not be built: an infrastructure fault,
    /// not a property of the point.
    Pool(McError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Spec(e) => e.fmt(f),
            RunError::Pool(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::Spec(e)
    }
}

impl From<McError> for RunError {
    fn from(e: McError) -> Self {
        RunError::Pool(e)
    }
}

/// Runs one spec end to end: validation → build → DEM extraction →
/// graphlike decomposition → decoder construction → parallel Monte-Carlo
/// decoding → result record.
///
/// # Panics
///
/// Panics with the error's message wherever [`try_run`] returns an error.
pub fn run(spec: &ExperimentSpec) -> ExperimentRecord {
    run_timed(spec).0
}

/// Like [`run`], but also reports the setup/decode wall-clock split.
///
/// # Panics
///
/// As [`run`]; see [`try_run_timed`] for the fallible form.
pub fn run_timed(spec: &ExperimentSpec) -> (ExperimentRecord, RunTiming) {
    // raa-audit: allow(panic-path): the documented panic of the infallible entry point; the daemon's workers call try_run and get the error typed.
    try_run_timed(spec).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`run`].
///
/// # Errors
///
/// [`RunError::Spec`] when the spec is invalid (checked before anything is
/// built), [`RunError::Pool`] when the spec's [`raa_decode::McConfig`]
/// requests a dedicated thread pool and building it fails.
pub fn try_run(spec: &ExperimentSpec) -> Result<ExperimentRecord, RunError> {
    Ok(try_run_timed(spec)?.0)
}

/// Fallible form of [`run_timed`].
///
/// # Errors
///
/// As [`try_run`].
pub fn try_run_timed(spec: &ExperimentSpec) -> Result<(ExperimentRecord, RunTiming), RunError> {
    spec.validate()?;
    // raa-audit: allow(nondet-time): the wall-clock split is reported beside the record in RunTiming and never enters a record, fingerprint, or memo.
    let start = Instant::now();
    let (circuit, (patches, cnots, se_rounds, cnots_per_round)) = build(spec);
    let dem = DetectorErrorModel::from_circuit(&circuit);
    let (graph, arbitrary) = DecodingGraph::from_dem_decomposed(&dem);
    let seed = derive_seed(spec.seed, DECODE_STREAM);
    let (stats, decode_seconds) = match spec.decoder {
        DecoderChoice::UnionFind => {
            decode_budget(&circuit, &dem, &UnionFindDecoder::new(graph), spec, seed)?
        }
        DecoderChoice::Matching => {
            decode_budget(&circuit, &dem, &MatchingDecoder::new(graph), spec, seed)?
        }
        DecoderChoice::BpUnionFind => {
            decode_budget(&circuit, &dem, &BpUnionFindDecoder::new(&dem), spec, seed)?
        }
        DecoderChoice::Windowed { commit, buffer } => {
            let detectors_per_layer = spec
                .scenario
                .detectors_per_layer(spec.distance)
                .ok_or(SpecError::UNLAYERED_WINDOW)?;
            let layers = UniformLayers {
                detectors_per_layer,
            };
            if spec.streaming {
                // Streaming promises O(window) resident state, which a
                // window that swallows the circuit silently breaks — the
                // validating constructor turns that into a typed error.
                let decoder = WindowedDecoder::try_new(graph, layers, commit, buffer)
                    .map_err(|e| SpecError::Window(true, e))?;
                let sampler = StreamingDemSampler::new(&dem, detectors_per_layer);
                // raa-audit: allow(nondet-time): decode_seconds lands in RunTiming, not in the ExperimentRecord.
                let t0 = Instant::now();
                let stats = mc::logical_error_rate_streamed(
                    &sampler, &decoder, spec.shots, seed, &spec.mc,
                )?;
                (stats, t0.elapsed().as_secs_f64())
            } else {
                // The batch path stays permissive: convergence sweeps
                // legitimately drive buffer 0 and global-window points.
                let decoder = WindowedDecoder::new(graph, layers, commit, buffer);
                decode_budget(&circuit, &dem, &decoder, spec, seed)?
            }
        }
    };
    let timing = RunTiming {
        setup_seconds: start.elapsed().as_secs_f64() - decode_seconds,
        decode_seconds,
    };
    let record = ExperimentRecord {
        name: spec.name.clone(),
        scenario: spec.scenario.label().into(),
        distance: spec.distance,
        basis: spec.basis,
        patches,
        cnots,
        se_rounds,
        cnots_per_round,
        noise: spec.noise,
        decoder: spec.decoder.label(),
        sampler: spec.sampler.label().into(),
        streaming: spec.streaming,
        seed: spec.seed,
        num_detectors: circuit.num_detectors(),
        num_dem_errors: dem.len(),
        arbitrary_decompositions: arbitrary,
        shots: stats.shots,
        failures: stats.failures,
    };
    Ok((record, timing))
}

/// Runs every point of a sweep grid in its deterministic expansion order.
///
/// Each point's decoding is already sharded across threads by the
/// [`raa_decode::mc`] pipeline, so points run serially (bounding peak
/// memory to one circuit + one decoder at a time) without leaving cores
/// idle.
pub fn run_sweep(grid: &SweepGrid) -> Vec<ExperimentRecord> {
    grid.specs().iter().map(run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Rounds, ShotBudget};
    use raa_decode::McConfig;

    fn memory_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            "test/memory",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(3e-3);
        spec.shots = ShotBudget::Fixed(2_000);
        spec.seed = 7;
        spec
    }

    #[test]
    fn memory_record_accounting() {
        let r = run(&memory_spec());
        assert_eq!(r.scenario, "memory");
        assert_eq!(r.shots, 2_000);
        assert_eq!(r.patches, 1);
        assert_eq!(r.cnots, 0);
        assert_eq!(r.se_rounds, 2);
        assert!(r.num_detectors > 0);
        assert!(r.num_dem_errors > 0);
        assert!(r.logical_error_rate() < 0.1);
        assert!(r.error_per_cnot().is_none());
    }

    #[test]
    fn try_run_matches_run() {
        let spec = memory_spec();
        let (record, timing) = try_run_timed(&spec).expect("ambient pool cannot fail");
        assert_eq!(record.to_json(), run(&spec).to_json());
        assert!(timing.decode_seconds >= 0.0);
        assert!(timing.setup_seconds >= 0.0);
    }

    #[test]
    fn transversal_record_accounting() {
        let mut spec = ExperimentSpec::new(
            "test/cnot",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 4,
                cnots_per_round: 2.0,
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(2e-3);
        spec.shots = ShotBudget::Fixed(1_000);
        let r = run(&spec);
        assert_eq!(r.cnots, 4);
        assert_eq!(r.se_rounds, 3);
        assert_eq!(r.patches, 2);
        assert_eq!(r.cnots_per_round, Some(2.0));
        assert!(r.logical_error_rate() < 0.2);
        assert!(r.error_per_cnot().unwrap() <= r.logical_error_rate());
    }

    #[test]
    fn ghz_record_accounting() {
        let mut spec = ExperimentSpec::new("test/ghz", Scenario::GhzFanout { targets: 3 }, 3);
        spec.noise = raa_surface::NoiseModel::uniform(1e-3);
        spec.shots = ShotBudget::Fixed(500);
        let r = run(&spec);
        assert_eq!(r.patches, 5);
        assert_eq!(r.cnots, 4);
        assert!(r.logical_error_rate() < 0.1);
    }

    #[test]
    fn factory_record_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/factory",
            Scenario::MagicFactory {
                protocol: crate::FactoryProtocol::Ccz,
                rounds: Rounds::Fixed(3),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(500);
        let circuit = build_circuit(&spec);
        let dpl = spec.scenario.detectors_per_layer(3).unwrap();
        assert_eq!(dpl, 64);
        assert_eq!(circuit.num_detectors(), 3 * dpl);
        let r = run(&spec);
        assert_eq!(r.scenario, "factory_ccz");
        assert_eq!(r.patches, 8);
        assert_eq!(r.se_rounds, 3);
        assert_eq!(r.cnots, 8, "two cycled cube layers of four CNOTs");
        assert_eq!(r.cnots_per_round, None);
        assert!(r.num_dem_errors > 0);
    }

    #[test]
    fn gadget_record_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/gadget",
            Scenario::Gadget {
                kind: crate::GadgetKind::Adder,
                width: 2,
                rounds: Rounds::Fixed(4),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(500);
        let circuit = build_circuit(&spec);
        let dpl = spec.scenario.detectors_per_layer(3).unwrap();
        assert_eq!(dpl, 5 * 8, "2w + 1 patches");
        assert_eq!(circuit.num_detectors(), 4 * dpl);
        let r = run(&spec);
        assert_eq!(r.scenario, "gadget_adder");
        assert_eq!(r.patches, 5);
        assert_eq!(r.se_rounds, 4);
        assert_eq!(r.cnots, 6, "three cycled MAJ/UMA layers of two CNOTs");
        assert_eq!(r.cnots_per_round, None);
    }

    #[test]
    fn code832_record_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/832",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
            2,
        );
        spec.shots = ShotBudget::Fixed(2_000);
        let circuit = build_circuit(&spec);
        assert_eq!(circuit.num_detectors(), 20, "four per round plus final");
        assert_eq!(circuit.num_detectors() % 4, 0);
        let r = run(&spec);
        assert_eq!(r.scenario, "code832_memory");
        assert_eq!(r.patches, 1);
        assert_eq!(r.cnots, 0);
        assert_eq!(r.se_rounds, 4);
        assert!(r.num_dem_errors > 0);
    }

    #[test]
    #[should_panic(expected = "distance must be 2")]
    fn code832_rejects_wrong_distance() {
        build_circuit(&ExperimentSpec::new(
            "bad",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        ));
    }

    #[test]
    fn until_failures_budget_stops_early() {
        let mut spec = memory_spec();
        spec.noise = raa_surface::NoiseModel::uniform(1e-2);
        spec.shots = ShotBudget::UntilFailures {
            max_shots: 1_000_000,
            target_failures: 5,
        };
        let r = run(&spec);
        assert!(r.failures >= 5);
        assert!(r.shots < 1_000_000);
    }

    #[test]
    fn identical_spec_is_bit_identical_across_thread_counts() {
        let spec = memory_spec();
        let base = run(&ExperimentSpec {
            mc: McConfig::default().with_threads(1),
            ..spec.clone()
        });
        for threads in [2usize, 4] {
            let multi = run(&ExperimentSpec {
                mc: McConfig::default().with_threads(threads),
                ..spec.clone()
            });
            assert_eq!(base.to_json(), multi.to_json(), "threads = {threads}");
        }
    }

    #[test]
    fn all_decoders_run_on_memory() {
        for decoder in [
            DecoderChoice::UnionFind,
            DecoderChoice::Matching,
            DecoderChoice::BpUnionFind,
            DecoderChoice::Windowed {
                commit: 2,
                buffer: 2,
            },
        ] {
            let mut spec = memory_spec();
            spec.shots = ShotBudget::Fixed(500);
            spec.decoder = decoder;
            let r = run(&spec);
            assert_eq!(r.shots, 500, "{:?}", decoder);
            assert!(r.logical_error_rate() < 0.2, "{:?}", decoder);
        }
    }

    #[test]
    #[should_panic(expected = "uniformly layered scenario")]
    fn windowed_rejected_for_transversal() {
        let mut spec = ExperimentSpec::new(
            "bad",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 2,
                cnots_per_round: 1.0,
            },
            3,
        );
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 2,
        };
        run(&spec);
    }

    #[test]
    fn deep_cnot_round_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/deep",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::Fixed(7),
                cnots_per_round: 2.0,
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(2e-3);
        spec.shots = ShotBudget::Fixed(500);
        let circuit = build_circuit(&spec);
        let dpl = spec.scenario.detectors_per_layer(3).unwrap();
        assert_eq!(dpl, 16);
        // The round knob is honoured and the detectors layer uniformly.
        assert_eq!(circuit.num_detectors() % dpl, 0);
        assert_eq!(circuit.num_detectors() / dpl, 7);
        let r = run(&spec);
        assert_eq!(r.scenario, "deep_cnot");
        assert_eq!(r.se_rounds, 7);
        assert_eq!(r.cnots, 12, "depth = (rounds-1) * x");
        assert_eq!(r.cnots_per_round, Some(2.0));
        assert!(r.error_per_cnot().is_some());
    }

    #[test]
    fn deep_cnot_fractional_x_never_exceeds_round_budget() {
        // The depth derivation must respect the round knob even when
        // (rounds-1) * x is fractional: at most `rounds` SE rounds,
        // exactly `rounds` when the product is clean.
        for (rounds, x, want_rounds) in [
            (4usize, 0.7, 4usize),
            (2, 1.5, 2),
            // x = 0.5 reaches only odd round counts (1 + 2 per gate): an
            // even budget lands one short, never over.
            (60, 0.5, 59),
            (61, 0.5, 61),
            (7, 2.0, 7),
        ] {
            let mut spec = ExperimentSpec::new(
                "test/deep-frac",
                Scenario::DeepCnot {
                    patches: 2,
                    rounds: Rounds::Fixed(rounds),
                    cnots_per_round: x,
                },
                3,
            );
            spec.noise = raa_surface::NoiseModel::uniform(1e-3);
            let circuit = build_circuit(&spec);
            let layers = circuit.num_detectors() / spec.scenario.detectors_per_layer(3).unwrap();
            assert!(layers <= rounds, "rounds={rounds} x={x}: emitted {layers}");
            assert_eq!(layers, want_rounds, "rounds={rounds} x={x}");
        }
    }

    #[test]
    fn streaming_spec_runs_and_is_thread_deterministic() {
        let mut spec = ExperimentSpec::new(
            "test/streaming",
            Scenario::Memory {
                rounds: Rounds::Fixed(12),
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(4e-3);
        spec.shots = ShotBudget::Fixed(1_500);
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 3,
        };
        spec.streaming = true;
        spec.seed = 0x5EED;
        let base = run(&ExperimentSpec {
            mc: McConfig::default().with_threads(1),
            ..spec.clone()
        });
        assert!(base.to_json().contains("\"streaming\":true"));
        assert_eq!(base.shots, 1_500);
        for threads in [2usize, 8] {
            let multi = run(&ExperimentSpec {
                mc: McConfig::default().with_threads(threads),
                ..spec.clone()
            });
            assert_eq!(base.to_json(), multi.to_json(), "threads = {threads}");
        }
    }

    #[test]
    fn streaming_deep_cnot_runs() {
        let mut spec = ExperimentSpec::new(
            "test/deep-streaming",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::TimesDistance(4),
                cnots_per_round: 1.0,
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(2e-3);
        spec.shots = ShotBudget::Fixed(400);
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 4,
        };
        spec.streaming = true;
        let r = run(&spec);
        assert_eq!(r.shots, 400);
        assert_eq!(r.se_rounds, 12);
        // 11 transversal CNOTs at d = 3: the shot-level rate is dominated
        // by the gate count (the per-CNOT rate is what the paper plots).
        assert!(r.logical_error_rate() < 0.3);
        assert!(r.error_per_cnot().unwrap() < 0.05);
    }

    #[test]
    #[should_panic(expected = "requires the windowed decoder")]
    fn streaming_rejected_without_windowed_decoder() {
        let mut spec = memory_spec();
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "streaming windowed decode rejected")]
    fn streaming_rejected_with_zero_buffer() {
        let mut spec = memory_spec();
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 0,
        };
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "streaming windowed decode rejected")]
    fn streaming_rejected_with_global_window() {
        let mut spec = memory_spec();
        // Way past the circuit's layer count: a "windowed" decode that
        // would actually hold every layer resident.
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 10_000,
        };
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "set the DEM sampler")]
    fn streaming_rejected_with_circuit_sampler() {
        let mut spec = memory_spec();
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 2,
        };
        spec.sampler = SamplerChoice::Circuit;
        spec.streaming = true;
        run(&spec);
    }

    /// `memory_spec` at 64 shots with one change applied.
    fn with(change: impl FnOnce(&mut ExperimentSpec)) -> ExperimentSpec {
        let mut spec = memory_spec();
        spec.shots = ShotBudget::Fixed(64);
        change(&mut spec);
        spec
    }

    fn windowed(commit: usize, buffer: usize) -> DecoderChoice {
        DecoderChoice::Windowed { commit, buffer }
    }

    /// Asserts that `memory_spec` with `change` applied fails validation
    /// with exactly `error`, and that neither `try_run` nor `run` runs it.
    fn assert_rejected(error: SpecError, change: impl FnOnce(&mut ExperimentSpec)) {
        let spec = with(change);
        assert_eq!(spec.validate(), Err(error.clone()));
        assert!(matches!(try_run(&spec), Err(RunError::Spec(e)) if e == error));
        let outcome = std::panic::catch_unwind(|| run(&spec));
        assert!(outcome.is_err(), "{error}: an invalid spec ran");
    }

    #[test]
    fn invalid_specs_fail_validation_and_never_run() {
        use raa_decode::WindowError::{WindowExceedsCircuit, ZeroCommit};
        use SpecError as E;
        let cnot = |patches, x| Scenario::TransversalCnot {
            patches,
            depth: 2,
            cnots_per_round: x,
        };
        // One spec per graph-free check, with the exact error it gives.
        let (odd, positive) = ("odd and at least 3", "positive and finite");
        assert_rejected(E::OutOfRange("distance", 4.0, odd), |s| s.distance = 4);
        assert_rejected(E::TooSmall("patches", 1, 2), |s| s.scenario = cnot(1, 1.0));
        assert_rejected(E::TooSmall("SE rounds", 0, 1), |s| {
            s.scenario = Scenario::Memory {
                rounds: Rounds::Fixed(0),
            }
        });
        let x = E::OutOfRange("cnots_per_round", 0.0, positive);
        assert_rejected(x, |s| s.scenario = cnot(2, 0.0));
        let noise = E::OutOfRange("p_meas", 1.5, "in [0, 1]");
        assert_rejected(noise, |s| s.noise.p_meas = 1.5);
        assert_rejected(E::Window(false, ZeroCommit), |s| s.decoder = windowed(0, 2));
        assert_rejected(E::UNLAYERED_WINDOW, |s| {
            (s.scenario, s.decoder) = (Scenario::GhzFanout { targets: 2 }, windowed(2, 2))
        });
        let message = "streaming decoding requires the windowed decoder";
        assert_rejected(E::Unsupported(message), |s| s.streaming = true);
        let message = "streaming decoding samples the time-sliced DEM; set the DEM sampler";
        assert_rejected(E::Unsupported(message), |s| {
            (s.decoder, s.streaming, s.sampler) = (windowed(2, 2), true, SamplerChoice::Circuit)
        });
        // The graph-dependent variant: a streaming window only proves too
        // wide once the circuit is built.
        let global = with(|s| (s.decoder, s.streaming) = (windowed(2, 10_000), true));
        assert_eq!(global.validate(), Ok(()));
        assert!(matches!(
            try_run(&global),
            Err(RunError::Spec(E::Window(true, WindowExceedsCircuit { .. })))
        ));
        // The grid-axis variant, through the grid's own validator.
        let grid = SweepGrid::new("g", memory_spec().scenario).with_distances(Vec::new());
        assert_eq!(grid.validate(), Err(E::Axis("need at least one distance")));
        assert!(std::panic::catch_unwind(|| grid.specs()).is_err());
    }

    #[test]
    fn boundary_specs_validate_and_run() {
        let rounds = Rounds::Fixed;
        let deep = Scenario::DeepCnot {
            patches: 2,
            rounds: rounds(2),
            cnots_per_round: 1.0,
        };
        let code832 = Scenario::Code832Memory { rounds: rounds(2) };
        for spec in [
            with(|_| {}),
            with(|s| s.scenario = Scenario::Memory { rounds: rounds(1) }),
            with(|s| s.scenario = deep),
            with(|s| (s.scenario, s.distance) = (code832, 2)),
            with(|s| s.decoder = windowed(1, 0)),
        ] {
            assert_eq!(spec.validate(), Ok(()), "{:?}", spec.scenario);
            assert_eq!(run(&spec).shots, 64, "{:?}", spec.scenario);
        }
    }

    #[test]
    fn fewer_se_rounds_per_cnot_is_cheaper_per_gate() {
        // The paper's core point (§II.4): O(1) SE rounds per transversal gate
        // suffice, and *extra* rounds per gate add noise volume. At fixed
        // depth, the x = 4 schedule (few rounds) must not be more error-prone
        // per gate than the x = 0.5 schedule (two rounds per gate).
        let rate = |x: f64| {
            let spec = with(|s| {
                s.scenario = Scenario::TransversalCnot {
                    patches: 2,
                    depth: 8,
                    cnots_per_round: x,
                };
                s.noise = raa_surface::NoiseModel::uniform(4e-3);
                (s.shots, s.seed) = (ShotBudget::Fixed(6_000), 4);
            });
            run(&spec).logical_error_rate()
        };
        let slow = rate(0.5); // 2 SE rounds per CNOT: 17 rounds total
        let fast = rate(4.0); // 4 CNOTs per SE round: 3 rounds total
        assert!(
            fast < slow,
            "extra SE rounds should cost more per gate: slow {slow}, fast {fast}"
        );
    }

    #[test]
    fn derived_seeds_are_spread() {
        let a = derive_seed(0, 0);
        let b = derive_seed(0, 1);
        let c = derive_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
