//! `deep_stream`: one deep memory spec per pass through `raa_sim::run_timed`
//! — d = 7, 70 SE rounds, windowed decode (commit 7 / buffer 7) streamed
//! from the time-sliced DEM sampler. The only path where DEM extraction,
//! graph decomposition and window-template compile do real work; it
//! bypasses the cache and both codecs.

use crate::common::{expect, parallel_batches, Ctx, Ops, Samples, UserPath, DECODE_STREAM};
use crate::trace::Tracer;
use raa_decode::{mc, DecodingGraph, UniformLayers, WindowedDecoder};
use raa_sim::{
    build_circuit, derive_seed, run_timed, DecoderChoice, ExperimentRecord, ExperimentSpec,
    NoiseModel, Rounds, SamplerChoice, Scenario, ShotBudget,
};
use raa_stabsim::{DetectorErrorModel, StreamingDemSampler, StreamingScratch};
use rand::Rng;
use std::time::Instant;

/// `(distance, rounds, shots, failures at seed 0)` — the failure count is
/// an exact anchor of the deterministic engine.
fn shape(ctx: &Ctx) -> (u32, usize, usize, usize) {
    if ctx.smoke {
        (3, 12, 2_000, 14)
    } else {
        (7, 70, 20_000, 8)
    }
}

pub fn spec(ctx: &Ctx) -> ExperimentSpec {
    let (d, rounds, shots, _) = shape(ctx);
    let mut spec = ExperimentSpec::new(
        "bench/deep_stream",
        Scenario::Memory {
            rounds: Rounds::Fixed(rounds),
        },
        d,
    );
    spec.noise = NoiseModel::uniform(1e-3);
    spec.decoder = DecoderChoice::Windowed {
        commit: d as usize,
        buffer: d as usize,
    };
    spec.streaming = true;
    spec.sampler = SamplerChoice::Dem;
    spec.shots = ShotBudget::Fixed(shots);
    spec.seed = ctx.seed;
    spec
}

/// The checks every record of this path must pass.
fn check_record(ctx: &Ctx, record: &ExperimentRecord, problems: &mut Vec<String>) {
    let (d, rounds, shots, failures) = shape(ctx);
    let detectors = (d * d - 1) as usize * rounds;
    expect(problems, record.num_detectors == detectors, || {
        format!("deep: {} detectors, want {detectors}", record.num_detectors)
    });
    expect(problems, record.shots == shots, || {
        format!("deep: {} shots, want {shots}", record.shots)
    });
    if ctx.pinned() {
        let want = ctx.anchor(failures);
        expect(problems, record.failures == want, || {
            format!(
                "deep: {} failures at seed 0, pinned {want}",
                record.failures
            )
        });
    }
}

pub struct Deep {
    spec: ExperimentSpec,
    /// Whether this is the workload's own path (it then reports `setup_s`).
    primary: bool,
    first: Option<String>,
}

impl Deep {
    pub fn new(ctx: &Ctx, primary: bool) -> Self {
        Self {
            spec: spec(ctx),
            primary,
            first: None,
        }
    }
}

impl UserPath for Deep {
    /// One `run_timed` pass: `point_s` (its wall time) and `shots_per_s`
    /// (shots over decode time); as the workload's own path also
    /// `setup_s`, the engine's own set-up split.
    fn unit(&mut self, ctx: &Ctx, samples: &mut Samples, ops: &mut Ops) {
        let t0 = Instant::now();
        let (record, timing) = run_timed(&self.spec);
        let point_s = t0.elapsed().as_secs_f64();
        samples.push("point_s", point_s);
        samples.push("shots_per_s", record.shots as f64 / timing.decode_seconds);
        if self.primary {
            samples.push("setup_s", timing.setup_seconds);
        }
        let mut problems = Vec::new();
        check_record(ctx, &record, &mut problems);
        let json = record.to_json();
        let same = self.first.get_or_insert_with(|| json.clone()) == &json;
        expect(&mut problems, same, || "deep: passes disagree".into());
        ops.record(problems);
    }

    /// The untraced `run_timed`, then a replay of its stages with a span
    /// around each call, then a sample-only pass at the same shots and
    /// batch. The replay's statistics must equal the record's.
    fn traced_unit(&mut self, ctx: &Ctx, t: &mut Tracer, samples: &mut Samples, ops: &mut Ops) {
        let spec = &self.spec;
        t.begin_op("deep", "pass");
        let t0 = Instant::now();
        let (record, timing) = run_timed(spec);
        let point_s = t0.elapsed().as_secs_f64();

        let replay0 = Instant::now();
        let circuit = t.time("surface.build", || build_circuit(spec));
        let dem = t.time("stabsim.dem_extract", || {
            DetectorErrorModel::from_circuit(&circuit)
        });
        let (graph, arbitrary) = t.time("decode.decompose", || {
            DecodingGraph::from_dem_decomposed(&dem)
        });
        let dpl = spec
            .scenario
            .detectors_per_layer(spec.distance)
            .expect("memory is uniformly layered");
        let DecoderChoice::Windowed { commit, buffer } = spec.decoder else {
            unreachable!("the deep spec decodes windowed")
        };
        let layers = UniformLayers {
            detectors_per_layer: dpl,
        };
        let decoder = t
            .time("decode.window_compile", || {
                WindowedDecoder::try_new(graph, layers, commit, buffer)
            })
            .expect("the deep window geometry is valid");
        let sampler = t.time("stabsim.stream_sampler_compile", || {
            StreamingDemSampler::new(&dem, dpl)
        });
        let seed = derive_seed(spec.seed, DECODE_STREAM);
        let stats = t
            .time("decode.mc_streamed", || {
                mc::logical_error_rate_streamed(&sampler, &decoder, record.shots, seed, &spec.mc)
            })
            .expect("the ambient pool cannot fail");
        let replay_s = replay0.elapsed().as_secs_f64();

        t.time("stabsim.stream_sample", || {
            parallel_batches(
                record.shots,
                spec.mc.batch,
                ctx.threads,
                seed,
                |(scratch, obs): &mut (StreamingScratch, Vec<u64>), len, rng| {
                    let base = rng.random::<u64>();
                    sampler.start_batch(len, scratch);
                    obs.clear();
                    obs.resize(len, 0);
                    for layer in 0..sampler.num_layers() {
                        let mut layer_rng =
                            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(mc::mix_seed(
                                base,
                                layer as u64,
                            ));
                        sampler.sample_next_layer(&mut layer_rng, scratch, obs);
                    }
                    std::hint::black_box(&*obs);
                },
            )
        });
        t.end_op();

        let stages: f64 = [
            "surface.build",
            "stabsim.dem_extract",
            "decode.decompose",
            "decode.window_compile",
            "stabsim.stream_sampler_compile",
            "decode.mc_streamed",
        ]
        .iter()
        .map(|name| t.last(name))
        .sum();
        samples.push(
            "deep.stage_sum_ratio",
            stages / (timing.setup_seconds + timing.decode_seconds),
        );
        samples.push("deep.trace_overhead_s", replay_s - point_s);
        samples.push("deep.trace_overhead_ratio", replay_s / point_s);
        samples.push("deep.stabsim.dem_errors", dem.len() as f64);
        samples.push("deep.decode.arbitrary_decompositions", arbitrary as f64);
        samples.push(
            "deep.stabsim.window_detectors",
            sampler.window_detectors() as f64,
        );
        samples.push("deep.decode.shots", stats.shots as f64);
        samples.push("deep.decode.failures", stats.failures as f64);

        let mut problems = Vec::new();
        check_record(ctx, &record, &mut problems);
        expect(
            &mut problems,
            (stats.shots, stats.failures) == (record.shots, record.failures),
            || format!("deep: replay {stats:?} differs from the record"),
        );
        expect(&mut problems, dem.len() == record.num_dem_errors, || {
            "deep: replay DEM size differs from the record".into()
        });
        expect(
            &mut problems,
            arbitrary == record.arbitrary_decompositions,
            || "deep: replay decomposition differs from the record".into(),
        );
        ops.record(problems);
    }
}
