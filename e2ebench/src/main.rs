//! End-to-end benchmark of the three user paths of this repository: one
//! deep streamed point through `raa_sim::run_timed`, the cold and warm
//! calibration loop, and `raa-sweepd` requests. The two workloads,
//! `deep_stream` and `sweepd`, each run all three paths.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload deep_stream --seed 0 --seconds 20 --trace 0
//! ```
//!
//! A workload sets up its own path, runs one unit of it alone, then runs
//! rounds (two units of its own path, one of each other path) until
//! `--seconds` have passed, so every run reports every metric. Between
//! units the calibration path runs a few warm calibrations on its last
//! cold cache, so `cal_warm_ms` samples the whole run.
//! After every unit a fixed reference workload times the host, and every
//! end-to-end timing is reported at a nominal host speed (see
//! [`speed_exponent`]), so a shared host's drift cancels out.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays each
//! path with a span around every call into a layer and prints the
//! per-layer metrics. The last stdout line is the result object; the line
//! before it records host facts, inputs, per-metric sample counts and the
//! medians of measured values the result does not print (in a traced run,
//! the trace overhead in seconds).
//! Any failed output check makes the run exit with code 1.

mod cal;
mod common;
mod deep;
mod sweepd;
mod trace;

use common::{percentile, Ctx, Fault, HostReference, Ops, Samples, UserPath};
use raa_sim::ShotBudget;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("point_s", "s"),
    ("shots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cal_cold_s", "s"),
    ("cal_warm_ms", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("sweep_ms_p50", "ms"),
    ("connect_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
];

/// The host speed the end-to-end timings are reported at: the
/// [`HostReference`] measurement takes this long.
const NOMINAL_REFERENCE_MS: f64 = 6.0;
/// Reference measurements after every untraced unit.
const REFERENCES_PER_UNIT: usize = 10;

/// How an end-to-end metric follows host speed: CPU-bound times scale
/// with the reference time (exponent 1), rates against it (-1).
/// `connect_ms_p50` is mostly a wait on the accept loop's poll sleep and
/// `peak_rss_mb` is memory, so both stay as measured (0).
fn speed_exponent(name: &str, unit: &str) -> i32 {
    match (name, unit) {
        ("connect_ms_p50", _) | (_, "MB") => 0,
        (_, "1/s") => -1,
        _ => 1,
    }
}

/// The per-layer metrics, as `BENCHMARK.json` lists them. Span self times
/// end in `_s`; the rest are exact counts or derived ratios.
const PER_LAYER: [(&str, &str); 43] = [
    ("deep.surface.build_s", "s"),
    ("deep.stabsim.dem_extract_s", "s"),
    ("deep.decode.decompose_s", "s"),
    ("deep.decode.window_compile_s", "s"),
    ("deep.stabsim.stream_sampler_compile_s", "s"),
    ("deep.decode.mc_streamed_s", "s"),
    ("deep.stabsim.stream_sample_s", "s"),
    ("deep.stabsim.dem_errors", "count"),
    ("deep.decode.arbitrary_decompositions", "count"),
    ("deep.stabsim.window_detectors", "count"),
    ("deep.decode.shots", "count"),
    ("deep.decode.failures", "count"),
    ("deep.stage_sum_ratio", "ratio"),
    ("deep.trace_overhead_ratio", "ratio"),
    ("cal.sim.orchestrator.run_cold_s", "s"),
    ("cal.surface.build_s", "s"),
    ("cal.stabsim.dem_extract_s", "s"),
    ("cal.decode.decompose_s", "s"),
    ("cal.decode.uf_compile_s", "s"),
    ("cal.stabsim.sampler_compile_s", "s"),
    ("cal.decode.mc_sampled_s", "s"),
    ("cal.stabsim.sample_s", "s"),
    ("cal.sim.orchestrator.cache_store_s", "s"),
    ("cal.sim.orchestrator.cache_lookup_s", "s"),
    ("cal.sim.record.parse_s", "s"),
    ("cal.sim.record.encode_s", "s"),
    ("cal.core.fit_s", "s"),
    ("cal.shor.estimate_s", "s"),
    ("cal.sim.fresh_points", "count"),
    ("cal.sim.cached_points", "count"),
    ("cal.sim.fresh_shots", "count"),
    ("cal.trace_overhead_ratio", "ratio"),
    ("sweepd.sim.service.handle_query_s", "s"),
    ("sweepd.sim.jobs.request_codec_s", "s"),
    ("sweepd.sim.jobs.response_codec_s", "s"),
    ("sweepd.sim.orchestrator.cache_lookup_s", "s"),
    ("sweepd.sim.service.status_rtt_s", "s"),
    ("sweepd.sim.service.connect_s", "s"),
    ("sweepd.sim.service.first_reply_s", "s"),
    ("sweepd.sim.service.handle_sweep_s", "s"),
    ("sweepd.sim.engine.run_s", "s"),
    ("sweepd.sim.orchestrator.cache_store_s", "s"),
    ("sweepd.sim.service.query_hits", "count"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    DeepStream,
    Sweepd,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::DeepStream => "deep_stream",
            Workload::Sweepd => "sweepd",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    fault: Option<Fault>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut fault) = (false, None);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "deep_stream" => Workload::DeepStream,
                    "sweepd" => Workload::Sweepd,
                    _ => return Err(bad()),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--fault" => {
                fault = Some(match value.as_str() {
                    "anchor" => Fault::Anchor,
                    "record" => Fault::Record,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        smoke,
        fault,
    })
}

/// The workload's own path, which reports `setup_s`.
fn own_path(
    workload: Workload,
    ctx: &Ctx,
    samples: &mut Samples,
    ops: &mut Ops,
) -> Box<dyn UserPath> {
    match workload {
        Workload::DeepStream => Box::new(deep::Deep::new(ctx, true)),
        Workload::Sweepd => Box::new(sweepd::Sweepd::new(ctx, true, samples, ops)),
    }
}

/// The calibration path and the other workload's path.
fn other_paths(
    workload: Workload,
    ctx: &Ctx,
    samples: &mut Samples,
    ops: &mut Ops,
) -> Vec<Box<dyn UserPath>> {
    let other: Box<dyn UserPath> = match workload {
        Workload::DeepStream => Box::new(sweepd::Sweepd::new(ctx, false, samples, ops)),
        Workload::Sweepd => Box::new(deep::Deep::new(ctx, false)),
    };
    vec![Box::new(cal::Cal::default()), other]
}

/// Reduces each metric's samples to their median; `counts` keeps the
/// samples behind each for the host-facts line.
fn reduce<'a>(
    names: &[(&str, &str)],
    lookup: impl Fn(&str) -> Option<&'a Vec<f64>>,
    counts: &mut Vec<(String, Vec<f64>)>,
) -> Result<Vec<f64>, String> {
    names
        .iter()
        .map(|&(name, _)| {
            let values = lookup(name)
                .filter(|v| !v.is_empty())
                .ok_or(format!("no samples for {name}"))?;
            counts.push((name.to_string(), values.clone()));
            Ok(percentile(values, 0.5))
        })
        .collect()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        fault: args.fault,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        out_dir,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut samples = Samples::default();
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let mut reference = HostReference::new(ctx.threads);

    // The workload's own path is set up first and runs one unit alone, so
    // its set-up time and peak memory are its own; the other paths start
    // after that.
    let mut paths = vec![own_path(args.workload, &ctx, &mut samples, &mut ops)];
    let mut unit =
        |paths: &mut [Box<dyn UserPath>], i: usize, samples: &mut Samples, ops: &mut Ops| {
            if args.trace {
                paths[i].traced_unit(&ctx, &mut tracer, samples, ops);
            } else {
                paths[i].unit(&ctx, samples, ops);
                for path in paths.iter_mut() {
                    path.between_units(&ctx, samples, ops);
                }
                for _ in 0..REFERENCES_PER_UNIT {
                    samples.push("host_reference_ms", reference.ms());
                }
            }
        };
    unit(&mut paths, 0, &mut samples, &mut ops);
    match common::peak_rss_mb() {
        Some(mb) => samples.push("peak_rss_mb", mb),
        None => ops.record(vec!["cannot read the peak resident memory".into()]),
    }
    paths.extend(other_paths(args.workload, &ctx, &mut samples, &mut ops));
    // Rounds interleave the paths, so every metric samples the whole run:
    // two units of the workload's own path, then one of each other path.
    // The first round's first own unit is the one already run alone. After
    // one whole round the run stops at the first unit that ends past the
    // deadline, so it overruns `--seconds` by at most one unit.
    let round: Vec<usize> = [0].into_iter().chain(0..paths.len()).collect();
    for (n, &i) in round.iter().cycle().enumerate().skip(1) {
        unit(&mut paths, i, &mut samples, &mut ops);
        if n + 1 >= round.len() && Instant::now() >= deadline {
            break;
        }
    }
    for path in paths {
        path.finish();
    }

    let mut counts = Vec::new();
    let (names, values) = if args.trace {
        let spans = ctx.out_dir.join(format!(
            "spans-{}-seed{}-{}.jsonl",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        if let Err(e) = fs::write(&spans, tracer.to_json_lines()) {
            ops.record(vec![format!("cannot write {}: {e}", spans.display())]);
        }
        // Span self times per operation; traced passes add counts and ratios.
        let spans = tracer.layer_self_times();
        let lookup = |name: &str| samples.0.get(name).or_else(|| spans.get(name));
        (&PER_LAYER[..], reduce(&PER_LAYER, lookup, &mut counts))
    } else {
        // Every timing is reported at the nominal host speed: its median
        // times the nominal over the run's median reference time (rates
        // the other way round). The unscaled quantiles stay on the facts line.
        let lookup = |name: &str| samples.0.get(name);
        let values = reduce(&END_TO_END, lookup, &mut counts).and_then(|values| {
            let reference = samples
                .0
                .get("host_reference_ms")
                .ok_or("no host reference samples")?;
            let speed = NOMINAL_REFERENCE_MS / percentile(reference, 0.5);
            Ok(END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| v * speed.powi(speed_exponent(name, unit)))
                .collect())
        });
        (&END_TO_END[..], values)
    };
    // Measured values the result does not print: their medians go to the
    // facts line.
    let unprinted: Vec<(&String, f64)> = samples
        .0
        .iter()
        .filter(|(name, _)| !names.iter().any(|&(n, _)| n == name.as_str()))
        .map(|(name, values)| (name, percentile(values, 0.5)))
        .collect();
    let values = values.unwrap_or_else(|e| {
        ops.record(vec![e]);
        Vec::new()
    });
    for e in &ops.errors {
        eprintln!("e2ebench: check failed: {e}");
    }

    let ShotBudget::Fixed(deep_shots) = deep::spec(&ctx).shots else {
        unreachable!("the deep spec has a fixed budget")
    };
    let mut facts = format!(
        "{{\"host\":{{\"available_parallelism\":{},\"profile\":{},\"os\":{},\"arch\":{}}},\
         \"inputs\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"deep_shots\":{},\"cal_memory_shots\":{},\"cal_cnot_shots\":{},\"sweepd_point_shots\":2000}},\
         \"elapsed_s\":{},\"samples\":{{",
        ctx.threads,
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(std::env::consts::OS),
        json_str(std::env::consts::ARCH),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        deep_shots,
        cal::config(&ctx, &ctx.out_dir).memory_shots,
        cal::config(&ctx, &ctx.out_dir).cnot_shots,
        start.elapsed().as_secs_f64(),
    );
    for (i, (name, values)) in counts.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(facts, "{sep}{}:{}", json_str(name), values.len());
    }
    // The spread inside this run: min, p10, quartiles, max of each metric.
    facts.push_str("},\"quantiles\":{");
    for (i, (name, values)) in counts.iter().enumerate() {
        let q = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0].map(|q| percentile(values, q).to_string());
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(facts, "{sep}{}:[{}]", json_str(name), q.join(","));
    }
    facts.push_str("},\"unprinted_medians\":{");
    for (i, (name, median)) in unprinted.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(facts, "{sep}{}:{median}", json_str(name));
    }
    facts.push_str("}}");
    println!("{facts}");

    let correct = ops.failed == 0;
    let mut result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        ops.attempted, ops.failed
    );
    for (i, (&(name, unit), value)) in names.iter().zip(&values).enumerate() {
        let _ = write!(
            result,
            "{}{}:{{\"value\":{value},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    result.push_str("}}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
