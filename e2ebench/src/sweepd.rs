//! `sweepd`: the service path. Set-up starts an in-process `SweepService`
//! and its TCP front end over a fresh cache and pre-fills an 8-point warm
//! set with one cold sweep. A closed loop of clients then repeats a fixed
//! mix: warm 8-point queries (reads), a sweep of one never-cached point
//! (a write: engine run + cache store) and a reconnect (connect + first
//! status). Reads bypass DEM extraction and decomposition entirely.

use crate::common::{corrupt_failures, expect, percentile, Ctx, Fault, Ops, Samples, UserPath};
use crate::trace::Tracer;
use raa_sim::jobs::{Request, Response};
use raa_sim::service::serve;
use raa_sim::{
    derive_seed, run, CacheLookup, ExperimentSpec, NoiseModel, Rounds, Scenario, ServiceClient,
    ServiceConfig, ShotBudget, SweepCache, SweepGrid, SweepService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Warm queries each client sends per cycle, before its sweep and
/// reconnect.
const QUERIES_PER_CYCLE: usize = 20;
/// Query samples per unit, split over the clients: the unit's p99 has ten
/// samples beyond it.
const UNIT_QUERIES: usize = 1_200;
const _: () = assert!(UNIT_QUERIES / 100 >= 10);
/// Think time before a reconnect: uniform below one accept-loop poll
/// period (25 ms).
const THINK_MAX_US: u64 = 25_000;
const THINK_STREAM: u64 = 0x7A1C;
/// Daemon set-ups a primary run times (the median is `setup_s`).
const SETUPS: usize = 5;
/// Traced operations per pass.
const TRACED_QUERIES: usize = 200;
const TRACED_SWEEPS: usize = 10;
const TRACED_CONNECTS: usize = 20;

/// The 8-point warm set: memory d ∈ {3, 5} × p ∈ {2, 3, 4, 5}·10⁻³.
fn warm_specs(ctx: &Ctx) -> Vec<ExperimentSpec> {
    SweepGrid::new(
        "bench/sweepd/warm",
        Scenario::Memory {
            rounds: Rounds::Fixed(3),
        },
    )
    .with_distances(vec![3, 5])
    .with_p_phys(vec![2e-3, 3e-3, 4e-3, 5e-3])
    .with_shots(ShotBudget::Fixed(2_000))
    .with_seed(0x5EED ^ (ctx.seed << 8))
    .specs()
}

/// The never-cached d = 3 point a client sweeps as its `op`-th write.
fn fresh_spec(ctx: &Ctx, client: u64, op: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        "bench/sweepd/fresh",
        Scenario::Memory {
            rounds: Rounds::Fixed(3),
        },
        3,
    );
    spec.noise = NoiseModel::uniform(3e-3);
    spec.shots = ShotBudget::Fixed(2_000);
    spec.seed = derive_seed(ctx.seed, (client << 32) | op);
    spec
}

struct Daemon {
    service: SweepService,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    /// Starts the service and its front end over a fresh cache and
    /// pre-fills the warm set; returns the daemon and the set-up time.
    fn start(ctx: &Ctx, warm: &[ExperimentSpec], ops: &mut Ops) -> io::Result<(Daemon, f64)> {
        let dir = ctx.fresh_dir("sweepd");
        let t0 = Instant::now();
        let service = SweepService::start(ServiceConfig {
            cache_dir: Some(dir.clone()),
            workers: ctx.threads,
            ..ServiceConfig::default()
        })?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // The pre-fill client connects before the accept loop starts, so
        // its connection is pending at the first `accept` and set-up never
        // waits out a poll sleep (`connect_ms_p50` measures that wait).
        let prefill_client = ServiceClient::connect(addr);
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let (service, shutdown) = (service.clone(), shutdown.clone());
            thread::spawn(move || serve(listener, &service, &shutdown))
        };
        let daemon = Daemon {
            service,
            addr,
            shutdown,
            server,
            dir,
        };
        let prefill = prefill_client.and_then(|mut c| c.sweep(warm));
        let setup_s = t0.elapsed().as_secs_f64();
        let mut problems = Vec::new();
        let filled = matches!(
            &prefill,
            Ok(Response::Sweep {
                fresh_points: 8,
                ..
            })
        );
        expect(&mut problems, filled, || {
            format!("sweepd: pre-fill sweep answered {prefill:?}")
        });
        ops.record(problems);
        Ok((daemon, setup_s))
    }

    /// Drains the daemon, joins its front end and removes its cache.
    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Ok(Err(e)) = self.server.join() {
            eprintln!("sweepd: front end failed: {e}");
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Checks a warm-query response: 8 hits, each record byte-identical to a
/// local `raa_sim::run` of its spec.
fn check_query(response: &io::Result<Response>, reference: &[String], problems: &mut Vec<String>) {
    let ok = match response {
        Ok(Response::Query {
            hits,
            misses: 0,
            records,
            ..
        }) => {
            *hits == reference.len()
                && records
                    .iter()
                    .zip(reference)
                    .all(|(r, want)| r.as_ref().is_some_and(|r| r.to_json() == *want))
        }
        _ => false,
    };
    expect(problems, ok, || {
        "sweepd: warm query did not return the 8 local records".into()
    });
}

#[derive(Default)]
struct ClientLog {
    query_ms: Vec<f64>,
    sweep_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    ops: Ops,
    /// The burst's wall time less its think time: the time this client
    /// waited on the daemon.
    busy_s: f64,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One closed-loop client burst: each cycle sends its warm queries, one
/// fresh sweep and a reconnect, and waits for every reply before the next
/// op, with a [`think_time`] before each reconnect.
fn client_burst(
    ctx: &Ctx,
    addr: SocketAddr,
    client: u64,
    first_op: u64,
    cycles: usize,
    warm: &[ExperimentSpec],
    reference: &[String],
) -> ClientLog {
    let mut log = ClientLog::default();
    let start = Instant::now();
    let mut think_s = 0.0;
    let mut conn = match ServiceClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.ops.record(vec![format!("sweepd: connect failed: {e}")]);
            return log;
        }
    };
    let mut think = StdRng::seed_from_u64(derive_seed(ctx.seed ^ THINK_STREAM, first_op + client));
    for op in first_op..first_op + cycles as u64 {
        for _ in 0..QUERIES_PER_CYCLE {
            let t0 = Instant::now();
            let response = conn.query(warm);
            log.query_ms.push(ms(t0));
            let mut problems = Vec::new();
            check_query(&response, reference, &mut problems);
            log.ops.record(problems);
        }

        let spec = fresh_spec(ctx, client, op);
        let t0 = Instant::now();
        let response = conn.sweep(std::slice::from_ref(&spec));
        log.sweep_ms.push(ms(t0));
        let ok = matches!(&response, Ok(Response::Sweep { fresh_points: 1, records, .. })
            if matches!(records.as_slice(), [Some(r)] if r.name == spec.name
                && r.seed == spec.seed && r.shots == 2_000));
        let mut problems = Vec::new();
        expect(&mut problems, ok, || {
            format!("sweepd: fresh sweep answered {response:?}")
        });
        log.ops.record(problems);

        let t0 = Instant::now();
        think_time(&mut think);
        think_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let reconnected =
            ServiceClient::connect(addr).and_then(|mut c| c.status().map(|status| (c, status)));
        log.connect_ms.push(ms(t0));
        match reconnected {
            Ok((c, Response::Status { .. })) => {
                conn = c;
                log.ops.record(Vec::new());
            }
            Ok((_, other)) => {
                log.ops
                    .record(vec![format!("sweepd: reconnect answered {other:?}")]);
                break;
            }
            Err(e) => {
                log.ops
                    .record(vec![format!("sweepd: reconnect failed: {e}")]);
                break;
            }
        }
    }
    log.busy_s = start.elapsed().as_secs_f64() - think_s;
    log
}

/// Sleeps a seeded random time below one accept-loop poll period, so the
/// next new connection arrives at a random phase of the daemon's poll
/// instead of locking onto it.
fn think_time(rng: &mut StdRng) {
    thread::sleep(Duration::from_micros(rng.random::<u64>() % THINK_MAX_US));
}

pub struct Sweepd {
    warm: Vec<ExperimentSpec>,
    /// Local `raa_sim::run` of the warm set: what every query must return.
    reference: Vec<String>,
    daemon: Option<Daemon>,
    /// Units run so far (fresh-point seeds never repeat across units).
    units: u64,
}

impl Sweepd {
    /// Starts the daemon; as the workload's own path it is set up
    /// [`SETUPS`] times and the median set-up is `setup_s`.
    pub fn new(ctx: &Ctx, primary: bool, samples: &mut Samples, ops: &mut Ops) -> Self {
        let warm = warm_specs(ctx);
        let reference = warm.iter().map(|s| run(s).to_json()).collect();
        let mut daemon = None;
        for _ in 0..if primary { SETUPS } else { 1 } {
            if let Some(old) = daemon.take() {
                Daemon::stop(old);
            }
            match Daemon::start(ctx, &warm, ops) {
                Ok((d, setup_s)) => {
                    if primary {
                        samples.push("setup_s", setup_s);
                    }
                    daemon = Some(d);
                }
                Err(e) => ops.record(vec![format!("sweepd: start failed: {e}")]),
            }
        }
        if let (Some(d), Some(Fault::Record)) = (&daemon, ctx.fault) {
            corrupt_failures(
                &SweepCache::open(&d.dir)
                    .expect("cache")
                    .entry_path(&warm[0]),
            );
        }
        Self {
            warm,
            reference,
            daemon,
            units: 0,
        }
    }
}

impl UserPath for Sweepd {
    /// One closed-loop burst of `threads` clients: `query_ms_p50/p90`,
    /// `sweep_ms_p50`, `connect_ms_p50` and `ops_per_s` (each client's
    /// completed ops over its busy time, summed over the clients).
    fn unit(&mut self, ctx: &Ctx, samples: &mut Samples, ops: &mut Ops) {
        let Some(daemon) = &self.daemon else {
            return ops.record(vec!["sweepd: no daemon".into()]);
        };
        let cycles = UNIT_QUERIES.div_ceil(QUERIES_PER_CYCLE * ctx.threads);
        let first_op = self.units * cycles as u64;
        self.units += 1;
        let logs: Vec<ClientLog> = thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.threads as u64)
                .map(|client| {
                    let (warm, reference) = (&self.warm, &self.reference);
                    scope.spawn(move || {
                        client_burst(ctx, daemon.addr, client, first_op, cycles, warm, reference)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let mut ops_per_s = 0.0;
        let mut query_ms = Vec::with_capacity(UNIT_QUERIES);
        for log in logs {
            ops_per_s += (log.ops.attempted - log.ops.failed) as f64 / log.busy_s;
            query_ms.extend(log.query_ms);
            samples.extend("sweep_ms_p50", log.sweep_ms);
            samples.extend("connect_ms_p50", log.connect_ms);
            ops.merge(log.ops);
        }
        // Query percentiles are taken per burst and reported as the median
        // over bursts: a host stall during one burst then moves one value
        // instead of the whole run's tail. The p99 only goes to the facts
        // line: on a shared host it follows how often the host preempts the
        // benchmark, not the daemon, so the reported tail is the p90.
        samples.push("query_ms_p50", percentile(&query_ms, 0.50));
        samples.push("query_ms_p90", percentile(&query_ms, 0.90));
        samples.push("query_ms_p99", percentile(&query_ms, 0.99));
        samples.push("ops_per_s", ops_per_s);
    }

    /// In-process query handling with the wire codecs and cache lookups
    /// timed apart, status round trips on an open connection, fresh sweeps
    /// against a local engine run, and new connections with their first
    /// reply.
    fn traced_unit(&mut self, ctx: &Ctx, t: &mut Tracer, samples: &mut Samples, ops: &mut Ops) {
        let Some(daemon) = &self.daemon else {
            return ops.record(vec!["sweepd: no daemon".into()]);
        };
        let store = SweepCache::open(ctx.fresh_dir("sweepd-store")).expect("open the store cache");
        let first_op = self.units * TRACED_SWEEPS as u64;
        self.units += 1;
        traced_pass(
            ctx,
            t,
            daemon,
            &store,
            first_op,
            &self.warm,
            &self.reference,
            samples,
            ops,
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    fn finish(self: Box<Self>) {
        if let Some(d) = self.daemon {
            d.stop();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_pass(
    ctx: &Ctx,
    t: &mut Tracer,
    daemon: &Daemon,
    store: &SweepCache,
    first_op: u64,
    warm: &[ExperimentSpec],
    reference: &[String],
    samples: &mut Samples,
    ops: &mut Ops,
) {
    let cache = SweepCache::open(&daemon.dir).expect("open the daemon's cache");
    let mut conn = match ServiceClient::connect(daemon.addr) {
        Ok(c) => c,
        Err(e) => return ops.record(vec![format!("sweepd: connect failed: {e}")]),
    };
    let mut hits = 0;
    for i in 0..TRACED_QUERIES {
        t.begin_op("sweepd", "query");
        let request = Request::Query {
            id: format!("q{i}"),
            specs: warm.to_vec(),
        };
        let decoded = t.time("sim.jobs.request_codec", || {
            Request::from_line(&request.to_line())
        });
        let response = decoded
            .map(|r| t.time("sim.service.handle_query", || daemon.service.handle(r)))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        let wire_same = response.as_ref().is_ok_and(|r| {
            let line = r.to_line();
            let wire = t.time("sim.jobs.response_codec", || Response::from_line(&line));
            wire.is_ok_and(|w| w.to_line() == line)
        });
        let mut lookups_hit = 0;
        for spec in warm {
            let hit = t.time("sim.orchestrator.cache_lookup", || cache.lookup(spec));
            lookups_hit += usize::from(matches!(hit, CacheLookup::Hit(_)));
        }
        let status = t.time("sim.service.status_rtt", || conn.status());
        t.end_op();

        let mut problems = Vec::new();
        if let Ok(Response::Query { hits: h, .. }) = &response {
            hits += h;
        }
        check_query(&response, reference, &mut problems);
        expect(
            &mut problems,
            matches!(status, Ok(Response::Status { .. })),
            || format!("sweepd: status on an open connection answered {status:?}"),
        );
        expect(
            &mut problems,
            wire_same && lookups_hit == warm.len(),
            || "sweepd: codec round trip or cache lookup disagrees with the service".into(),
        );
        ops.record(problems);
    }
    samples.push("sweepd.sim.service.query_hits", hits as f64);

    for i in 0..TRACED_SWEEPS {
        let spec = fresh_spec(ctx, u64::from(u32::MAX), first_op + i as u64);
        t.begin_op("sweepd", "sweep");
        let response = t.time("sim.service.handle_sweep", || {
            daemon.service.handle(Request::Sweep {
                id: format!("s{i}"),
                specs: vec![spec.clone()],
            })
        });
        let local = t.time("sim.engine.run", || run(&spec));
        let stored = t.time("sim.orchestrator.cache_store", || {
            store.store(&spec, &local)
        });
        t.end_op();
        let same = matches!(&response, Response::Sweep { records, .. }
            if matches!(records.as_slice(), [Some(r)] if r.to_json() == local.to_json()));
        let mut problems = Vec::new();
        expect(&mut problems, same && stored.is_ok(), || {
            "sweepd: cold-sweep record differs from the local engine run".into()
        });
        ops.record(problems);
    }

    let mut think = StdRng::seed_from_u64(derive_seed(ctx.seed ^ THINK_STREAM, first_op));
    for _ in 0..TRACED_CONNECTS {
        think_time(&mut think);
        t.begin_op("sweepd", "connect");
        let reply = t
            .time("sim.service.connect", || {
                ServiceClient::connect(daemon.addr)
            })
            .and_then(|mut c| t.time("sim.service.first_reply", || c.status()));
        t.end_op();
        let ok = matches!(reply, Ok(Response::Status { .. }));
        ops.record(if ok {
            Vec::new()
        } else {
            vec![format!("sweepd: new connection answered {reply:?}")]
        });
    }
}
