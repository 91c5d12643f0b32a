//! Load generator for `raa-sweepd`: replays hundreds of mixed cold/warm
//! queries against the daemon, injects the three acceptance-criteria
//! faults — a corrupted cache entry, a poisoned (panicking) grid point,
//! and a client connection killed mid-job — and verifies the daemon
//! survives with every healthy record byte-identical to a single-process
//! cold sweep.
//!
//! ```sh
//! cargo run --release --example load_generator          # in-process daemon
//! RAA_SWEEPD=127.0.0.1:7411 RAA_CACHE_DIR=/tmp/raa-load \
//!     cargo run --release --example load_generator      # external daemon
//! ```
//!
//! Knobs: `RAA_SWEEPD` (address of a running daemon; otherwise one is
//! spawned in-process on an ephemeral port), `RAA_CACHE_DIR` (cache
//! directory — required for the corruption fault when the daemon is
//! external, so the generator can reach into the cache), `RAA_SHOTS`
//! (per-point budget, default 256), `RAA_LOAD_CLIENTS` (concurrent client
//! threads in the cold phase, default 4), `RAA_LOAD_SHUTDOWN=1` (send a
//! shutdown request at the end — use when this run owns the daemon).
//!
//! Output is tab-separated `metric\tvalue` lines; CI greps them:
//! `daemon alive`, `warm fresh shots`, `poisoned points quarantined`,
//! `records byte-identical`.

use raa::sim::jobs::{Request, Response};
use raa::sim::service::serve;
use raa::sim::{
    run_sweep, Rounds, Scenario, ServiceClient, ServiceConfig, ShotBudget, SweepCache, SweepGrid,
    SweepService,
};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    match std::env::var(key) {
        Err(_) => default,
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {key}={v:?} is not valid");
            std::process::exit(2);
        }),
    }
}

fn grid(shots: usize) -> SweepGrid {
    SweepGrid::new(
        "load/memory",
        Scenario::Memory {
            rounds: Rounds::Fixed(2),
        },
    )
    .with_distances(vec![3, 5])
    .with_p_phys(vec![3e-3, 5e-3])
    .with_shots(ShotBudget::Fixed(shots))
    .with_seed(0x10AD)
}

fn poison_spec(shots: usize) -> raa::sim::ExperimentSpec {
    let mut spec = grid(shots).specs().remove(0);
    spec.name = "load/poison".into();
    spec.scenario = Scenario::Memory {
        rounds: Rounds::Fixed(0), // fails ExperimentSpec::validate: no SE round
    };
    spec
}

fn fail(msg: &str) -> ! {
    println!("daemon alive\tfalse");
    eprintln!("load_generator FAILED: {msg}");
    std::process::exit(1);
}

fn main() {
    let shots = env_parse::<usize>("RAA_SHOTS", 256);
    let clients = env_parse::<usize>("RAA_LOAD_CLIENTS", 4).max(1);
    let external = std::env::var("RAA_SWEEPD").ok().filter(|a| !a.is_empty());
    let cache_dir: Option<PathBuf> = match std::env::var("RAA_CACHE_DIR") {
        Ok(dir) if dir.is_empty() => None,
        Ok(dir) => Some(dir.into()),
        Err(_) if external.is_some() => None,
        Err(_) => Some(std::env::temp_dir().join(format!("raa-load-{}", std::process::id()))),
    };

    // Either hammer an external daemon or spawn one in-process on an
    // ephemeral port — identical wire behaviour either way.
    let mut in_process = None;
    let addr: SocketAddr = match &external {
        Some(addr) => addr.parse().unwrap_or_else(|_| {
            eprintln!("error: RAA_SWEEPD={addr:?} is not a socket address");
            std::process::exit(2);
        }),
        None => {
            let service = SweepService::start(ServiceConfig {
                cache_dir: cache_dir.clone(),
                workers: 2,
                job_timeout: Duration::from_secs(120),
                ..ServiceConfig::default()
            })
            .unwrap_or_else(|e| fail(&format!("cannot start in-process service: {e}")));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let flag = Arc::new(AtomicBool::new(false));
            let (s, f) = (service.clone(), Arc::clone(&flag));
            let handle = std::thread::spawn(move || serve(listener, &s, &f).unwrap());
            in_process = Some((flag, handle));
            addr
        }
    };

    let grid = grid(shots);
    let specs = grid.specs();
    let reference = run_sweep(&grid);
    let n = specs.len();

    // Phase 1 — cold storm: `clients` threads each replay a mixed stream
    // of sweep and query requests. Exactly `n` points get sampled across
    // all of them (entry locking dedups the rest).
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                let mut requests = 0usize;
                for round in 0..25 {
                    let response = if (round + c) % 3 == 0 {
                        client.sweep(&specs)
                    } else {
                        client.query(&specs)
                    };
                    match response {
                        Ok(Response::Sweep { .. } | Response::Query { .. }) => requests += 1,
                        Ok(other) => panic!("unexpected response: {other:?}"),
                        Err(e) => panic!("request failed: {e}"),
                    }
                }
                requests
            })
        })
        .collect();
    let cold_requests: usize = workers.map_while_ok();
    println!("cold requests served\t{cold_requests}");

    // Phase 2 — warm pass: the whole grid must now be free.
    let mut client =
        ServiceClient::connect(addr).unwrap_or_else(|e| fail(&format!("reconnect: {e}")));
    match client.sweep(&specs) {
        Ok(Response::Sweep {
            fresh_shots,
            cached_points,
            ..
        }) => {
            println!("warm fresh shots\t{fresh_shots}");
            if fresh_shots != 0 || cached_points != n {
                fail("warm sweep was not free");
            }
        }
        other => fail(&format!("warm sweep: {other:?}")),
    }

    // Phase 3a — fault: corrupt one cache entry on disk, then sweep. The
    // daemon must detect, quarantine, and resample it.
    let mut corrupt_replaced = 0;
    if let Some(dir) = &cache_dir {
        let cache = SweepCache::open(dir)
            .unwrap_or_else(|e| fail(&format!("opening cache for injection: {e}")));
        std::fs::write(cache.entry_path(&specs[0]), "{\"torn\":")
            .unwrap_or_else(|e| fail(&format!("injecting corruption: {e}")));
        match client.sweep(&specs) {
            Ok(Response::Sweep {
                corrupt_replaced: c,
                ..
            }) => corrupt_replaced = c,
            other => fail(&format!("post-corruption sweep: {other:?}")),
        }
        if corrupt_replaced != 1 {
            fail(&format!(
                "expected 1 corrupt entry replaced, got {corrupt_replaced}"
            ));
        }
    } else {
        eprintln!("note: no RAA_CACHE_DIR — skipping the corruption fault");
    }
    println!("corrupt entries healed\t{corrupt_replaced}");

    // Phase 3b — fault: a poisoned point that panics its worker. The job
    // reports it; the daemon and every other point survive.
    let mut poisoned_specs = specs.clone();
    poisoned_specs.insert(1, poison_spec(shots));
    match client.sweep(&poisoned_specs) {
        Ok(Response::Sweep {
            poisoned, records, ..
        }) => {
            if poisoned.len() != 1 || poisoned[0].index != 1 {
                fail(&format!(
                    "expected 1 poisoned point at index 1: {poisoned:?}"
                ));
            }
            if records.iter().filter(|r| r.is_some()).count() != n {
                fail("healthy points missing from the poisoned job");
            }
        }
        other => fail(&format!("poisoned sweep: {other:?}")),
    }

    // Phase 3c — fault: a client killed mid-job. Fire a sweep and slam the
    // connection without reading the response.
    {
        let mut doomed = TcpStream::connect(addr).unwrap();
        let request = Request::Sweep {
            id: "doomed".into(),
            specs: specs.clone(),
        };
        doomed
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .unwrap();
        doomed.flush().unwrap();
        // Dropped here: FIN/RST while the job may still be running.
    }

    // Phase 4 — recovery: the daemon still answers, the abandoned job's
    // work persisted, and a scrub pass reports a healthy cache.
    let mut records = Vec::new();
    for _ in 0..100 {
        match client.query(&specs) {
            Ok(Response::Query {
                hits, records: r, ..
            }) => {
                if hits == n {
                    records = r;
                    break;
                }
            }
            other => fail(&format!("recovery query: {other:?}")),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if cache_dir.is_some() && records.len() != n {
        fail("cache never became fully warm after the faults");
    }
    let identical = if cache_dir.is_some() {
        reference
            .iter()
            .zip(&records)
            .filter(|(a, b)| b.as_ref().is_some_and(|b| a.to_json() == b.to_json()))
            .count()
    } else {
        // No cache: re-sweep and compare the live records instead.
        match client.sweep(&specs) {
            Ok(Response::Sweep { records, .. }) => reference
                .iter()
                .zip(&records)
                .filter(|(a, b)| b.as_ref().is_some_and(|b| a.to_json() == b.to_json()))
                .count(),
            other => fail(&format!("no-cache comparison sweep: {other:?}")),
        }
    };
    println!("records byte-identical\t{identical}/{n}");
    if identical != n {
        fail("daemon records diverged from the single-process cold sweep");
    }

    match client.scrub() {
        Ok(Response::Scrub { report, .. }) => {
            println!("scrub healthy entries\t{}", report.healthy);
            if report.quarantined != 0 {
                fail("scrub found corruption after the recovery pass");
            }
        }
        other => fail(&format!("scrub: {other:?}")),
    }

    // Phase 5 — status: the poisoned point sits in quarantine, the daemon
    // is alive and not draining.
    match client.status() {
        Ok(Response::Status { status, .. }) => {
            println!("poisoned points quarantined\t{}", status.quarantined.len());
            println!("jobs completed\t{}", status.jobs_completed);
            if status.quarantined.len() != 1 || status.draining {
                fail(&format!("unexpected daemon status: {status:?}"));
            }
        }
        other => fail(&format!("status: {other:?}")),
    }
    println!("daemon alive\ttrue");

    // Tear down whichever daemon this run owns.
    let owns_daemon = in_process.is_some() || std::env::var_os("RAA_LOAD_SHUTDOWN").is_some();
    if owns_daemon {
        match client.shutdown() {
            Ok(Response::Draining { .. }) => {}
            other => fail(&format!("shutdown: {other:?}")),
        }
    }
    if let Some((flag, handle)) = in_process {
        flag.store(true, Ordering::SeqCst);
        handle.join().expect("serve thread");
        if external.is_none() {
            if let Some(dir) = &cache_dir {
                if std::env::var_os("RAA_CACHE_DIR").is_none() {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }
}

/// Tiny helper: join a batch of client threads, summing their request
/// counts, and fail the run if any of them panicked.
trait JoinAll {
    fn map_while_ok(self) -> usize;
}

impl JoinAll for Vec<std::thread::JoinHandle<usize>> {
    fn map_while_ok(self) -> usize {
        self.into_iter()
            .map(|h| match h.join() {
                Ok(count) => count,
                Err(_) => fail("a cold-phase client thread panicked"),
            })
            .sum()
    }
}
