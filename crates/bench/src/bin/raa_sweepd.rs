//! `raa-sweepd` — the long-running sweep/calibration daemon. Accepts
//! JSON-lines jobs over TCP (see `raa::sim::jobs` for the codec), runs grid
//! points on a shared worker pool with per-point panic isolation, and
//! persists every record in the content-addressed sweep cache so repeated
//! queries cost zero shots.
//!
//! ```sh
//! cargo run --release --bin raa-sweepd &            # listens on 127.0.0.1:7411
//! RAA_SWEEPD=127.0.0.1:7411 cargo run --release --bin raa-cal
//! cargo run --release --example load_generator      # hammer it
//! ```
//!
//! Environment knobs (malformed values are a hard error, exit 2):
//!
//! * `RAA_SWEEPD_ADDR` — listen address (default `127.0.0.1:7411`)
//! * `RAA_CACHE_DIR` — record cache directory (default
//!   `target/raa-sweepd-cache`; set empty to disable caching)
//! * `RAA_WORKERS` — worker threads (default 0 = all cores)
//! * `RAA_JOB_TIMEOUT_SECS` — per-job wall-clock budget; on expiry the
//!   job's queued points are shed, in-flight points finish and persist
//!   (default 300)
//! * `RAA_SCRUB_INTERVAL_SECS` — periodic cache-integrity scrub cadence
//!   (default 60; 0 disables)
//! * `RAA_CACHE_BUDGET_BYTES` — LRU eviction budget enforced by the scrub
//!   (default unlimited)
//!
//! On SIGTERM/SIGINT the daemon drains: in-flight points finish and
//! persist, queued jobs are shed with a clean `shed` status, then the
//! process exits 0.

use raa::sim::service::serve;
use raa::sim::{ScrubOptions, ServiceConfig, SweepService};
use raa_bench::{env_parse_strict, env_string};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler and handed to the serve loop as its
/// shutdown flag (the handler itself must stay async-signal-safe, so it
/// only stores a flag).
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` is only handed `on_signal`, an async-signal-safe
    // `extern "C" fn` that does nothing but store a relaxed atomic flag; no
    // Rust state is touched from signal context, and the returned previous
    // handler is deliberately discarded.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let addr = env_string("RAA_SWEEPD_ADDR").unwrap_or_else(|| "127.0.0.1:7411".to_string());
    let cache_dir = match env_string("RAA_CACHE_DIR") {
        Some(dir) if dir.is_empty() => None,
        Some(dir) => Some(dir.into()),
        None => Some("target/raa-sweepd-cache".into()),
    };
    let workers = env_parse_strict::<usize>("RAA_WORKERS").unwrap_or(0);
    let job_timeout =
        Duration::from_secs(env_parse_strict::<u64>("RAA_JOB_TIMEOUT_SECS").unwrap_or(300));
    let scrub_interval = match env_parse_strict::<u64>("RAA_SCRUB_INTERVAL_SECS").unwrap_or(60) {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    let scrub = ScrubOptions {
        size_budget: env_parse_strict::<u64>("RAA_CACHE_BUDGET_BYTES"),
        ..ScrubOptions::default()
    };

    let service = SweepService::start(ServiceConfig {
        cache_dir,
        workers,
        job_timeout,
        scrub,
        scrub_interval,
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot start sweep service: {e}");
        std::process::exit(1);
    });
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "raa-sweepd listening on {} ({} workers, job timeout {}s)",
        listener
            .local_addr()
            .map_or(addr.clone(), |a| a.to_string()),
        service.status().workers,
        job_timeout.as_secs(),
    );

    install_signal_handlers();
    if let Err(e) = serve(listener, &service, &STOP) {
        eprintln!("error: serve loop failed: {e}");
        std::process::exit(1);
    }
    eprintln!("raa-sweepd drained and stopped");
}
