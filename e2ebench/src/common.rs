//! What the three paths share: the run context, the op/check ledger, the
//! sample store and a few helpers.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The engine's decode-stream tag (`raa_sim::engine`): a staged replay of
/// a spec must draw its Monte-Carlo seed exactly as `run` does.
pub const DECODE_STREAM: u64 = 0xDEC0;

/// A deliberately wrong expectation, used by the benchmark's own tests to
/// show that a broken output fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every pinned anchor is expected one higher than it is.
    Anchor,
    /// One cache entry is rewritten with a changed failure count.
    Record,
}

pub struct Ctx {
    pub seed: u64,
    /// Small specs and loops, for the benchmark's tests.
    pub smoke: bool,
    pub fault: Option<Fault>,
    /// `available_parallelism`: clients, workers and point threads.
    pub threads: usize,
    /// Scratch space inside the checkout (caches, span files).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Anchors are pinned at workload seed 0 only.
    pub fn pinned(&self) -> bool {
        self.seed == 0
    }

    /// The expected value of a pinned anchor, shifted under
    /// [`Fault::Anchor`].
    pub fn anchor(&self, value: usize) -> usize {
        value + usize::from(self.fault == Some(Fault::Anchor))
    }

    /// A fresh, empty directory under the run's scratch space.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}

/// One user path, run as a sequence of fixed-size units (a deep pass, a
/// cold + warm calibration pass, a burst of daemon requests). Set-up
/// happens when the path is built; a workload's own path reports it.
pub trait UserPath {
    /// One untraced unit, adding end-to-end samples.
    fn unit(&mut self, ctx: &Ctx, samples: &mut Samples, ops: &mut Ops);
    /// One traced unit, adding spans and per-layer samples.
    fn traced_unit(&mut self, ctx: &Ctx, t: &mut Tracer, samples: &mut Samples, ops: &mut Ops);
    /// Runs after every untraced unit of any path.
    fn between_units(&mut self, _ctx: &Ctx, _samples: &mut Samples, _ops: &mut Ops) {}
    /// Stops whatever the path started.
    fn finish(self: Box<Self>) {}
}

/// Attempted and failed operations, with what failed.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts one operation; it failed if any check in `problems` did.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors.extend(problems);
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Adds `what` to `problems` unless `ok`.
pub fn expect(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// Raw samples per metric, reduced to medians/percentiles at the end.
#[derive(Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn extend(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name.to_string()).or_default().extend(values);
    }
}

/// Nearest-rank percentile of the samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Rewrites a cache entry with its failure count raised by one: still a
/// valid record for the same spec, but no longer the engine's.
pub fn corrupt_failures(path: &Path) {
    let text = fs::read_to_string(path).expect("cache entry to corrupt exists");
    let key = "\"failures\":";
    let at = text.find(key).expect("records carry a failure count") + key.len();
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    let failures: u64 = text[at..at + digits].parse().expect("a count");
    let changed = format!("{}{}{}", &text[..at], failures + 1, &text[at + digits..]);
    fs::write(path, changed).expect("rewrite the cache entry");
}

/// Runs `batch`-shot batches of `shots` on `threads` threads, batch `b`
/// drawing from the Monte-Carlo pipeline's per-batch stream
/// `mix_seed(seed, b)`, with per-thread state `W`.
pub fn parallel_batches<W: Default>(
    shots: usize,
    batch: usize,
    threads: usize,
    seed: u64,
    f: impl Fn(&mut W, usize, &mut StdRng) + Sync,
) {
    let batches = shots.div_ceil(batch);
    std::thread::scope(|scope| {
        for first in 0..threads.min(batches) {
            let f = &f;
            scope.spawn(move || {
                let mut state = W::default();
                for b in (first..batches).step_by(threads) {
                    let len = batch.min(shots - b * batch);
                    let mut rng = StdRng::seed_from_u64(raa_decode::mc::mix_seed(seed, b as u64));
                    f(&mut state, len, &mut rng);
                }
            });
        }
    });
}

/// A fixed CPU workload that times how fast the host runs right now. It
/// is the benchmark's own code, so no change to the program moves it: on
/// a shared host whose speed drifts, a program timing divided by it
/// follows the program, not the host.
pub struct HostReference {
    /// One 1 MiB table per thread, allocated once so no page fault lands
    /// in the timed part.
    tables: Vec<Vec<u32>>,
}

impl HostReference {
    /// Work items per measurement, shared out to the threads as they free
    /// up (as the Monte-Carlo pool shares out batches).
    const ITEMS: usize = 32;
    /// Random read-modify-write steps per item.
    const STEPS: usize = 1 << 15;

    pub fn new(threads: usize) -> Self {
        Self {
            tables: vec![vec![1; 1 << 18]; threads],
        }
    }

    /// Wall time of one measurement on every thread at once, in ms.
    pub fn ms(&mut self) -> f64 {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (t, table) in self.tables.iter_mut().enumerate() {
                let next = &next;
                scope.spawn(move || {
                    let mask = table.len() - 1;
                    while next.fetch_add(1, Ordering::Relaxed) < Self::ITEMS {
                        let mut x = 0x9E37_79B9_7F4A_7C15 ^ t as u64;
                        for _ in 0..Self::STEPS {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let i = x as usize & mask;
                            let v = table[i];
                            table[i] = v.wrapping_mul(31).wrapping_add(x as u32);
                            if v & 1 == 0 {
                                x = x.rotate_left(5);
                            }
                        }
                    }
                    std::hint::black_box(&*table);
                });
            }
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}
