//! Host-speed reference: a fixed computation, independent of the program,
//! timed throughout each run so that timings can be rescaled to a fixed
//! host speed.
//!
//! On a shared host the speed of the same code drifts by ±10–25% over
//! tens of seconds, while the drift within a few seconds is small. The
//! benchmark interleaves short reference blocks with the measured work and
//! divides each timing by the run's median reference time. A change to the
//! program leaves the reference untouched, so a program that gets 10%
//! slower still reads 10% slower; a host that gets 10% slower does not.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Reference time, in seconds, that defines the reported speed: timings
/// are rescaled as if one reference block took this long. Every thread of
/// a block does the same work, so on a host that gives each thread a core
/// of its own the block takes about as long on two threads as on one; on
/// the 2-core host the bounds were set on, a one-thread block takes
/// 0.17–0.21 s.
pub const NOMINAL_S: f64 = 0.2;

/// Measured work between two reference blocks.
pub const INTERVAL: Duration = Duration::from_secs(2);

/// One pass of the reference computation: ordered-map inserts and
/// lookups, a sort, and inserts and removals in the middle of a vector,
/// the operations the calendar and the schedulers lean on.
fn pass(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..60_000 {
        map.insert(next() % 1_000_000, next());
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        if let Some(v) = map.get(&(next() % 1_000_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..300_000).map(|_| next()).collect();
    v.sort_unstable();
    let mut w: Vec<u32> = (0..8_000).collect();
    for i in 0..20_000u32 {
        w.insert((next() % 8_000) as usize, i);
        w.remove((next() % 8_000) as usize);
    }
    acc ^ v[v.len() / 2] ^ u64::from(w[w.len() / 2])
}

/// Run one reference block on `threads` threads at once (five passes
/// each) and return its wall time in seconds.
pub fn block(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for k in 0..threads.max(1) {
            s.spawn(move || {
                for i in 0..5 {
                    black_box(pass(black_box(0x9e37_79b9 + (k * 5 + i) as u64)));
                }
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// Reference blocks taken through one run.
///
/// With a benchmark executable at hand each block runs in a child process
/// (`<exe> --reference-block <threads>`), so the reference's memory never
/// shows in the run's peak resident set; without one (the self-tests) it
/// runs in-process.
pub struct HostSpeed {
    threads: usize,
    exe: Option<PathBuf>,
    samples: Vec<f64>,
    errors: Vec<String>,
    last: Instant,
}

impl HostSpeed {
    /// Start with one block, on as many threads as the workload runs.
    pub fn new(threads: usize, exe: Option<&Path>) -> HostSpeed {
        let mut h = HostSpeed {
            threads,
            exe: exe.map(Path::to_path_buf),
            samples: Vec::new(),
            errors: Vec::new(),
            last: Instant::now(),
        };
        h.sample();
        h
    }

    /// Take a block now.
    pub fn sample(&mut self) {
        match &self.exe {
            None => self.samples.push(block(self.threads)),
            Some(exe) => match run_child(exe, self.threads) {
                Ok(t) => self.samples.push(t),
                Err(e) => self.errors.push(e),
            },
        }
        self.last = Instant::now();
    }

    /// Take a block if [`INTERVAL`] of measured work has passed since the
    /// last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Failures to run a reference block.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Median block time, seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Factor that rescales a wall time to the reference speed: a timing
    /// `t` reads `t * scale()`, a rate `r` reads `r / scale()`.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.median_s()
    }
}

/// Run one block in a child process and read back its time.
fn run_child(exe: &Path, threads: usize) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--reference-block", &threads.to_string()])
        .output()
        .map_err(|e| format!("cannot run the reference block: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(t) if out.status.success() && t > 0.0 => Ok(t),
        _ => Err(format!(
            "reference block failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}
