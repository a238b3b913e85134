//! The host's own speed, read with a fixed reference kernel.
//!
//! On a shared 2-core VM, runs of identical code drift by tens of percent
//! over minutes, and a 12 s run sees one such episode. The reference
//! kernel shares no code with the program and has two parts, timed
//! apart: *compute*, a random read-modify-write over an 8 MiB buffer
//! (past the private caches, so it feels cache and memory contention)
//! plus a dependent floating-point chain; and *spawn*, 15 scoped spawns of 4
//! threads (the runtime's own pattern of short-lived threads). Work that
//! runs on one thread is normalized by the compute part; work that spawns
//! threads, by both. Sampled around the set-ups and between jobs, the
//! medians track the episode, and `time × reference / median` cancels
//! most of it. Raw and normalized figures are both reported.

use crate::stats;
use std::time::{Duration, Instant};

/// Typical time of the compute part on the 2-core host the benchmark was
/// defined on (Intel Xeon, 2.0 GHz), ms. Normalized figures are times on
/// a host where the parts take their reference times.
pub const COMPUTE_REFERENCE_MS: f64 = 2.0;
/// Typical time of the spawn part on the same host, ms.
pub const SPAWN_REFERENCE_MS: f64 = 2.0;

/// Minimum time between two samples.
const EVERY: Duration = Duration::from_millis(250);

/// Samples the reference kernel between jobs.
pub struct Calibrator {
    buf: Vec<u64>,
    last: Option<Instant>,
    compute: Vec<f64>,
    spawn: Vec<f64>,
    spent: Duration,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            buf: (0..1u64 << 20).collect(),
            last: None,
            compute: Vec::new(),
            spawn: Vec::new(),
            spent: Duration::ZERO,
        }
    }
}

impl Calibrator {
    /// Take a sample if the last one is older than `EVERY`.
    pub fn maybe_sample(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Take a sample now.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        self.compute.push(compute_ms(&mut self.buf));
        self.spawn.push(spawn_ms());
        self.spent += t0.elapsed();
        self.last = Some(Instant::now());
    }

    /// End the current phase: its reading. The next sample starts a new
    /// phase with the same buffer.
    pub fn finish_phase(&mut self) -> Reading {
        let r = Reading {
            compute_ms: stats::median(&self.compute),
            spawn_ms: stats::median(&self.spawn),
            samples: self.compute.len(),
            spent_s: self.spent.as_secs_f64(),
        };
        self.compute.clear();
        self.spawn.clear();
        self.spent = Duration::ZERO;
        self.last = None;
        r
    }
}

/// The kernel over one phase of a run.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Median time of the compute part, ms (0 without samples).
    pub compute_ms: f64,
    /// Median time of the spawn part, ms (0 without samples).
    pub spawn_ms: f64,
    /// Samples taken.
    pub samples: usize,
    /// Wall time spent sampling, to leave out of throughput.
    pub spent_s: f64,
}

impl Reading {
    /// Reference over measured: multiply a time by it, divide a rate.
    /// `threads` says whether the normalized work spawns threads.
    pub fn factor(&self, threads: bool) -> f64 {
        if threads {
            (COMPUTE_REFERENCE_MS + SPAWN_REFERENCE_MS) / (self.compute_ms + self.spawn_ms)
        } else {
            COMPUTE_REFERENCE_MS / self.compute_ms
        }
    }
}

fn compute_ms(buf: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let n = buf.len() as u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % n) as usize;
        buf[i] = buf[i].wrapping_add(x);
    }
    let mut f = 1.0f64;
    for i in 0..100_000u32 {
        f = f * 1.000_000_1 + f64::from(i).sqrt() * 1e-9;
    }
    std::hint::black_box((f, &buf));
    t0.elapsed().as_secs_f64() * 1e3
}

fn spawn_ms() -> f64 {
    let t0 = Instant::now();
    for _ in 0..15 {
        std::thread::scope(|s| {
            for k in 0..4u64 {
                s.spawn(move || std::hint::black_box(k));
            }
        });
    }
    t0.elapsed().as_secs_f64() * 1e3
}
