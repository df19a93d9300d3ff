//! A sensor of how fast this machine runs a pass right now.
//!
//! On a shared host the same pass takes up to half as long again from one
//! minute to the next, because other tenants share the cores' execution
//! units. A [`Sensor`] is a thread on the pass's CPUs that wakes every
//! [`EVERY`] and times one short probe; a probe's time follows the
//! host's load while the pass runs. `run.py` scales each measured time by
//! the probes taken inside it, so the benchmark's times read the same on a
//! busy and an idle host.
//!
//! The probe uses only `std`, never the repository's crates, so no change to
//! the program changes it. Half of it is a throughput-bound loop, which
//! slows down with the host's load; the other half a dependent chain of
//! loads, which does not. Together they slow down about as much as the
//! passes do on a 2-vCPU VM.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two probes.
const EVERY: Duration = Duration::from_millis(50);
/// Rounds of the throughput-bound half of a probe.
const COMPUTE_ROUNDS: usize = 1 << 15;
/// Loads of the dependent-chain half of a probe.
const CHAIN_LOADS: usize = 384;
/// Slots of the chain's table (1 MiB).
const CHAIN_SLOTS: usize = 1 << 17;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The probe's state: the chain's table and the loops' carried values.
struct Probe {
    table: Vec<u64>,
    state: u64,
    at: usize,
    acc: u64,
}

impl Probe {
    fn new() -> Probe {
        let mut state = 0x5eed;
        let table = (0..CHAIN_SLOTS).map(|_| splitmix(&mut state)).collect();
        Probe {
            table,
            state,
            at: 0,
            acc: 0,
        }
    }

    /// Run one probe; return its seconds.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut lanes = [0u64; 64];
        for i in 0..COMPUTE_ROUNDS {
            let v = splitmix(&mut self.state);
            lanes[(v as usize ^ i) % lanes.len()] ^= v;
        }
        // Each load's address depends on the one before; `len()` keeps the
        // modulus a real division.
        let (mut at, mut acc) = (self.at, self.acc);
        for _ in 0..CHAIN_LOADS {
            let v = self.table[at];
            acc = acc.wrapping_add(v);
            at = ((v ^ acc) as usize).wrapping_mul(0x9e37_79b9) % self.table.len();
        }
        self.at = at;
        self.acc = acc ^ lanes.iter().fold(0, |a, l| a ^ l);
        t0.elapsed().as_secs_f64()
    }
}

/// One probe: when it started (seconds since the sensor started) and how
/// long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: f64,
    pub secs: f64,
}

/// Probes the machine every [`EVERY`] until [`Sensor::finish`].
pub struct Sensor {
    start: Instant,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Sample>>,
}

impl Sensor {
    pub fn start() -> Sensor {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut probe = Probe::new();
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(EVERY);
                let at = start.elapsed().as_secs_f64();
                samples.push(Sample {
                    at,
                    secs: probe.run(),
                });
            }
            samples
        });
        Sensor {
            start,
            stop,
            handle,
        }
    }

    /// Seconds since the sensor started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stop probing; return every probe taken.
    pub fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

/// Probes per second of probe time over the samples that started in
/// `[from, to)`: the mean of 1 / probe seconds, so a window's time times
/// this rate is the work the host could do in it. NaN if no probe ran.
pub fn rate(samples: &[Sample], from: f64, to: f64) -> f64 {
    let inside: Vec<f64> = samples
        .iter()
        .filter(|s| s.at >= from && s.at < to)
        .map(|s| 1.0 / s.secs)
        .collect();
    inside.iter().sum::<f64>() / inside.len() as f64
}
