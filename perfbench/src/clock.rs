//! Host-speed-normalized timing.
//!
//! On a shared host the same pass swings by up to ±30% over seconds as
//! neighbours come and go, and a run's median follows whichever regime
//! it happened to sample. So every timed step is bracketed by a fixed
//! calibration workload that does not touch the simulator: the step's
//! host seconds are scaled by `REF_CALIBRATION_S / calibration`, using
//! the mean of the calibrations just before and just after the step.
//! The result is "host seconds on a host where the calibration takes
//! `REF_CALIBRATION_S`", which is what the end-to-end metrics report.
//! A change to the simulator cannot move the calibration, so it moves
//! the normalized figure exactly as it moves the raw one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Calibration seconds on the reference host (the 2-core Xeon this
/// benchmark was defined on, in its usual state).
const REF_CALIBRATION_S: f64 = 0.065;

/// Runs the calibration workload once and returns its host seconds:
/// hash-table churn over pseudo-random keys, then a sort of 900k
/// pseudo-random words (7 MiB). Of the candidates tried on the reference
/// host (see README.md), this blend tracked the speed swings of both the
/// suite and the DES passes best: the swings come from contention for
/// caches and memory, which pure arithmetic loops barely feel.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        let k = next();
        map.insert(k % 200_000, i);
        if let Some(v) = map.get(&(k % 100_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut words: Vec<u64> = (0..900_000).map(|_| next()).collect();
    words.sort_unstable();
    black_box((acc, &words));
    t.elapsed().as_secs_f64()
}

/// One timed step: raw host seconds and the normalized figure.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Seconds scaled to the reference host speed.
    pub ref_s: f64,
}

/// Times steps between calibrations; consecutive steps share the
/// calibration between them.
#[derive(Debug)]
pub struct HostClock {
    /// The latest calibration; `None` for a clock that does not normalize.
    last: Option<f64>,
}

impl HostClock {
    /// A clock, calibrated once up front.
    pub fn new() -> Self {
        HostClock {
            last: Some(calibrate()),
        }
    }

    /// A clock that reports raw wall-clock seconds as `ref_s` too and runs
    /// no calibration (so it allocates nothing).
    pub fn uncalibrated() -> Self {
        HostClock { last: None }
    }

    /// Runs `f` as one step and times it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let ref_s = match self.last {
            Some(before) => {
                let after = calibrate();
                self.last = Some(after);
                raw_s * REF_CALIBRATION_S / ((before + after) / 2.0)
            }
            None => raw_s,
        };
        (out, Timed { raw_s, ref_s })
    }
}
