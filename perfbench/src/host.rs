//! Host-speed calibration.
//!
//! The benchmark shares the cores and caches of a busy host, whose
//! speed for this kind of work moves by a third or more within seconds
//! and stays shifted for tens of seconds: the same sweep of the same
//! corpus took 0.35 s in one stretch and 0.55 s in the next. Every
//! timing of a run moves with it, so runs of the same code disagree by
//! more than any bound a regression check could use.
//!
//! The reference kernel is a fixed piece of work that belongs to the
//! benchmark, not to the program: it sorts a copy of fixed keys and
//! counts the near pairs of two fixed counter arrays, the comparison at
//! the heart of every join, over data that fits the same caches as the
//! joins. It slows down when the program's joins do, but no change to
//! the program can change it. Each scenario times it before and after
//! each of its slices; dividing the scenario's timings by its median
//! reference time over `NOMINAL_MS` reports them at one fixed host
//! speed (`README.md`, "Host-speed calibration").

use std::hint::black_box;
use std::time::Instant;

use crate::report::Metric;

/// Keys sorted per call: 256 KiB.
const KEYS: usize = 1 << 16;
/// Counters per array in the near-pair count: 1 MiB each.
const COUNTERS: usize = 1 << 18;
/// Passes of the near-pair count per call.
const PASSES: usize = 2;

/// Median reference time on the two-vCPU virtual machine the baseline
/// was measured on (`README.md`). Calibrated timings read as if every
/// reference call had taken exactly this long.
pub const NOMINAL_MS: f64 = 2.15;

/// The reference kernel's fixed inputs.
pub struct Reference {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

/// `n` fixed pseudo-random values below `modulus` (xorshift64).
fn fixed(n: usize, seed: u64, modulus: u64) -> Vec<u32> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % modulus) as u32
        })
        .collect()
}

impl Reference {
    /// The same inputs on every run and every seed.
    pub fn new() -> Self {
        Reference {
            keys: fixed(KEYS, 0x2545_F491_4F6C_DD1D, u64::from(u32::MAX)),
            scratch: Vec::with_capacity(KEYS),
            a: fixed(COUNTERS, 0x9E37_79B9_7F4A_7C15, 64),
            b: fixed(COUNTERS + PASSES, 0xD1B5_4A32_D192_ED03, 64),
        }
    }

    /// Time one call of the kernel, in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        let mut near = 0u64;
        for pass in 0..PASSES {
            let (a, b) = (black_box(&self.a), black_box(&self.b[pass..]));
            near += a
                .iter()
                .zip(b)
                .map(|(x, y)| u64::from(x.abs_diff(*y) <= 1))
                .sum::<u64>();
        }
        black_box(near);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Host slowness of a scenario: its median reference time over the
/// nominal one (above 1 on a slower host).
pub fn slowness(reference_ms: &[f64]) -> f64 {
    let median = crate::stats::median(reference_ms);
    if median > 0.0 {
        median / NOMINAL_MS
    } else {
        1.0
    }
}

/// Report `m` at the nominal host speed: durations shrink and rates
/// grow by `slowness`; counts, ratios and sizes stay as measured.
pub fn calibrate(m: &mut Metric, slowness: f64) {
    match m.unit {
        "s" | "ms" | "us" => m.value /= slowness,
        "ops/s" | "1/s" => m.value *= slowness,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_only_times_and_rates() {
        let metric = |unit| Metric {
            name: "m".into(),
            value: 6.0,
            unit,
        };
        for (unit, want) in [
            ("s", 3.0),
            ("ms", 3.0),
            ("us", 3.0),
            ("ops/s", 12.0),
            ("1/s", 12.0),
            ("count", 6.0),
            ("ratio", 6.0),
            ("MB", 6.0),
        ] {
            let mut m = metric(unit);
            calibrate(&mut m, 2.0);
            assert_eq!(m.value, want, "{unit}");
        }
        assert_eq!(slowness(&[NOMINAL_MS, 3.0 * NOMINAL_MS, NOMINAL_MS]), 1.0);
        assert_eq!(slowness(&[]), 1.0);
    }

    #[test]
    fn reference_kernel_takes_time() {
        let mut r = Reference::new();
        assert!(r.time_ms() > 0.0);
    }
}
