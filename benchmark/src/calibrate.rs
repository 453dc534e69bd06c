//! The host clock, calibrated.
//!
//! Wall time on the sandbox is noisy in a way no statistic over one run
//! removes: the box's speed drifts by ±15 % over seconds to minutes (other
//! tenants of the same host), so identical work measured twice differed by up
//! to 38 % between runs and the quartiles of ten runs lay 10–22 % apart.
//! What did help, measured on all four workloads, is pricing each timed
//! section in units of a fixed kernel run right before and after it: a
//! remove-or-insert churn on a small `BTreeMap`, which like the engine is
//! pointer-chasing, branchy and allocating. Its speed followed the engine's
//! (correlation 0.65–0.78 per 50 000-op segment; a pure ALU loop reached
//! 0.35, random access over 32 MB 0.45–0.59) and dividing by it cut the
//! spread of ten runs to 2–7 % of the median.
//!
//! So every host time the benchmark reports is *nominal*: the measured time
//! multiplied by the kernel's speed around it, relative to the frozen
//! [`NOMINAL_KERNEL_OPS_PER_S`] — the time the section would have taken on a
//! box that runs the kernel at nominal speed. The kernel is part of the
//! instrument: changing it, or the constant, re-bases every host metric.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Kernel speed the host metrics are normalised to: its median on the
/// 2-core sandbox at the commit that defined the benchmark.
pub const NOMINAL_KERNEL_OPS_PER_S: f64 = 5.7e6;

/// Keys the kernel toggles; half of them are present at any time.
const KEYS: u32 = 8192;
/// Toggles per slice (≈ 9 ms).
const SLICE_OPS: u32 = 40_000;
/// A slice this recent still describes the box's speed "now".
const FRESH: Duration = Duration::from_millis(5);

/// A timed section (or, added up, several), on both clocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// Seconds at nominal kernel speed.
    pub nominal_s: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, t: Timed) {
        self.raw_s += t.raw_s;
        self.nominal_s += t.nominal_s;
    }
}

pub struct HostClock {
    map: BTreeMap<u32, u32>,
    x: u64,
    /// Speed of the last slice relative to nominal, and when it ended.
    last: Option<(f64, Instant)>,
    /// Speed of every slice so far, relative to nominal.
    pub speeds: Vec<f64>,
}

impl HostClock {
    pub fn new() -> Self {
        HostClock {
            map: (0..KEYS).step_by(2).map(|k| (k, k)).collect(),
            x: 0x9e37_79b9_7f4a_7c15,
            last: None,
            speeds: Vec::new(),
        }
    }

    /// Run one kernel slice; returns its speed relative to nominal.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.x;
        for _ in 0..SLICE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % KEYS as u64) as u32;
            if self.map.remove(&key).is_none() {
                self.map.insert(key, key);
            }
        }
        self.x = x;
        let done = Instant::now();
        let speed = SLICE_OPS as f64 / (done - t).as_secs_f64() / NOMINAL_KERNEL_OPS_PER_S;
        self.last = Some((speed, done));
        self.speeds.push(speed);
        speed
    }

    /// Time `section`, bracketed by kernel slices (the one before is reused
    /// when the previous section's closing slice just ended).
    pub fn time<R>(&mut self, section: impl FnOnce() -> R) -> (R, Timed) {
        let before = match self.last {
            Some((speed, at)) if at.elapsed() < FRESH => speed,
            _ => self.slice(),
        };
        let t = Instant::now();
        let result = section();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.slice();
        (
            result,
            Timed {
                raw_s,
                nominal_s: raw_s * (before + after) / 2.0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_stationary_and_the_clock_scales_with_it() {
        let mut clock = HostClock::new();
        let (_, t) = clock.time(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(t.raw_s >= 0.02);
        // nominal = raw × kernel speed, whatever this box's speed is.
        let (speed, _) = clock.last.unwrap();
        assert!(speed > 0.0 && t.nominal_s > 0.0);
        for _ in 0..50 {
            clock.slice();
        }
        // Toggling keys of a half-full key space keeps the map half full.
        let len = clock.map.len() as f64;
        assert!(
            (len - KEYS as f64 / 2.0).abs() < KEYS as f64 * 0.05,
            "{len}"
        );
    }
}
