//! Operation-stream generators.

use flash_sim::Lpn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One application-level operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Update a logical page.
    Write(Lpn),
    /// Read a logical page.
    Read(Lpn),
    /// TRIM/discard a logical page: the host declares its contents dead.
    /// The FTL unmaps it and invalidates the physical copy, so GC can
    /// reclaim the space without migrating it.
    Trim(Lpn),
    /// A gap of `n` idle ticks: quiet time the host gives the device, which
    /// the FTL may spend on background maintenance (incremental merge
    /// slices). Generators never emit it; traces carry it so recorded
    /// burst/idle shapes replay bit-identically.
    Idle(u32),
}

impl WorkloadOp {
    /// The same op on logical page `f(lpn)`; idle gaps pass through.
    pub fn map_lpn(self, f: impl FnOnce(Lpn) -> Lpn) -> Self {
        match self {
            WorkloadOp::Write(l) => WorkloadOp::Write(f(l)),
            WorkloadOp::Read(l) => WorkloadOp::Read(f(l)),
            WorkloadOp::Trim(l) => WorkloadOp::Trim(f(l)),
            WorkloadOp::Idle(n) => WorkloadOp::Idle(n),
        }
    }
}

/// Uniformly random page updates over the logical space — the paper's
/// default (adversarial for Logarithmic Gecko's buffer, fair to PVB).
#[derive(Clone, Debug)]
pub struct Uniform {
    rng: StdRng,
    logical_pages: u32,
}

impl Uniform {
    /// A generator over `logical_pages` addresses.
    pub fn new(seed: u64, logical_pages: u64) -> Self {
        Uniform {
            rng: StdRng::seed_from_u64(seed),
            logical_pages: logical_pages as u32,
        }
    }
}

impl Iterator for Uniform {
    type Item = WorkloadOp;

    fn next(&mut self) -> Option<WorkloadOp> {
        Some(WorkloadOp::Write(Lpn(self
            .rng
            .gen_range(0..self.logical_pages))))
    }
}

/// Zipfian-skewed updates (hot pages get most of the traffic). Uses the
/// rejection-inversion sampler of Hörmann & Derflinger via closed-form
/// approximation adequate for workload generation.
#[derive(Clone, Debug)]
pub struct Zipfian {
    rng: StdRng,
    logical_pages: u32,
    /// Skew parameter θ (0 = uniform; typical 0.99).
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// A zipf(θ) generator over `logical_pages` addresses.
    pub fn new(seed: u64, logical_pages: u64, theta: f64) -> Self {
        assert!(theta > 0.0 && theta < 1.0, "theta in (0,1)");
        let n = logical_pages as f64;
        let zeta = |n: f64, theta: f64| {
            // Truncated harmonic approximation; exact enough for generation.
            let mut sum = 0.0;
            let terms = (n as usize).min(10_000);
            for i in 1..=terms {
                sum += 1.0 / (i as f64).powf(theta);
            }
            if (n as usize) > terms {
                // Integral tail.
                sum += ((n).powf(1.0 - theta) - (terms as f64).powf(1.0 - theta)) / (1.0 - theta);
            }
            sum
        };
        let zeta_n = zeta(n, theta);
        let zeta_2 = zeta(2.0, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Zipfian {
            rng: StdRng::seed_from_u64(seed),
            logical_pages: logical_pages as u32,
            theta,
            zeta_n,
            alpha,
            eta,
        }
    }

    fn sample(&mut self) -> u32 {
        // Gray et al.'s method (as used in YCSB).
        let u: f64 = self.rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let n = self.logical_pages as f64;
        ((n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u32).min(self.logical_pages - 1)
    }
}

impl Iterator for Zipfian {
    type Item = WorkloadOp;

    fn next(&mut self) -> Option<WorkloadOp> {
        Some(WorkloadOp::Write(Lpn(self.sample())))
    }
}

/// Hot/cold traffic: a fraction `hot_fraction` of the address space receives
/// `hot_traffic` of the updates (e.g. 20 % of pages get 80 % of writes).
#[derive(Clone, Debug)]
pub struct HotCold {
    rng: StdRng,
    logical_pages: u32,
    hot_pages: u32,
    hot_traffic: f64,
}

impl HotCold {
    /// A hot/cold generator.
    pub fn new(seed: u64, logical_pages: u64, hot_fraction: f64, hot_traffic: f64) -> Self {
        assert!((0.0..=1.0).contains(&hot_fraction) && (0.0..=1.0).contains(&hot_traffic));
        HotCold {
            rng: StdRng::seed_from_u64(seed),
            logical_pages: logical_pages as u32,
            hot_pages: ((logical_pages as f64 * hot_fraction) as u32).max(1),
            hot_traffic,
        }
    }
}

impl Iterator for HotCold {
    type Item = WorkloadOp;

    fn next(&mut self) -> Option<WorkloadOp> {
        let lpn = if self.rng.gen_bool(self.hot_traffic) {
            self.rng.gen_range(0..self.hot_pages)
        } else {
            self.rng
                .gen_range(self.hot_pages..self.logical_pages.max(self.hot_pages + 1))
        };
        Some(WorkloadOp::Write(Lpn(lpn)))
    }
}

/// Wrap a write-only generator into a read/write mix with the given read
/// ratio (`RW` in the paper's slowdown formula).
#[derive(Clone, Debug)]
pub struct Mixed<G> {
    inner: G,
    rng: StdRng,
    read_ratio: f64,
    logical_pages: u32,
}

impl<G> Mixed<G> {
    /// Mix reads (uniform over the space) into `inner`'s writes.
    pub fn new(seed: u64, inner: G, read_ratio: f64, logical_pages: u64) -> Self {
        assert!((0.0..1.0).contains(&read_ratio));
        Mixed {
            inner,
            rng: StdRng::seed_from_u64(seed),
            read_ratio,
            logical_pages: logical_pages as u32,
        }
    }
}

impl<G: Iterator<Item = WorkloadOp>> Iterator for Mixed<G> {
    type Item = WorkloadOp;

    fn next(&mut self) -> Option<WorkloadOp> {
        if self.rng.gen_bool(self.read_ratio) {
            Some(WorkloadOp::Read(Lpn(self
                .rng
                .gen_range(0..self.logical_pages))))
        } else {
            self.inner.next()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn writes(g: impl Iterator<Item = WorkloadOp>, n: usize) -> Vec<u32> {
        g.take(n)
            .map(|op| match op {
                WorkloadOp::Write(l) => l.0,
                WorkloadOp::Read(l) => l.0,
                WorkloadOp::Trim(l) => l.0,
                WorkloadOp::Idle(_) => unreachable!("generators do not emit idle gaps"),
            })
            .collect()
    }

    #[test]
    fn uniform_covers_space_roughly_evenly() {
        let vs = writes(Uniform::new(1, 100), 10_000);
        let mut counts = HashMap::new();
        for v in vs {
            assert!(v < 100);
            *counts.entry(v).or_insert(0u32) += 1;
        }
        assert!(counts.len() > 95, "uniform should touch almost every page");
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(max < &(min * 4), "uniform spread too skewed: {min}..{max}");
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(
            writes(Uniform::new(7, 50), 100),
            writes(Uniform::new(7, 50), 100)
        );
        assert_ne!(
            writes(Uniform::new(7, 50), 100),
            writes(Uniform::new(8, 50), 100)
        );
    }

    #[test]
    fn zipfian_is_skewed() {
        let vs = writes(Zipfian::new(3, 1000, 0.99), 20_000);
        let mut counts = HashMap::new();
        for v in vs {
            assert!(v < 1000);
            *counts.entry(v).or_insert(0u64) += 1;
        }
        // The most popular item should take a large share.
        let top = counts.values().max().unwrap();
        assert!(*top > 1000, "zipf top item only got {top} of 20k");
    }

    #[test]
    fn hot_cold_split() {
        let g = HotCold::new(5, 1000, 0.2, 0.8);
        let vs = writes(g, 20_000);
        let hot = vs.iter().filter(|v| **v < 200).count() as f64 / 20_000.0;
        assert!((0.75..0.85).contains(&hot), "hot share = {hot}");
    }

    #[test]
    fn mixed_interleaves_reads() {
        let g = Mixed::new(9, Uniform::new(1, 100), 0.5, 100);
        let ops: Vec<WorkloadOp> = g.take(1000).collect();
        let reads = ops
            .iter()
            .filter(|o| matches!(o, WorkloadOp::Read(_)))
            .count();
        assert!((350..650).contains(&reads), "read count = {reads}");
    }
}
