//! Latency model and simulated clock.
//!
//! The paper's evaluation (§5) uses a fixed asymmetric cost model: a page
//! read takes ≈100 µs, a page write ≈1 ms, and a spare-area read ≈3 µs
//! (a spare area is 32× smaller than a page, so 100/32 ≈ 3 µs). The ratio
//! between a page write and a page read is called `δ` and defaults to 10.

/// Fixed per-operation latencies, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Latency of reading one flash page.
    pub page_read_us: f64,
    /// Latency of writing (programming) one flash page.
    pub page_write_us: f64,
    /// Latency of reading one spare area.
    pub spare_read_us: f64,
    /// Latency of erasing one flash block.
    pub erase_us: f64,
}

impl LatencyModel {
    /// The paper's model: 100 µs read, 1 ms write, 3 µs spare read, 2 ms erase.
    /// The one model the device charges.
    pub const fn paper() -> Self {
        LatencyModel {
            page_read_us: 100.0,
            page_write_us: 1000.0,
            spare_read_us: 3.0,
            erase_us: 2000.0,
        }
    }

    /// `δ`: the ratio between a page write and a page read.
    pub fn delta(&self) -> f64 {
        self.page_write_us / self.page_read_us
    }
}

/// A simulated clock: accumulates the latency of every device operation.
///
/// Time never advances by itself; only device IO advances it. This is the
/// standard discrete-simulation approach the paper's infrastructure uses to
/// report recovery times and throughput without real hardware.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimClock {
    now_us: f64,
}

impl SimClock {
    /// Current simulated time in microseconds since device power-on.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Advance the clock by `us` microseconds.
    pub fn advance_us(&mut self, us: f64) {
        self.now_us += us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latency_model() {
        let m = LatencyModel::paper();
        assert_eq!(m.delta(), 10.0);
        assert!((m.spare_read_us - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn clock_accumulates() {
        let mut c = SimClock::default();
        c.advance_us(100.0);
        c.advance_us(1000.0);
        assert!((c.now_us() - 1100.0).abs() < 1e-9);
    }
}
