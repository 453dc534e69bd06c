//! The benchmark's own arithmetic: percentiles, quartiles, and the open-loop
//! capacity search.

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, q: f64) -> usize {
    ((n - 1) as f64 * q).round() as usize
}

/// The sample at rank `round((n − 1)·q)` of an ascending sample, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - 1 - r >= MIN_BEYOND).then(|| sorted[r])
}

/// Mean of the slowest `share` of an ascending sample (the top
/// `⌈n·share⌉`), or `None` when those are fewer than [`MIN_BEYOND`]. Unlike
/// the percentile at the same rank it moves with every sample of the tail,
/// so it does not stick to one discrete service time.
pub fn slowest_mean(sorted: &[f64], share: f64) -> Option<f64> {
    let k = (sorted.len() as f64 * share).ceil() as usize;
    (k >= MIN_BEYOND).then(|| mean(&sorted[sorted.len() - k..]))
}

/// The median of an ascending sample (always reportable).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Whether a queue fed one arrival every `interval_us` keeps the p99 response
/// time (wait + service, timed from when the op was due) and the final
/// backlog within `limit_us`. Lindley: `W ← max(0, W + S − interval)`.
fn meets_limit(service_us: &[f64], interval_us: f64, limit_us: f64) -> bool {
    let allowed_over = service_us.len() - 1 - rank(service_us.len(), 0.99);
    let (mut wait, mut over) = (0.0f64, 0usize);
    for &s in service_us {
        if wait + s > limit_us {
            over += 1;
            if over > allowed_over {
                return false;
            }
        }
        wait = (wait + s - interval_us).max(0.0);
    }
    wait <= limit_us
}

/// Open-loop capacity in ops/s: the highest arrival rate at which the
/// per-op service times `service_us`, replayed in order through one FIFO
/// server, keep p99 response time and final backlog within `limit_us`.
/// No work is assumed to happen in arrival gaps (conservative). Found by
/// bisection; waits only grow with the rate, so the predicate is monotone.
/// Returns 0 when even an idle server's service times miss the limit.
pub fn max_rate_ops_s(service_us: &[f64], limit_us: f64) -> f64 {
    if service_us.is_empty() || !meets_limit(service_us, f64::INFINITY, limit_us) {
        return 0.0;
    }
    let total: f64 = service_us.iter().sum();
    // Twice the closed-loop rate: far past saturation for any long series.
    let mut hi = 2.0 * service_us.len() as f64 / total * 1e6;
    if meets_limit(service_us, 1e6 / hi, limit_us) {
        return hi;
    }
    let mut lo = 0.0;
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        if meets_limit(service_us, 1e6 / mid, limit_us) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // rank(999·0.99) = 989: ten samples (990..=999) lie beyond it.
        assert_eq!(percentile(&v, 0.99), Some(989.0));
        // rank(999·0.999) = 998: only one sample beyond.
        assert_eq!(percentile(&v, 0.999), None);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        // rank(998·0.99) = 988: ten beyond (989..=998) — still reportable.
        assert_eq!(percentile(&v, 0.99), Some(988.0));
        let v: Vec<f64> = (0..990).map(f64::from).collect();
        // rank(989·0.99) = 979: ten beyond.
        assert_eq!(percentile(&v, 0.99), Some(979.0));
        // rank(899·0.99) = 890: nine beyond — not reportable.
        assert_eq!(percentile(&v[..900], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 0.5), Some(495.0));
    }

    #[test]
    fn slowest_mean_needs_ten_samples_too() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // The slowest 1 % of 1000 are 990..=999.
        assert_eq!(slowest_mean(&v, 0.01), Some(994.5));
        assert_eq!(slowest_mean(&v, 0.001), None);
        assert_eq!(slowest_mean(&v[..900], 0.01), None);
        assert_eq!(slowest_mean(&[], 0.01), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            (1.25, 3.5, 5.75)
        );
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lindley_capacity_of_a_constant_server() {
        // 1 ms per op, limit 5 ms: any rate up to 1000 ops/s never queues;
        // above it the backlog grows by (1000 − interval) µs per op and ends
        // far past the limit on a long series.
        let s = vec![1000.0; 100_000];
        let r = max_rate_ops_s(&s, 5000.0);
        assert!((r - 1000.0).abs() < 1.0, "capacity {r}");
    }

    #[test]
    fn lindley_capacity_with_a_stall() {
        // 100 000 ops of 100 µs, every 1000th replaced by a 50 ms stall;
        // limit 10 ms. p99 over 100 000 ops allows 1000 late ops: 10 per
        // stall, the stall itself and 9 followers. At interval I the k-th
        // follower waits 50 000 − I − (k − 1)(I − 100) µs; the 10th must
        // answer within the limit: 50 100 − I − 9(I − 100) ≤ 10 000
        // ⇔ I ≥ 4100 µs ⇔ 243.9 ops/s.
        let mut s = vec![100.0; 100_000];
        for i in (500..100_000).step_by(1000) {
            s[i] = 50_000.0;
        }
        let r = max_rate_ops_s(&s, 10_000.0);
        assert!((r - 1e6 / 4100.0).abs() < 1e-3, "capacity {r}");
        // The closed-loop rate of the same series is ≈ 6 700 ops/s: the
        // latency limit, not throughput, is what binds.
        assert!(r < 0.05 * 1e6 * s.len() as f64 / s.iter().sum::<f64>());
    }

    #[test]
    fn lindley_rejects_a_series_slower_than_the_limit() {
        assert_eq!(max_rate_ops_s(&vec![2000.0; 5000], 1000.0), 0.0);
        assert_eq!(max_rate_ops_s(&[], 1000.0), 0.0);
    }
}
