//! Order statistics, the seeded generator, and the process's peak RSS.

/// Value at quantile `q` of an ascending slice (nearest rank, so the
/// result is always one of the samples).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// How many samples lie strictly beyond the nearest-rank `q` quantile
/// of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p99 / p95 / p90 that still has at least ten samples
/// beyond it, or `None` when even p90 has fewer (n < 100): a tail read
/// off fewer than ten samples is one outlier, not a percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| n > 0 && samples_beyond(n, q) >= 10)
}

/// First and third quartile by the exclusive method, identical to
/// Python's `statistics.quantiles(values, n=4)` (the rule the driver
/// applies to ten runs).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated and
        // clamped to the sample range
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

/// splitmix64: the benchmark's own generator, so request plans do not
/// depend on the repository's `vendor/rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 5.0);
        assert_eq!(quantile_sorted(&s, 0.9), 9.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&s) - 5.5 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..1000 {
            let u = a.unit();
            assert_eq!(u, b.unit());
            assert!((0.0..1.0).contains(&u));
            assert!(a.below(10) < 10);
            b.below(10);
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
