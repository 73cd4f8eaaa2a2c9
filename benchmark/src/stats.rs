//! Percentile, median and window arithmetic.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Microseconds at percentile `q` of ascending nanosecond samples.
pub fn pct_us(sorted_ns: &[u32], q: f64) -> f64 {
    percentile(sorted_ns, q) as f64 / 1e3
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the same spread the driver computes
/// across runs, here used across the windows of one run.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m
    }
}

/// Completion counts per fixed-length window of a closed-loop phase.
pub struct Windows {
    start: std::time::Instant,
    len_ns: u64,
    pub counts: Vec<u64>,
}

impl Windows {
    pub fn new(start: std::time::Instant, len: std::time::Duration, n: usize) -> Windows {
        Windows {
            start,
            len_ns: len.as_nanos() as u64,
            counts: vec![0; n],
        }
    }

    /// Credits `ops` completed at `at`; completions after the last
    /// window ends are not counted.
    pub fn add(&mut self, at: std::time::Instant, ops: u64) {
        let idx =
            (at.saturating_duration_since(self.start).as_nanos() as u64 / self.len_ns) as usize;
        if let Some(c) = self.counts.get_mut(idx) {
            *c += ops;
        }
    }

    /// Ops per second of each window.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.len_ns as f64 / 1e9;
        self.counts.iter().map(|&c| c as f64 / secs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
    }

    #[test]
    fn median_and_quartile_spread_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let t0 = Instant::now();
        let mut w = Windows::new(t0, Duration::from_millis(500), 4);
        for (i, ops) in [1000u64, 1000, 10, 1000].into_iter().enumerate() {
            w.add(t0 + Duration::from_millis(500 * i as u64 + 250), ops);
        }
        w.add(t0 + Duration::from_millis(2100), 999); // past the end
        assert_eq!(w.counts, vec![1000, 1000, 10, 1000]);
        assert_eq!(median(&w.rates()), 2000.0);
    }
}
