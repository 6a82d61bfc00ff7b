//! Order statistics and digests shared by every workload.

/// Nearest-rank percentile: for `q` in `[0, 1]`, the `ceil(q·n)`-th
/// smallest sample (rank clamped to `[1, n]`). `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median by linear interpolation between the two middle samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First, second and third quartile with the same "exclusive" method
/// as Python's `statistics.quantiles(values, n=4)`, so spreads printed
/// here match the ones an outside checker computes. Needs at least two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.len() < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark's bounds are compared against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// FNV-1a over a byte stream: a stable digest for golden comparisons.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), Some(50.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        // Rank ceil(0.99 * 10) = 10: the maximum of a small sample.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), Some(10.0));
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&ten).expect("non-zero median");
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.write(b"ab");
        let mut b = Fnv::default();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
