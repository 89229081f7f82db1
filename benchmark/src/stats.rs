//! Order statistics and the seeded generator behind every input.

/// Samples strictly beyond a reported percentile before it is trusted.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of a sample (mean of the two middle values when even); NaN when
/// empty so a missing measurement cannot pass for a number.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Linear-interpolation quantile of an ascending sample, `q` in [0, 1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile (`p` in (0, 1)), or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it — a tail read off
/// a handful of points is noise, not a percentile.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| v[rank - 1])
}

/// What is printed beside a median.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(f64::NAN),
        q1: quantile(&v, 0.25),
        median: median(&v),
        q3: quantile(&v, 0.75),
        max: v.last().copied().unwrap_or(f64::NAN),
    }
}

/// xorshift64*: the one generator behind RHS values and the served job
/// sequence, so `--seed` fixes every input.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        // SplitMix64 scramble: nearby seeds must not give nearby streams,
        // and the state must not be zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1).
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, exactly 10 beyond.
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        // One sample fewer and the tail is too thin.
        assert_eq!(tail_percentile(&v[..199], 0.95), None);
        assert_eq!(tail_percentile(&v, 0.99), None);
        assert_eq!(tail_percentile(&v, 0.50), Some(100.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let a: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = XorShift::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = XorShift::new(0);
        assert!((0..1000).all(|_| {
            let u = r.symmetric();
            (-1.0..1.0).contains(&u)
        }));
    }
}
