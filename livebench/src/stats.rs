//! Order statistics and the seeded generator the workloads draw from.

/// Median of `v` (sorts it); `None` when empty.
pub fn median(v: &mut [f64]) -> Option<f64> {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (sorts it).
pub fn quantile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// First and third quartile with the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the spread this benchmark
/// reports matches the one its acceptance rule computes. Needs two
/// values.
pub fn quartiles(v: &mut [f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let at = |k: f64| {
        let m = k * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1.0), at(3.0)))
}

/// SplitMix64: a tiny, fully specified generator, so one `--seed` gives
/// the same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), Some((2.75, 8.25)));
        assert_eq!(median(&mut v), Some(5.5));
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
    }
}
