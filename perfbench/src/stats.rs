//! Exact percentiles over raw samples.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of the
//! full sample set, never a bucketed estimate, so a reported percentile is
//! always one of the recorded samples and can never exceed the maximum.

/// A percentile in hundredths of a percent (`9900` = p99), so ranks are
/// computed in integer arithmetic without float rounding at the edges.
pub type Basis = u64;

pub const P50: Basis = 5000;
pub const P99: Basis = 9900;

/// Nearest-rank percentile of an ascending slice: the smallest sample `x`
/// such that at least `p` of the samples are `<= x`. `None` when empty.
pub fn nearest_rank(sorted: &[u64], p: Basis) -> Option<u64> {
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = (p.min(10_000) * n).div_ceil(10_000).max(1);
    Some(sorted[(rank - 1) as usize])
}

/// Raw samples of one quantity (nanoseconds, or any integer unit).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    pub fn percentile(&mut self, p: Basis) -> Option<u64> {
        self.sort();
        nearest_rank(&self.values, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, checked sample by sample.
    fn brute(values: &[u64], p: Basis) -> u64 {
        let n = values.len() as u64;
        let mut candidates: Vec<u64> = values.to_vec();
        candidates.sort_unstable();
        candidates
            .into_iter()
            .find(|&x| values.iter().filter(|&&v| v <= x).count() as u64 * 10_000 >= p * n)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn matches_brute_force_rank_and_never_exceeds_max() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000, 1234] {
            let mut s = Samples::default();
            let mut raw = Vec::new();
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Heavy ties and a long tail, like latencies.
                let v = if x.is_multiple_of(5) {
                    x % 1_000_000
                } else {
                    x % 97
                };
                s.push(v);
                raw.push(v);
            }
            let max = *raw.iter().max().unwrap();
            for p in [1, 100, 2500, P50, 7500, 9000, P99, 9990, 9999, 10_000] {
                let got = s.percentile(p).unwrap();
                assert_eq!(got, brute(&raw, p), "n={n} p={p}");
                assert!(got <= max, "n={n} p={p}: {got} > max {max}");
            }
        }
    }

    #[test]
    fn exact_ranks_at_the_edges() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, P50), Some(50));
        assert_eq!(nearest_rank(&sorted, P99), Some(99));
        assert_eq!(nearest_rank(&sorted, 10_000), Some(100));
        assert_eq!(nearest_rank(&sorted, 0), Some(1));
        assert_eq!(nearest_rank(&[], P50), None);
    }
}
