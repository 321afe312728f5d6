//! Small statistics helpers: digest folding, order statistics and the
//! percentile picker.

/// FNV-1a over 64-bit words: the benchmark's own digest, so the pinned
/// input digests do not depend on any product hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word.
    pub fn fold_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a byte string (length first, then 8-byte little-endian words,
    /// the tail zero-padded).
    pub fn fold_bytes(&mut self, data: &[u8]) {
        self.fold_u64(data.len() as u64);
        let mut chunks = data.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.fold_u64(u64::from_le_bytes(buf));
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same "exclusive" rule as Python's
/// `statistics.quantiles(values, n=4)`. A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Median with quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over rounds.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples (rounds).
    pub n: usize,
}

impl Summary {
    /// Summarise per-round samples.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Pooled step times, for the median and the tail.
#[derive(Debug, Default)]
pub struct StepTimes {
    ns: Vec<u64>,
}

impl StepTimes {
    /// Record one step.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Pool another set of samples into this one.
    pub fn extend(&mut self, other: StepTimes) {
        self.ns.extend(other.ns);
    }

    /// Samples pooled so far.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// `(p50_ms, tail_ms, tail_percentile)`: the tail is the `want_pct`-th
    /// percentile when at least ten samples lie beyond it, else the highest
    /// percentile that has.
    pub fn percentiles(&mut self, want_pct: f64) -> (f64, f64, f64) {
        assert!(!self.ns.is_empty(), "no steps were timed");
        self.ns.sort_unstable();
        let n = self.ns.len();
        let ms = |i: usize| self.ns[i] as f64 / 1e6;
        let (idx, pct) = tail_index(n, want_pct);
        (ms((n - 1) / 2), ms(idx), pct)
    }
}

/// Index and percentile of the tail sample for `n` sorted samples: the
/// wanted percentile if at least ten samples lie beyond it, otherwise the
/// highest percentile for which ten do (the maximum when `n <= 10`).
pub fn tail_index(n: usize, want_pct: f64) -> (usize, f64) {
    assert!(n > 0);
    let wanted = ((n as f64) * want_pct / 100.0).ceil() as usize;
    let wanted = wanted.clamp(1, n) - 1;
    let idx = if n > 10 { wanted.min(n - 11) } else { n - 1 };
    (idx, 100.0 * (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 2 000 samples: p99 is index 1979, 20 samples beyond.
        assert_eq!(tail_index(2_000, 99.0), (1_979, 99.0));
        // 1 000 samples: index 989 has exactly ten beyond.
        assert_eq!(tail_index(1_000, 99.0).0, 989);
        // 200 samples: p99 would leave two beyond; fall back to p95.
        let (idx, pct) = tail_index(200, 99.0);
        assert_eq!(idx, 189);
        assert!((pct - 95.0).abs() < 1e-9);
        // Too few samples for any tail: report the maximum.
        assert_eq!(tail_index(8, 99.0), (7, 100.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        let s = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!((s.median, s.n), (11.0, 3));
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        let mut a = Fnv::new();
        a.fold_bytes(b"abc");
        a.fold_bytes(b"");
        let mut b = Fnv::new();
        b.fold_bytes(b"");
        b.fold_bytes(b"abc");
        assert_ne!(a.value(), b.value());
        let mut c = Fnv::new();
        c.fold_bytes(b"abc\0");
        let mut d = Fnv::new();
        d.fold_bytes(b"abc");
        assert_ne!(c.value(), d.value());
    }
}
