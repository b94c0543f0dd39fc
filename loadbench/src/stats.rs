//! Latency histograms and the tail-percentile rule.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it.
//! Percentiles are written as a count of nines: 2 nines is p99, 4 nines is
//! p99.99.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: u64 = 10;

/// Sub-buckets per power of two: values are kept to within 1/64 (1.6 %).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Samples beyond the percentile with `nines` nines among `count` samples
/// (`count / 10^nines`): the samples strictly above the reported value.
pub fn beyond(count: u64, nines: u32) -> u64 {
    10u64.checked_pow(nines).map_or(0, |scale| count / scale)
}

/// The highest percentile, in nines, that keeps at least [`MIN_BEYOND`]
/// samples beyond it among `count` samples; `None` below p90's minimum.
pub fn tail_nines(count: u64) -> Option<u32> {
    (1..=18).rev().find(|&n| beyond(count, n) >= MIN_BEYOND)
}

/// Percentile label for `nines` nines: 2 → "p99", 4 → "p99.99".
pub fn percentile_label(nines: u32) -> String {
    match nines {
        0 => "p0".to_string(),
        1 => "p90".to_string(),
        n => format!(
            "p99{}{}",
            if n > 2 { "." } else { "" },
            "9".repeat(n as usize - 2)
        ),
    }
}

/// A log-linear histogram of non-negative integer samples (nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("p50", &self.quantile(0.5))
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) & (SUB - 1);
    ((octave - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// The lower bound and width of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let octave = idx / SUB + u64::from(SUB_BITS) - 1;
    let sub = idx % SUB;
    let width = 1u64 << (octave - u64::from(SUB_BITS));
    ((1u64 << octave) + sub * width, width)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The value with exactly `m` samples ranked above it (0 = the maximum);
    /// 0 for an empty histogram.  A sample of `v` stands for the interval
    /// `[v, v + 1)` the clock truncated it from, so within its bucket the
    /// value is placed by rank, as if the bucket's samples were spread
    /// evenly over its width.
    pub fn value_with_beyond(&self, m: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let m = m.min(self.total - 1);
        let mut above = 0u64;
        for (idx, &c) in self.counts.iter().enumerate().rev() {
            if above + c > m {
                let (lo, width) = bucket_bounds(idx);
                let from_top = (m - above) as f64;
                return lo as f64 + width as f64 * (c as f64 - from_top - 0.5) / c as f64;
            }
            above += c;
        }
        0.0
    }

    /// The `q` quantile (0 ≤ q ≤ 1); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let below = ((self.total as f64) * q.clamp(0.0, 1.0)).floor() as u64;
        self.value_with_beyond(self.total.saturating_sub(below + 1))
    }

    /// The percentile with `nines` nines.
    pub fn nines(&self, nines: u32) -> f64 {
        self.value_with_beyond(beyond(self.total, nines))
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
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
