//! Power-of-two bucketed histograms for counts (hops, queue lengths, ...).

/// A histogram over `u64` samples with log2-spaced buckets.
///
/// Bucket `i` counts samples `v` with `floor(log2(v+1)) == i`, i.e. bucket 0
/// holds the value 0, bucket 1 holds {1, 2}, bucket 2 holds {3..6}, etc.
/// Log-spaced buckets match the heavy-tailed distributions seen in queue
/// lengths and sub-problem sizes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty — an *internal sentinel only*: the public
    /// [`Histogram::min`] gates on `count` and reports `None` for empty
    /// histograms, so the sentinel can never leak into readings.
    min: u64,
    max: u64,
}

/// `Default` must construct exactly what [`Histogram::new`] does. A
/// derived impl would zero the `min` sentinel, silently pinning the
/// reported minimum of every later sample to 0 — a real bug when the
/// histogram is embedded in a `#[derive(Default)]` container.
impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a histogram from raw parts (the checkpoint-codec path).
    /// `parts()` and `from_parts` round-trip exactly; feeding back
    /// anything else is the caller's responsibility.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u64, min: u64, max: u64) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// The raw fields `(buckets, count, sum, min, max)` for
    /// serialisation. `min` is the internal sentinel (`u64::MAX` when
    /// empty), not the gated [`Histogram::min`] reading.
    pub fn parts(&self) -> (&[u64], u64, u64, u64, u64) {
        (&self.buckets, self.count, self.sum, self.min, self.max)
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        // `value + 1` would wrap for u64::MAX, making `leading_zeros`
        // return 64 and the subtraction underflow (debug panic / garbage
        // bucket in release). Saturating pins the top value into the last
        // bucket, which is where it belongs anyway.
        (63 - value.saturating_add(1).leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value` — the same histogram as `n` calls
    /// of [`Histogram::record`]; `n = 0` records nothing.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = Self::bucket_of(value);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (None when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (None when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket counts, index = log2 bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive value range `(lo, hi)` covered by bucket `i`. The last
    /// bucket (63) is clamped to `u64::MAX` instead of overflowing.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        let lo = (1u64 << i.min(63)) - 1;
        let hi = if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 2
        };
        (lo, hi)
    }

    /// Merges another histogram into this one. Merging an empty
    /// histogram is the identity — in particular a merge of two empty
    /// histograms stays empty (`count() == 0`, `min()`/`max()` both
    /// `None`), rather than relying on sentinel values cancelling out.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(6), 2);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(1), (1, 2));
        assert_eq!(Histogram::bucket_range(2), (3, 6));
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 21.4).abs() < 1e-9);
        assert_eq!(h.buckets()[0], 1); // the 0
        assert_eq!(h.buckets()[1], 2); // the 1s
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn extreme_values_do_not_underflow_the_bucket_index() {
        // Regression: `(u64::MAX + 1)` wrapped to 0, `leading_zeros`
        // returned 64, and `64 - 64 - 1` underflowed — a debug panic, or
        // a garbage bucket index in release.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::bucket_of(u64::MAX - 1), 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(u64::MAX - 1));
        assert_eq!(h.buckets()[63], 2);
        // The top bucket's range is clamped instead of overflowing.
        let (lo, hi) = Histogram::bucket_range(63);
        assert_eq!(lo, (1u64 << 63) - 1);
        assert_eq!(hi, u64::MAX);
        assert!(lo < u64::MAX - 1, "both recorded values sit in bucket 63");
    }

    #[test]
    fn default_matches_new_and_tracks_min_correctly() {
        // Regression: a derived Default zeroed the min sentinel, so a
        // histogram obtained via Default (e.g. inside a
        // `#[derive(Default)]` stats container) reported min = 0 for
        // every sample stream.
        let mut h = Histogram::default();
        assert_eq!(h, Histogram::new());
        h.record(5);
        assert_eq!(h.min(), Some(5));
    }

    #[test]
    fn merge_of_empties_stays_empty() {
        let mut a = Histogram::new();
        let b = Histogram::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        // A later record starts from a clean slate, not from sentinel
        // residue.
        a.record(9);
        assert_eq!(a.min(), Some(9));
        assert_eq!(a.max(), Some(9));
    }

    #[test]
    fn merge_with_one_empty_side_is_identity() {
        let mut recorded = Histogram::new();
        recorded.record(3);
        recorded.record(12);
        let snapshot = recorded.clone();
        recorded.merge(&Histogram::new());
        assert_eq!(recorded, snapshot, "merging an empty rhs is a no-op");
        let mut empty = Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot, "merging into an empty lhs adopts rhs");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..50u64 {
            a.record(v);
            c.record(v);
        }
        for v in 50..200u64 {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut one_by_one = Histogram::new();
        let mut batched = Histogram::new();
        for (value, n) in [(3u64, 4u64), (0, 2), (900, 1), (7, 0), (3, 5)] {
            for _ in 0..n {
                one_by_one.record(value);
            }
            batched.record_n(value, n);
        }
        assert_eq!(batched, one_by_one);
        // Zero samples leave an empty histogram empty, sentinel and all.
        let mut empty = Histogram::new();
        empty.record_n(5, 0);
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn parts_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 7, 7, 900] {
            h.record(v);
        }
        let (buckets, count, sum, min, max) = h.parts();
        let rebuilt = Histogram::from_parts(buckets.to_vec(), count, sum, min, max);
        assert_eq!(rebuilt, h);
        // The empty histogram round-trips its sentinel untouched.
        let empty = Histogram::new();
        let (buckets, count, sum, min, max) = empty.parts();
        assert_eq!(min, u64::MAX);
        let rebuilt = Histogram::from_parts(buckets.to_vec(), count, sum, min, max);
        assert_eq!(rebuilt.min(), None);
        assert_eq!(rebuilt, empty);
    }
}
