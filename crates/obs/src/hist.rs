//! Log-bucketed histograms with exact, lossless shard merging.
//!
//! [`LogHistogram`] buckets samples by the position of their highest set
//! bit: bucket `i` covers the value range `[2^i, 2^(i+1) - 1]` (bucket 0
//! holds 1, bucket 1 holds 2–3, and so on — zero samples clamp to 1). It is
//! the one histogram type of the workspace: the engine's latency
//! statistics record into it directly. The layout keeps `record`
//! branch-free and allocation-free (a single `leading_zeros` plus an
//! array increment), and makes merging shards *exact*: bucket counts
//! simply add, so a histogram built from `N` sweep shards is bit-identical
//! to one built single-threaded.
//!
//! The price is quantile resolution: [`LogHistogram::quantile_upper_bound`]
//! returns the top of the bucket containing the requested rank, which
//! overestimates the exact order statistic by at most 2× (precisely:
//! `q ≤ bound ≤ 2·q − 1` for any non-empty histogram). The proptests in
//! `tests/hist_props.rs` pin both the merge algebra and this error bound.

use crate::json;

/// Number of power-of-two buckets — enough for any `u64` sample.
pub const BUCKETS: usize = 64;

/// A mergeable log₂-bucketed histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: position of the highest set bit of
/// `value.max(1)`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.max(1).leading_zeros()) as usize - 1
}

/// Inclusive upper edge of bucket `i` (`2^(i+1) - 1`, saturating at the top
/// bucket).
#[inline]
fn bucket_hi(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Rebuilds a histogram from a prefix of its bucket counts and its
    /// sum (the checkpoint encoding); the count is derived from the
    /// buckets. `None` when there are more than [`BUCKETS`] buckets or
    /// their total overflows `u64`.
    pub fn from_parts(buckets: &[u64], sum: u64) -> Option<Self> {
        let mut h = Self::new();
        h.buckets.get_mut(..buckets.len())?.copy_from_slice(buckets);
        h.count = buckets.iter().try_fold(0u64, |n, &b| n.checked_add(b))?;
        h.sum = sum;
        Some(h)
    }

    /// Record one sample. Zero clamps to 1 (bucket 0).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value.max(1));
    }

    /// Record `n` occurrences of `value` at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.max(1).saturating_mul(n));
    }

    /// Fold another shard into this one. Exact: bucket counts add, so the
    /// result is independent of how samples were split across shards.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The samples recorded since `earlier`, a past state of this
    /// histogram: the inverse of [`LogHistogram::merge`]. Bucket counts and
    /// the count subtract exactly, so quantiles of the difference are those
    /// of the later samples alone; the sum is exact unless it saturated.
    ///
    /// # Panics
    /// In debug builds, when `earlier` holds a sample this one lacks.
    pub fn since(&self, earlier: &LogHistogram) -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
            count: self.count - earlier.count,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (zeros counted as 1; saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `p`-quantile (`0.0 < p <= 1.0`): the inclusive
    /// top edge of the bucket containing the sample of rank
    /// `ceil(p · count)`. Returns 0 for an empty histogram.
    ///
    /// For the exact order statistic `q` of the same rank, the bound `b`
    /// satisfies `q <= b <= 2·q − 1` (buckets span one power of two).
    pub fn quantile_upper_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_hi(i);
            }
        }
        bucket_hi(BUCKETS - 1)
    }

    /// Raw bucket counts (bucket `i` covers `[2^i, 2^(i+1) - 1]`).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Inclusive lower edge of bucket `i` (`2^i`).
    pub fn bucket_lo(i: usize) -> u64 {
        1u64 << i.min(BUCKETS - 1)
    }

    /// Inclusive upper edge of bucket `i`.
    pub fn bucket_hi(i: usize) -> u64 {
        bucket_hi(i)
    }

    /// Render a compact JSON summary object:
    /// `{"count":N,"sum":N,"mean":x,"p50":N,"p95":N,"p99":N}`.
    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"sum\":");
        out.push_str(&self.sum.to_string());
        out.push_str(",\"mean\":");
        let _ = json::write_f64(out, self.mean());
        out.push_str(",\"p50\":");
        out.push_str(&self.quantile_upper_bound(0.50).to_string());
        out.push_str(",\"p95\":");
        out.push_str(&self.quantile_upper_bound(0.95).to_string());
        out.push_str(",\"p99\":");
        out.push_str(&self.quantile_upper_bound(0.99).to_string());
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(LogHistogram::bucket_lo(3), 8);
        assert_eq!(LogHistogram::bucket_hi(3), 15);
        assert_eq!(LogHistogram::bucket_hi(63), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 100, 100, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1310);
        // rank ceil(0.5 * 8) = 4 -> sample 4 -> bucket 2 -> hi 7
        assert_eq!(h.quantile_upper_bound(0.5), 7);
        // rank 8 -> sample 1000 -> bucket 9 -> hi 1023
        assert_eq!(h.quantile_upper_bound(1.0), 1023);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_upper_bound(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_is_exact() {
        let samples = [1u64, 5, 9, 17, 33, 65, 129, 257];
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn record_n_matches_loop() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(37, 5);
        for _ in 0..5 {
            b.record(37);
        }
        assert_eq!(a, b);
        a.record_n(99, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_derives_the_count_and_rejects_bad_input() {
        let mut h = LogHistogram::new();
        for v in [1u64, 3, 9, 9, 300] {
            h.record(v);
        }
        let last = h.buckets().iter().rposition(|&b| b > 0).unwrap();
        assert_eq!(
            LogHistogram::from_parts(&h.buckets()[..=last], h.sum()),
            Some(h)
        );
        assert_eq!(LogHistogram::from_parts(&[], 0), Some(LogHistogram::new()));
        assert_eq!(LogHistogram::from_parts(&[0; BUCKETS + 1], 0), None);
        assert_eq!(LogHistogram::from_parts(&[u64::MAX, 1], 0), None);
    }

    #[test]
    fn json_summary_shape() {
        let mut h = LogHistogram::new();
        h.record(10);
        let mut out = String::new();
        h.push_json(&mut out);
        assert_eq!(
            out,
            "{\"count\":1,\"sum\":10,\"mean\":10.0,\"p50\":15,\"p95\":15,\"p99\":15}"
        );
    }
}
