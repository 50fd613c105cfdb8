//! Property tests for [`heteronoc_obs::LogHistogram`]: the merge algebra
//! (associativity, commutativity, identity — the properties that make
//! shard-count-independent aggregation sound), its inverse `since`, and
//! the quantile error bound against an exact order-statistic reference.

use heteronoc_obs::LogHistogram;
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Exact `p`-quantile of `samples` under the histogram's rank convention:
/// the sample of rank `ceil(p * n)` (1-indexed) in sorted order, with the
/// same clamp-to-1 the histogram applies on record.
fn exact_quantile(samples: &[u64], p: f64) -> u64 {
    let mut sorted: Vec<u64> = samples.iter().map(|&v| v.max(1)).collect();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(
        xs in prop::collection::vec(0u64..1_000_000, 0..200),
        ys in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec(0u64..1_000_000, 0..120),
        ys in prop::collection::vec(0u64..1_000_000, 0..120),
        zs in prop::collection::vec(0u64..1_000_000, 0..120),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_identity_and_shard_equivalence(
        samples in prop::collection::vec(0u64..1_000_000, 1..300),
        shards in 1usize..8,
    ) {
        // Identity: merging an empty histogram changes nothing.
        let whole = hist_of(&samples);
        let mut with_empty = whole.clone();
        with_empty.merge(&LogHistogram::new());
        prop_assert_eq!(&with_empty, &whole);

        // Sharding round-robin and re-merging reproduces the single-shard
        // histogram exactly — the property the sweep engine relies on for
        // `--jobs`-independent telemetry.
        let mut parts = vec![LogHistogram::new(); shards];
        for (i, &v) in samples.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &whole);
    }

    #[test]
    fn quantile_bound_vs_exact_reference(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..300),
        p_mille in 1u64..=1000,
    ) {
        let p = p_mille as f64 / 1000.0;
        let h = hist_of(&samples);
        let exact = exact_quantile(&samples, p);
        let bound = h.quantile_upper_bound(p);
        // Buckets span one power of two, so the bucket-top bound brackets
        // the exact order statistic within a factor of two:
        //   exact <= bound < 2 * exact.
        prop_assert!(
            bound >= exact,
            "bound {bound} below exact quantile {exact} (p={p})"
        );
        prop_assert!(
            bound < 2 * exact,
            "bound {bound} exceeds 2x exact quantile {exact} (p={p})"
        );
    }

    #[test]
    fn count_sum_mean_track_samples(
        samples in prop::collection::vec(1u64..1_000_000, 1..200),
    ) {
        let h = hist_of(&samples);
        let sum: u64 = samples.iter().sum();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), sum);
        let mean = sum as f64 / samples.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-9 * mean.max(1.0));
    }

    #[test]
    fn since_recovers_the_later_samples_exactly(
        xs in prop::collection::vec(0u64..1_000_000, 0..200),
        ys in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        // `earlier` then `ys` recorded on top: the difference is `ys` alone,
        // down to every bucket, the count, the sum and each quantile.
        let earlier = hist_of(&xs);
        let mut later = earlier.clone();
        later.merge(&hist_of(&ys));
        let d = later.since(&earlier);
        prop_assert_eq!(&d, &hist_of(&ys));
        for p in [0.5, 0.95, 0.99] {
            prop_assert_eq!(d.quantile_upper_bound(p), hist_of(&ys).quantile_upper_bound(p));
        }
    }
}
