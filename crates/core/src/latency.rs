//! Lock-free per-decision latency histogram.
//!
//! [`LatencyHistogram`] is a fixed array of log-bucketed `AtomicU64`
//! counters: recording a sample is one `leading_zeros`, one relaxed
//! `fetch_add`, and one relaxed `fetch_max` — cheap enough for the
//! `execute` hot path, and wait-free so concurrent sessions never contend.
//! Bucket `i` counts samples whose duration in nanoseconds lies in
//! `[2^i, 2^(i+1))`; percentile queries walk the cumulative counts and
//! report the geometric midpoint of the bucket holding the requested rank,
//! so a reported p99 is exact to within one octave (a factor of √2 around
//! the midpoint) — plenty for the throughput/latency tables.
//!
//! The histogram is the single source of latency truth: the proxy records
//! into it on every `execute`, and both the T8 bench and the server's
//! `Stats` wire response read percentiles from the same snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log buckets. Bucket 39 covers up to `2^40` ns ≈ 18 minutes;
/// anything slower saturates into the last bucket.
const BUCKETS: usize = 40;

/// Fixed log-bucketed latency counters. All methods take `&self`.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket for a duration of `ns` nanoseconds: `floor(log2(ns))`,
/// clamped to the table (0 ns lands in bucket 0).
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The representative value reported for a bucket: its geometric midpoint
/// `2^i * 1.5` (for bucket 0, 1 ns).
fn bucket_mid_ns(i: usize) -> u64 {
    if i == 0 {
        1
    } else {
        (1u64 << i) + (1u64 << (i - 1))
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample. Wait-free; `Relaxed` ordering — the counters
    /// carry no synchronization duties.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot: counts are individually exact and
    /// monotone; under live traffic the percentiles lag by whatever arrived
    /// during the walk.
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect();
        let count: u64 = counts.iter().sum();
        let percentile = |pct: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // 1-based nearest-rank, in exact integer arithmetic. (The
            // previous float form `ceil(p/100 * count)` overshot at exact
            // boundaries — 0.95 * 20 is 19.000000000000004 in binary
            // floating point, whose ceiling is 20, one whole rank high.)
            let rank = ((u128::from(count) * u128::from(pct)).div_ceil(100) as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    return bucket_mid_ns(i);
                }
            }
            bucket_mid_ns(BUCKETS - 1)
        };
        LatencySnapshot {
            count,
            sum_ns: self.sum_ns.load(Ordering::Acquire),
            max_ns: self.max_ns.load(Ordering::Acquire),
            p50_ns: percentile(50),
            p95_ns: percentile(95),
            p99_ns: percentile(99),
        }
    }
}

/// A point-in-time summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub sum_ns: u64,
    /// Largest single sample, exact (not bucketed).
    pub max_ns: u64,
    /// Median, as the midpoint of its log bucket.
    pub p50_ns: u64,
    /// 95th percentile, as the midpoint of its log bucket.
    pub p95_ns: u64,
    /// 99th percentile, as the midpoint of its log bucket.
    pub p99_ns: u64,
}

impl LatencySnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// 95th percentile in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.p95_ns as f64 / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_zero() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s, LatencySnapshot::default());
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_octave_accurate() {
        let h = LatencyHistogram::new();
        // 90 fast samples at ~1 µs, 10 slow at ~1 ms.
        for _ in 0..90 {
            h.record(Duration::from_nanos(1_100));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_050_000));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 within the 1024–2048 ns bucket, p99 within 1.05e6's bucket.
        assert_eq!(s.p50_ns, bucket_mid_ns(bucket_of(1_100)));
        assert_eq!(s.p99_ns, bucket_mid_ns(bucket_of(1_050_000)));
        assert!(s.p50_ns < s.p95_ns || s.p95_ns == s.p50_ns);
        assert_eq!(s.max_ns, 1_050_000);
        assert_eq!(s.mean_ns(), (90 * 1_100 + 10 * 1_050_000) / 100);
    }

    #[test]
    fn p100_is_last_nonempty_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(7));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ns, s.p99_ns);
    }

    #[test]
    fn nearest_rank_is_exact_at_boundaries() {
        // 19 fast + 1 slow samples: p95's nearest rank is ceil(0.95·20) =
        // 19, which is still a fast sample. The old float-based rank
        // computed ceil(19.000000000000004) = 20 and jumped to the slow
        // bucket — a whole-octave error at an exact boundary.
        let h = LatencyHistogram::new();
        for _ in 0..19 {
            h.record(Duration::from_nanos(1_100));
        }
        h.record(Duration::from_nanos(1_050_000));
        let s = h.snapshot();
        assert_eq!(s.p95_ns, bucket_mid_ns(bucket_of(1_100)));
        assert_eq!(s.p99_ns, bucket_mid_ns(bucket_of(1_050_000)));
    }

    #[test]
    fn single_sample_percentiles_coincide() {
        // With one sample every percentile has rank 1: all three report
        // the same bucket and the mean is the sample itself.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(777));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ns, s.p95_ns);
        assert_eq!(s.p95_ns, s.p99_ns);
        assert_eq!(s.mean_ns(), 777);
        assert_eq!(s.max_ns, 777);
    }

    #[test]
    fn zero_duration_samples_are_counted_not_lost() {
        let h = LatencyHistogram::new();
        for _ in 0..3 {
            h.record(Duration::from_nanos(0));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.p50_ns, bucket_mid_ns(0));
        assert_eq!(s.p99_ns, bucket_mid_ns(0));
    }

    #[test]
    fn percentiles_are_monotone_under_random_workloads() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let h = LatencyHistogram::new();
            let n = rng.gen_range(1usize..400);
            for _ in 0..n {
                // Spread samples across many octaves, including 0.
                let shift = rng.gen_range(0u32..40);
                let ns = rng.gen_range(0u64..1 << shift);
                h.record(Duration::from_nanos(ns));
            }
            let s = h.snapshot();
            assert_eq!(s.count, n as u64, "seed {seed}");
            assert!(
                s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns,
                "seed {seed}: p50 {} ≤ p95 {} ≤ p99 {} violated",
                s.p50_ns,
                s.p95_ns,
                s.p99_ns
            );
            assert!(
                s.p99_ns <= s.max_ns.max(bucket_mid_ns(bucket_of(s.max_ns))),
                "seed {seed}: p99 beyond the max sample's bucket midpoint"
            );
            assert!(s.mean_ns() <= s.max_ns, "seed {seed}");
        }
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }
}
