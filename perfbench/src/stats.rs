//! Pure arithmetic behind the reported numbers: percentile ranks,
//! statement classification, the layer split, and metric naming. Kept
//! free of I/O so the unit tests below pin every rule the report uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of all samples at or below it (rank
/// `ceil(p/100 · n)`, 1-based). Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); sorts
/// them. Returns 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `true` for an `INSERT`, `UPDATE` or `DELETE` statement, whatever its
/// case or leading whitespace.
pub fn is_write(sql: &str) -> bool {
    let head: String = sql
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect();
    ["INSERT", "UPDATE", "DELETE"]
        .iter()
        .any(|kw| head.eq_ignore_ascii_case(kw))
}

/// One statement's latency split, all as per-statement means in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSplit {
    /// Client-observed round trip.
    pub rtt_us: f64,
    /// Time inside `SqlProxy` (its decision-latency histogram).
    pub core_us: f64,
    /// Sum of the proxy's timed phases.
    pub phases_us: f64,
}

impl LayerSplit {
    /// Round trip spent outside the proxy: reactor wait, queueing,
    /// syscalls, loopback and codec.
    pub fn outside_core_us(&self) -> f64 {
        self.rtt_us - self.core_us
    }

    /// Proxy time no phase accounts for.
    pub fn unattributed_us(&self) -> f64 {
        self.core_us - self.phases_us
    }

    /// `outside + core = rtt`, up to floating-point rounding.
    pub fn adds_up(&self) -> bool {
        let sum = self.outside_core_us() + self.core_us;
        (sum - self.rtt_us).abs() <= 1e-9 * self.rtt_us.abs().max(1.0)
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A metric name as the report format accepts it: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // 10 samples: p99 is the largest, p50 the fifth.
        let w: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&w, 99.0), 19);
        assert_eq!(percentile(&w, 50.0), 14);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn writes_are_classified_by_leading_keyword() {
        for sql in [
            "INSERT INTO T VALUES (1)",
            "  update T SET a = 1",
            "\n\tDelete FROM T",
            "DELETE",
        ] {
            assert!(is_write(sql), "{sql:?}");
        }
        for sql in [
            "SELECT * FROM T",
            "  select 1",
            "INSERTS",
            "-- INSERT\nSELECT 1",
            "",
            "UPDATED_AT",
        ] {
            assert!(!is_write(sql), "{sql:?}");
        }
    }

    #[test]
    fn layer_split_adds_up() {
        let s = LayerSplit {
            rtt_us: 290.0,
            core_us: 107.5,
            phases_us: 101.25,
        };
        assert_eq!(s.outside_core_us(), 182.5);
        assert_eq!(s.unattributed_us(), 6.25);
        assert!(s.adds_up());
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn metric_names_follow_the_report_format() {
        assert!(valid_metric_name("core.mem.plan_cache_kb"));
        assert!(valid_metric_name("stmt_p99_us"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("rtt(µs)"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        for name in crate::report::END_TO_END
            .iter()
            .chain(crate::report::PER_LAYER)
            .map(|(n, _)| n)
        {
            assert!(valid_metric_name(name), "{name}");
        }
    }
}
