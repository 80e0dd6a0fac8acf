//! Metric extraction: percentiles with the "ten samples beyond" rule,
//! the failure share, and memory readings from `/proc/self/status`.
//! Everything here is a pure function of its inputs, so it is unit
//! tested on its own.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise it would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, q)
    }
}

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    (samples_beyond(sorted.len(), q) >= MIN_BEYOND).then(|| sorted[rank_index(sorted.len(), q)])
}

/// The highest of [`TAIL_CANDIDATES`] that has at least [`MIN_BEYOND`]
/// samples beyond it, with its value: `(quantile, value)`.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    TAIL_CANDIDATES
        .iter()
        .find_map(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median for reporting: the nearest-rank 0.5-quantile, which needs only
/// one sample (0 for none).
pub fn median(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[rank_index(sorted.len(), 0.5)]
    }
}

/// Failed attempts as a percentage of all attempts (retries included).
pub fn failed_pct(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 * 100.0 / attempted as f64
    }
}

/// Reads a `kB` field such as `VmRSS` or `VmHWM` out of the text of
/// `/proc/<pid>/status`.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Memory still held after a teardown, in MiB: resident size after it
/// minus resident size before the build. Negative when the process gave
/// back more than the run took.
pub fn retained_mb(rss_before_kb: u64, rss_after_kb: u64) -> f64 {
    (rss_after_kb as f64 - rss_before_kb as f64) / 1024.0
}

/// This process's `field` (`VmRSS`, `VmHWM`) in kB, from `/proc`.
pub fn self_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_kb(&status, field).unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990));
        // 999 samples: rank 990 again, only nine beyond.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        assert_eq!(percentile(&ramp(10_000), 0.999), Some(9990));
        assert_eq!(percentile(&ramp(9_999), 0.999), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(20_000)), Some((0.999, 19_980)));
        assert_eq!(tail(&ramp(2000)), Some((0.99, 1980)));
        assert_eq!(tail(&ramp(500)), Some((0.9, 450)));
        assert_eq!(tail(&ramp(30)), Some((0.5, 15)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&ramp(4)), 2);
        assert_eq!(median(&ramp(5)), 3);
    }

    #[test]
    fn failure_share_counts_every_attempt() {
        // Three logical ops; one needed two retries whose first two
        // attempts failed: five attempts, two failures.
        assert_eq!(failed_pct(2, 5), 40.0);
        assert_eq!(failed_pct(0, 5), 0.0);
        assert_eq!(failed_pct(0, 0), 0.0);
    }

    #[test]
    fn status_fields_parse_and_rss_delta_is_signed() {
        let status = "Name:\tperfbench\nVmHWM:\t  204800 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(204_800));
        assert_eq!(status_kb(status, "VmRSS"), Some(10_240));
        assert_eq!(status_kb(status, "VmSwap"), None);
        assert_eq!(retained_mb(10_240, 16_384), 6.0);
        assert_eq!(retained_mb(16_384, 10_240), -6.0);
    }
}
