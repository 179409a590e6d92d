//! Small helpers: medians, percentiles, memory, hashing.

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail quantile reported as "p99": 0.99 when at least ten samples lie
/// beyond it, else the highest quantile that still leaves ten beyond it
/// (never below the median).
pub fn tail_q(n: u64) -> f64 {
    if n == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Nearest-rank quantile of sorted samples.
pub fn rank_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(rank_quantile(&v, 0.5), 500);
        assert_eq!(rank_quantile(&v, tail_q(1000)), 990);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(12), 0.5);
    }
}
