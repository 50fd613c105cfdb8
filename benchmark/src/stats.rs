//! Small numeric helpers: order statistics and the process's peak memory.

use std::time::Instant;

/// Runs `f` and returns its wall time in seconds with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of `xs`, computed like
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so
/// the spreads this crate reports match the ones an external script
/// computes from the same runs. One sample is its own quartiles; an empty
/// slice gives NaNs.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (d[0], d[0], d[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Value at quantile `p` in `[0, 1]` of `xs` (nearest rank; 0 when empty).
/// Sorts `xs` in place.
pub fn percentile(xs: &mut [u32], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    f64::from(xs[rank - 1])
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field (non-Linux
/// hosts).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
