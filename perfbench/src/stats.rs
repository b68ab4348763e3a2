//! Sample statistics and process accounting.

use std::time::Instant;

/// Linear-interpolation quantile (`q ∈ [0, 1]`) of unsorted samples; `NaN`
/// for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || s[lo] == s[hi] {
        s[lo]
    } else {
        s[lo] + (pos - lo as f64) * (s[hi] - s[lo])
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A percentile as a reportable number: 0 where there were no samples.
pub fn reportable(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so that run
/// spreads read the same here as in any Python check of the same values.
/// One sample has no spread: all three are that sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v, v, v];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed after the clamp: Python extrapolates at the ends.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The highest of the percentiles 50, 75 and 90 that leaves at least ten
/// samples beyond it; `None` below 20 samples. Metric names fix their
/// percentile in advance, and this rule is why they are p75 for layers with
/// fewer than 100 samples.
#[cfg(test)]
pub fn tail_percentile(n: usize) -> Option<u32> {
    [90, 75, 50]
        .into_iter()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// User plus system CPU seconds of this process, including every child it
/// has reaped (`/proc/self/stat` fields 14–17, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; the fields after it do not.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = (11..15)
        .filter_map(|i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU seconds of one closure call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - cpu0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.9), 1.9);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(39), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(98), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
    }
}
