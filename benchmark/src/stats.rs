//! Order statistics and hashing shared by the workloads.

/// The `p`-quantile (0 ≤ p ≤ 1) of ascending-sorted samples, linearly
/// interpolated between the two nearest ranks. `NaN` on no samples.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort in place and return the `p`-quantile.
pub fn sorted_quantile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, p)
}

/// Samples per window of [`windowed`]: a window's p95 has 50 samples
/// beyond it.
pub const WINDOW: usize = 1000;

/// `f` of every run of [`WINDOW`] consecutive samples (a short tail joins
/// the last window), and the median of those. A host stall inflates the
/// few windows it falls in and leaves the median alone; a sustained
/// change moves most windows, and so the median. `NaN` on no samples.
pub fn windowed(samples: &[f64], f: impl Fn(&mut [f64]) -> f64) -> f64 {
    let n = (samples.len() / WINDOW).max(1);
    let mut per: Vec<f64> = (0..n)
        .map(|k| {
            let end = if k + 1 == n {
                samples.len()
            } else {
                (k + 1) * WINDOW
            };
            f(&mut samples[k * WINDOW..end].to_vec())
        })
        .collect();
    sorted_quantile(&mut per, 0.5)
}

/// [`windowed`] `p`-quantile.
pub fn windowed_quantile(samples: &[f64], p: f64) -> f64 {
    windowed(samples, |w| sorted_quantile(w, p))
}

/// Arithmetic mean; `0` on no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method), so spreads printed by
/// `--repeat` match what an external checker computes from the same runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let x = d.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash from state `h` — digests over several values.
pub fn fnv64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of this process in MiB, from procfs.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset the peak-RSS watermark so `peak_rss_mb` covers only what runs
/// afterwards (set-up and reference computation are excluded). Best
/// effort: kernels without `clear_refs` leave the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn windowed_quantile_ignores_a_stalled_window() {
        let mut v = vec![1.0; 5 * WINDOW];
        v[..WINDOW].fill(50.0);
        assert_eq!(windowed_quantile(&v, 0.99), 1.0);
        // Fewer samples than a window: the plain quantile.
        assert_eq!(windowed_quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        // A tail shorter than a window joins the last one: windows of
        // WINDOW and WINDOW + 10 samples.
        let v = vec![0.0; 2 * WINDOW + 10];
        assert_eq!(windowed(&v, |w| w.len() as f64), (WINDOW + 5) as f64);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }
}
