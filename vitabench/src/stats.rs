//! Percentiles, medians, the seeded input generator and process memory.

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a tail percentile from too
/// few samples is one outlier, not a distribution.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Answers per window of [`windowed_percentile`]: the fewest that leave
/// [`MIN_BEYOND`] answers beyond a 99th percentile.
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of [`WINDOW`] samples in the order
/// they were taken (a last, partial window left out), of each window's
/// `q`-quantile; `None` when no window has [`MIN_BEYOND`] samples beyond
/// it. On a shared host the hypervisor takes the CPU away in bursts, and a
/// burst stretches every answer in flight: a tail percentile over the
/// whole run then measures how many bursts the run met, while the median
/// window's tail is that of the program between them.
pub fn windowed_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let tails: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&tails)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restart `VmHWM` from the current resident set size (Linux
/// `clear_refs` mode 5), so the next [`peak_rss_mb`] covers only what
/// runs after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// SplitMix64: the benchmark's only source of input randomness, seeded
/// from the command line.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// A seed for one purpose (`salt`) derived from the command-line seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, exactly ten above it.
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves nine above — not printable.
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windowed_percentile_is_the_median_windows_tail() {
        let window: Vec<f64> = (1..=WINDOW).map(|v| v as f64).collect();
        let burst = vec![1e6; WINDOW];
        let run = [&window[..], &burst, &window, &window[..WINDOW / 2]].concat();
        // Three whole windows (two plain, one burst) and a partial one.
        assert_eq!(windowed_percentile(&run, 0.99), Some(990.0));
        assert_eq!(percentile(&run, 0.99), Some(1e6));
        // Fewer than one window: no window has ten answers beyond it.
        assert_eq!(windowed_percentile(&window[1..], 0.99), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(derive(1, 1), derive(1, 2));
    }
}
