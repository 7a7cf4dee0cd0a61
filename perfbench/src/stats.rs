//! Statistics the benchmark reports: medians, a tail percentile that is
//! backed by enough samples, failure fractions and peak memory.

/// Percentile levels a tail may be reported at, lowest first. The tail
/// is the highest of these with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, so p99 needs 1000 samples and p90 needs 100.
pub const TAIL_LEVELS: [f64; 3] = [75.0, 90.0, 99.0];

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// A latency summary: the median and the highest tail percentile that
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile level (one of [`TAIL_LEVELS`]), or `None`
    /// when even the lowest level has too few samples beyond it.
    pub tail_level: Option<f64>,
    /// The value at `tail_level` (the maximum when `tail_level` is
    /// `None`).
    pub tail: f64,
}

/// Summarises `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let p50 = median(values)?;
    let sorted = sorted(values);
    let n = sorted.len();
    let mut tail_level = None;
    let mut tail = sorted[n - 1];
    for level in TAIL_LEVELS {
        // Nearest-rank percentile: the smallest sample with at least
        // `level` percent of the samples at or below it.
        let rank = ((level / 100.0) * n as f64).ceil() as usize;
        let index = rank.clamp(1, n) - 1;
        if n - 1 - index >= TAIL_MIN_BEYOND {
            tail_level = Some(level);
            tail = sorted[index];
        }
    }
    Some(Summary {
        count: n,
        p50,
        tail_level,
        tail,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Failed operations over attempted ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, shed batches and wrong verdicts.
    pub failed: u64,
}

impl Failures {
    /// Counts `n` attempted operations of which `failed` failed.
    pub fn record(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident memory of this process in MiB, from the `VmHWM` line
/// of `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_mb(&status)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 20 samples: p75 is the 15th (5 beyond) — too few — so no level.
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&few).unwrap();
        assert_eq!(s.count, 20);
        assert_eq!(s.tail_level, None);
        assert_eq!(s.tail, 20.0);
        // 100 samples: p75 = 75 (25 beyond), p90 = 90 (10 beyond),
        // p99 = 99 (1 beyond) — the tail is p90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&hundred).unwrap();
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail_level, Some(90.0));
        assert_eq!(s.tail, 90.0);
        // 1000 samples reach p99 exactly.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&thousand).unwrap();
        assert_eq!(s.tail_level, Some(99.0));
        assert_eq!(s.tail, 990.0);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut f = Failures::default();
        assert_eq!(f.fraction(), 0.0);
        f.record(10, 0);
        f.record(30, 2);
        assert_eq!(f.attempted, 40);
        assert_eq!(f.failed, 2);
        assert_eq!(f.fraction(), 0.05);
        // A report of more failures than attempts is capped.
        f.record(1, 5);
        assert_eq!(f.failed, 3);
    }

    #[test]
    fn peak_rss_parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  10000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
