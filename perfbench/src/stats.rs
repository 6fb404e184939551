//! Percentiles read off `fcds_load::LatencyHistogram`, the repository's
//! one latency histogram.
//!
//! The histogram reports a quantile as the floor of its bucket (buckets
//! are ≤ 6.25% wide). A benchmark value that snaps to bucket floors
//! would read identically across runs and hide small shifts, so
//! [`quantile_ns`] places the rank inside its bucket by linear
//! interpolation, found by bisecting the histogram's own rank → value
//! map.

use fcds_load::LatencyHistogram;
use std::fmt;
use std::time::{Duration, Instant};

fn rank_floor(h: &LatencyHistogram, rank: u64) -> u64 {
    h.quantile_ns((rank as f64 - 0.5) / h.count() as f64)
}

fn bucket_width(floor: u64) -> u64 {
    if floor < 16 {
        1
    } else {
        1u64 << (63 - floor.leading_zeros() - 4)
    }
}

/// The value at quantile `q` in nanoseconds, interpolated within its
/// bucket; `None` for an empty histogram.
pub fn quantile_ns(h: &LatencyHistogram, q: f64) -> Option<f64> {
    let n = h.count();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let floor = rank_floor(h, rank);
    // First and last rank that land in the same bucket.
    let (mut lo, mut hi) = (1u64, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if rank_floor(h, mid) < floor {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if rank_floor(h, mid) > floor {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let in_bucket = (lo - first + 1) as f64;
    let frac = (rank - first) as f64 + 0.5;
    let v = floor as f64 + bucket_width(floor) as f64 * frac / in_bucket;
    Some(v.min(h.max_ns() as f64).max(floor as f64))
}

/// The highest percentile with at least ten samples beyond it.
pub fn reliable_percentile(count: u64) -> f64 {
    if count <= 10 {
        0.0
    } else {
        100.0 * (1.0 - 10.0 / count as f64)
    }
}

/// A latency histogram per fixed-width slice of a timed window, plus
/// one over the whole window. Samples land in the slice in which they
/// were *due*, so a stall is charged to when it happened.
///
/// The benchmark reports a percentile as the median over slices of each
/// slice's percentile: one stall moves one slice, not the run's
/// figure, which keeps run-to-run spread small enough to gate on. The
/// whole-window percentiles are printed beside it.
#[derive(Clone)]
pub struct Windowed {
    t0: Instant,
    width: Duration,
    slices: usize,
    pub all: LatencyHistogram,
    parts: Vec<LatencyHistogram>,
}

impl Default for Windowed {
    fn default() -> Self {
        Windowed {
            t0: Instant::now(),
            width: Duration::from_secs(1),
            slices: 0,
            all: LatencyHistogram::new(),
            parts: Vec::new(),
        }
    }
}

impl Windowed {
    /// Slices `[t0, t0 + secs)` into whole slices about `target` long.
    pub fn new(t0: Instant, secs: f64, target: f64) -> Self {
        let slices = ((secs / target).round() as usize).max(1);
        Windowed {
            t0,
            width: Duration::from_secs_f64(secs / slices as f64),
            slices,
            all: LatencyHistogram::new(),
            parts: (0..slices).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// Records `latency` for a request due at `due`.
    pub fn record(&mut self, due: Instant, latency: Duration) {
        self.all.record(latency);
        if self.slices > 0 {
            let i = (due.saturating_duration_since(self.t0).as_secs_f64()
                / self.width.as_secs_f64()) as usize;
            self.parts[i.min(self.slices - 1)].record(latency);
        }
    }

    /// Appends another window's slices (a later, disjoint window).
    pub fn absorb(&mut self, other: &Windowed) {
        self.all.merge(&other.all);
        self.parts.extend(other.parts.iter().cloned());
        self.slices = self.parts.len();
    }

    /// Median over slices of samples per second (whole slices only, so
    /// every slice has the same width).
    pub fn median_rate(&self) -> f64 {
        let w = self.width.as_secs_f64();
        let v: Vec<f64> = self.parts.iter().map(|h| h.count() as f64 / w).collect();
        median(&v)
    }

    /// Median over non-empty slices of each slice's `q` quantile, ms.
    pub fn value_ms(&self, q: f64) -> f64 {
        let v: Vec<f64> = self
            .parts
            .iter()
            .filter_map(|h| quantile_ns(h, q))
            .map(|ns| ns / 1e6)
            .collect();
        median(&v)
    }
}

/// A latency distribution as the report prints it, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: u64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
    pub max: f64,
    /// Medians over slices of the slice p50 / p99 (the gated values).
    pub slice_p50: f64,
    pub slice_p99: f64,
    pub slices: usize,
}

impl Summary {
    /// Summarises a whole-window histogram in milliseconds.
    pub fn of_ms(h: &LatencyHistogram) -> Summary {
        let q = |q| quantile_ns(h, q).unwrap_or(0.0) / 1e6;
        Summary {
            count: h.count(),
            p25: q(0.25),
            p50: q(0.50),
            p75: q(0.75),
            p99: q(0.99),
            max: h.max_ns() as f64 / 1e6,
            slice_p50: q(0.50),
            slice_p99: q(0.99),
            slices: 1,
        }
    }

    /// Summarises a sliced window in milliseconds.
    pub fn of_windowed(w: &Windowed) -> Summary {
        Summary {
            slice_p50: w.value_ms(0.5),
            slice_p99: w.value_ms(0.99),
            slices: w.parts.iter().filter(|h| h.count() > 0).count(),
            ..Summary::of_ms(&w.all)
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.4} p99 {:.4} (median of {} slices) | whole run: p50 {:.4} [p25 {:.4}, p75 {:.4}] p99 {:.4} max {:.4}, n={}, ≥10 samples beyond up to p{:.2}",
            self.slice_p50,
            self.slice_p99,
            self.slices,
            self.p50,
            self.p25,
            self.p75,
            self.p99,
            self.max,
            self.count,
            reliable_percentile(self.count)
        )
    }
}

/// The `q` quantile of plain values (nearest rank), for distributions
/// that are counts, not latencies.
pub fn value_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of some values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles_track_exact_ones() {
        let mut h = LatencyHistogram::new();
        let values: Vec<u64> = (1..=10_000u64).map(|i| 100_000 + i * 37).collect();
        for &v in &values {
            h.record(Duration::from_nanos(v));
        }
        for q in [0.25, 0.5, 0.75, 0.99] {
            let exact = values[(q * values.len() as f64).ceil() as usize - 1] as f64;
            let got = quantile_ns(&h, q).unwrap();
            // Within a third of one bucket (buckets are 6.25% wide).
            assert!(
                (got - exact).abs() / exact < 0.02,
                "q={q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn single_sample_and_empty() {
        let mut h = LatencyHistogram::new();
        assert_eq!(quantile_ns(&h, 0.5), None);
        h.record(Duration::from_nanos(5_000));
        let v = quantile_ns(&h, 0.5).unwrap();
        assert!((4_800.0..=5_000.0).contains(&v), "{v}");
    }
}
