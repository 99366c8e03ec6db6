//! Latency samples bucketed into time slices of the measured window, and
//! the order statistics reported from them.
//!
//! The window is cut into [`SLICES`] equal slices. Each metric is computed
//! per slice and the median across slices is reported, so a second in
//! which the machine was busy with something else moves the result by one
//! slice's vote instead of skewing every sample. Slices are merged when
//! there are too few samples for a p99 with ten samples beyond it.

use std::time::{Duration, Instant};

/// Slices the measured window is cut into.
pub const SLICES: usize = 200;

/// Fewest samples a slice group may hold: ten beyond the p99.
const MIN_SAMPLES_PER_GROUP: usize = 1000;

/// Nearest-rank quantile of an ascending slice (`0` when empty).
pub fn quantile(sorted: &[u32], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as u64
}

/// Median of a list of values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One thread's latency samples (ns), bucketed by slice.
#[derive(Debug, Clone)]
pub struct Timeline {
    start: Instant,
    slice: Duration,
    slices: Vec<Vec<u32>>,
}

impl Timeline {
    pub fn new(start: Instant, window: Duration) -> Self {
        Self {
            start,
            slice: window / SLICES as u32,
            slices: vec![Vec::new(); SLICES],
        }
    }

    /// Record a latency, filed under the slice containing `at`.
    pub fn record(&mut self, at: Instant, latency: Duration) {
        let idx = (at.saturating_duration_since(self.start).as_nanos()
            / self.slice.as_nanos().max(1)) as usize;
        let ns = latency.as_nanos().min(u32::MAX as u128) as u32;
        self.slices[idx.min(SLICES - 1)].push(ns);
    }

    pub fn merge(&mut self, other: Timeline) {
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.extend(theirs);
        }
    }

    pub fn samples(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Every sample, ascending.
    pub fn all_sorted(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.slices.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Median over slice groups of throughput (samples/s), p50 and p99.
    pub fn summary(&self) -> Summary {
        self.summary_until(self.slice * SLICES as u32)
    }

    /// [`summary`](Self::summary) for a window cut short after `active`:
    /// one group over every sample, throughput over the active time.
    pub fn summary_until(&self, active: Duration) -> Summary {
        let total = self.samples();
        if active < self.slice * SLICES as u32 {
            let all = self.all_sorted();
            return Summary {
                throughput: total as f64 / active.as_secs_f64().max(1e-9),
                p50_ns: quantile(&all, 0.50) as f64,
                p99_ns: quantile(&all, 0.99) as f64,
                samples: total,
                groups: 1,
                group_p99_ns: vec![quantile(&all, 0.99) as f64],
            };
        }
        let groups = [200, 100, 50, 25, 10, 5, 2, 1]
            .into_iter()
            .find(|&g| total / g >= MIN_SAMPLES_PER_GROUP)
            .unwrap_or(1);
        let per = SLICES / groups;
        let group_secs = self.slice.as_secs_f64() * per as f64;
        let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for chunk in self.slices.chunks(per) {
            let mut v: Vec<u32> = chunk.iter().flatten().copied().collect();
            v.sort_unstable();
            tput.push(v.len() as f64 / group_secs);
            p50.push(quantile(&v, 0.50) as f64);
            p99.push(quantile(&v, 0.99) as f64);
        }
        Summary {
            throughput: median(&tput),
            p50_ns: median(&p50),
            p99_ns: median(&p99),
            samples: total,
            groups,
            group_p99_ns: p99,
        }
    }
}

/// What [`Timeline::summary`] reports.
#[derive(Debug, Clone)]
pub struct Summary {
    pub throughput: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub samples: usize,
    pub groups: usize,
    /// Each group's p99, in window order.
    pub group_p99_ns: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sparse_timelines_merge_slices() {
        let start = Instant::now();
        let mut t = Timeline::new(start, Duration::from_secs(10));
        for i in 0..3000u64 {
            t.record(
                start + Duration::from_millis(i * 3),
                Duration::from_nanos(i),
            );
        }
        let s = t.summary();
        assert_eq!(s.samples, 3000);
        assert_eq!(s.groups, 2);
    }
}
