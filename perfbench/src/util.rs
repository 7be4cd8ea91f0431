//! Small shared helpers: order statistics, seeded input streams, process
//! memory and the run's per-phase answer tallies.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_core::Evidence;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets this process's resident-set high-water mark to its current
/// resident set, so a later [`peak_rss_mb`] covers only what ran since.
/// Returns `false` where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// High-water resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A named, independent input stream derived from the run's seed, so adding
/// a stream never shifts the draws of another.
pub fn stream(seed: u64, name: &str) -> StdRng {
    StdRng::seed_from_u64(fnv1a(FNV_OFFSET ^ seed, name.bytes()))
}

/// FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a: folds `bytes` into the hash state `h`.
pub fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Evidence over `num_vars` variables, each observed (to a fair coin) with
/// probability `p_observed`, else marginalised.
pub fn random_evidence(rng: &mut StdRng, num_vars: usize, p_observed: f64) -> Evidence {
    let mut e = Evidence::marginal(num_vars);
    for var in 0..num_vars {
        if rng.gen_bool(p_observed) {
            e.observe(var, rng.gen_bool(0.5));
        }
    }
    e
}

/// Evidence observing exactly `count` distinct variables.
pub fn sparse_evidence(rng: &mut StdRng, num_vars: usize, count: usize) -> Evidence {
    let mut e = Evidence::marginal(num_vars);
    let mut observed = 0;
    while observed < count.min(num_vars) {
        let var = rng.gen_range(0..num_vars);
        if e.value(var).is_none() {
            e.observe(var, rng.gen_bool(0.5));
            observed += 1;
        }
    }
    e
}

/// Fisher–Yates shuffle driven by the seeded stream.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Operations attempted and failed in one phase of a run.
#[derive(Debug, Clone)]
pub struct Tally {
    pub phase: String,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn new(phase: &str) -> Tally {
        Tally {
            phase: phase.to_string(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Repeats `body` until `budget` has elapsed (and at least `min_reps`
/// times); returns the repetitions made and the wall time they took.
pub fn repeat_for(budget: Duration, min_reps: u64, mut body: impl FnMut()) -> (u64, Duration) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < budget {
        body();
        reps += 1;
    }
    (reps, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn streams_are_seeded_and_independent() {
        use rand::RngCore;
        assert_eq!(stream(7, "a").next_u64(), stream(7, "a").next_u64());
        assert_ne!(stream(7, "a").next_u64(), stream(8, "a").next_u64());
        assert_ne!(stream(7, "a").next_u64(), stream(7, "b").next_u64());
    }
}
