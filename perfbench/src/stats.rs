//! Order statistics over host-time samples.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the "type 7" estimator). `values` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The share of fastest runs that sets the unslowed scale in
/// [`unit_times`].
pub const FAST_QUANTILE: f64 = 0.01;

/// Each run of `samples[unit]` divided by its unit's mean.
fn slowdown_ratios(samples: &[Vec<f64>], means: &[f64]) -> Vec<f64> {
    samples
        .iter()
        .zip(means)
        .flat_map(|(v, mean)| v.iter().map(move |t| t / mean))
        .collect()
}

fn means(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect()
}

/// Host time of each unit (a shard, or a poll position) from its timed
/// runs, `samples[unit]`, taken round-robin.
///
/// The host this benchmark was sized on slows down by up to 1.6× for
/// seconds at a time. Because units are timed round-robin, every unit
/// sees the same mix of slowed and unslowed time, so a unit's mean is
/// its cost times one common slowdown. Each run divided by its unit's
/// mean leaves that slowdown alone; the [`FAST_QUANTILE`] of these
/// ratios over all runs estimates the unslowed scale, and each unit's
/// time is its mean at that scale. A unit's own minimum would rest on
/// the few runs it got, and a mean or median on how slowed the run was.
#[must_use]
pub fn unit_times(samples: &[Vec<f64>]) -> Vec<f64> {
    let means = means(samples);
    let scale = quantile(&slowdown_ratios(samples, &means), FAST_QUANTILE);
    means.iter().map(|mean| mean * scale).collect()
}

/// The factor that takes a time typical of the run to the run's
/// unslowed scale: over the ratios of [`unit_times`], their
/// [`FAST_QUANTILE`] divided by their median.
#[must_use]
pub fn unslowed_factor(samples: &[Vec<f64>]) -> f64 {
    let ratios = slowdown_ratios(samples, &means(samples));
    quantile(&ratios, FAST_QUANTILE) / quantile(&ratios, 0.5)
}

/// Peak resident memory of this process so far, in MB.
///
/// # Panics
///
/// Panics where `/proc/self/status` carries no `VmHWM` line (not Linux).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Spaces repeated set-ups through a timed loop. The host this
/// benchmark was sized on slows down by up to 1.6× for seconds at a
/// time, so set-ups done back to back would all land in one such spell;
/// spaced ones see the same mix of slowed and unslowed time as the
/// timed runs around them.
pub struct SetupClock {
    start: std::time::Instant,
    every: f64,
    repeats: usize,
    times: Vec<f64>,
}

impl SetupClock {
    /// Times the first set-up, then schedules `repeats - 1` more over the
    /// next `seconds`.
    pub fn first<T>(seconds: f64, repeats: usize, setup: impl FnOnce() -> T) -> (Self, T) {
        let t = std::time::Instant::now();
        let out = setup();
        let clock = SetupClock {
            start: std::time::Instant::now(),
            every: seconds / repeats as f64,
            repeats,
            times: vec![t.elapsed().as_secs_f64()],
        };
        (clock, out)
    }

    /// Repeats `setup`, its result discarded, when the next one is due.
    pub fn tick<T>(&mut self, setup: impl FnOnce() -> T) {
        let due = self.every * self.times.len() as f64;
        if self.times.len() < self.repeats && self.start.elapsed().as_secs_f64() >= due {
            let t = std::time::Instant::now();
            std::hint::black_box(setup());
            self.times.push(t.elapsed().as_secs_f64());
        }
    }

    /// The median set-up, in seconds, at the unslowed scale of the
    /// timed `runs` it was spaced through ([`unslowed_factor`]), and how
    /// many set-ups were timed.
    #[must_use]
    pub fn median(&self, runs: &[Vec<f64>]) -> (f64, usize) {
        let median = quantile(&self.times, 0.5);
        (median * unslowed_factor(runs), self.times.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_times_remove_a_slowdown_common_to_all_units() {
        // Two units costing 1 and 3, each timed unslowed 5 times and
        // slowed 1.5x 95 times: the scale is the unslowed one.
        let unit = |cost: f64| {
            let mut v = vec![cost * 1.5; 95];
            v.extend([cost; 5]);
            v
        };
        let times = unit_times(&[unit(1.0), unit(3.0)]);
        assert!((times[0] - 1.0).abs() < 0.01 && (times[1] - 3.0).abs() < 0.03);
    }

    #[test]
    fn the_unslowed_factor_takes_the_median_run_to_the_fastest() {
        // Most runs slowed 1.5x, the rest unslowed: the median run is
        // slowed, the fast quantile is not.
        let mut runs = vec![3.0; 60];
        runs.extend([2.0; 40]);
        let factor = unslowed_factor(&[runs.clone(), runs.iter().map(|t| t * 4.0).collect()]);
        assert!((factor - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }
}
