//! Small-sample statistics for multi-trial experiments.

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

dr_core::json_struct!(ToJson for Stats { count, mean, std, min, max });

impl Stats {
    /// Computes statistics over a sample.
    pub fn of(xs: &[f64]) -> Stats {
        let count = xs.len();
        if count == 0 {
            return Stats {
                count: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = xs.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Stats {
            count,
            mean,
            std: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Runs `f` over `trials` consecutive seeds and summarizes the metric.
    pub fn sample<R: FnMut(u64) -> f64>(trials: u64, base_seed: u64, mut f: R) -> Stats {
        let xs: Vec<f64> = (0..trials).map(|t| f(base_seed + t)).collect();
        Stats::of(&xs)
    }

    /// Parallel [`Stats::sample`]: fans the trials out over
    /// [`crate::par::run_indexed`].
    ///
    /// Trial `t` always runs with seed `base_seed + t` and results are
    /// aggregated in trial order, so the returned statistics are
    /// bit-identical to the serial path for any thread count.
    pub fn sample_par<R>(trials: u64, base_seed: u64, f: R) -> Stats
    where
        R: Fn(u64) -> f64 + Sync,
    {
        let xs = crate::par::run_indexed(trials as usize, |t| f(base_seed + t as u64));
        Stats::of(&xs)
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1} ± {:.1} [{:.0}, {:.0}] (n={})",
            self.mean, self.std, self.min, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - 1.2909944).abs() < 1e-6);
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Stats::of(&[]).count, 0);
        let single = Stats::of(&[7.0]);
        assert_eq!(single.std, 0.0);
        assert_eq!(single.mean, 7.0);
    }

    #[test]
    fn sample_runs_consecutive_seeds() {
        let s = Stats::sample(5, 10, |seed| seed as f64);
        assert_eq!(s.mean, 12.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 14.0);
    }

    #[test]
    fn display_is_compact() {
        let s = Stats::of(&[1.0, 3.0]);
        let text = s.to_string();
        assert!(text.contains("2.0") && text.contains("n=2"));
    }
}
