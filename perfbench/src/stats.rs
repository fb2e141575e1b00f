//! Order statistics over timing samples.

/// Median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples` (which must be non-empty and finite).
    pub fn of(samples: &[f64]) -> Spread {
        let sorted = sorted(samples);
        Spread {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }

    /// A single exact value (a count or a whole-run ratio).
    pub fn exact(value: f64) -> Spread {
        Spread {
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of ascending `sorted` by linear interpolation between
/// closest ranks (0 for an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Each slot's fastest time over passes that step the same slots in the
/// same order (`passes[p][s]` is slot `s` of pass `p`).
pub fn fastest_per_slot(passes: &[Vec<f64>]) -> Vec<f64> {
    let slots = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..slots)
        .map(|s| passes.iter().map(|p| p[s]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 1.0), 4.0);
        let spread = Spread::of(&[5.0, 1.0, 3.0]);
        assert_eq!(
            (spread.n, spread.q1, spread.median, spread.q3),
            (3, 2.0, 3.0, 4.0)
        );
        let passes = [vec![1.0, 9.0], vec![3.0, 5.0], vec![2.0, 7.0]];
        assert_eq!(fastest_per_slot(&passes), [1.0, 5.0]);
    }
}
