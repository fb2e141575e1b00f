//! Arrival processes: how much work enters the system per slot.
//!
//! In the paper the *controlled* arrival is `a(d(t))` — chosen by the
//! scheduler. These processes model the *exogenous* part: frame sources,
//! background traffic, and trace replay, used by robustness experiments and
//! the multi-stream extension.

use rand::rngs::StdRng;
use rand::Rng;

use crate::rng::{poisson, seeded};

/// A per-slot arrival process producing a non-negative amount of work.
pub trait ArrivalProcess {
    /// Work arriving in slot `slot` (units: points, or whatever work unit
    /// the consumer uses).
    fn sample(&mut self, slot: u64) -> f64;

    /// The long-run mean arrival rate per slot, when known analytically.
    fn mean_rate(&self) -> Option<f64> {
        None
    }
}

/// A constant arrival of `rate` per slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    /// Work per slot.
    pub rate: f64,
}

impl Deterministic {
    /// Creates a deterministic process.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is negative or non-finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        Deterministic { rate }
    }
}

impl ArrivalProcess for Deterministic {
    fn sample(&mut self, _slot: u64) -> f64 {
        self.rate
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Bernoulli batches: with probability `p`, a batch of `size` arrives.
#[derive(Debug, Clone)]
pub struct BernoulliBatches {
    p: f64,
    size: f64,
    rng: StdRng,
}

impl BernoulliBatches {
    /// Creates a Bernoulli process.
    ///
    /// # Panics
    ///
    /// Panics when `p ∉ [0, 1]` or `size < 0`.
    pub fn new(p: f64, size: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        assert!(size >= 0.0, "size must be >= 0");
        BernoulliBatches {
            p,
            size,
            rng: seeded(seed),
        }
    }
}

impl ArrivalProcess for BernoulliBatches {
    fn sample(&mut self, _slot: u64) -> f64 {
        if self.rng.gen_bool(self.p) {
            self.size
        } else {
            0.0
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.p * self.size)
    }
}

/// Poisson arrivals with mean `lambda` per slot.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    lambda: f64,
    rng: StdRng,
}

impl PoissonArrivals {
    /// Creates a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics when `lambda` is negative or non-finite.
    pub fn new(lambda: f64, seed: u64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0");
        PoissonArrivals {
            lambda,
            rng: seeded(seed),
        }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn sample(&mut self, _slot: u64) -> f64 {
        poisson(&mut self.rng, self.lambda) as f64
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.lambda)
    }
}

/// A two-state Markov-modulated Poisson process (MMPP-2): bursty traffic
/// alternating between a low-rate and a high-rate state.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    lambda: [f64; 2],
    /// Per-slot probability of switching out of state `i`.
    switch: [f64; 2],
    state: usize,
    rng: StdRng,
}

impl Mmpp2 {
    /// Creates an MMPP-2 starting in the low state.
    ///
    /// # Panics
    ///
    /// Panics when rates are negative or switch probabilities are outside
    /// `[0, 1]`.
    pub fn new(
        lambda_low: f64,
        lambda_high: f64,
        switch_up: f64,
        switch_down: f64,
        seed: u64,
    ) -> Self {
        assert!(
            lambda_low >= 0.0 && lambda_high >= 0.0,
            "rates must be >= 0"
        );
        assert!(
            (0.0..=1.0).contains(&switch_up) && (0.0..=1.0).contains(&switch_down),
            "switch probabilities must be in [0, 1]"
        );
        Mmpp2 {
            lambda: [lambda_low, lambda_high],
            switch: [switch_up, switch_down],
            state: 0,
            rng: seeded(seed),
        }
    }

    /// The current state (0 = low, 1 = high).
    pub fn state(&self) -> usize {
        self.state
    }
}

impl ArrivalProcess for Mmpp2 {
    fn sample(&mut self, _slot: u64) -> f64 {
        if self.rng.gen_bool(self.switch[self.state]) {
            self.state = 1 - self.state;
        }
        poisson(&mut self.rng, self.lambda[self.state]) as f64
    }

    fn mean_rate(&self) -> Option<f64> {
        let (up, down) = (self.switch[0], self.switch[1]);
        if up + down == 0.0 {
            return Some(self.lambda[self.state]);
        }
        // Stationary distribution of the 2-state chain.
        let pi_high = up / (up + down);
        Some(self.lambda[0] * (1.0 - pi_high) + self.lambda[1] * pi_high)
    }
}

/// Replays a recorded trace, cycling when it runs out.
#[derive(Debug, Clone)]
pub struct TraceArrivals {
    trace: Vec<f64>,
}

impl TraceArrivals {
    /// Creates a trace replay.
    ///
    /// # Panics
    ///
    /// Panics for an empty trace or negative entries.
    pub fn new(trace: Vec<f64>) -> Self {
        assert!(!trace.is_empty(), "trace must be non-empty");
        assert!(
            trace.iter().all(|&v| v >= 0.0),
            "trace entries must be >= 0"
        );
        TraceArrivals { trace }
    }
}

impl ArrivalProcess for TraceArrivals {
    fn sample(&mut self, slot: u64) -> f64 {
        self.trace[(slot as usize) % self.trace.len()]
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.trace.iter().sum::<f64>() / self.trace.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean<A: ArrivalProcess>(a: &mut A, slots: u64) -> f64 {
        (0..slots).map(|s| a.sample(s)).sum::<f64>() / slots as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let mut d = Deterministic::new(7.5);
        for s in 0..10 {
            assert_eq!(d.sample(s), 7.5);
        }
        assert_eq!(d.mean_rate(), Some(7.5));
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn deterministic_rejects_negative() {
        let _ = Deterministic::new(-1.0);
    }

    #[test]
    fn bernoulli_mean_matches() {
        let mut b = BernoulliBatches::new(0.25, 100.0, 9);
        let mean = empirical_mean(&mut b, 20_000);
        assert!((mean - 25.0).abs() < 2.0, "mean {mean}");
        assert_eq!(b.mean_rate(), Some(25.0));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = BernoulliBatches::new(0.0, 50.0, 1);
        assert_eq!(never.sample(0), 0.0);
        let mut always = BernoulliBatches::new(1.0, 50.0, 1);
        assert_eq!(always.sample(0), 50.0);
    }

    #[test]
    fn poisson_mean_matches() {
        let mut p = PoissonArrivals::new(12.0, 10);
        let mean = empirical_mean(&mut p, 20_000);
        assert!((mean - 12.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let rate = 20.0;
        let mut poisson = PoissonArrivals::new(rate, 3);
        // MMPP alternating between 2 and 38 with the same long-run mean.
        let mut mmpp = Mmpp2::new(2.0, 38.0, 0.05, 0.05, 3);
        assert!((mmpp.mean_rate().unwrap() - rate).abs() < 1e-9);
        let n = 20_000u64;
        let var = |xs: &[f64]| -> f64 {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        let ps: Vec<f64> = (0..n).map(|s| poisson.sample(s)).collect();
        let ms: Vec<f64> = (0..n).map(|s| mmpp.sample(s)).collect();
        assert!(
            var(&ms) > 2.0 * var(&ps),
            "MMPP variance {} must far exceed Poisson {}",
            var(&ms),
            var(&ps)
        );
    }

    #[test]
    fn mmpp_state_switches() {
        let mut m = Mmpp2::new(1.0, 100.0, 0.5, 0.5, 7);
        let mut seen = [false; 2];
        for s in 0..100 {
            seen[m.state()] = true;
            let _ = m.sample(s);
        }
        assert!(seen[0] && seen[1], "both MMPP states must be visited");
    }

    #[test]
    fn trace_cycles() {
        let mut t = TraceArrivals::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.sample(0), 1.0);
        assert_eq!(t.sample(4), 2.0);
        assert_eq!(t.sample(300), 1.0);
        assert_eq!(t.mean_rate(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn trace_rejects_empty() {
        let _ = TraceArrivals::new(vec![]);
    }

    #[test]
    fn trait_objects_work() {
        let mut procs: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(Deterministic::new(1.0)),
            Box::new(PoissonArrivals::new(1.0, 0)),
            Box::new(TraceArrivals::new(vec![1.0])),
        ];
        for p in procs.iter_mut() {
            assert!(p.sample(0) >= 0.0);
        }
    }
}
