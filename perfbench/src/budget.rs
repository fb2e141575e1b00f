//! How long a run measures.
//!
//! A run repeats fixed passes until the requested seconds have passed, and
//! runs at least a minimum number of them. It always finishes the pass it
//! is in, so a run lasts the requested time plus at most one pass.

use crate::clock::{now_ns, secs_since};

/// The measuring budget of one run.
#[derive(Debug)]
pub struct Budget {
    seconds: f64,
    min: usize,
    start: u64,
    passes: usize,
}

impl Budget {
    /// Measures for `seconds`, and at least `min` passes.
    pub fn new(seconds: f64, min: usize) -> Budget {
        Budget {
            seconds,
            min,
            start: now_ns(),
            passes: 0,
        }
    }

    /// `true` when the run should start another pass (and counts it).
    pub fn more(&mut self) -> bool {
        let go = self.passes < self.min || secs_since(self.start) < self.seconds;
        self.passes += usize::from(go);
        go
    }
}
