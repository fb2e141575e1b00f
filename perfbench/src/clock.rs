//! The benchmark's only wall-clock source.
//!
//! Every host-time reading in the benchmark goes through [`now_ns`], so the
//! determinism linter sees exactly one place where ambient time enters, and
//! that place is outside every library crate: the library code the benchmark
//! drives never calls back into it.

use std::sync::OnceLock;

// arvis-lint: allow(no-ambient-time, "benchmark timing epoch; measured host time is reported, never fed back into the simulation")
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
// arvis-lint: allow(no-ambient-time, "benchmark clock read; host time only times calls and never reaches simulated state")
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds elapsed since `start_ns` (a value from [`now_ns`]).
pub fn secs_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 * 1e-9
}
