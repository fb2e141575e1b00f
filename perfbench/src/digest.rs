//! Canonical digests of run outputs: every summary field by its bit
//! pattern, so two digests match exactly when the outputs are bit-identical.

use arvis_core::hash::Sha256;
use arvis_core::telemetry::SessionSummary;
use arvis_core::uplink::UplinkSummary;

/// Incremental digest over summary fields.
#[derive(Default)]
pub struct Digest(Sha256);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(Sha256::new())
    }

    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Absorbs a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorbs every field of every session summary, in order.
    pub fn sessions(&mut self, sessions: &[SessionSummary]) {
        self.u64(sessions.len() as u64);
        for s in sessions {
            self.u64(s.slots);
            self.f64(s.mean_quality);
            self.f64(s.mean_backlog);
            self.f64(s.backlog_p95);
            self.f64(s.backlog_p99);
            self.u64(s.frames_completed);
            self.f64(s.frame_latency_mean);
            self.f64(s.frame_latency_p95);
            self.f64(s.frame_latency_p99);
            match s.littles_delay {
                Some(d) => {
                    self.u64(1);
                    self.f64(d);
                }
                None => self.u64(0),
            }
            self.f64(s.dropped_total);
            self.f64(s.depth_switch_rate);
            self.u64(u64::from(s.stable));
        }
    }

    /// Absorbs per-session downtime.
    pub fn downtime(&mut self, downtime: &[u64]) {
        self.u64(downtime.len() as u64);
        for &d in downtime {
            self.u64(d);
        }
    }

    /// Absorbs every field of an uplink summary.
    pub fn uplink(&mut self, u: &UplinkSummary) {
        self.u64(u.slots);
        self.f64(u.mean_budget);
        self.u64(u.contended_slots);
        self.f64(u.mean_demand);
        self.f64(u.mean_granted);
        self.f64(u.mean_backlog);
        self.f64(u.peak_backlog);
        self.u64(u.shed_slots);
        self.u64(u.deferred_session_slots);
        self.f64(u.lost_total);
        self.u64(u.outage_slots);
        self.u64(u.down_session_slots);
    }

    /// The digest as 64 lowercase hex digits.
    pub fn finish(self) -> String {
        self.0.finalize_hex()
    }
}

/// Digest of a session-summary vector alone.
pub fn of_sessions(sessions: &[SessionSummary]) -> String {
    let mut d = Digest::new();
    d.sessions(sessions);
    d.finish()
}

/// Slot-weighted means of per-session time averages: `(quality, backlog)`
/// over live session-slots.
pub fn weighted_means(sessions: &[SessionSummary]) -> (f64, f64) {
    let slots: f64 = sessions.iter().map(|s| s.slots as f64).sum();
    if slots == 0.0 {
        return (0.0, 0.0);
    }
    let q: f64 = sessions
        .iter()
        .map(|s| s.mean_quality * s.slots as f64)
        .sum();
    let b: f64 = sessions
        .iter()
        .map(|s| s.mean_backlog * s.slots as f64)
        .sum();
    (q / slots, b / slots)
}

/// Live session-slots of a run: each session's stepped slots.
pub fn session_slots(sessions: &[SessionSummary]) -> u64 {
    sessions.iter().map(|s| s.slots).sum()
}
