//! Slot-major stepping of a contended scenario from public calls.
//!
//! [`Contended::step_slot`] is the same loop `run_contended` runs (and
//! with it `RunRecord::replay` for a scenario with an uplink, faults or
//! churn): `ChurnPlane::step_summary`, then `SharedUplink::step_slot`.
//! [`Contended::step_slot_fine`] takes the slot apart into the finer
//! public calls `SharedUplink::step_slot` makes — the `FaultPlane`
//! methods, `SessionBatch::fill_backlogs` / `fill_demands`,
//! `UplinkPolicy::allocate` and `SessionBatch::step_slot_granted` — so the
//! traced run can time each phase. The aggregate sums `step_slot` computes
//! between them are private to the uplink module; the fine path computes
//! the same permutation-invariant sums itself, outside every span, and
//! [`aggregate_per_slot`] recovers their cost as the coarse slot minus the
//! fine phases. Both paths must produce bit-identical per-session
//! summaries.

use arvis_core::churn::ChurnPlane;
use arvis_core::fault::FaultPlane;
use arvis_core::scenario::Scenario;
use arvis_core::session::SessionBatch;
use arvis_core::telemetry::{SessionSummary, SummarySink};
use arvis_core::uplink::{SharedUplink, UplinkPolicy, UplinkSpec, UplinkSummary};

use crate::digest::Digest;
use crate::trace::{Probe, Tracer};

/// Counters gathered while stepping (the layers' work done).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Slots stepped.
    pub slots: u64,
    /// Live session-slots stepped (rows that were neither down nor dead).
    pub live_session_slots: u64,
    /// Physical rows walked, summed over slots.
    pub rows_stepped: u64,
    /// Most physical rows held at once.
    pub rows_peak: u64,
    /// Slots whose offered demand exceeded the budget.
    pub contended_slots: u64,
    /// Slots whose demand after shedding still exceeded the budget, so
    /// the policy's scarce fill ran (fine path only: the post-shed total
    /// is private to `SharedUplink::step_slot`).
    pub scarce_slots: u64,
    /// Offered demand, summed over slots.
    pub offered: f64,
    /// Granted capacity, summed over slots.
    pub granted: f64,
}

/// A contended scenario's runtime state, built during set-up.
#[derive(Debug)]
pub struct Contended {
    batch: SessionBatch<SummarySink>,
    uplink: SharedUplink,
    /// The fine path's own fault plane (the uplink's is private to it).
    fault: Option<FaultPlane>,
    plane: Option<ChurnPlane>,
    backlogs: Vec<f64>,
    demands: Vec<f64>,
    grants: Vec<f64>,
    scratch: Vec<f64>,
    fine: bool,
    /// Work counters so far.
    pub counters: Counters,
}

/// What a finished contended run produced.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Per-session summaries (stable-id order).
    pub sessions: Vec<SessionSummary>,
    /// Per-session downtime.
    pub downtime: Vec<u64>,
    /// The uplink summary (coarse path only: its aggregates are private).
    pub uplink: Option<UplinkSummary>,
    /// Work counters.
    pub counters: Counters,
    /// `(joins, departures, compacted rows)` of the churn plane.
    pub churn: (u64, u64, u64),
    /// `(shed slots, deferred session-slots)` of the degradation guard.
    pub shed: (u64, u64),
}

impl Finished {
    /// Digest of everything both paths produce: summaries and downtime.
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        d.sessions(&self.sessions);
        d.downtime(&self.downtime);
        d.finish()
    }
}

/// The spans inside `uplink.step_slot` that the fine path times; the
/// rest of a coarse slot's `uplink.step_slot` is the private aggregate
/// sums.
const PHASES: &[&str] = &[
    "fault.budget",
    "session.fill_backlogs",
    "session.fill_demands",
    "fault.shed",
    "uplink.allocate",
    "fault.loss",
    "session.step_granted",
];

/// Per slot, the coarse passes' `uplink.step_slot` minus the fine passes'
/// timed phases of the same slot (ns), each the fastest over its passes:
/// the cost of the uplink's private aggregate sums and bookkeeping.
/// `coarse` and `fine` are tracer run ids whose passes stepped the same
/// scenarios in the same order.
pub fn aggregate_per_slot(tracer: &Tracer, coarse: &[u32], fine: &[u32]) -> Vec<f64> {
    let whole: Vec<Vec<f64>> = coarse
        .iter()
        .map(|&run| tracer.durations_in(run, "uplink.step_slot"))
        .collect();
    let phases: Vec<Vec<f64>> = fine
        .iter()
        .map(|&run| tracer.children_in(run, "slot.fine", PHASES))
        .collect();
    let whole = crate::stats::fastest_per_slot(&whole);
    let phases = crate::stats::fastest_per_slot(&phases);
    whole.iter().zip(&phases).map(|(w, p)| w - p).collect()
}

/// Sums in ascending value order, so the total does not depend on the
/// session order — the contract of the uplink's own aggregates.
fn invariant_sum(values: &[f64], scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend_from_slice(values);
    scratch.sort_unstable_by(f64::total_cmp);
    scratch.iter().sum()
}

impl Contended {
    /// Builds the batch, the uplink (with the scenario's fault plan) and
    /// the churn plane — what `run_contended` builds before slot 0. With
    /// `fine`, [`Contended::run`] steps the finer calls and the fault plan
    /// is attached to a plane the benchmark drives itself instead of to the
    /// uplink.
    pub fn new(scenario: &Scenario, fine: bool) -> Contended {
        let spec = scenario
            .uplink
            .clone()
            .unwrap_or_else(UplinkSpec::unconstrained);
        let batch = SessionBatch::summary_only(scenario);
        let n = scenario.sessions.len();
        let plan = scenario.fault.as_ref().filter(|p| !p.is_empty());
        let (uplink, fault) = match (plan, fine) {
            (Some(plan), false) => (SharedUplink::with_fault(spec, plan, n), None),
            (Some(plan), true) => (SharedUplink::new(spec), Some(FaultPlane::new(plan, n))),
            (None, _) => (SharedUplink::new(spec), None),
        };
        let plane = scenario
            .churn
            .as_ref()
            .filter(|c| !c.is_empty())
            .map(|c| ChurnPlane::new(c, scenario));
        Contended {
            batch,
            uplink,
            fault,
            plane,
            backlogs: Vec::new(),
            demands: Vec::new(),
            grants: Vec::new(),
            scratch: Vec::new(),
            fine,
            counters: Counters::default(),
        }
    }

    /// `true` once the horizon is reached.
    pub fn is_done(&self) -> bool {
        self.batch.is_done()
    }

    fn churn_step(&mut self, probe: &mut dyn Probe) {
        if let Some(plane) = self.plane.as_mut() {
            probe.enter("churn.step");
            plane.step_summary(&mut self.batch, &mut self.uplink);
            probe.exit();
        }
    }

    fn count(&mut self, live: u64, contended: bool, offered: f64, granted: f64) {
        let rows = self.batch.len() as u64;
        let c = &mut self.counters;
        c.slots += 1;
        c.live_session_slots += live;
        c.rows_stepped += rows;
        c.rows_peak = c.rows_peak.max(rows);
        c.contended_slots += u64::from(contended);
        c.offered += offered;
        c.granted += granted;
    }

    /// One slot exactly as `run_contended` steps it.
    pub fn step_slot(&mut self, probe: &mut dyn Probe) {
        probe.enter("slot");
        self.churn_step(probe);
        probe.enter("uplink.step_slot");
        let stats = self.uplink.step_slot(&mut self.batch);
        probe.exit();
        probe.exit();
        let live = self.batch.logical_len() as u64 - stats.down_sessions;
        self.count(live, stats.contended, stats.demand, stats.granted);
    }

    /// One slot from the finer public calls `SharedUplink::step_slot`
    /// makes, in its order.
    pub fn step_slot_fine(&mut self, probe: &mut dyn Probe) {
        probe.enter("slot.fine");
        self.churn_step(probe);
        let slot = self.batch.slot();

        probe.enter("fault.budget");
        let mut budget = self.uplink.spec().budget.budget_at(slot);
        if let Some(fault) = self.fault.as_mut() {
            budget = fault.effective_budget(slot, budget);
            fault.apply_crashes(slot, &mut self.batch);
        }
        probe.exit();

        probe.enter("session.fill_backlogs");
        self.batch.fill_backlogs(&mut self.backlogs);
        probe.exit();
        probe.enter("session.fill_demands");
        self.batch.fill_demands(&mut self.demands);
        probe.exit();

        let backlog = invariant_sum(&self.backlogs, &mut self.scratch);
        let offered = invariant_sum(&self.demands, &mut self.scratch);

        let policy = &self.uplink.spec().policy;
        if let Some(fault) = self.fault.as_mut() {
            probe.enter("fault.shed");
            let weights = match policy {
                UplinkPolicy::WeightedMaxWeight { weights } => Some(weights.as_slice()),
                _ => None,
            };
            fault.shed(backlog, &mut self.demands, weights);
            probe.exit();
        }
        let scarce = !matches!(policy, UplinkPolicy::Unconstrained)
            && invariant_sum(&self.demands, &mut self.scratch) > budget;

        probe.enter("uplink.allocate");
        policy.allocate(budget, &self.backlogs, &self.demands, &mut self.grants);
        probe.exit();

        if let Some(fault) = self.fault.as_mut() {
            probe.enter("fault.loss");
            fault.apply_loss(&mut self.grants);
            probe.exit();
        }

        probe.enter("session.step_granted");
        self.batch.step_slot_granted(&self.grants);
        probe.exit();

        let granted = invariant_sum(&self.grants, &mut self.scratch);
        let contended = offered > budget;
        if let Some(fault) = self.fault.as_mut() {
            fault.observe_contention(contended);
        }
        let down = self.batch.down_sessions();
        probe.exit();

        let live = self.batch.logical_len() as u64 - down;
        self.count(live, contended, offered, granted);
        self.counters.scarce_slots += u64::from(scarce);
    }

    /// Runs to the horizon on the path chosen at construction.
    pub fn run(mut self, probe: &mut dyn Probe) -> Finished {
        while !self.is_done() {
            if self.fine {
                self.step_slot_fine(probe);
            } else {
                self.step_slot(probe);
            }
        }
        self.finish()
    }

    /// Finalizes the run's outputs.
    fn finish(self) -> Finished {
        let churn = self.plane.as_ref().map_or((0, 0, 0), |p| {
            (
                p.join_schedule().len() as u64,
                p.departure_schedule().len() as u64,
                p.compacted_rows(),
            )
        });
        let downtime = self.batch.downtime();
        let uplink = (!self.fine).then(|| self.uplink.summary());
        let shed = match (&uplink, &self.fault) {
            (Some(u), _) => (u.shed_slots, u.deferred_session_slots),
            (None, Some(f)) => (f.shed_slots(), f.deferred_session_slots()),
            (None, None) => (0, 0),
        };
        Finished {
            sessions: self.batch.into_summaries(),
            downtime,
            uplink,
            counters: self.counters,
            churn,
            shed,
        }
    }
}
