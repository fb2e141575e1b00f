//! Workload inputs generated from the benchmark seed.
//!
//! The program under test only ever sees the generated inputs: scenario
//! files (as JSON text, parsed during set-up like `experiments run` parses
//! a file) and synthetic point-cloud sequences. The same seed gives the
//! same bytes.

use arvis_core::churn::{ChurnArrivalSpec, ChurnSpec, LifetimeSpec};
use arvis_core::experiment::ServiceSpec;
use arvis_core::fault::{DegradationGuardSpec, FaultEvent, FaultPlan, ShedMode};
use arvis_core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis_core::stream::ArStream;
use arvis_core::uplink::{BudgetProfile, UplinkPolicy, UplinkSpec, UplinkVAdaptSpec};
use arvis_quality::DepthProfile;

/// SplitMix64: a tiny, well-mixed generator for input synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per input `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The depth profile the committed goldens use (octree depths 5..=10 of a
/// full-body capture): arrivals `a(d)` in points, normalized quality.
pub fn paper_profile() -> DepthProfile {
    DepthProfile::from_parts(
        5,
        vec![1423.0, 5685.0, 13662.0, 18367.0, 19714.0, 19957.0],
        vec![
            0.0,
            0.524_483_936_186_666_1,
            0.856_498_072_971_576_5,
            0.968_561_047_616_282,
            0.995_360_929_602_652_4,
            1.0,
        ],
    )
}

/// The `V` the goldens run the proposed scheduler with.
pub const PAPER_V: f64 = 3_592_509_867.356_129;

/// The mean service rate (points/slot) the fleets draw around.
const MEAN_RATE: f64 = 15_000.0;

fn session(
    rng: &mut SplitMix64,
    controller: ControllerSpec,
    service: ServiceSpec,
    warmup: u64,
) -> SessionSpec {
    SessionSpec {
        stream: ArStream::constant(paper_profile()),
        service,
        controller,
        seed: rng.next_u64(),
        queue_capacity: None,
        warmup,
        frame_cap: Some(8192),
        uplink_v_adapt: None,
    }
}

/// One of the five controller families of the uncoupled fleet.
fn mixed_controller(rng: &mut SplitMix64) -> ControllerSpec {
    match rng.index(5) {
        0 => ControllerSpec::Proposed {
            v: PAPER_V * rng.range(0.5, 2.0),
        },
        1 => ControllerSpec::AdaptiveV {
            initial_v: PAPER_V,
            target_backlog: rng.range(2e4, 8e4),
        },
        2 => ControllerSpec::Threshold {
            thresholds: vec![1e4, 2e4, 4e4, 8e4, 1.6e5],
        },
        3 => ControllerSpec::OnlyMax,
        _ => ControllerSpec::OnlyMin,
    }
}

/// One of the three service variants, around `rate` points/slot.
fn mixed_service(rng: &mut SplitMix64, rate: f64) -> ServiceSpec {
    match rng.index(3) {
        0 => ServiceSpec::Constant(rate),
        1 => ServiceSpec::Jittered {
            rate,
            sigma: rng.range(0.05, 0.25),
        },
        _ => ServiceSpec::DutyCycled {
            high: rate * 1.25,
            low: rate * 0.5,
            high_slots: 3 + rng.index(6) as u64,
            low_slots: 1 + rng.index(3) as u64,
        },
    }
}

/// `fleet_uncoupled`: `sessions` independent sessions mixing the five
/// controllers and three service variants, no uplink, faults or churn.
pub fn fleet_uncoupled(seed: u64, sessions: usize, slots: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed, 1);
    let mut scenario = Scenario::new(slots);
    for _ in 0..sessions {
        let controller = mixed_controller(&mut rng);
        let rate = MEAN_RATE * rng.range(0.6, 1.4);
        let service = mixed_service(&mut rng, rate);
        scenario
            .sessions
            .push(session(&mut rng, controller, service, slots / 4));
    }
    scenario
}

/// Sizes of the contended fleet.
#[derive(Debug, Clone, Copy)]
pub struct ContendedSize {
    /// Tenants at slot 0.
    pub sessions: usize,
    /// Slot horizon.
    pub slots: u64,
    /// Cap on mid-run joins.
    pub max_joins: u64,
}

/// Weight of every mid-run joiner. Joiners share a weight group with
/// the weight-3 tenants, above the group the guard sheds.
const JOINER_WEIGHT: f64 = 3.0;

/// `fleet_contended`: weighted tenants sharing a diurnal uplink under
/// `WeightedMaxWeight`, with an outage, grant loss, a defer-mode
/// degradation guard, Poisson joins, geometric lifetimes and compaction.
///
/// Tenant weights are 1–4, drawn uniformly. Offered demand exceeds the
/// budget on every slot, so the guard engages within its EMA's first ~45
/// slots and stays engaged. Its `shed_fraction` of 0.1 covers only the
/// weight-1 group (about a quarter of the starting tenants, while the
/// shed target is at most a fifth of them). The budget is set against the
/// demand that survives the shed: its mean is 60% of the weight ≥ 2
/// tenants' service rates and its peak 78%, so the weighted max-weight
/// fill runs on the scarce branch on nearly every slot.
pub fn fleet_contended(seed: u64, size: ContendedSize) -> Scenario {
    let mut rng = SplitMix64::new(seed, 2);
    let ContendedSize {
        sessions,
        slots,
        max_joins,
    } = size;
    let warmup = slots / 8;
    let mut scenario = Scenario::new(slots);
    let mut weights = Vec::with_capacity(sessions);
    let mut kept_demand = 0.0;
    for _ in 0..sessions {
        let rate = MEAN_RATE * rng.range(0.6, 1.4);
        let (controller, adapt) = match rng.index(10) {
            0 => (
                ControllerSpec::AdaptiveV {
                    initial_v: PAPER_V,
                    target_backlog: rng.range(2e4, 8e4),
                },
                false,
            ),
            1 => (
                ControllerSpec::Threshold {
                    thresholds: vec![1e4, 2e4, 4e4, 8e4, 1.6e5],
                },
                false,
            ),
            k => (ControllerSpec::Proposed { v: PAPER_V }, k % 2 == 0),
        };
        let service = if rng.index(2) == 0 {
            ServiceSpec::Constant(rate)
        } else {
            ServiceSpec::Jittered { rate, sigma: 0.1 }
        };
        let mut spec = session(&mut rng, controller, service, warmup);
        if adapt {
            spec.uplink_v_adapt = Some(UplinkVAdaptSpec::default());
        }
        scenario.sessions.push(spec);
        let weight = (1 + rng.index(4)) as f64;
        weights.push(weight);
        if weight > 1.0 {
            kept_demand += rate;
        }
    }
    // The live fleet starts at `sessions` and grows with joins at
    // `lambda`. Lifetimes of mean `2 * slots` give about one departure a
    // slot, so the churn plane compacts (every 64 dead rows) on under 2% of
    // slots. Those slots cost ~1.5x a plain one; at two departures a slot
    // they would be 3-4% of the slots, `slot_p95_us` would sit on the edge
    // of that cluster and jump by its height between runs.
    let lambda = max_joins as f64 / slots as f64;
    let mean_budget = 0.6 * kept_demand;
    scenario = scenario.with_uplink(UplinkSpec::with_profile(
        BudgetProfile::Diurnal {
            mean: mean_budget,
            amplitude: 0.3 * mean_budget,
            period: 200,
            phase: 0.0,
        },
        UplinkPolicy::WeightedMaxWeight { weights },
    ));
    let mut plan = FaultPlan::new().with_event(FaultEvent::Outage {
        start: slots / 2,
        slots: (slots / 40).max(1),
    });
    for i in (0..sessions).step_by(20) {
        plan = plan.with_event(FaultEvent::GrantLoss {
            session: i,
            p: 0.05,
            seed: rng.next_u64(),
        });
    }
    plan = plan.with_guard(DegradationGuardSpec {
        ema_alpha: 0.05,
        engage_above: 0.9,
        release_below: 0.6,
        backlog_limit: f64::INFINITY,
        shed_fraction: 0.1,
        mode: ShedMode::Defer,
    });
    scenario = scenario.with_fault(plan);
    let template = session(
        &mut rng,
        ControllerSpec::Proposed { v: PAPER_V },
        ServiceSpec::Constant(MEAN_RATE),
        0,
    );
    scenario.with_churn(
        ChurnSpec::new()
            .with_arrivals(
                ChurnArrivalSpec::Poisson {
                    lambda,
                    seed: rng.next_u64(),
                },
                template,
                max_joins,
            )
            .with_weight(JOINER_WEIGHT)
            .with_lifetime(LifetimeSpec::Geometric {
                mean: 2.0 * slots as f64,
                seed: rng.next_u64(),
            })
            .with_compaction(true),
    )
}
