//! The scaled fleets: `fleet_uncoupled` (session-major
//! `SessionBatch::run`) and `fleet_contended` (slot-major through the
//! churn plane and the shared uplink).
//!
//! Both generate a scenario from the seed, serialize it to the file form
//! and parse it back during set-up, as `experiments run` would load it.

use arvis_core::ledger::{Ledger, RunRecord, CODE_VERSION};
use arvis_core::scenario::Scenario;
use arvis_core::session::SessionBatch;

use crate::budget::Budget;
use crate::clock::now_ns;
use crate::contended::{aggregate_per_slot, Contended, Finished};
use crate::digest::{self, Digest};
use crate::inputs::{self, ContendedSize};
use crate::report::Outcome;
use crate::trace::{Probe, Quiet, SlotClock, Tracer};
use crate::{same_digest, Ctx};

/// Set-up timings of one repetition, nanoseconds.
struct SetupTimes {
    total: f64,
    parse: f64,
    hash: f64,
    build: f64,
}

/// Parses and hashes the scenario text, then builds its runtime state.
fn setup<T>(
    text: &str,
    build: impl FnOnce(&Scenario) -> T,
) -> Result<(Scenario, T, SetupTimes), String> {
    let a = now_ns();
    let scenario = Scenario::from_json_str(text).map_err(|e| format!("scenario: {e}"))?;
    let b = now_ns();
    scenario
        .content_hash()
        .map_err(|e| format!("scenario: {e}"))?;
    let c = now_ns();
    let state = build(&scenario);
    let d = now_ns();
    let times = SetupTimes {
        total: (d - a) as f64,
        parse: (b - a) as f64,
        hash: (c - b) as f64,
        build: (d - c) as f64,
    };
    Ok((scenario, state, times))
}

fn ms_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> Vec<f64> {
    times.iter().map(|t| f(t) * 1e-6).collect()
}

fn record_setup(out: &mut Outcome, times: &[SetupTimes], trace: bool) {
    if trace {
        out.median_of("scenario.parse_ms", &ms_of(times, |t| t.parse));
        out.median_of("scenario.hash_ms", &ms_of(times, |t| t.hash));
        out.median_of("session.build_ms", &ms_of(times, |t| t.build));
    } else {
        out.median_of(
            "setup_s",
            &times.iter().map(|t| t.total * 1e-9).collect::<Vec<_>>(),
        );
    }
}

fn uncoupled_size(smoke: bool) -> (usize, u64) {
    if smoke {
        (200, 40)
    } else {
        (10_000, 60)
    }
}

/// The digest `fleet_uncoupled` produces for `seed` at its smoke size.
pub fn uncoupled_reference(seed: u64) -> Result<String, String> {
    let (sessions, slots) = uncoupled_size(true);
    let text = inputs::fleet_uncoupled(seed, sessions, slots)
        .to_json_string()
        .map_err(|e| e.to_string())?;
    let scenario = Scenario::from_json_str(&text).map_err(|e| format!("scenario: {e}"))?;
    let mut batch = SessionBatch::summary_only(&scenario);
    batch.run();
    Ok(digest::of_sessions(&batch.into_summaries()))
}

/// Runs `fleet_uncoupled`.
pub fn uncoupled(ctx: &Ctx) -> Result<Outcome, String> {
    let (sessions, slots) = uncoupled_size(ctx.smoke);
    let text = inputs::fleet_uncoupled(ctx.seed, sessions, slots)
        .to_json_string()
        .map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    out.sizes.push(("sessions", sessions as u64));
    out.sizes.push(("slots", slots));
    let (scenario, batch, t) = setup(&text, SessionBatch::summary_only)?;
    let mut times = vec![t];
    let mut ready = Some(batch);

    // One pass: take the batch a set-up just built, or build a fresh one
    // (untimed), then time `run`.
    let one = |out: &mut Outcome,
               first: &mut Option<String>,
               what: &str,
               ready: Option<SessionBatch<_>>| {
        let mut batch = ready.unwrap_or_else(|| SessionBatch::summary_only(&scenario));
        let a = now_ns();
        batch.run();
        let dt = (now_ns() - a) as f64;
        let summaries = batch.into_summaries();
        let live = digest::session_slots(&summaries);
        same_digest(first, digest::of_sessions(&summaries), what, out);
        (dt, live, summaries)
    };
    // Untraced, the runs give the end-to-end numbers. Traced, each round
    // adds a traced run and one under `serial_scope`, so a drift in host
    // speed hits all three alike.
    let mut first = None;
    let mut tracer = Tracer::new();
    let mut budget = Budget::new(ctx.seconds, 3);
    let (mut run_ns, mut rates) = (Vec::new(), Vec::new());
    let (mut traced_ns, mut serial_ns) = (Vec::new(), Vec::new());
    let mut summaries = Vec::new();
    while budget.more() {
        let (dt, live, s) = one(&mut out, &mut first, "repeat run", ready.take());
        summaries = s;
        if run_ns.is_empty() && !ctx.trace {
            out.exact("peak_rss_mb", crate::peak_rss_mb()?);
        }
        run_ns.push(dt);
        rates.push(live as f64 / (dt * 1e-9));
        if ctx.trace {
            tracer.next_run();
            tracer.enter("session.build");
            let mut batch = SessionBatch::summary_only(&scenario);
            tracer.exit();
            tracer.enter("session.run");
            batch.run();
            tracer.exit();
            traced_ns.push(tracer.spans().last().expect("span").duration_ns());
            same_digest(
                &mut first,
                digest::of_sessions(&batch.into_summaries()),
                "traced run",
                &mut out,
            );
            let serial =
                arvis_par::serial_scope(|| one(&mut out, &mut first, "serial run", None)).0;
            serial_ns.push(serial);
        }
        // A full set-up before every fourth pass spreads the set-up samples
        // over the run; the set-up's batch is the one that pass runs.
        if run_ns.len() % 4 == 3 {
            let (_, batch, t) = setup(&text, SessionBatch::summary_only)?;
            times.push(t);
            ready = Some(batch);
        }
    }
    out.sizes.push(("passes", run_ns.len() as u64));
    out.sizes.push(("setups", times.len() as u64));
    record_setup(&mut out, &times, ctx.trace);
    if !ctx.trace {
        arvis_par::serial_scope(|| one(&mut out, &mut first, "serial run", None));
    }
    crate::cross_run_check(
        ctx,
        &format!("n{sessions}-h{slots}"),
        first.as_deref(),
        &mut out,
    );
    out.digest = first.clone();

    if !ctx.trace {
        // `run` steps the whole horizon in one call, so a sample is a
        // pass's time over its slots.
        let slot_us: Vec<f64> = run_ns.iter().map(|ns| ns / 1e3 / slots as f64).collect();
        out.median_of("session_slots_per_s", &rates);
        out.quantile_of("slot_p50_us", &slot_us, 0.5);
        out.quantile_of("slot_p95_us", &slot_us, 0.95);
        let (q, b) = digest::weighted_means(&summaries);
        out.exact("quality_mean", q);
        out.exact("backlog_mean", b);
        return Ok(out);
    }

    let untraced = crate::stats::median(&run_ns);
    out.exact(
        "trace.overhead_frac",
        (crate::stats::median(&traced_ns) - untraced) / untraced,
    );
    out.median_of(
        "session.run_ms",
        &tracer
            .durations("session.run")
            .iter()
            .map(|ns| ns * 1e-6)
            .collect::<Vec<_>>(),
    );
    out.exact("scenario.bytes", text.len() as f64);
    out.exact(
        "session.session_slots",
        digest::session_slots(&summaries) as f64,
    );
    out.exact("session.rows_peak", sessions as f64);
    out.exact(
        "par.serial_ratio",
        untraced / crate::stats::median(&serial_ns),
    );
    crate::write_trace(ctx, &tracer);
    Ok(out)
}

/// Digest of everything the coarse path produces.
fn full_digest(run: &Finished) -> String {
    let mut d = Digest::new();
    d.sessions(&run.sessions);
    d.downtime(&run.downtime);
    if let Some(u) = &run.uplink {
        d.uplink(u);
    }
    d.finish()
}

/// One contended run under `serial_scope`, timed without its set-up.
fn serial_run(scenario: &Scenario) -> (Finished, f64) {
    let state = Contended::new(scenario, false);
    arvis_par::serial_scope(|| {
        let a = now_ns();
        let run = state.run(&mut SlotClock::default());
        (run, (now_ns() - a) as f64)
    })
}

/// The ledger layer on the fleet: records `run` as `experiments run
/// --record` would, loads the ledger text back, and diffs a fresh
/// `RunRecord::replay` against the stored record as `experiments verify`
/// does. The replay must match the benchmark's own stepping bit for bit.
fn ledger_round_trip(
    scenario: &Scenario,
    run: &Finished,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    const NAME: &str = "fleet_contended";
    let record = RunRecord {
        scenario: NAME.to_string(),
        scenario_hash: scenario.content_hash().map_err(|e| e.to_string())?,
        scenario_schema: scenario.schema_version(),
        code_version: CODE_VERSION.to_string(),
        sessions: run.sessions.clone(),
        uplink: run.uplink,
        downtime: Some(run.downtime.clone()),
    };
    let mut ledger = Ledger::new();
    ledger.upsert(record);
    let text = ledger.to_json_string().map_err(|e| e.to_string())?;
    let replay = RunRecord::replay(NAME, scenario).map_err(|e| e.to_string())?;
    for _ in 0..5 {
        tracer.enter("ledger.load");
        let loaded = Ledger::from_json_str(&text);
        tracer.exit();
        let loaded = loaded.map_err(|e| format!("ledger: {e}"))?;
        let stored = loaded
            .find(&replay.scenario_hash, CODE_VERSION)
            .ok_or("the recorded fleet is missing from its ledger")?;
        tracer.enter("ledger.diff");
        let diff = stored.diff(&replay);
        tracer.exit();
        let ok = matches!(&diff, Ok(d) if d.is_empty());
        out.check(ok, || {
            format!("RunRecord::replay differs from the benchmark's run: {diff:?}")
        });
    }
    Ok(())
}

fn contended_size(smoke: bool) -> ContendedSize {
    if smoke {
        ContendedSize {
            sessions: 60,
            slots: 120,
            max_joins: 60,
        }
    } else {
        ContendedSize {
            sessions: 2000,
            slots: 1000,
            max_joins: 2000,
        }
    }
}

/// The digest `fleet_contended` produces for `seed` at its smoke size.
pub fn contended_reference(seed: u64) -> Result<String, String> {
    let text = inputs::fleet_contended(seed, contended_size(true))
        .to_json_string()
        .map_err(|e| e.to_string())?;
    let scenario = Scenario::from_json_str(&text).map_err(|e| format!("scenario: {e}"))?;
    Ok(full_digest(
        &Contended::new(&scenario, false).run(&mut Quiet),
    ))
}

/// Set-ups timed per `fleet_contended` pass.
const CONTENDED_SETUPS_PER_PASS: usize = 4;

/// Runs `fleet_contended`.
pub fn contended(ctx: &Ctx) -> Result<Outcome, String> {
    let size = contended_size(ctx.smoke);
    let text = inputs::fleet_contended(ctx.seed, size)
        .to_json_string()
        .map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    out.sizes.push(("sessions", size.sessions as u64));
    out.sizes.push(("slots", size.slots));
    out.sizes.push(("max_joins", size.max_joins));
    let build = |s: &Scenario| Contended::new(s, false);

    let mut times = Vec::new();
    let mut first = None;
    // Untraced, the runs give the end-to-end numbers. Traced, each round
    // adds pass A (the same calls inside spans), pass B (the same slots
    // from the finer public calls, which must match pass A bit for bit)
    // and a run under `serial_scope`, so a drift in host speed hits all
    // four alike.
    let mut tracer = Tracer::new();
    let mut budget = Budget::new(
        if ctx.trace {
            ctx.seconds * 0.8
        } else {
            ctx.seconds
        },
        2,
    );
    let (mut slot_ns, mut sim_ns, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes_ns = Vec::new();
    let mut serial_ns = Vec::new();
    let mut last = None;
    let (mut runs_a, mut runs_b) = (Vec::new(), Vec::new());
    let mut first_fine = None;
    let mut fine = None;
    let mut scenario = None;
    while budget.more() {
        let (s, state, t) = setup(&text, build)?;
        let mut clock = SlotClock::default();
        let run = state.run(&mut clock);
        let live = run.counters.live_session_slots;
        if times.is_empty() && !ctx.trace {
            out.exact("peak_rss_mb", crate::peak_rss_mb()?);
        }
        same_digest(&mut first, full_digest(&run), "repeat run", &mut out);
        if ctx.trace {
            runs_a.push(tracer.next_run());
            let pass_a = Contended::new(&s, false).run(&mut tracer);
            same_digest(&mut first, full_digest(&pass_a), "traced pass A", &mut out);
            runs_b.push(tracer.next_run());
            let pass_b = Contended::new(&s, true).run(&mut tracer);
            same_digest(&mut first_fine, pass_a.digest(), "pass A", &mut out);
            same_digest(
                &mut first_fine,
                pass_b.digest(),
                "pass B against pass A",
                &mut out,
            );
            fine = Some(pass_b.counters);
            let (serial_run, ns) = serial_run(&s);
            same_digest(&mut first, full_digest(&serial_run), "serial run", &mut out);
            serial_ns.push(ns);
            last = Some(pass_a);
        } else {
            last = Some(run);
        }
        let total: f64 = clock.durations_ns.iter().sum();
        times.push(t);
        // A set-up costs a few percent of a pass; repeating it gives the
        // median enough samples to settle.
        for _ in 1..CONTENDED_SETUPS_PER_PASS {
            times.push(setup(&text, build)?.2);
        }
        sim_ns.push(total);
        rates.push(live as f64 / (total * 1e-9));
        slot_ns.extend_from_slice(&clock.durations_ns);
        passes_ns.push(clock.durations_ns);
        scenario = Some(s);
    }
    let scenario = scenario.expect("at least one run");
    let last = last.expect("at least one run");
    out.sizes.push(("runs", sim_ns.len() as u64));
    out.sizes.push(("slot_samples", slot_ns.len() as u64));
    record_setup(&mut out, &times, ctx.trace);
    if !ctx.trace {
        let (serial, _) = serial_run(&scenario);
        same_digest(&mut first, full_digest(&serial), "serial run", &mut out);
    }
    crate::cross_run_check(
        ctx,
        &format!("n{}-h{}-j{}", size.sessions, size.slots, size.max_joins),
        first.as_deref(),
        &mut out,
    );
    out.digest = first.clone();

    if !ctx.trace {
        let live = last.counters.live_session_slots;
        crate::slot_timed(&mut out, &passes_ns, live, &rates);
        let (q, b) = digest::weighted_means(&last.sessions);
        out.exact("quality_mean", q);
        out.exact("backlog_mean", b);
        return Ok(out);
    }

    let pass_a = last;
    let fine = fine.expect("at least one pass B");

    let untraced = crate::stats::median(&slot_ns);
    let traced = crate::stats::median(&tracer.durations("slot"));
    out.exact("trace.overhead_frac", (traced - untraced) / untraced);
    out.exact(
        "par.serial_ratio",
        crate::stats::median(&sim_ns) / crate::stats::median(&serial_ns),
    );
    let us = |v: Vec<f64>| v.iter().map(|ns| ns * 1e-3).collect::<Vec<f64>>();
    for (metric, span) in [
        ("session.fill_backlogs_us", "session.fill_backlogs"),
        ("session.fill_demands_us", "session.fill_demands"),
        ("session.step_granted_us", "session.step_granted"),
        ("uplink.step_slot_us", "uplink.step_slot"),
        ("uplink.allocate_us", "uplink.allocate"),
        ("fault.budget_us", "fault.budget"),
        ("fault.shed_us", "fault.shed"),
        ("fault.loss_us", "fault.loss"),
        ("churn.step_us", "churn.step"),
    ] {
        out.median_of(metric, &us(tracer.durations(span)));
    }
    out.median_of(
        "uplink.aggregate_us",
        &us(aggregate_per_slot(&tracer, &runs_a, &runs_b)),
    );
    ledger_round_trip(&scenario, &pass_a, &mut tracer, &mut out)?;
    let ms = |v: Vec<f64>| v.iter().map(|ns| ns * 1e-6).collect::<Vec<f64>>();
    out.median_of("ledger.load_ms", &ms(tracer.durations("ledger.load")));
    out.median_of("ledger.diff_ms", &ms(tracer.durations("ledger.diff")));
    let c = pass_a.counters;
    out.exact("scenario.bytes", text.len() as f64);
    out.exact("session.session_slots", c.live_session_slots as f64);
    out.exact("session.rows_peak", c.rows_peak as f64);
    out.exact("uplink.contended_slots", c.contended_slots as f64);
    out.exact("uplink.scarce_slots", fine.scarce_slots as f64);
    out.exact("uplink.grant_ratio", c.granted / c.offered);
    out.exact("fault.shed_slots", pass_a.shed.0 as f64);
    out.exact("fault.deferred_session_slots", pass_a.shed.1 as f64);
    out.exact("churn.joins", pass_a.churn.0 as f64);
    out.exact("churn.departures", pass_a.churn.1 as f64);
    out.exact("churn.compacted_rows", pass_a.churn.2 as f64);
    out.exact(
        "churn.live_row_frac",
        c.live_session_slots as f64 / c.rows_stepped as f64,
    );
    out.notes.push(STAND_INS.to_string());
    crate::write_trace(ctx, &tracer);
    Ok(out)
}

/// The phases of a contended slot that no public call reaches alone, and
/// what the traced run times in their place.
pub const STAND_INS: &str = "uplink.aggregate_us is, per slot, pass A's fastest \
    SharedUplink::step_slot minus pass B's fastest sum of timed phases (the uplink's \
    private permutation-invariant sums and bookkeeping); uplink.allocate_us times the public \
    UplinkPolicy::allocate, which also validates the policy, builds fresh scratch and \
    sums the demands again where step_slot calls the private allocate_with, so it reads \
    high and uplink.aggregate_us low by that overhead; fault.budget covers \
    FaultPlane::effective_budget and FaultPlane::apply_crashes; the telemetry write is \
    timed inside session.step_granted";
