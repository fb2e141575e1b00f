//! `goldens_replay`: the committed scenarios replayed through
//! `RunRecord::replay` and diffed against the committed ledger — the
//! traffic of `experiments run` and `experiments verify`.
//!
//! The inputs are fixed files, so the seed does not change them.

use arvis_core::ledger::{Ledger, RunRecord, CODE_VERSION};
use arvis_core::scenario::Scenario;
use arvis_core::session::SessionBatch;

use crate::budget::Budget;
use crate::clock::now_ns;
use crate::contended::{aggregate_per_slot, Contended};
use crate::digest::{self, Digest};
use crate::report::Outcome;
use crate::trace::{Probe, Quiet, Tracer};
use crate::Ctx;

/// One golden, parsed and matched to its ledger record.
struct Golden {
    name: String,
    scenario: Scenario,
    expected: Option<RunRecord>,
}

impl Golden {
    /// `RunRecord::replay` takes the contended path for exactly these.
    fn contended(&self) -> bool {
        let s = &self.scenario;
        s.uplink.is_some() || s.fault.is_some() || s.churn.is_some()
    }

    fn check(&self, replay: &RunRecord, out: &mut Outcome) {
        let diff = match &self.expected {
            Some(expected) => expected.diff(replay).map_err(|e| e.to_string()),
            None => Err(format!("no ledger record at code version {CODE_VERSION}")),
        };
        out.check(matches!(&diff, Ok(d) if d.is_empty()), || {
            format!("{}: replay differs from the ledger: {diff:?}", self.name)
        });
    }

    fn expected_digest(&self) -> Option<String> {
        self.expected.as_ref().map(|r| {
            let mut d = Digest::new();
            d.sessions(&r.sessions);
            if let Some(downtime) = &r.downtime {
                d.downtime(downtime);
            }
            d.finish()
        })
    }
}

/// Set-up timings of one repetition, nanoseconds.
struct SetupTimes {
    total: f64,
    parse: f64,
    hash: f64,
    load: f64,
}

fn read_inputs(ctx: &Ctx) -> Result<(Vec<(String, String)>, String), String> {
    let dir = ctx.root.join("scenarios");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no scenario files", dir.display()));
    }
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .and_then(std::ffi::OsStr::to_str)
            .unwrap_or("scenario")
            .to_string();
        files.push((name, text));
    }
    let ledger_path = ctx.root.join("results").join("ledger.json");
    let ledger = std::fs::read_to_string(&ledger_path)
        .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    Ok((files, ledger))
}

/// Parses, hashes and matches every golden — the set-up `experiments
/// verify` does before its first replay.
fn setup(
    files: &[(String, String)],
    ledger_text: &str,
) -> Result<(Vec<Golden>, SetupTimes), String> {
    let start = now_ns();
    let (mut parse, mut hash) = (0u64, 0u64);
    let mut parsed = Vec::with_capacity(files.len());
    for (name, text) in files {
        let a = now_ns();
        let scenario = Scenario::from_json_str(text).map_err(|e| format!("{name}: {e}"))?;
        let b = now_ns();
        let content_hash = scenario
            .content_hash()
            .map_err(|e| format!("{name}: {e}"))?;
        parse += b - a;
        hash += now_ns() - b;
        parsed.push((name.clone(), scenario, content_hash));
    }
    let a = now_ns();
    let ledger = Ledger::from_json_str(ledger_text).map_err(|e| format!("ledger: {e}"))?;
    let load = now_ns() - a;
    let goldens = parsed
        .into_iter()
        .map(|(name, scenario, content_hash)| Golden {
            expected: ledger.find(&content_hash, CODE_VERSION).cloned(),
            name,
            scenario,
        })
        .collect();
    let total = now_ns() - start;
    Ok((
        goldens,
        SetupTimes {
            total: total as f64,
            parse: parse as f64,
            hash: hash as f64,
            load: load as f64,
        },
    ))
}

/// One pass over every golden, returning the summed replay time (ns).
/// Replays are timed; the ledger diff after each is not.
fn pass(goldens: &[Golden], out: &mut Outcome, probe: &mut dyn Probe) -> Result<f64, String> {
    let mut total = 0.0;
    probe.enter("pass");
    for g in goldens {
        probe.enter("scenario.replay");
        let a = now_ns();
        let replay = RunRecord::replay(g.name.as_str(), &g.scenario);
        let dt = now_ns() - a;
        probe.exit();
        let replay = replay.map_err(|e| format!("{}: {e}", g.name))?;
        total += dt as f64;
        probe.enter("ledger.diff");
        g.check(&replay, out);
        probe.exit();
    }
    probe.exit();
    Ok(total)
}

/// Replays every golden once and diffs each against the committed ledger,
/// off the timed path: the check the other workloads make against
/// committed outputs.
pub fn verify(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (files, ledger_text) = read_inputs(ctx)?;
    let (goldens, _) = setup(&files, &ledger_text)?;
    pass(&goldens, out, &mut Quiet)?;
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (files, ledger_text) = read_inputs(ctx)?;
    let mut out = Outcome::default();
    let (mut goldens, first) = setup(&files, &ledger_text)?;
    let mut times = vec![first];
    let slots: f64 = goldens.iter().map(|g| g.scenario.slots as f64).sum();
    let session_slots: u64 = goldens
        .iter()
        .filter_map(|g| g.expected.as_ref())
        .map(|r| digest::session_slots(&r.sessions))
        .sum();
    let all_sessions: Vec<_> = goldens
        .iter()
        .filter_map(|g| g.expected.as_ref())
        .flat_map(|r| r.sessions.iter().copied())
        .collect();
    let (quality, backlog) = digest::weighted_means(&all_sessions);
    out.sizes.push(("goldens", goldens.len() as u64));
    out.sizes.push(("session_slots_per_pass", session_slots));

    // Untraced, the passes give the end-to-end numbers. Traced, each round
    // adds a traced pass and one under `serial_scope`, so a drift in host
    // speed hits all three alike. A fresh set-up follows every round, so
    // set-up samples span the run like the passes do.
    let mut tracer = Tracer::new();
    let mut budget = Budget::new(
        if ctx.trace {
            ctx.seconds * 0.75
        } else {
            ctx.seconds
        },
        2,
    );
    let (mut pass_ns, mut traced_ns, mut serial_ns) = (Vec::new(), Vec::new(), Vec::new());
    while budget.more() {
        pass_ns.push(pass(&goldens, &mut out, &mut Quiet)?);
        if pass_ns.len() == 1 && !ctx.trace {
            out.exact("peak_rss_mb", crate::peak_rss_mb()?);
        }
        if ctx.trace {
            tracer.next_run();
            traced_ns.push(pass(&goldens, &mut out, &mut tracer)?);
            serial_ns.push(arvis_par::serial_scope(|| {
                pass(&goldens, &mut out, &mut Quiet)
            })?);
        }
        let (g, t) = setup(&files, &ledger_text)?;
        goldens = g;
        times.push(t);
    }
    out.sizes.push(("passes", pass_ns.len() as u64));
    out.sizes.push(("setups", times.len() as u64));

    if !ctx.trace {
        out.median_of(
            "setup_s",
            &times.iter().map(|t| t.total * 1e-9).collect::<Vec<_>>(),
        );
        let rates: Vec<f64> = pass_ns
            .iter()
            .map(|ns| session_slots as f64 / (ns * 1e-9))
            .collect();
        out.median_of("session_slots_per_s", &rates);
        // A replay is one opaque call, so a slot's host time is the
        // pass's mean: pass time over the slots of every golden.
        let slot_us: Vec<f64> = pass_ns.iter().map(|ns| ns / 1e3 / slots).collect();
        out.quantile_of("slot_p50_us", &slot_us, 0.5);
        out.quantile_of("slot_p95_us", &slot_us, 0.95);
        out.exact("quality_mean", quality);
        out.exact("backlog_mean", backlog);
        return Ok(out);
    }

    let ms = |v: &[f64]| v.iter().map(|ns| ns * 1e-6).collect::<Vec<f64>>();
    let us = |v: &[f64]| v.iter().map(|ns| ns * 1e-3).collect::<Vec<f64>>();
    out.median_of(
        "scenario.parse_ms",
        &ms(&times.iter().map(|t| t.parse).collect::<Vec<_>>()),
    );
    out.median_of(
        "scenario.hash_ms",
        &ms(&times.iter().map(|t| t.hash).collect::<Vec<_>>()),
    );
    out.median_of(
        "ledger.load_ms",
        &ms(&times.iter().map(|t| t.load).collect::<Vec<_>>()),
    );
    out.exact(
        "scenario.bytes",
        files.iter().map(|(_, t)| t.len() as f64).sum(),
    );
    out.exact("session.session_slots", session_slots as f64);

    let untraced = crate::stats::median(&pass_ns);
    out.exact(
        "trace.overhead_frac",
        (crate::stats::median(&traced_ns) - untraced) / untraced,
    );
    out.exact(
        "par.serial_ratio",
        untraced / crate::stats::median(&serial_ns),
    );
    out.median_of(
        "ledger.diff_ms",
        &ms(&tracer.per_parent("pass", "ledger.diff")),
    );

    // One decomposed pass: uncoupled goldens as build + run, contended
    // ones slot by slot, first as `run_contended` steps them, then from
    // the finer calls. Each must reproduce the ledger's sessions.
    let run_b = tracer.next_run();
    let mut rows_peak = 0u64;
    let (mut contended, mut scarce, mut offered, mut granted) = (0u64, 0u64, 0.0, 0.0);
    let (mut live, mut rows) = (0u64, 0u64);
    let (mut joins, mut departures, mut compacted) = (0u64, 0u64, 0u64);
    let (mut shed_slots, mut deferred) = (0u64, 0u64);
    for g in &goldens {
        let expected = g.expected_digest();
        if !g.contended() {
            tracer.enter("session.build");
            let mut batch = SessionBatch::summary_only(&g.scenario);
            tracer.exit();
            tracer.enter("session.run");
            batch.run();
            tracer.exit();
            rows_peak = rows_peak.max(batch.len() as u64);
            let got = digest::of_sessions(&batch.into_summaries());
            let want = g
                .expected
                .as_ref()
                .map(|r| digest::of_sessions(&r.sessions));
            out.check(want.as_deref() == Some(got.as_str()), || {
                format!("{}: build + run differs from the ledger", g.name)
            });
            continue;
        }
        tracer.enter("session.build");
        let state = Contended::new(&g.scenario, false);
        tracer.exit();
        let coarse = state.run(&mut tracer);
        if let Some(expected) = &g.expected {
            let record = RunRecord {
                sessions: coarse.sessions.clone(),
                uplink: coarse.uplink,
                downtime: Some(coarse.downtime.clone()),
                ..expected.clone()
            };
            g.check(&record, &mut out);
        }
        let fine = Contended::new(&g.scenario, true).run(&mut tracer);
        out.check(expected.as_deref() == Some(fine.digest().as_str()), || {
            format!("{}: fine-grained stepping differs from the ledger", g.name)
        });
        let c = coarse.counters;
        rows_peak = rows_peak.max(c.rows_peak);
        contended += c.contended_slots;
        scarce += fine.counters.scarce_slots;
        offered += c.offered;
        granted += c.granted;
        live += c.live_session_slots;
        rows += c.rows_stepped;
        joins += coarse.churn.0;
        departures += coarse.churn.1;
        compacted += coarse.churn.2;
        shed_slots += coarse.shed.0;
        deferred += coarse.shed.1;
    }
    out.median_of("session.build_ms", &ms(&tracer.durations("session.build")));
    out.median_of("session.run_ms", &ms(&tracer.durations("session.run")));
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
        out.median_of(metric, &us(&tracer.durations(span)));
    }
    out.median_of(
        "uplink.aggregate_us",
        &us(&aggregate_per_slot(&tracer, &[run_b], &[run_b])),
    );
    out.exact("session.rows_peak", rows_peak as f64);
    out.exact("uplink.contended_slots", contended as f64);
    out.exact("uplink.scarce_slots", scarce as f64);
    out.exact(
        "uplink.grant_ratio",
        if offered > 0.0 {
            granted / offered
        } else {
            1.0
        },
    );
    out.exact("fault.shed_slots", shed_slots as f64);
    out.exact("fault.deferred_session_slots", deferred as f64);
    out.exact("churn.joins", joins as f64);
    out.exact("churn.departures", departures as f64);
    out.exact("churn.compacted_rows", compacted as f64);
    out.exact(
        "churn.live_row_frac",
        if rows > 0 {
            live as f64 / rows as f64
        } else {
            1.0
        },
    );

    out.notes.push(
        "scenario.replay is one RunRecord::replay call; its per-slot phases are timed on a \
         separate decomposed pass (uplink.step_slot via SharedUplink::step_slot, the rest via \
         the finer public calls)"
            .to_string(),
    );
    out.notes.push(crate::fleet::STAND_INS.to_string());
    crate::write_trace(ctx, &tracer);
    Ok(out)
}
