//! The metric registry, per-run outcome, and the printed result.
//!
//! The registry is the single list of metric names and units; the smoke
//! test checks it against `BENCHMARK.json`, and every run prints each
//! metric of its set (end-to-end when untraced, per-layer when traced).
//! A per-layer metric whose layer the workload never calls reads 0 and is
//! listed under `not_exercised` in the record.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Spread;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: what a user of the scheduler sees. Every workload
/// reports all of them; on `frame_pipeline` one slot is one frame of one
/// session.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("session_slots_per_s", "1/s"),
    m("slot_p50_us", "us"),
    m("slot_p95_us", "us"),
    m("quality_mean", "1"),
    m("backlog_mean", "points"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, named after the module whose
/// public call they time or count.
pub const PER_LAYER: &[Metric] = &[
    m("scenario.parse_ms", "ms"),
    m("scenario.hash_ms", "ms"),
    m("scenario.bytes", "count"),
    m("ledger.load_ms", "ms"),
    m("ledger.diff_ms", "ms"),
    m("session.build_ms", "ms"),
    m("session.run_ms", "ms"),
    m("session.fill_backlogs_us", "us"),
    m("session.fill_demands_us", "us"),
    m("session.step_granted_us", "us"),
    m("session.session_slots", "count"),
    m("session.rows_peak", "count"),
    m("uplink.step_slot_us", "us"),
    m("uplink.allocate_us", "us"),
    m("uplink.aggregate_us", "us"),
    m("uplink.contended_slots", "count"),
    m("uplink.scarce_slots", "count"),
    m("uplink.grant_ratio", "1"),
    m("fault.budget_us", "us"),
    m("fault.shed_us", "us"),
    m("fault.loss_us", "us"),
    m("fault.shed_slots", "count"),
    m("fault.deferred_session_slots", "count"),
    m("churn.step_us", "us"),
    m("churn.joins", "count"),
    m("churn.departures", "count"),
    m("churn.compacted_rows", "count"),
    m("churn.live_row_frac", "1"),
    m("par.workers", "count"),
    m("par.serial_ratio", "1"),
    m("octree.build_ms", "ms"),
    m("octree.profile_us", "us"),
    m("octree.extract_lod_ms", "ms"),
    m("octree.encode_ms", "ms"),
    m("octree.decode_ms", "ms"),
    m("octree.nodes", "count"),
    m("octree.bytes_encoded", "count"),
    m("controller.decide_us", "us"),
    m("controller.depth_switches", "count"),
    m("sim.enqueue_us", "us"),
    m("quality.profile_psnr_ms", "ms"),
    m("pointcloud.synth_ms", "ms"),
    m("trace.overhead_frac", "1"),
];

/// One measured metric: the reported value and the spread of the samples
/// it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The value printed for the metric.
    pub value: f64,
    /// Median and quartiles of the underlying samples.
    pub spread: Spread,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics by name (a subset of the registry).
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Output checks attempted.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Metrics printed in the human-readable table only, under the
    /// workload's own names (e.g. `frames_per_s`): `(name, value, unit)`.
    pub table: Vec<(&'static str, f64, &'static str)>,
    /// Canonical digest of the run's outputs, when it has one.
    pub digest: Option<String>,
    /// Stand-ins and caveats the record should carry.
    pub notes: Vec<String>,
    /// Sample-size facts for the record (`("passes", 12)`, …).
    pub sizes: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// Records `name` as the median of `samples` (no-op when empty).
    pub fn median_of(&mut self, name: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let spread = Spread::of(samples);
        self.metrics.insert(
            name,
            Measured {
                value: spread.median,
                spread,
            },
        );
    }

    /// Records `name` as the `q`-quantile of `samples`, keeping the
    /// samples' quartiles as its spread.
    pub fn quantile_of(&mut self, name: &'static str, samples: &[f64], q: f64) {
        if samples.is_empty() {
            return;
        }
        let sorted = crate::stats::sorted(samples);
        self.metrics.insert(
            name,
            Measured {
                value: crate::stats::quantile(&sorted, q),
                spread: Spread::of(samples),
            },
        );
    }

    /// Records `value`, keeping the quartiles of `samples` as its spread.
    pub fn with_spread(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        self.metrics.insert(
            name,
            Measured {
                value,
                spread: Spread::of(samples),
            },
        );
    }

    /// Records an exact value (a count, a whole-run ratio).
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Measured {
                value,
                spread: Spread::exact(value),
            },
        );
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Provenance printed with every result.
#[derive(Debug, Clone, Default)]
pub struct Meta {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Commit id of the measured tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// SHA-256 over the benchmark's own sources.
    pub bench_sha256: String,
    /// Cargo features of the measured build.
    pub features: String,
    /// `arvis_par::workers()` at start-up.
    pub workers: usize,
    /// Online processors of the host.
    pub nproc: usize,
    /// Requested measuring time, seconds.
    pub seconds: f64,
    /// `true` for the traced run.
    pub trace: bool,
    /// `true` for the smoke sizes.
    pub smoke: bool,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with every digit of its shortest round-trip
/// form (non-finite values render as `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metric set a run prints, with values (0 for a layer the workload
/// never calls) and the names of the unexercised ones.
pub fn select(outcome: &Outcome, trace: bool) -> (Vec<(Metric, Measured)>, Vec<&'static str>) {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let mut rows = Vec::with_capacity(set.len());
    let mut missing = Vec::new();
    for metric in set {
        match outcome.metrics.get(metric.name) {
            Some(measured) => rows.push((*metric, *measured)),
            None => {
                missing.push(metric.name);
                rows.push((
                    *metric,
                    Measured {
                        value: 0.0,
                        spread: Spread::exact(0.0),
                    },
                ));
            }
        }
    }
    (rows, missing)
}

/// The human-readable table: every metric of the run's set, then the
/// workload's own table-only names.
pub fn table(meta: &Meta, outcome: &Outcome, rows: &[(Metric, Measured)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed={} trace={} workers={} nproc={} features={} commit={}",
        meta.workload,
        meta.seed,
        u8::from(meta.trace),
        meta.workers,
        meta.nproc,
        meta.features,
        meta.commit
    );
    let _ = writeln!(
        out,
        "{:<30} {:>16} {:<7} {:>6} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "n", "q1", "median", "q3"
    );
    for (metric, measured) in rows {
        let s = measured.spread;
        let _ = writeln!(
            out,
            "{:<30} {:>16.6} {:<7} {:>6} {:>14.6} {:>14.6} {:>14.6}",
            metric.name, measured.value, metric.unit, s.n, s.q1, s.median, s.q3
        );
    }
    for (name, value, unit) in &outcome.table {
        let _ = writeln!(out, "{name:<30} {value:>16.6} {unit:<7}");
    }
    let failed_frac = if outcome.attempted == 0 {
        0.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    let _ = writeln!(
        out,
        "{:<30} {:>16.6} {:<7} ({} of {} checks failed)",
        "failed_frac", failed_frac, "1", outcome.failed, outcome.attempted
    );
    out
}

/// The full result record: provenance, sizes, every metric with its
/// median and quartiles, the output digest, and notes.
pub fn record(
    meta: &Meta,
    outcome: &Outcome,
    rows: &[(Metric, Measured)],
    missing: &[&'static str],
) -> String {
    let mut metrics = Vec::with_capacity(rows.len());
    for (metric, measured) in rows {
        let s = measured.spread;
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
            json_str(metric.name),
            json_num(measured.value),
            json_str(metric.unit),
            s.n,
            json_num(s.q1),
            json_num(s.median),
            json_num(s.q3)
        ));
    }
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let missing: Vec<String> = missing.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"commit\":{},\"bench_sha256\":{},\
         \"features\":{},\"workers\":{},\"nproc\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"attempted\":{},\"failed\":{},\"digest\":{},\"sizes\":{{{}}},\"metrics\":{{{}}},\
         \"not_exercised\":[{}],\"notes\":[{}]}}}}",
        json_str(&meta.workload),
        meta.seed,
        json_str(&meta.commit),
        json_str(&meta.bench_sha256),
        json_str(&meta.features),
        meta.workers,
        meta.nproc,
        json_num(meta.seconds),
        meta.trace,
        meta.smoke,
        outcome.attempted,
        outcome.failed,
        outcome
            .digest
            .as_deref()
            .map_or("null".to_string(), json_str),
        sizes.join(","),
        metrics.join(","),
        missing.join(","),
        notes.join(",")
    )
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and every metric of the run's set with its value and unit.
pub fn result_line(outcome: &Outcome, rows: &[(Metric, Measured)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(metric, measured)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(metric.name),
                json_num(measured.value),
                json_str(metric.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
