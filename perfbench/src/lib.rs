//! The arvis benchmark library: workload drivers, the metric registry,
//! spans, statistics and digests. The `arvis-perfbench` binary parses the
//! command line and prints the result; the smoke test checks the registry
//! against `BENCHMARK.json`.

pub mod budget;
pub mod clock;
pub mod contended;
pub mod digest;
pub mod fleet;
pub mod frames;
pub mod goldens;
pub mod inputs;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;

use report::Outcome;
use std::path::PathBuf;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fleet_uncoupled", "fleet_contended", "frame_pipeline"];

/// Workloads the binary runs by name but `BENCHMARK.json` does not list:
/// `goldens_replay` moves by more than the largest allowed bound between
/// runs on a shared 2-vCPU host (see `perfbench/README.md`).
pub const EXTRA_WORKLOADS: &[&str] = &["goldens_replay"];

/// What every workload driver gets.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Tiny sizes for the smoke test.
    pub smoke: bool,
    /// Traced run.
    pub trace: bool,
    /// Repository root (holds `scenarios/` and `results/`).
    pub root: PathBuf,
    /// Where traces and cross-run digests go (nothing is written without).
    pub out_dir: Option<PathBuf>,
    /// Digest of the benchmark's own sources; keys the cross-run digests.
    pub source: String,
    /// Workload name.
    pub workload: String,
}

/// Compares `digest` with the run's first digest (or adopts it as the
/// first): every pass of a run must produce the same outputs.
pub fn same_digest(first: &mut Option<String>, digest: String, what: &str, out: &mut Outcome) {
    match first {
        None => *first = Some(digest),
        Some(d) => {
            let ok = *d == digest;
            out.check(ok, || format!("{what}: digest {digest} differs from {d}"));
        }
    }
}

/// The end-to-end timings of a workload whose passes time the same slots
/// (or frames) one by one: each slot's fastest time over the passes, then
/// the p50 and p95 over slots, and `live` session-slots per pass over the
/// sum of those slot times. Every pass does the same work slot for slot,
/// so a slot that a host disturbance slowed in some passes still reads its
/// undisturbed cost. `rates` (per pass) give the throughput's spread in
/// the record.
pub fn slot_timed(out: &mut report::Outcome, passes: &[Vec<f64>], live: u64, rates: &[f64]) {
    let fastest: Vec<f64> = stats::fastest_per_slot(passes)
        .iter()
        .map(|ns| ns * 1e-3)
        .collect();
    let total_s: f64 = fastest.iter().sum::<f64>() * 1e-6;
    out.quantile_of("slot_p50_us", &fastest, 0.5);
    out.quantile_of("slot_p95_us", &fastest, 0.95);
    out.with_spread("session_slots_per_s", live as f64 / total_s, rates);
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Compares `digest` with the one an earlier run stored, or stores it.
/// The key is the workload, seed and sizes, the benchmark's own sources
/// and `CODE_VERSION` — not the program's sources: by the ledger's rule a
/// change that alters outputs bumps `CODE_VERSION`, so a change that does
/// not must reproduce the digest its parent stored.
pub fn cross_run_check(ctx: &Ctx, sizes: &str, digest: Option<&str>, out: &mut Outcome) {
    let (Some(dir), Some(digest)) = (&ctx.out_dir, digest) else {
        return;
    };
    if ctx.source.is_empty() {
        return;
    }
    let dir = dir.join("digests");
    let source: String = ctx.source.chars().take(16).collect();
    let path = dir.join(format!(
        "{}-{}-{sizes}-v{}-{source}.txt",
        ctx.workload,
        ctx.seed,
        arvis_core::ledger::CODE_VERSION
    ));
    match std::fs::read_to_string(&path) {
        Ok(stored) => {
            let ok = stored.trim() == digest;
            out.check(ok, || {
                format!(
                    "digest {digest} differs from an earlier run's {}",
                    stored.trim()
                )
            });
        }
        Err(_) => {
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, digest));
            if let Err(e) = written {
                eprintln!("warning: cannot store {}: {e}", path.display());
            }
        }
    }
}

/// Writes the traced run's spans (JSON lines) and per-name totals.
pub fn write_trace(ctx: &Ctx, tracer: &trace::Tracer) {
    let Some(dir) = &ctx.out_dir else {
        return;
    };
    let stem = format!("trace-{}-{}", ctx.workload, ctx.seed);
    let mut totals = String::from("name,count,total_ms,self_ms\n");
    for (name, t) in tracer.totals() {
        totals.push_str(&format!(
            "{name},{},{:.6},{:.6}\n",
            t.count,
            t.total_ns * 1e-6,
            t.self_ns * 1e-6
        ));
    }
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.jsonl")), tracer.to_jsonl()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.self.csv")), &totals));
    match written {
        Ok(()) => eprintln!(
            "trace: {} spans in {}/{stem}.jsonl",
            tracer.spans().len(),
            dir.display()
        ),
        Err(e) => eprintln!("warning: cannot write the trace: {e}"),
    }
    eprint!("{totals}");
}
