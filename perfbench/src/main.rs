//! The arvis benchmark: end-to-end and per-layer metrics of four
//! workloads, driven through the crates' public APIs.
//!
//! ```text
//! arvis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--smoke] [--root <repo>] [--out-dir <dir>]
//!                 [--commit <id>] [--bench-sha256 <hex>] [--nproc <n>]
//! arvis-perfbench --print-reference
//! ```
//!
//! Untraced (`--trace 0`), a run measures the end-to-end metrics; traced
//! (`--trace 1`), it measures the per-layer metrics from spans recorded
//! around the calls into each layer, plus the tracing overhead. Either way
//! it checks the program's outputs, prints a table, a full record line and,
//! last, the one-line JSON result. See `perfbench/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use arvis_perfbench::report::{self, Meta, Outcome};
use arvis_perfbench::{fleet, frames, goldens, reference, Ctx, EXTRA_WORKLOADS, WORKLOADS};

struct Args {
    ctx: Ctx,
    meta: Meta,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (0u64, 10.0f64, false, false);
    let (mut root, mut out_dir) = (PathBuf::from("."), None);
    let (mut commit, mut source, mut nproc) = ("unknown".to_string(), String::new(), None);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--root" => root = PathBuf::from(value),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            "--bench-sha256" => source = value,
            "--nproc" => nproc = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS
        .iter()
        .chain(EXTRA_WORKLOADS)
        .any(|w| *w == workload)
    {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workers = arvis_par::workers();
    let meta = Meta {
        workload: workload.clone(),
        seed,
        commit,
        bench_sha256: source.clone(),
        features: "default (arvis-par/parallel)".to_string(),
        workers,
        nproc: nproc.unwrap_or(workers),
        seconds,
        trace,
        smoke,
    };
    let ctx = Ctx {
        seed,
        seconds,
        smoke,
        trace,
        root,
        out_dir,
        source,
        workload,
    };
    Ok(Args { ctx, meta })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    let mut out = match ctx.workload.as_str() {
        "goldens_replay" => goldens::run(ctx)?,
        "fleet_uncoupled" => fleet::uncoupled(ctx)?,
        "fleet_contended" => fleet::contended(ctx)?,
        "frame_pipeline" => frames::run(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if ctx.trace {
        out.exact("par.workers", args.meta.workers as f64);
    }
    reference::check(ctx, &mut out)?;
    if out.attempted == 0 {
        return Err("the run checked no output".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--print-reference") {
        return match reference::render() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("arvis-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("arvis-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("arvis-perfbench: {}: {e}", args.ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    let (rows, missing) = report::select(&out, args.ctx.trace);
    if let Some((metric, _)) = rows.iter().find(|(_, m)| !m.value.is_finite()) {
        eprintln!("arvis-perfbench: {} is not finite", metric.name);
        return ExitCode::FAILURE;
    }
    print!("{}", report::table(&args.meta, &out, &rows));
    for note in &out.notes {
        println!("# note: {note}");
    }
    let record = report::record(&args.meta, &out, &rows, &missing);
    println!("{record}");
    if let Some(dir) = &args.ctx.out_dir {
        let path = dir.join(format!(
            "result-{}-{}-trace{}.json",
            args.ctx.workload,
            args.ctx.seed,
            u8::from(args.ctx.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &record)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", report::result_line(&out, &rows));
    ExitCode::SUCCESS
}
