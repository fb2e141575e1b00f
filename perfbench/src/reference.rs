//! Checks against outputs committed to the repository, made once per run
//! off the timed path.
//!
//! Every other check compares passes of one build with each other, so it
//! cannot see a change that alters every pass alike. These compare with
//! committed outputs instead: every golden scenario is replayed and diffed
//! against `results/ledger.json`, as `experiments verify` does, and the
//! workload, at its smoke size and [`SEED`], must reproduce its digest in
//! `perfbench/reference.json`. By the ledger's rule a change that alters
//! outputs also bumps `CODE_VERSION`, so the reference digests are compared
//! only at the code version they were recorded at.
//! `arvis-perfbench --print-reference` prints that file anew.

use arvis_core::json::{self, JsonKind, JsonValue};
use arvis_core::ledger::CODE_VERSION;

use crate::report::Outcome;
use crate::{fleet, frames, goldens, Ctx, WORKLOADS};

/// The seed of the reference runs.
pub const SEED: u64 = 0;

const REFERENCE: &str = include_str!("../reference.json");

/// The digest `workload` produces at its smoke size and [`SEED`].
pub fn digest_of(workload: &str) -> Result<String, String> {
    match workload {
        "fleet_uncoupled" => fleet::uncoupled_reference(SEED),
        "fleet_contended" => fleet::contended_reference(SEED),
        "frame_pipeline" => frames::reference(SEED),
        other => Err(format!("no reference run for {other}")),
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    match &v.kind {
        JsonKind::Obj(members) => members
            .iter()
            .find(|m| m.key == key)
            .map(|m| &m.value)
            .ok_or(format!("reference.json: no {key}")),
        _ => Err(format!("reference.json: {key} is not in an object")),
    }
}

/// Runs the committed-output checks for the run's workload.
pub fn check(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    if ctx.workload == "goldens_replay" {
        // Its every pass is diffed against the ledger already.
        return Ok(());
    }
    goldens::verify(ctx, out)?;
    let reference = json::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    let version = field(&reference, "code_version")?
        .as_str()
        .map_err(|e| e.to_string())?;
    if version != CODE_VERSION {
        out.notes.push(format!(
            "reference digests are for code version {version}, not {CODE_VERSION}: not compared"
        ));
        return Ok(());
    }
    let want = field(field(&reference, "digests")?, &ctx.workload)?
        .as_str()
        .map_err(|e| e.to_string())?;
    let got = digest_of(&ctx.workload)?;
    out.check(got == want, || {
        format!(
            "{} at seed {SEED}, smoke size: digest {got} differs from the committed {want}",
            ctx.workload
        )
    });
    Ok(())
}

/// `reference.json` for the current code.
pub fn render() -> Result<String, String> {
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        lines.push(format!("    \"{workload}\": \"{}\"", digest_of(workload)?));
    }
    Ok(format!(
        "{{\n  \"code_version\": \"{CODE_VERSION}\",\n  \"seed\": {SEED},\n  \"digests\": {{\n{}\n  }}\n}}\n",
        lines.join(",\n")
    ))
}
