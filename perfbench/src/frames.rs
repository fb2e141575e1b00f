//! `frame_pipeline`: the paper's per-frame path on materialized data, one
//! frame at a time as a closed loop (the next frame starts when the last
//! one is enqueued).
//!
//! Per frame: octree build → per-depth profile over 5..=10 → decide
//! (`ProposedDpp`) → LoD extract → encode → enqueue; every `k`-th frame is
//! also decoded, and the decode is checked against the extracted LoD off
//! the timed path. The stages are driven directly, not through
//! `arvis_core::pipeline`, which caches encodes across frames.

use arvis_core::controller::{DepthController, ProposedDpp};
use arvis_octree::attr::{frames_equivalent, EncodedFrame};
use arvis_octree::{LodMode, OctreeBuilder, OctreeConfig};
use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::synth::{FrameSequence, SubjectProfile};
use arvis_quality::profile::QualityMetric;
use arvis_quality::DepthProfile;
use arvis_sim::queue::WorkQueue;

use crate::budget::Budget;
use crate::clock::now_ns;
use crate::digest::Digest;
use crate::report::Outcome;
use crate::trace::{Probe, Quiet, Tracer};
use crate::{same_digest, Ctx};

const MIN_DEPTH: u8 = 5;
const MAX_DEPTH: u8 = 10;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
struct Size {
    points: usize,
    frames: usize,
    per_pass: u64,
    decode_every: u64,
}

/// What set-up calibrates from frame 0: the quality column `p_a(d)` of a
/// geometry-PSNR profile, the device's service rate (points per slot, the
/// geometric mean of `a(8)` and `a(9)`, so depth 10 overloads the device
/// and the scheduler must time-share), and `V = 2μ·(a(10) − a(5)) /
/// (p(10) − p(5))`, which puts the backlog where it starts trading depth
/// for delay at about two slots of service.
#[derive(Debug, Clone)]
struct Calibration {
    quality: Vec<f64>,
    rate: f64,
    v: f64,
}

fn calibrate(frame0: &PointCloud) -> Result<Calibration, String> {
    let profile =
        DepthProfile::measure_with(frame0, MIN_DEPTH..=MAX_DEPTH, QualityMetric::GeometryPsnr)
            .map_err(|e| format!("profile: {e}"))?;
    let quality: Vec<f64> = profile.depths().map(|d| profile.quality(d)).collect();
    let rate = (profile.arrival(MAX_DEPTH - 2) * profile.arrival(MAX_DEPTH - 1)).sqrt();
    let da = profile.arrival(MAX_DEPTH) - profile.arrival(MIN_DEPTH);
    let dq = profile.quality(MAX_DEPTH) - profile.quality(MIN_DEPTH);
    if !(da > 0.0 && dq > 0.0) {
        return Err(format!("degenerate profile: a grows by {da}, p_a by {dq}"));
    }
    let v = 2.0 * rate * da / dq;
    Ok(Calibration { quality, rate, v })
}

/// One pass's outputs.
#[derive(Debug, Default)]
struct Pass {
    frame_ns: Vec<f64>,
    quality_sum: f64,
    backlog_sum: f64,
    switches: u64,
    nodes: Vec<f64>,
    bytes: Vec<f64>,
    digest: String,
}

/// Runs `per_pass` frames through every stage from a fresh scheduler and
/// an empty queue.
fn pass(
    frames: &[PointCloud],
    cube: Aabb,
    cal: &Calibration,
    size: Size,
    out: &mut Outcome,
    probe: &mut dyn Probe,
) -> Result<Pass, String> {
    let mut builder = OctreeBuilder::new();
    let mut ctl = ProposedDpp::new(cal.v);
    let mut queue = WorkQueue::new();
    let config = OctreeConfig::with_max_depth(MAX_DEPTH).in_cube(cube);
    let mut digest = Digest::new();
    let mut p = Pass::default();
    let mut prev = None;
    for slot in 0..size.per_pass {
        let cloud = &frames[slot as usize % frames.len()];
        probe.enter("frame");
        let start = now_ns();
        probe.enter("octree.build");
        let tree = builder.build(cloud, &config);
        probe.exit();
        let tree = tree.map_err(|e| format!("octree: {e}"))?;
        probe.enter("octree.profile");
        let arrivals = (MIN_DEPTH..=MAX_DEPTH)
            .map(|d| tree.occupied_at_depth(d) as f64)
            .collect();
        let profile = DepthProfile::from_parts(MIN_DEPTH, arrivals, cal.quality.clone());
        probe.exit();
        probe.enter("controller.decide");
        let depth = ctl.select_depth(slot, queue.backlog(), &profile);
        probe.exit();
        probe.enter("octree.extract_lod");
        let lod = tree.extract_lod(depth, LodMode::VoxelCenters);
        probe.exit();
        probe.enter("octree.encode");
        let encoded = EncodedFrame::encode(&tree, depth);
        probe.exit();
        let decoded = (slot % size.decode_every == 0).then(|| {
            probe.enter("octree.decode");
            let d = encoded.decode(tree.cube());
            probe.exit();
            d
        });
        probe.enter("sim.enqueue");
        queue.step(profile.arrival(depth), cal.rate);
        probe.exit();
        p.frame_ns.push((now_ns() - start) as f64);
        probe.exit();

        if let Some(decoded) = decoded {
            let ok = matches!(&decoded, Ok(c) if frames_equivalent(c, &lod.cloud));
            out.check(ok, || {
                format!("frame {slot}: decode differs from extract_lod at depth {depth}")
            });
        }
        p.quality_sum += profile.quality(depth);
        p.backlog_sum += queue.backlog();
        p.switches += u64::from(prev.is_some_and(|d| d != depth));
        prev = Some(depth);
        p.nodes.push(tree.node_count() as f64);
        p.bytes.push(encoded.byte_size() as f64);
        digest.u64(u64::from(depth));
        digest.u64(encoded.byte_size() as u64);
        digest.f64(queue.backlog());
    }
    p.digest = digest.finish();
    Ok(p)
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            points: 3_000,
            frames: 6,
            per_pass: 12,
            decode_every: 4,
        }
    } else {
        Size {
            points: 50_000,
            frames: 30,
            per_pass: 90,
            decode_every: 8,
        }
    }
}

/// The synthetic sequence for `seed` and the cube every frame's octree
/// shares, so voxel grids align across frames.
fn synth(seed: u64, size: Size) -> Result<(Vec<PointCloud>, Aabb), String> {
    let frames: Vec<PointCloud> = FrameSequence::new(SubjectProfile::Longdress, size.frames)
        .with_target_points(size.points)
        .with_seed(seed)
        .iter_frames()
        .collect();
    let cube = frames
        .iter()
        .filter_map(PointCloud::aabb)
        .reduce(|a, b| a.union(&b))
        .map(|b| b.bounding_cube())
        .ok_or("empty frame sequence")?;
    Ok((frames, cube))
}

/// The digest `frame_pipeline` produces for `seed` at its smoke size but
/// over 240 frames, so the scheduler's decisions have time to depend on
/// the backlog: the calibration and the pass's depth / bytes / backlog
/// sequence.
pub fn reference(seed: u64) -> Result<String, String> {
    let size = Size {
        per_pass: 240,
        ..size(true)
    };
    let (frames, cube) = synth(seed, size)?;
    let cal = calibrate(&frames[0])?;
    let p = pass(
        &frames,
        cube,
        &cal,
        size,
        &mut Outcome::default(),
        &mut Quiet,
    )?;
    let mut d = Digest::new();
    for q in &cal.quality {
        d.f64(*q);
    }
    d.f64(cal.rate);
    d.f64(cal.v);
    for b in p.digest.bytes() {
        d.u64(u64::from(b));
    }
    Ok(d.finish())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = size(ctx.smoke);
    let mut out = Outcome::default();
    out.sizes.push(("points", size.points as u64));
    out.sizes.push(("frames", size.frames as u64));
    out.sizes.push(("frames_per_pass", size.per_pass));
    out.sizes.push(("decode_every", size.decode_every));

    // Input generation, not set-up.
    let synth_start = now_ns();
    let (frames, cube) = synth(ctx.seed, size)?;
    let synth_ns = (now_ns() - synth_start) as f64;

    // Set-up: calibrate from frame 0 — again after every pass, so the
    // set-up samples span the run; each calibration must match the first.
    let timed_calibration = || -> Result<(Calibration, f64), String> {
        let a = now_ns();
        let cal = calibrate(&frames[0])?;
        Ok((cal, (now_ns() - a) as f64))
    };
    let (cal, first_ns) = timed_calibration()?;
    let mut setup_ns = vec![first_ns];

    let mut first: Option<String> = None;
    // Untraced, the passes give the end-to-end numbers. Traced, each round
    // adds a traced pass and one under `serial_scope`, so a drift in host
    // speed hits all three alike.
    let mut tracer = Tracer::new();
    let (mut traced_ns, mut serial_ns) = (Vec::new(), Vec::new());
    let mut budget = Budget::new(ctx.seconds, 2);
    let mut passes: Vec<Pass> = Vec::new();
    while budget.more() {
        let p = pass(&frames, cube, &cal, size, &mut out, &mut Quiet)?;
        if passes.is_empty() && !ctx.trace {
            out.exact("peak_rss_mb", crate::peak_rss_mb()?);
        }
        same_digest(&mut first, p.digest.clone(), "repeat pass", &mut out);
        passes.push(p);
        if ctx.trace {
            tracer.next_run();
            let traced = pass(&frames, cube, &cal, size, &mut out, &mut tracer)?;
            same_digest(&mut first, traced.digest, "traced pass", &mut out);
            let serial =
                arvis_par::serial_scope(|| pass(&frames, cube, &cal, size, &mut out, &mut Quiet))?;
            same_digest(&mut first, serial.digest, "serial pass", &mut out);
            traced_ns.extend(traced.frame_ns);
            serial_ns.extend(serial.frame_ns);
        }
        let (again, ns) = timed_calibration()?;
        let same_cal = again.quality == cal.quality && again.rate == cal.rate && again.v == cal.v;
        out.check(same_cal, || {
            "calibration differs between set-ups".to_string()
        });
        setup_ns.push(ns);
    }
    out.sizes.push(("passes", passes.len() as u64));
    let frame_ns: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.frame_ns.iter().copied())
        .collect();
    let untraced = crate::stats::median(&frame_ns);

    if !ctx.trace {
        let serial =
            arvis_par::serial_scope(|| pass(&frames, cube, &cal, size, &mut out, &mut Quiet))?;
        same_digest(&mut first, serial.digest, "serial pass", &mut out);
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.frame_ns.len() as f64 / (p.frame_ns.iter().sum::<f64>() * 1e-9))
            .collect();
        let frames_ns: Vec<Vec<f64>> = passes.iter().map(|p| p.frame_ns.clone()).collect();
        crate::slot_timed(&mut out, &frames_ns, size.per_pass, &rates);
        out.median_of(
            "setup_s",
            &setup_ns.iter().map(|ns| ns * 1e-9).collect::<Vec<_>>(),
        );
        let n = size.per_pass as f64;
        out.exact("quality_mean", passes[0].quality_sum / n);
        out.exact("backlog_mean", passes[0].backlog_sum / n);
        for (name, metric, scale, unit) in [
            ("frames_per_s", "session_slots_per_s", 1.0, "1/s"),
            ("frame_p50_ms", "slot_p50_us", 1e-3, "ms"),
            ("frame_p95_ms", "slot_p95_us", 1e-3, "ms"),
        ] {
            out.table
                .push((name, out.metrics[metric].value * scale, unit));
        }
        crate::cross_run_check(
            ctx,
            &format!("p{}-f{}-n{}", size.points, size.frames, size.per_pass),
            first.as_deref(),
            &mut out,
        );
        out.digest = first;
        return Ok(out);
    }

    out.exact(
        "trace.overhead_frac",
        (crate::stats::median(&traced_ns) - untraced) / untraced,
    );
    out.exact(
        "par.serial_ratio",
        untraced / crate::stats::median(&serial_ns),
    );
    let scaled = |span: &str, k: f64| {
        tracer
            .durations(span)
            .iter()
            .map(|ns| ns * k)
            .collect::<Vec<f64>>()
    };
    out.median_of("octree.build_ms", &scaled("octree.build", 1e-6));
    out.median_of("octree.profile_us", &scaled("octree.profile", 1e-3));
    out.median_of("octree.extract_lod_ms", &scaled("octree.extract_lod", 1e-6));
    out.median_of("octree.encode_ms", &scaled("octree.encode", 1e-6));
    out.median_of("octree.decode_ms", &scaled("octree.decode", 1e-6));
    out.median_of("controller.decide_us", &scaled("controller.decide", 1e-3));
    out.median_of("sim.enqueue_us", &scaled("sim.enqueue", 1e-3));
    out.median_of("octree.nodes", &passes[0].nodes);
    out.median_of("octree.bytes_encoded", &passes[0].bytes);
    out.exact("controller.depth_switches", passes[0].switches as f64);
    out.median_of(
        "quality.profile_psnr_ms",
        &setup_ns.iter().map(|ns| ns * 1e-6).collect::<Vec<_>>(),
    );
    out.exact("pointcloud.synth_ms", synth_ns * 1e-6);
    crate::cross_run_check(
        ctx,
        &format!("p{}-f{}-n{}", size.points, size.frames, size.per_pass),
        first.as_deref(),
        &mut out,
    );
    out.digest = first;
    crate::write_trace(ctx, &tracer);
    Ok(out)
}
