//! AR stream sources: where each slot's depth profile comes from.
//!
//! Each time slot the scheduler consults the current frame's
//! [`DepthProfile`] (per-depth arrivals and quality). Sources:
//!
//! - [`ArStream::constant`]: one profile for every slot (the paper's setup —
//!   a stationary stream whose per-depth statistics are those of the 8i
//!   bodies);
//! - [`ArStream::cycle`]: per-frame measured profiles of a dynamic sequence,
//!   replayed cyclically;
//! - [`ArStream::modulated`]: the constant profile with a sinusoidal
//!   arrival modulation (subject moving closer/farther), for robustness
//!   experiments.

use std::borrow::Cow;

use arvis_pointcloud::synth::FrameSequence;
use arvis_quality::profile::{DepthProfile, ProfileError, QualityMetric};

use crate::json::{self, JsonError, JsonValue};

/// A source of per-slot depth profiles.
#[derive(Debug, Clone)]
pub struct ArStream {
    kind: StreamKind,
}

#[derive(Debug, Clone)]
enum StreamKind {
    Constant(DepthProfile),
    Cycle(Vec<DepthProfile>),
    Modulated {
        base: DepthProfile,
        amplitude: f64,
        period_slots: f64,
    },
}

impl ArStream {
    /// A stationary stream: the same profile every slot.
    pub fn constant(profile: DepthProfile) -> ArStream {
        ArStream {
            kind: StreamKind::Constant(profile),
        }
    }

    /// Replays measured per-frame profiles cyclically.
    ///
    /// # Panics
    ///
    /// Panics when `profiles` is empty or the frames disagree on the depth
    /// range.
    pub fn cycle(profiles: Vec<DepthProfile>) -> ArStream {
        check_cycle(&profiles).unwrap_or_else(|msg| panic!("{msg}"));
        ArStream {
            kind: StreamKind::Cycle(profiles),
        }
    }

    /// The base profile with arrivals scaled by
    /// `1 + amplitude · sin(2π · slot / period_slots)` — models the subject
    /// approaching and receding from the capture volume.
    ///
    /// # Panics
    ///
    /// Panics when `amplitude ∉ [0, 1)` or `period_slots <= 0`.
    pub fn modulated(base: DepthProfile, amplitude: f64, period_slots: f64) -> ArStream {
        check_modulated(amplitude, period_slots).unwrap_or_else(|msg| panic!("{msg}"));
        ArStream {
            kind: StreamKind::Modulated {
                base,
                amplitude,
                period_slots,
            },
        }
    }

    /// Measures per-frame profiles of a synthetic [`FrameSequence`] and
    /// builds a cycling stream. `frame_stride` measures every `stride`-th
    /// frame (profiles are expensive at full resolution).
    ///
    /// # Errors
    ///
    /// Propagates profile-measurement failures.
    ///
    /// # Panics
    ///
    /// Panics when `frame_stride == 0` or the sequence is empty.
    pub fn from_sequence(
        sequence: &FrameSequence,
        depths: std::ops::RangeInclusive<u8>,
        frame_stride: usize,
    ) -> Result<ArStream, ProfileError> {
        assert!(frame_stride >= 1, "stride must be >= 1");
        assert!(!sequence.is_empty(), "sequence must have frames");
        let mut profiles = Vec::new();
        // Shared octree scratch across the measured frames.
        let mut builder = arvis_octree::OctreeBuilder::new();
        let mut i = 0;
        while i < sequence.len() {
            let frame = sequence.frame(i);
            profiles.push(DepthProfile::measure_with_builder(
                &frame,
                depths.clone(),
                QualityMetric::LogPointCount,
                &mut builder,
            )?);
            i += frame_stride;
        }
        Ok(ArStream::cycle(profiles))
    }

    /// The profile in effect at `slot`.
    pub fn profile_at(&self, slot: u64) -> Cow<'_, DepthProfile> {
        match &self.kind {
            StreamKind::Constant(p) => Cow::Borrowed(p),
            StreamKind::Cycle(ps) => Cow::Borrowed(&ps[(slot as usize) % ps.len()]),
            StreamKind::Modulated {
                base,
                amplitude,
                period_slots,
            } => {
                let phase = std::f64::consts::TAU * slot as f64 / period_slots;
                let scale = 1.0 + amplitude * phase.sin();
                let arrivals = base
                    .depths()
                    .map(|d| base.arrival(d) * scale)
                    .collect::<Vec<_>>();
                let quality = base.depths().map(|d| base.quality(d)).collect();
                Cow::Owned(DepthProfile::from_parts(
                    base.min_depth(),
                    arrivals,
                    quality,
                ))
            }
        }
    }

    /// The long-run mean arrival at depth `d` across the stream.
    pub fn mean_arrival(&self, depth: u8) -> f64 {
        match &self.kind {
            StreamKind::Constant(p) => p.arrival(depth),
            StreamKind::Cycle(ps) => {
                ps.iter().map(|p| p.arrival(depth)).sum::<f64>() / ps.len() as f64
            }
            // Sinusoid has zero mean over a period.
            StreamKind::Modulated { base, .. } => base.arrival(depth),
        }
    }

    /// The depth range served by this stream.
    pub fn depths(&self) -> std::ops::RangeInclusive<u8> {
        match &self.kind {
            StreamKind::Constant(p) => p.depths(),
            StreamKind::Cycle(ps) => ps[0].depths(),
            StreamKind::Modulated { base, .. } => base.depths(),
        }
    }

    /// Encodes the stream for a scenario file (see [`crate::json`]):
    /// a `"type"`-tagged object (`constant` / `cycle` / `modulated`)
    /// whose profiles are `{min_depth, arrivals, quality}` tables.
    ///
    /// # Errors
    ///
    /// Errors when a profile value is non-finite (nothing non-finite has a
    /// scenario-file form here).
    pub fn to_json(&self) -> Result<JsonValue, JsonError> {
        Ok(match &self.kind {
            StreamKind::Constant(p) => JsonValue::obj(vec![
                ("type", JsonValue::str("constant")),
                ("profile", profile_to_json(p)?),
            ]),
            StreamKind::Cycle(ps) => JsonValue::obj(vec![
                ("type", JsonValue::str("cycle")),
                (
                    "profiles",
                    JsonValue::arr(
                        ps.iter()
                            .map(profile_to_json)
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                ),
            ]),
            StreamKind::Modulated {
                base,
                amplitude,
                period_slots,
            } => JsonValue::obj(vec![
                ("type", JsonValue::str("modulated")),
                ("base", profile_to_json(base)?),
                ("amplitude", json::finite_num("amplitude", *amplitude)?),
                (
                    "period_slots",
                    json::finite_num("period_slots", *period_slots)?,
                ),
            ]),
        })
    }

    /// Decodes a stream from its scenario-file form, reporting a
    /// [`ArStream::cycle`] / [`ArStream::modulated`] invariant failure as a
    /// positioned error (never a panic).
    ///
    /// # Errors
    ///
    /// Errors (with the offending position) on unknown `"type"` tags,
    /// unknown or missing keys, wrong types, and invalid parameters.
    pub fn from_json(v: &JsonValue) -> Result<ArStream, JsonError> {
        let mut obj = v.as_obj()?;
        let tag = obj.req("type")?;
        let stream = match tag.as_str()? {
            "constant" => ArStream::constant(profile_from_json(obj.req("profile")?)?),
            "cycle" => {
                let items = obj.req("profiles")?.as_array()?;
                let profiles = items
                    .iter()
                    .map(profile_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let positions: Vec<_> = items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| (format!("profile {i}"), item.pos))
                    .collect();
                json::positioned(check_cycle(&profiles), &positions, v)?;
                ArStream::cycle(profiles)
            }
            "modulated" => {
                let base = profile_from_json(obj.req("base")?)?;
                let amplitude = obj.req("amplitude")?.as_f64()?;
                let period_slots = obj.req("period_slots")?.as_f64()?;
                json::positioned(check_modulated(amplitude, period_slots), &[], v)?;
                ArStream::modulated(base, amplitude, period_slots)
            }
            other => {
                return Err(JsonError::at(
                    tag.pos,
                    format!(
                        "unknown stream type \"{other}\" \
                         (expected constant, cycle, or modulated)"
                    ),
                ))
            }
        };
        obj.finish()?;
        Ok(stream)
    }
}

/// Encodes a [`DepthProfile`] as its `{min_depth, arrivals, quality}`
/// table (the exact `from_parts` surface; PSNR columns are measurement
/// artifacts and never serialized).
fn profile_to_json(p: &DepthProfile) -> Result<JsonValue, JsonError> {
    Ok(JsonValue::obj(vec![
        ("min_depth", JsonValue::int(p.min_depth())),
        (
            "arrivals",
            JsonValue::arr(
                p.depths()
                    .map(|d| json::finite_num("arrival", p.arrival(d)))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        ),
        (
            "quality",
            JsonValue::arr(
                p.depths()
                    .map(|d| json::finite_num("quality", p.quality(d)))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        ),
    ]))
}

/// The [`ArStream::cycle`] invariants, naming the offending member first
/// (`"profiles: …"`, `"profile 3: …"`).
fn check_cycle(profiles: &[DepthProfile]) -> Result<(), String> {
    let Some(first) = profiles.first() else {
        return Err("profiles: need at least one frame profile".to_string());
    };
    match profiles.iter().position(|p| p.depths() != first.depths()) {
        Some(i) => Err(format!(
            "profile {i}: all frame profiles must share the same depth range"
        )),
        None => Ok(()),
    }
}

/// The [`ArStream::modulated`] invariants, naming the offending field
/// first.
fn check_modulated(amplitude: f64, period_slots: f64) -> Result<(), String> {
    if !(0.0..1.0).contains(&amplitude) {
        return Err(format!(
            "amplitude: amplitude must be in [0, 1), got {amplitude}"
        ));
    }
    if period_slots.is_nan() || period_slots <= 0.0 {
        return Err(format!(
            "period_slots: period_slots must be positive, got {period_slots}"
        ));
    }
    Ok(())
}

/// Decodes a depth profile, turning every `DepthProfile::from_parts` panic
/// condition into a positioned error.
fn profile_from_json(v: &JsonValue) -> Result<DepthProfile, JsonError> {
    let mut obj = v.as_obj()?;
    let min_depth = obj.req("min_depth")?.as_u8()?;
    let arrivals_node = obj.req("arrivals")?;
    let arrivals = finite_f64_array(arrivals_node)?;
    if arrivals.len() < 2 {
        return Err(JsonError::at(arrivals_node.pos, "need at least two depths"));
    }
    if arrivals.len() - 1 > usize::from(u8::MAX - min_depth) {
        return Err(JsonError::at(
            arrivals_node.pos,
            format!(
                "depth range overflows u8: min_depth {min_depth} + {} levels",
                arrivals.len()
            ),
        ));
    }
    if let Some(i) = arrivals.iter().position(|&a| a <= 0.0) {
        return Err(JsonError::at(
            arrivals_node.as_array()?[i].pos,
            format!("arrivals must be positive, got {}", arrivals[i]),
        ));
    }
    let quality_node = obj.req("quality")?;
    let quality = finite_f64_array(quality_node)?;
    if quality.len() != arrivals.len() {
        return Err(JsonError::at(
            quality_node.pos,
            format!(
                "quality has {} entries but arrivals has {}",
                quality.len(),
                arrivals.len()
            ),
        ));
    }
    obj.finish()?;
    Ok(DepthProfile::from_parts(min_depth, arrivals, quality))
}

/// Decodes an array of finite floats (the common profile-table shape).
pub(crate) fn finite_f64_array(v: &JsonValue) -> Result<Vec<f64>, JsonError> {
    v.as_array()?.iter().map(JsonValue::as_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_pointcloud::synth::SubjectProfile;

    fn profile(scale: f64) -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![scale * 100.0, scale * 400.0, scale * 1600.0],
            vec![0.0, 0.5, 1.0],
        )
    }

    #[test]
    fn constant_stream_is_constant() {
        let s = ArStream::constant(profile(1.0));
        assert_eq!(s.profile_at(0).arrival(5), 100.0);
        assert_eq!(s.profile_at(999).arrival(5), 100.0);
        assert_eq!(s.mean_arrival(6), 400.0);
        assert_eq!(s.depths(), 5..=7);
    }

    #[test]
    fn cycle_stream_rotates() {
        let s = ArStream::cycle(vec![profile(1.0), profile(2.0)]);
        assert_eq!(s.profile_at(0).arrival(5), 100.0);
        assert_eq!(s.profile_at(1).arrival(5), 200.0);
        assert_eq!(s.profile_at(2).arrival(5), 100.0);
        assert_eq!(s.mean_arrival(5), 150.0);
    }

    #[test]
    #[should_panic(expected = "same depth range")]
    fn cycle_rejects_mismatched_ranges() {
        let other = DepthProfile::from_parts(4, vec![1.0, 2.0], vec![0.0, 1.0]);
        let _ = ArStream::cycle(vec![profile(1.0), other]);
    }

    #[test]
    fn modulated_oscillates_and_preserves_quality() {
        let s = ArStream::modulated(profile(1.0), 0.5, 100.0);
        let at_zero = s.profile_at(0);
        let at_quarter = s.profile_at(25); // sin = 1 -> ×1.5
        let at_three_quarters = s.profile_at(75); // sin = -1 -> ×0.5
        assert!((at_zero.arrival(5) - 100.0).abs() < 1e-9);
        assert!((at_quarter.arrival(5) - 150.0).abs() < 1e-9);
        assert!((at_three_quarters.arrival(5) - 50.0).abs() < 1e-9);
        // Quality untouched by modulation.
        assert_eq!(at_quarter.quality(7), 1.0);
        assert_eq!(s.mean_arrival(5), 100.0);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn modulated_rejects_full_amplitude() {
        let _ = ArStream::modulated(profile(1.0), 1.0, 10.0);
    }

    /// Decodes `members` as a stream and asserts a positioned error with
    /// the very message the constructor panics with.
    fn assert_one_message(members: Vec<(&str, JsonValue)>, build: impl FnOnce() -> ArStream) {
        let text = JsonValue::obj(members).to_pretty();
        let err = ArStream::from_json(&json::parse(&text).unwrap()).unwrap_err();
        assert!(
            err.pos.is_some_and(|pos| pos.line > 0),
            "unpositioned: {err}"
        );
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).unwrap_err();
        assert_eq!(Some(&err.msg), payload.downcast_ref::<String>());
    }

    #[test]
    fn decoder_and_constructors_report_one_message() {
        let other = DepthProfile::from_parts(4, vec![1.0, 2.0], vec![0.0, 1.0]);
        let cycle = |profiles: &[&DepthProfile]| {
            let items = profiles.iter().map(|p| profile_to_json(p).unwrap());
            vec![
                ("type", JsonValue::str("cycle")),
                ("profiles", JsonValue::arr(items.collect())),
            ]
        };
        let modulated = |amplitude, period_slots| {
            vec![
                ("type", JsonValue::str("modulated")),
                ("base", profile_to_json(&profile(1.0)).unwrap()),
                ("amplitude", JsonValue::num(amplitude)),
                ("period_slots", JsonValue::num(period_slots)),
            ]
        };
        assert_one_message(cycle(&[]), || ArStream::cycle(Vec::new()));
        assert_one_message(cycle(&[&profile(1.0), &other]), || {
            ArStream::cycle(vec![profile(1.0), other.clone()])
        });
        assert_one_message(modulated(1.0, 10.0), || {
            ArStream::modulated(profile(1.0), 1.0, 10.0)
        });
        assert_one_message(modulated(0.5, 0.0), || {
            ArStream::modulated(profile(1.0), 0.5, 0.0)
        });
    }

    #[test]
    fn from_sequence_measures_frames() {
        let seq = FrameSequence::new(SubjectProfile::Loot, 4).with_target_points(2_000);
        let s = ArStream::from_sequence(&seq, 3..=5, 2).unwrap();
        // Frames 0 and 2 measured.
        let p0 = s.profile_at(0);
        let p1 = s.profile_at(1);
        assert_eq!(p0.depths(), 3..=5);
        // Different poses -> different occupancy (almost surely).
        assert_ne!(p0.arrival(5), p1.arrival(5));
        // Cycles with period 2.
        assert_eq!(s.profile_at(0).arrival(5), s.profile_at(2).arrival(5));
    }
}
