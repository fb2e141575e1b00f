//! Spans recorded around the public calls into each layer.
//!
//! A [`Probe`] sees `enter(name)` / `exit()` pairs at every layer boundary
//! the drivers cross. The untraced drivers use [`SlotClock`], which reads
//! the clock only at the boundary of each top-level unit (a slot, a frame,
//! a replay); the traced run uses [`Tracer`], which keeps every span in
//! memory — name, start, end, parent and run id — and writes them out when
//! the run ends. Self time is derived from the spans afterwards.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::now_ns;

/// Receives layer-boundary events from a driver.
pub trait Probe {
    /// A span named `name` starts (nested inside the innermost open span).
    fn enter(&mut self, name: &'static str);
    /// The innermost open span ends.
    fn exit(&mut self);
}

/// A probe that records nothing: the untraced drivers' calls, which read
/// the clock themselves.
#[derive(Debug, Default)]
pub struct Quiet;

impl Probe for Quiet {
    fn enter(&mut self, _name: &'static str) {}
    fn exit(&mut self) {}
}

/// Times only the outermost spans: one clock read on each side of every
/// top-level unit, nothing inside it.
#[derive(Debug, Default)]
pub struct SlotClock {
    depth: usize,
    start: u64,
    /// Durations of the top-level spans, in nanoseconds.
    pub durations_ns: Vec<f64>,
}

impl Probe for SlotClock {
    fn enter(&mut self, _name: &'static str) {
        if self.depth == 0 {
            self.start = now_ns();
        }
        self.depth += 1;
    }

    fn exit(&mut self) {
        self.depth -= 1;
        if self.depth == 0 {
            self.durations_ns
                .push(now_ns().saturating_sub(self.start) as f64);
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`octree.build`, `uplink.step_slot`, …).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds on the benchmark clock.
    pub start_ns: u64,
    /// End, in nanoseconds on the benchmark clock.
    pub end_ns: u64,
    /// Which pass of the traced run recorded it.
    pub run: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: f64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: f64,
}

/// The in-memory span recorder of the traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Starts a new pass: later spans carry the next run id, which it
    /// returns.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Durations (ns) of the spans named `name` of pass `run`, in order.
    pub fn durations_in(&self, run: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// For each span named `parent` of pass `run`, in order, the summed
    /// duration (ns) of its direct children whose names are in `children`.
    pub fn children_in(&self, run: u32, parent: &str, children: &[&str]) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run == run && s.name == parent {
                sums.insert(i, 0.0);
            } else if children.contains(&s.name) {
                if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
                    *sum += s.duration_ns();
                }
            }
        }
        sums.into_values().collect()
    }

    /// For each span named `parent`, the summed duration (ns) of its
    /// direct children named `child` — the per-slot (or per-frame) cost of
    /// a phase that may be entered more than once per unit.
    pub fn per_parent(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent {
                sums.entry(i).or_insert(0.0);
            }
        }
        for s in &self.spans {
            if s.name != child {
                continue;
            }
            if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
                *sum += s.duration_ns();
            }
        }
        sums.into_values().collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += (s.duration_ns() - children).max(0.0);
        }
        out
    }

    /// The spans as JSON lines: `{"run", "id", "parent", "name",
    /// "start_ns", "end_ns"}`, one per span in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Probe for Tracer {
    fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
            run: self.run,
        });
        self.open.push(id);
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = now_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_per_parent_sums_repeats() {
        let mut t = Tracer::new();
        t.enter("slot");
        t.enter("a");
        t.exit();
        t.enter("a");
        t.exit();
        t.exit();
        let totals = t.totals();
        assert_eq!(totals["slot"].count, 1);
        assert_eq!(totals["a"].count, 2);
        let slot = &t.spans()[0];
        assert!(totals["slot"].self_ns <= slot.duration_ns());
        let per = t.per_parent("slot", "a");
        assert_eq!(per.len(), 1);
        assert_eq!(per[0], t.durations("a").iter().sum::<f64>());
        assert_eq!(t.children_in(0, "slot", &["a"]), per);
        assert_eq!(t.children_in(0, "slot", &["b"]), [0.0]);
        assert!(t.children_in(1, "slot", &["a"]).is_empty());
        assert_eq!(t.durations_in(0, "a"), t.durations("a"));
    }
}
