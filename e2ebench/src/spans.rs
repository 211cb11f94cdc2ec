//! The benchmark's own span recorder: batch-tagged, nested spans recorded
//! around calls into the system's public API, kept in memory and written
//! out as a Chrome trace when the run ends.

use crate::util::{median, quote};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
struct Span {
    /// Rung name, `<crate>.<what>`.
    name: &'static str,
    /// Which ladder the span belongs to (`train`, `infer`, `serve`).
    ladder: &'static str,
    /// Batch id within its ladder.
    batch: u64,
    /// Start, ns since the recorder was created.
    start_ns: u64,
    /// End, ns since the recorder was created.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. `begin` opens a span whose parent
/// is the innermost open one; `end` closes it.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-rung totals over every span of one name in one ladder.
#[derive(Clone, Copy, Debug, Default)]
pub struct RungStats {
    /// Number of spans.
    pub count: usize,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time: duration minus the time child spans cover (ns).
    pub self_ns: u64,
}

impl Recorder {
    /// An empty recorder whose time origin is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle for [`Recorder::end`].
    pub fn begin(&mut self, ladder: &'static str, name: &'static str, batch: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            ladder,
            batch,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        ladder: &'static str,
        name: &'static str,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(ladder, name, batch);
        let out = f();
        self.end(id);
        out
    }

    /// Median duration (ms) of the spans named `name` in `ladder`.
    pub fn median_ms(&self, ladder: &str, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.ladder == ladder && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        median(&durations)
    }

    fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        covered
    }

    /// Count, total and self time per `(ladder, name)`, in a stable order.
    pub fn rungs(&self) -> BTreeMap<(&'static str, &'static str), RungStats> {
        let covered = self.children_ns();
        let mut out: BTreeMap<_, RungStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = out.entry((s.ladder, s.name)).or_default();
            r.count += 1;
            r.total_ns += s.dur_ns();
            r.self_ns += s.dur_ns().saturating_sub(covered[i]);
        }
        out
    }

    /// Ladder closure for every span named `parent` in `ladder`: the
    /// largest share of a parent's duration its children leave uncovered
    /// (its self time over its duration). Returns `(worst share, spans
    /// checked)`.
    pub fn worst_residual(&self, ladder: &str, parent: &str) -> (f64, usize) {
        let covered = self.children_ns();
        let mut worst = 0.0f64;
        let mut n = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.ladder != ladder || s.name != parent || s.dur_ns() == 0 {
                continue;
            }
            n += 1;
            let resid = s.dur_ns().saturating_sub(covered[i]) as f64 / s.dur_ns() as f64;
            worst = worst.max(resid);
        }
        (worst, n)
    }

    /// Chrome trace-event JSON of every span (open in Perfetto).
    pub fn chrome_json(&self, provenance: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"batch\": {}}}}}",
                quote(s.name),
                quote(s.ladder),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.batch
            );
        }
        let _ = write!(out, "\n], \"otherData\": {provenance}}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_closure() {
        let mut rec = Recorder::new();
        let p = rec.begin("t", "core.step", 0);
        rec.time("t", "nn.forward", 0, || ());
        rec.time("t", "tensor.backward", 0, || ());
        rec.end(p);
        let rungs = rec.rungs();
        let step = rungs[&("t", "core.step")];
        let fwd = rungs[&("t", "nn.forward")];
        let bwd = rungs[&("t", "tensor.backward")];
        assert_eq!((step.count, fwd.count, bwd.count), (1, 1, 1));
        assert_eq!(fwd.self_ns, fwd.total_ns);
        assert_eq!(step.self_ns, step.total_ns - fwd.total_ns - bwd.total_ns);
        let (worst, n) = rec.worst_residual("t", "core.step");
        assert_eq!(n, 1);
        if step.total_ns > 0 {
            assert_eq!(worst, step.self_ns as f64 / step.total_ns as f64);
        }
        assert!(rec
            .chrome_json("{}")
            .contains("\"name\": \"tensor.backward\""));
    }
}
