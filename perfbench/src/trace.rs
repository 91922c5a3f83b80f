//! In-memory span recorder for the traced run.
//!
//! The benchmark brackets each call it makes into a layer's public
//! function with a span. Spans are pushed to a `Vec` while the workload
//! runs and only aggregated or written out after it ends, so a traced pass
//! pays one clock read pair and one push per call. An untraced pass never
//! reads the clock on behalf of the tracer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `fleetd.tick`.
    pub name: &'static str,
    /// Sub-buckets the span's time is also credited to, e.g. the heuristic
    /// and grouping of a policy evaluation (`""` when unused).
    pub tags: [&'static str; 2],
    /// The pass that caused the span (all spans of a pass share it).
    pub pass: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Collects spans for the passes that run traced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pass: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::start_pass`] enables it.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            pass: 0,
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Begin pass `pass`, recording its spans only if `traced`.
    pub fn start_pass(&mut self, pass: u32, traced: bool) {
        self.pass = pass;
        self.enabled = traced;
    }

    /// Suspend (`false`) or resume (`true`) recording within a pass.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether the current pass is traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Clock read for a span start; `None` (no clock read) when untraced.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, start: Option<Instant>, name: &'static str) {
        if let Some(t) = start {
            self.record(name, ["", ""], t, Instant::now());
        }
    }

    /// Record a span whose bounds the caller measured itself.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        tags: [&'static str; 2],
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tags,
            pass: self.pass,
            start_ns,
            dur_ns,
        });
    }

    /// Time `f` as one span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.begin();
        let out = f();
        self.end(t, name);
        out
    }

    /// Summed span seconds per `<name>.busy_s` and `<name>.<tag>.busy_s`
    /// key, one map per traced pass.
    pub fn busy_by_pass(&self) -> BTreeMap<u32, BTreeMap<String, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
        for s in &self.spans {
            let per = out.entry(s.pass).or_default();
            let secs = s.dur_ns as f64 * 1e-9;
            *per.entry(format!("{}.busy_s", s.name)).or_default() += secs;
            for tag in s.tags.iter().filter(|t| !t.is_empty()) {
                *per.entry(format!("{}.{tag}.busy_s", s.name)).or_default() += secs;
            }
        }
        out
    }

    /// Write every span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "pass\tname\ttags\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let tags = s
                .tags
                .iter()
                .filter(|t| !t.is_empty())
                .copied()
                .collect::<Vec<_>>();
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.pass,
                s.name,
                tags.join(","),
                s.start_ns,
                s.dur_ns
            )?;
        }
        w.flush()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_passes_record_nothing() {
        let mut tr = Tracer::new();
        tr.start_pass(0, false);
        assert!(tr.begin().is_none());
        tr.span("x", || ());
        assert!(tr.is_empty());
        tr.start_pass(1, true);
        tr.span("x", || ());
        let t = Instant::now();
        tr.record("e", ["a", "b"], t, t);
        assert_eq!(tr.len(), 2);
        let busy = tr.busy_by_pass();
        let keys: Vec<&String> = busy[&1].keys().collect();
        assert_eq!(keys, ["e.a.busy_s", "e.b.busy_s", "e.busy_s", "x.busy_s"]);
    }
}
