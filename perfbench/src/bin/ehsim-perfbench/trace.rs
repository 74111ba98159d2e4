//! In-memory span recorder. Spans are opened by the benchmark around
//! each public call into a layer (name, start, end, parent); nothing
//! inside the library is instrumented. With recording off, `span` is a
//! plain call and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Closed-loop iteration the span belongs to (the request id).
    pub iteration: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Name of the per-iteration root span; its self time is the part of
/// an iteration no layer span covers.
pub const ROOT: &str = "iteration";

pub struct Tracer {
    on: bool,
    epoch: Instant,
    iteration: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (no-op while off); pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Starts a new iteration (the id shared by its spans).
    pub fn next_iteration(&mut self) {
        self.iteration += 1;
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-iteration durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total self time (s) per layer over all recorded spans: a span's
    /// duration minus its children's, credited to the layer named
    /// before the first `.` of the span name. The root span's self time
    /// is credited to `"unattributed"`.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_total = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_total[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = if s.name == ROOT {
                "unattributed"
            } else {
                s.name.split('.').next().unwrap_or(s.name)
            };
            *out.entry(layer.to_string()).or_insert(0.0) += s.secs() - child_total[i];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"iteration\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.iteration,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        let root = t.enter(ROOT);
        t.span("core.a", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.span("doe.b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let st = t.self_times();
        let total = t.durations(ROOT)[0];
        let sum: f64 = st.values().sum();
        assert!(
            (sum - total).abs() < 1e-9,
            "self times must add up to the root"
        );
        assert!(st["core"] >= 0.005 && st["doe"] >= 0.002);
        // Off: no spans recorded.
        t.set_on(false);
        t.span("core.c", || ());
        assert_eq!(t.span_count(), 3);
    }
}
