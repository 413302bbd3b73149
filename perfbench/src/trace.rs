//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that caused it, and the
//! run id every span of one run shares. Spans stay in memory while the
//! run measures and are written out as JSON lines when it ends. A
//! disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    pub run_id: String,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Guard<'_> {
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: (self.start - self.tracer.t0).as_nanos() as u64,
            end_ns: (end - self.tracer.t0).as_nanos() as u64,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Tracer {
        Tracer {
            enabled,
            run_id,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` under `parent`.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        let id = if self.enabled {
            NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            tracer: self,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, parent);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// children cover, summed over spans by layer (the name up to the
    /// first `.`; a root span's layer is its whole name).
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer.to_string()).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Span ids, unique within the process; 0 marks a disabled span.
static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true, "t".into());
        {
            let root = t.span("run", None);
            let _c = t.span("session.push", root.id());
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let by = t.self_ms_by_layer();
        assert!(by["session"] >= 4.0);
        assert!(by["run"] < by["session"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, "t".into());
        t.time("session.push", None, || ());
        assert!(t.spans().is_empty());
    }
}
