//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name `layer/stage`, a start and an end (ns since the
//! trace origin), the span that caused it, a request id and the thread
//! that ran it. Spans stay in memory and are written out at the end. Root
//! spans (no parent) are named `bench/…` and frame a thread's share of a
//! traced phase; every other span is a layer span.
//!
//! A span's self time is its duration minus its children's; children of
//! one span run on its thread and nest strictly, so they never overlap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `thread`, timing from the shared `origin`.
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name` for `request`; spans `f` opens become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] around a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.span(name, request, |_| f())
    }
}

/// The merged spans of every thread of a traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a thread's spans (re-basing their parent indices).
    pub fn absorb(&mut self, tracer: Tracer) {
        let base = self.spans.len();
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total self time, in seconds, of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum();
        ns as f64 / 1e9
    }

    /// Total self time, in seconds, of every span of `layer`.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        let own = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.split('/').next() == Some(layer))
            .map(|(_, &t)| t)
            .sum();
        ns as f64 / 1e9
    }

    /// Traced wall time in seconds: the summed duration of the root spans,
    /// i.e. each thread's time inside its traced phases.
    pub fn wall_s(&self) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Layer self time ÷ traced wall time: the share of traced time spent
    /// inside calls into the program rather than in the benchmark's own
    /// bookkeeping.
    pub fn coverage(&self) -> f64 {
        let own = self.self_times_ns();
        let covered: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent.is_some())
            .map(|(_, &t)| t)
            .sum();
        let wall = self.wall_s();
        if wall == 0.0 {
            0.0
        } else {
            covered as f64 / 1e9 / wall
        }
    }

    /// Writes one JSON object per span:
    /// `{"id","name","start_ns","end_ns","parent","request","thread"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(Instant::now(), 0);
        tr.span("bench/run", 0, |tr| {
            tr.span("engine.cache/get", 1, |tr| {
                spin(2000);
                tr.leaf("kc/compile", 1, || spin(3000));
            });
        });
        let mut trace = Trace::default();
        trace.absorb(tr);
        let cache = trace.self_s("engine.cache/get");
        let kc = trace.layer_self_s("kc");
        assert!(kc >= 0.003 && cache >= 0.002, "kc {kc} cache {cache}");
        assert!(cache < kc + 0.002 + 0.001);
        let cov = trace.coverage();
        assert!(cov > 0.9 && cov <= 1.0, "coverage {cov}");
        assert!((trace.wall_s() - (cache + kc)).abs() < 0.001 + trace.wall_s() * (1.0 - cov));
    }
}
