//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the traced run only).
//!
//! Every thread owns a [`Tracer`]; spans carry a name, start and end on a
//! shared epoch, the index of their parent span and a request id.  A
//! disabled tracer records nothing, so the untraced path pays one branch
//! per call site.  At exit the threads' spans are merged, written out as a
//! tab-separated file and folded into per-name self times (a span's
//! duration minus the part its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch and state.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (or [`ROOT`] when tracing is off).
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        if span != ROOT {
            let now = self.now_ns();
            self.spans[span as usize].end_ns = now;
        }
    }

    /// Records an already timed interval (for work timed by the caller).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                parent,
                req,
            });
        }
    }

    /// Runs `body` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        body: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, parent, req);
        let out = body();
        self.end(s);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name in milliseconds, with span counts.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            let entry = out.entry(s.name).or_default();
            entry.0 += own as f64 / 1e6;
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let root = t.begin("root", ROOT, 1);
        let child = t.begin("child", root, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let times = t.self_times();
        assert!(times["child"].0 >= 2.0);
        assert!(times["root"].0 < times["child"].0);

        let mut other = t.fork();
        let r = other.begin("other", ROOT, 2);
        let c = other.begin("inner", r, 2);
        other.end(c);
        other.end(r);
        t.absorb(other);
        assert_eq!(t.len(), 4);
        assert_eq!(t.spans[3].parent, 2);

        let mut off = Tracer::new(false, epoch);
        let s = off.begin("x", ROOT, 0);
        off.end(s);
        assert_eq!(off.len(), 0);
    }
}
