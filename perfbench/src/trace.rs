//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded by the benchmark around
//! the public call it makes: name, start, end, parent span and the id
//! of the request it served. Spans stay in memory while the workload
//! runs and are written out once at the end; a layer's self time is
//! its span's duration minus the time its child spans cover.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open or recorded span; `NONE` when tracing is off.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub req: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end_ns;
        }
    }

    /// Record a span whose bounds were measured elsewhere: a duration a
    /// public getter reports (`map_time()`), or a server-side latency
    /// carried back on the wire. `start` is clamped to the epoch.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        dur_ns: u64,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Set the end of a span opened with [`Tracer::record`] and a
    /// zero duration, once the reply it waited for has arrived.
    pub fn end_at(&mut self, id: SpanId, end: Instant) {
        if id == NONE {
            return;
        }
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self times in ms of every span called `name`: duration minus
    /// the summed durations of its direct children.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child.get_mut(s.parent) {
                *c += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Median over the `root` spans of the share of each that its
    /// child spans cover (1 - self time / duration).
    pub fn covered_share(&self, root: &str) -> f64 {
        let shares: Vec<f64> = self
            .durations_ms(root)
            .iter()
            .zip(self.self_ms(root))
            .filter(|(&d, _)| d > 0.0)
            .map(|(&d, s)| 1.0 - s / d)
            .collect();
        crate::stats::median(&shares)
    }

    /// Write every span as one tab-separated line:
    /// `id parent req name start_ns end_ns` (parent `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        let root = t.record("step", NONE, 1, t0, 10_000_000);
        let mid = t.record("set_view", root, 1, t0, 6_000_000);
        t.record("map", mid, 1, t0, 4_000_000);
        assert_eq!(t.self_ms("step"), vec![4.0]);
        assert_eq!(t.self_ms("set_view"), vec![2.0]);
        assert_eq!(t.self_ms("map"), vec![4.0]);
        assert_eq!(t.durations_ms("step"), vec![10.0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", NONE, 0);
        t.close(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
    }
}
