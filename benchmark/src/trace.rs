//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel parent for root spans.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`], or [`ROOT`].
    pub parent: u32,
    /// Request (page, build or request id) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span buffer sharing one clock origin with its siblings.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        })
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let r = f();
        self.close(id);
        r
    }

    /// Record an already-measured span.
    pub fn push(&mut self, s: Span) -> u32 {
        self.spans.push(s);
        (self.spans.len() - 1) as u32
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Mean duration of spans named `name`, in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns()));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover (children never overlap one another here —
    /// each tracer records one thread's strictly nested calls).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child.get_mut(s.parent as usize) {
                *c += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The trace as JSON: every span plus a per-name self-time summary.
    pub fn to_json(&self) -> String {
        use serde::Value;
        let selfs = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &own)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        if s.parent == ROOT {
                            Value::Null
                        } else {
                            Value::UInt(s.parent as u64)
                        },
                    ),
                    ("req".into(), Value::UInt(s.req)),
                    ("self_ns".into(), Value::UInt(own)),
                ])
            })
            .collect();
        let summary = by_name
            .into_iter()
            .map(|(name, (n, total, own))| {
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("count".into(), Value::UInt(n)),
                        ("total_ns".into(), Value::UInt(total)),
                        ("self_ns".into(), Value::UInt(own)),
                    ]),
                )
            })
            .collect();
        let doc = Value::Map(vec![
            ("summary".into(), Value::Map(summary)),
            ("spans".into(), Value::Seq(spans)),
        ]);
        serde_json::to_string(&doc).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push(Span {
            name: "page",
            start_ns: 0,
            end_ns: 100,
            parent: ROOT,
            req: 1,
        });
        t.push(Span {
            name: "parse",
            start_ns: 10,
            end_ns: 40,
            parent: root,
            req: 1,
        });
        t.push(Span {
            name: "match",
            start_ns: 50,
            end_ns: 70,
            parent: root,
            req: 1,
        });
        assert_eq!(t.self_ns(), vec![50, 30, 20]);
        assert!(t.to_json().contains("\"self_ns\":50"));
    }
}
