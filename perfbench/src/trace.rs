//! In-memory spans recorded around the benchmark's calls into each layer,
//! with per-layer self time and a JSON-lines dump written at the end.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children (the union of their intervals, clipped to the
//! parent), so overlapping children are not double-counted.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval. Times are seconds since the trace's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A list of spans; parents are indices into the same list.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records a span and returns its index (the handle children name as
    /// their parent). `end` is clamped to at least `start`.
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start,
            end: end.max(start),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Appends another trace, re-basing its parent indices.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Total self time per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer).or_insert(0.0) += t;
        }
        out
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_time(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.name,
                s.layer,
                s.start * 1e6,
                s.end * 1e6,
                parent,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Trace::new();
        let root = t.push("op", "client", 0.0, 10.0, None, 1);
        let mid = t.push("recv", "serve", 1.0, 9.0, Some(root), 1);
        t.push("walk", "tree", 2.0, 5.0, Some(mid), 1);
        let st = t.self_times();
        assert!(close(st[0], 2.0));
        assert!(close(st[1], 5.0));
        assert!(close(st[2], 3.0));
        // Self times partition the root.
        assert!(close(st.iter().sum::<f64>(), t.root_time()));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Trace::new();
        let root = t.push("op", "client", 0.0, 10.0, None, 7);
        t.push("a", "serve", 1.0, 4.0, Some(root), 7);
        t.push("b", "serve", 3.0, 6.0, Some(root), 7);
        // Contained entirely in `a ∪ b`.
        t.push("c", "serve", 2.0, 5.0, Some(root), 7);
        // Sticks out past the parent: only the inside part counts.
        t.push("d", "serve", 8.0, 12.0, Some(root), 7);
        let st = t.self_times();
        // Covered: [1, 6] ∪ [8, 10] = 7.
        assert!(close(st[0], 3.0), "{}", st[0]);
        let by_layer = t.self_time_by_layer();
        assert!(close(by_layer["client"], 3.0));
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Trace::new();
        a.push("x", "client", 0.0, 1.0, None, 0);
        let mut b = Trace::new();
        let r = b.push("y", "client", 0.0, 2.0, None, 1);
        b.push("z", "serve", 0.5, 1.5, Some(r), 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(close(a.self_times()[1], 1.0));
    }
}
