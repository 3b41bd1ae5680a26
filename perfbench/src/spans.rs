//! Host-time spans recorded around each call into a layer.
//!
//! Spans are kept in memory and written out once, when the benchmark
//! ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost span opened by [`Tracer::enter`].
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON Lines: name, start, end, parent and self time,
    /// all in nanoseconds.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns, self_ns[i]
            ));
        }
        out
    }
}

/// Each span's duration minus the union of its children's intervals,
/// clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(s.start_ns, s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            span(45, 48, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(10, 20, None),
            span(5, 15, Some(0)),
            span(18, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn tracer_nests_and_closes_spans() {
        let mut tr = Tracer::new();
        tr.enter("outer");
        let v = tr.span("inner", || 7);
        tr.exit();
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let self_ns = self_times(s);
        assert_eq!(
            self_ns[0] + (s[1].end_ns - s[1].start_ns),
            s[0].end_ns - s[0].start_ns
        );
    }
}
