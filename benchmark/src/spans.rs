//! In-memory span recording and the self-time arithmetic.
//!
//! A span covers one call into a layer, timed from the benchmark's side
//! of the call. Spans are kept in memory and written out once, when the
//! run ends, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::time::Instant;

use stem::sim_core::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recording order (also the span's position).
    pub id: usize,
    /// The span that made this call, if any.
    pub parent: Option<usize>,
    /// What was called.
    pub name: String,
    /// The crate (or serve layer) the call went into.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the request (or input stream) the call served.
    pub request: Option<usize>,
    /// Accesses the call processed, where that is meaningful.
    pub accesses: u64,
}

impl Span {
    /// Wall time of the call in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            layer,
            start_ns,
            end_ns: start_ns,
            request,
            accesses: 0,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span with no children.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.begin(name, layer, parent, request);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Sets the access count of a closed span.
    pub fn set_accesses(&mut self, id: usize, accesses: u64) {
        self.spans[id].accesses = accesses;
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Adds a span measured elsewhere (client-side timestamps), given as
    /// instants on this process's monotonic clock.
    pub fn push_measured(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            request,
            accesses: 0,
        });
        id
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |x| Json::Int(x as i64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("id".into(), Json::Int(s.id as i64)),
                        ("parent".into(), opt(s.parent)),
                        ("name".into(), Json::str(s.name.clone())),
                        ("layer".into(), Json::str(s.layer)),
                        ("start_ns".into(), Json::Int(s.start_ns as i64)),
                        ("end_ns".into(), Json::Int(s.end_ns as i64)),
                        ("request".into(), opt(s.request)),
                        ("accesses".into(), Json::Int(s.accesses as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time in nanoseconds (indexed like `spans`): its
/// duration minus the part of its interval that its children cover.
/// Overlapping children count once; a child sticking out of its parent
/// counts only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Self time summed per layer, in seconds, with the number of spans.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.layer).or_default();
        entry.0 += own as f64 / 1e9;
        entry.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            request: None,
            accesses: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover 10..40 once: 30 ns.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            // A disjoint child covers 60..70.
            span(3, Some(0), 60, 70),
            // A grandchild is not subtracted from the root.
            span(4, Some(3), 62, 68),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 4, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, None, 50, 100), span(1, Some(0), 0, 60)];
        assert_eq!(self_times(&spans), vec![40, 60]);
        let spans = vec![span(0, None, 0, 10), span(1, Some(0), 20, 30)];
        assert_eq!(self_times(&spans), vec![10, 10]);
    }

    #[test]
    fn layer_totals_sum_self_times() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(0), 50, 75),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["root"], (25e-9, 1));
        assert_eq!(by_layer["child"], (75e-9, 2));
    }

    #[test]
    fn recorded_spans_nest_in_time() {
        let mut tr = Tracer::new();
        let outer = tr.begin("outer", "root", None, Some(3));
        let ((), inner) = tr.time("inner", "child", Some(outer), Some(3), || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        tr.end(outer);
        tr.set_accesses(outer, 7);
        let s = tr.spans();
        assert!(s[outer].start_ns <= s[inner].start_ns);
        assert!(s[inner].end_ns <= s[outer].end_ns);
        assert_eq!(s[outer].accesses, 7);
        assert_eq!(s[inner].parent, Some(outer));
        let json = tr.to_json().to_string();
        assert!(json.contains("\"layer\":\"child\"") || json.contains("\"layer\": \"child\""));
    }
}
