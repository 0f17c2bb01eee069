//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end, its parent span and the job it
//! served. Spans stay in memory until the run ends; a layer's self time
//! is its spans' durations minus the part their child spans cover. The
//! layer is the name's prefix before the first dot (`results.store_load`
//! belongs to `results`).

use gm_stats::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u32>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open. `f` must not unwind: callers isolate panics inside it.
    pub fn span<R>(&self, name: &'static str, job: Option<u32>, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut s = self.state.borrow_mut();
            let id = s.spans.len();
            let parent = s.open.last().copied();
            let start_ns = self.now_ns();
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job,
            });
            s.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.spans[id].end_ns = end_ns;
        s.open.pop();
        out
    }

    /// The recorded spans; the tracer is spent.
    pub fn into_spans(self) -> Vec<Span> {
        self.state.into_inner().spans
    }
}

/// Totals per span name and per layer.
#[derive(Debug, Default)]
pub struct Summary {
    /// name -> (calls, total ns, self ns)
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// layer -> self ns
    pub self_by_layer: BTreeMap<&'static str, u64>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut sum = Summary::default();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = s.ns().saturating_sub(child);
            let e = sum.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own;
            *sum.self_by_layer.entry(s.layer()).or_default() += own;
        }
        sum
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.self_by_layer.get(layer).copied().unwrap_or(0)
    }
}

/// Durations in ms of every span named `name`, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// The run artifact: every span plus the per-layer self-time summary.
pub fn artifact(spans: &[Span], summary: &Summary, passes: usize, header: Json) -> Json {
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / passes.max(1) as f64;
    let mut layers = Json::object();
    for (layer, ns) in &summary.self_by_layer {
        layers.set(layer, per_pass_ms(*ns));
    }
    let mut names = Vec::new();
    for (name, (calls, total, own)) in &summary.by_name {
        let mut j = Json::object();
        j.set("name", *name)
            .set("calls", *calls)
            .set("total_ms", *total as f64 / 1e6)
            .set("self_ms", *own as f64 / 1e6);
        names.push(j);
    }
    let list = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut j = Json::object();
            j.set("id", id)
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set(
                    "job",
                    s.job.map_or(Json::Null, |j| Json::from(u64::from(j))),
                );
            j
        })
        .collect();
    let mut doc = header;
    doc.set("traced_passes", passes)
        .set("self_ms_per_pass_by_layer", layers)
        .set("by_name", Json::Array(names))
        .set("spans", Json::Array(list));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "runner.sweep",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: None,
            },
            Span {
                name: "machine.run",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                job: Some(0),
            },
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.layer_self_ns("runner"), 40);
        assert_eq!(s.layer_self_ns("machine"), 60);
        assert_eq!(s.total_ns("runner.sweep"), 100);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let t = Tracer::new();
        t.span("a.outer", None, || t.span("b.inner", Some(3), || ()));
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, Some(3));
        assert!(spans[0].ns() >= spans[1].ns());
    }
}
