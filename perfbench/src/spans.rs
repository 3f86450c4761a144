//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's code around each call into a
//! layer, kept in memory, and written out once at the end of the run.
//! Each span has a name, a start and end (nanoseconds since the recorder
//! was created), the index of its parent span, and on the serving
//! workload the id of the request it belongs to.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `litho.peb_run` or `model.encoder2.bwd`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (serving workload only).
    pub request: Option<u64>,
}

/// An in-memory span store shared by the benchmark's threads.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &str, parent: Option<usize>, request: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        let mut g = self.spans.lock().expect("span store poisoned");
        g.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        g.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, None);
        let r = f();
        self.close(id);
        r
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let g = self.spans.lock().expect("span store poisoned");
        g.iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Serialises every span as one JSON document.
    pub fn to_json(&self) -> String {
        let g = self.spans.lock().expect("span store poisoned");
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in g.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
