//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans stay in memory and are summarised when the
//! traced window ends; the untraced window records none.

use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The enclosing span (the operation or request that caused this one).
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Open a span that stays open until [`Tracer::close`]: operations
    /// whose body makes further traced calls.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed duration (ms) of the layer spans: the direct children of
    /// top-level operation spans. Whatever the traced window spent
    /// outside them is unattributed.
    pub fn attributed_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(Span::ms)
            .sum()
    }
}
