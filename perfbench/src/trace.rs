//! The traced pass's span recorder.
//!
//! A span brackets one call the benchmark makes into a layer of the
//! program: an HTTP request, an annual run, a model training, a campaign.
//! Spans are kept in memory (one `Vec` push per span, no I/O on the timed
//! path) and reduced when the run ends. With tracing off every method is a
//! no-op, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique within the run, > 0).
    pub id: u64,
    /// Enclosing span, 0 for a top-level span.
    pub parent: u64,
    /// Request (or job) id shared by every span of one request.
    pub request: u64,
    /// Layer-qualified call name, e.g. `serve.step`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Shared span sink; clones record into the same buffer. A disabled
/// tracer records nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id (pass as `parent` to nest a child).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// An enabled tracer whose epoch is now.
    #[must_use]
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    fn now_ns(inner: &Inner) -> u64 {
        u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (0 for top level) for `request`
    /// (0 → the span starts a new request and uses its own id).
    #[must_use]
    pub fn begin(&self, name: &'static str, parent: u64, request: u64) -> Option<Open> {
        let inner = self.inner.as_ref()?;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let request = if request == 0 { id } else { request };
        Some(Open {
            id,
            parent,
            request,
            name,
            start_ns: Self::now_ns(inner),
        })
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, open: Option<Open>) {
        let (Some(inner), Some(o)) = (self.inner.as_ref(), open) else {
            return;
        };
        let end_ns = Self::now_ns(inner);
        let span = Span {
            id: o.id,
            parent: o.parent,
            request: o.request,
            name: o.name,
            start_ns: o.start_ns,
            end_ns,
        };
        inner.spans.lock().expect("span buffer").push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent, 0);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.lock().expect("span buffer").clone())
    }
}

/// Per-name totals: `(calls, total ns)`.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
    }
    out
}

/// Total duration of top-level spans (parent 0).
#[must_use]
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == 0).map(Span::ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: id,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn totals_and_top_level_time() {
        let spans = vec![
            span(2, 1, "child", 10, 40),
            span(3, 2, "grandchild", 15, 25),
            span(1, 0, "root", 0, 100),
            span(4, 0, "root", 200, 250),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"], (2, 150));
        assert_eq!(t["child"], (1, 30));
        assert_eq!(t["grandchild"], (1, 10));
        assert_eq!(top_level_ns(&spans), 150);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_requests_propagate() {
        let off = Tracer::disabled();
        assert!(off.begin("x", 0, 0).is_none());
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());

        let on = Tracer::enabled();
        let outer = on.begin("req", 0, 0);
        let request = outer.map(|o| o.request).unwrap();
        let inner = on.begin("part", outer.unwrap().id(), request);
        on.end(inner);
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == request));
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
