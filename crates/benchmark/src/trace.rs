//! In-memory span recorder and allocation counter for the traced run.
//!
//! The benchmark measures every layer from outside: a span is recorded
//! around each call the driver makes into a layer's public API, kept in
//! memory, and written out only when the run ends. Traced runs are
//! single-threaded, so the recorder is a `RefCell`, not a lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One call across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// The interval or task the call worked on; spans caused by one
    /// interval share it.
    pub tag: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only calls through, so
/// one driver serves the traced run and its untraced twin.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: RefCell::default(), open: RefCell::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, tag: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: 0, end_ns: 0, parent, tag });
            spans.len() as u32 - 1
        };
        self.open.borrow_mut().push(index);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let span = &mut self.spans.borrow_mut()[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// What the spans of one traced pass add up to.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// `(name, total ns, self ns)`, in first-seen order.
    rows: Vec<(&'static str, u64, u64)>,
}

impl SpanTotals {
    /// Self time of a span is its duration minus its children's.
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.nanos();
            }
        }
        let mut totals = Self::default();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let row = match totals.rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    totals.rows.push((s.name, 0, 0));
                    totals.rows.last_mut().expect("just pushed")
                }
            };
            row.1 += s.nanos();
            row.2 += s.nanos() - children;
        }
        totals
    }

    /// Total seconds inside spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1 as f64 * 1e-9)
    }

    /// Self seconds of every span whose name starts with `prefix`.
    pub fn self_secs(&self, prefix: &str) -> f64 {
        self.rows.iter().filter(|r| r.0.starts_with(prefix)).map(|r| r.2 as f64).sum::<f64>() * 1e-9
            + 0.0
    }
}

/// Spans as a JSON array, one object per span.
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tag\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.tag
        ));
    }
    out.push_str("\n]\n");
    out
}

/// The system allocator plus a counter that runs only while a traced
/// phase has switched it on; an untraced run pays one relaxed load per
/// allocation.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts the allocations (and reallocations) `f` makes on this thread's
/// watch. Traced phases are single-threaded, so the count is `f`'s own.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 1, || {
            tracer.span("inner", 1, || std::hint::black_box(vec![0u8; 64]));
            tracer.span("inner", 1, || ());
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let totals = SpanTotals::of(&spans);
        let outer_self = totals.self_secs("outer");
        assert!((outer_self + totals.secs("inner") - totals.secs("outer")).abs() < 1e-12);
        assert!(spans_to_json(&spans).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, || 7), 7);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn allocations_are_counted() {
        let (v, some) = count_allocations(|| std::hint::black_box(Vec::<u64>::with_capacity(32)));
        assert_eq!(v.capacity(), 32);
        assert!(some >= 1);
    }
}
