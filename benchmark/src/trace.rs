//! The traced run's instruments: spans around the harness's calls into each
//! layer, kept in memory and written out at exit, and an allocator that
//! counts. Spans inside the program are a later change (ROADMAP item 1).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: Arc<str>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request_id: Option<u64>,
}

/// Span store. Times are nanoseconds since `epoch`.
pub struct Tracer {
    pub epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &Arc<str>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name: Arc::clone(name),
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Start a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(&Arc::from(name), now, now, parent, None)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// `{"spans":[{"name":…,"start_ns":…,"end_ns":…,"parent":…,"request_id":…},…]}`;
    /// a span's id is its index, `parent` and `request_id` are null when absent.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[\n");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request_id),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and bytes requested. Only the traced
/// binary installs it, so the untraced one pays nothing for it.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// (allocation calls, bytes requested) so far; both stay 0 in a binary that
/// did not install [`CountingAlloc`].
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_and_request_id_in_the_file() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("run", None);
        let name: Arc<str> = Arc::from("ping.request");
        let child = t.add(&name, 10, 25, Some(root), Some(7));
        t.close(root);
        assert_eq!((root, child, t.len()), (0, 1, 2));
        let json = t.to_json();
        assert!(json.contains(
            "{\"name\":\"ping.request\",\"start_ns\":10,\"end_ns\":25,\"parent\":0,\"request_id\":7}"
        ));
        assert!(json.contains("\"name\":\"run\",\"start_ns\":"));
        assert!(json.contains("\"parent\":null,\"request_id\":null}"));
        // The repo's own strict JSON reader accepts it.
        assert!(sledge_core::parse_json(&json).is_ok());
    }
}
