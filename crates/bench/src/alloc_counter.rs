//! A counting global allocator for the allocation-count tests
//! (`tests/pool_reuse.rs`, `tests/balancer_cost.rs`).
//!
//! Test binaries that want real heap-allocation counts register it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: minato_bench::alloc_counter::CountingAlloc =
//!     minato_bench::alloc_counter::CountingAlloc;
//! ```
//!
//! The counters are process-global statics, so [`allocations`] reports 0
//! forever in binaries that do not register the allocator — callers must
//! treat a zero delta as "not instrumented", not "allocation-free".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation of `size` bytes.
fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// Pass-through wrapper over the system allocator that counts every
/// allocation and reallocation, and the bytes each asks for.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// updates are lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: inherits `System::alloc`'s contract verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: inherits `System::alloc_zeroed`'s contract verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: inherits `System::realloc`'s contract verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink pays the allocator once; count it once, at its
        // new size.
        count(new_size);
        // SAFETY: ptr/layout/new_size come straight from the caller,
        // who upholds `GlobalAlloc::realloc`'s preconditions.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: inherits `System::dealloc`'s contract verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total heap allocations (incl. reallocs) since process start; 0 when
/// [`CountingAlloc`] is not the registered global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested by those allocations (a reallocation counts
/// its new size); 0 when [`CountingAlloc`] is not registered.
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Whether the counting allocator is live in this process (a heap probe
/// moves the counter iff `CountingAlloc` is registered).
pub fn instrumented() -> bool {
    let before = allocations();
    let probe = std::hint::black_box(Box::new(0u8));
    drop(probe);
    allocations() > before
}
