//! Pins the zero-copy claim of windowed stream views with a counting
//! allocator: cutting a `Chunk::Oids` / `Chunk::Join` morsel (`SlicePart`,
//! and the equivalent direct `OidsView::slice` / `JoinView::slice` calls)
//! must perform **zero** heap allocations, and reassembling consecutive
//! windows through the exchange union must stay O(parts) — never O(rows) —
//! no matter how large the stream is.
//!
//! The paper's cost model depends on this: "creating slices involves marking
//! the boundary ranges … there is no data copying involved" (§2.3). Before
//! the view rewrite, every morsel cut of a candidate stream was a
//! `to_vec`, charged once per SlicePart partition *and* per morsel.
//!
//! The same gate pins column views (`docs/architecture.md` §2.2): a typed
//! read through **any** window of a backing is a tag match plus window
//! arithmetic, cutting a window clones one `Arc`, and building a column
//! allocates that one `Arc` and nothing else.
//!
//! Everything runs in a single `#[test]` so no concurrent test body can
//! allocate while the gate is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use apq_columnar::{Catalog, Column};
use apq_engine::interpreter::execute_node;
use apq_engine::plan::OperatorSpec;
use apq_engine::{Chunk, JoinView, OidsView};
use apq_operators::JoinResult;

/// Wraps the system allocator, counting allocations (and their bytes) made
/// while the gate is open. Deallocations are not counted: dropping an
/// `Arc`-backed view is free-ing, not allocating.
struct CountingAlloc;

static GATE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if GATE.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if GATE.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if GATE.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the gate open; returns `(allocations, bytes)` it made.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    GATE.store(true, Ordering::SeqCst);
    let out = f();
    GATE.store(false, Ordering::SeqCst);
    black_box(out);
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

#[test]
fn stream_view_cuts_are_alloc_free() {
    const N: usize = 1_000_000;
    let cat = Catalog::new();

    // Everything the measured closures touch is built before the gate opens.
    let oids_chunk = Chunk::oids((0..N as u64).collect());
    let join_chunk = Chunk::join(JoinResult {
        outer_oids: (0..N as u64).collect(),
        inner_oids: (0..N as u64).rev().collect(),
    });
    let oids_view = oids_chunk.as_oids_view().unwrap().clone();
    let join_view = join_chunk.as_join_view().unwrap().clone();
    let spec = OperatorSpec::SlicePart { start: 123_457, len: 64 * 1024 };

    // Direct view cuts: pure window arithmetic.
    let (allocs, _) = allocations_during(|| -> OidsView { oids_view.slice(999, 4096) });
    assert_eq!(allocs, 0, "OidsView::slice allocated");
    let (allocs, _) = allocations_during(|| -> JoinView { join_view.slice(999, 4096) });
    assert_eq!(allocs, 0, "JoinView::slice allocated");

    // The interpreter's SlicePart path (the morsel cutter) on both stream
    // kinds: still zero, through the full execute_node dispatch.
    let (allocs, _) =
        allocations_during(|| execute_node(0, &spec, std::slice::from_ref(&oids_chunk), &cat));
    assert_eq!(allocs, 0, "SlicePart over Chunk::Oids allocated");
    let (allocs, _) =
        allocations_during(|| execute_node(0, &spec, std::slice::from_ref(&join_chunk), &cat));
    assert_eq!(allocs, 0, "SlicePart over Chunk::Join allocated");

    // Reassembling consecutive windows: the union's fast path widens the
    // first window instead of packing, so its footprint is a few pointers of
    // bookkeeping (the views vec), never the 8 MB an O(rows) pack would copy.
    let parts: Vec<Chunk> = (0..4)
        .map(|i| {
            execute_node(
                0,
                &OperatorSpec::SlicePart { start: i * (N / 4), len: N / 4 },
                std::slice::from_ref(&oids_chunk),
                &cat,
            )
            .unwrap()
        })
        .collect();
    let (allocs, bytes) =
        allocations_during(|| execute_node(1, &OperatorSpec::ExchangeUnion, &parts, &cat));
    assert!(allocs <= 4, "zero-copy union made {allocs} allocations");
    assert!(bytes < 1024, "zero-copy union allocated {bytes} bytes for a {} byte stream", N * 8);

    // And the reassembled window really is the parent backing.
    let whole = execute_node(1, &OperatorSpec::ExchangeUnion, &parts, &cat).unwrap();
    let whole_view = whole.as_oids_view().unwrap();
    assert!(whole_view.shares_backing_with(oids_chunk.as_oids_view().unwrap()));
    assert_eq!(whole_view.len(), N);
    assert_eq!(whole_view.stream_base(), 0);

    // Column views: a typed read through the base view *and* through a
    // disjoint window is a tag match plus window arithmetic.
    let col = Column::from_i64((0..N as i64).collect());
    let window = col.slice(123_457, 64 * 1024).unwrap();
    let (allocs, _) = allocations_during(|| {
        let base = col.i64_values().expect("base read");
        let cut = window.i64_values().expect("window read");
        (base[0], cut[0])
    });
    assert_eq!(allocs, 0, "typed access allocated");

    // Building a column allocates the one `Arc` that shares its backing,
    // beyond the `Vec` it is handed.
    let values: Vec<i64> = (0..1024).collect();
    let (allocs, _) = allocations_during(|| Column::from_i64(values));
    assert_eq!(allocs, 1, "Column::from_i64 allocated more than its backing Arc");

    // The per-morsel pattern — cut a window, resolve it typed — is free.
    let (allocs, _) = allocations_during(|| {
        (0..1_000usize)
            .map(|i| {
                let w = col.slice(i * 1_000, 1_000).expect("in-range window");
                w.i64_values().expect("typed window")[0]
            })
            .sum::<i64>()
    });
    assert_eq!(allocs, 0, "Column::slice + i64_values allocated");
}
