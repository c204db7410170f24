//! Pins the zero-copy claim of windowed stream views with a counting
//! allocator: cutting a `Chunk::Oids` / `Chunk::Join` window or morsel
//! (`Chunk::slice`, which cuts a node's parts and morsels, and
//! the direct `OidsView::slice` / `JoinView::slice` calls beneath it) must
//! perform **zero** heap allocations, and reassembling consecutive
//! windows through the exchange union must stay O(parts) — never O(rows) —
//! no matter how large the stream is.
//!
//! The paper's cost model depends on this: "creating slices involves marking
//! the boundary ranges … there is no data copying involved" (§2.3). Before
//! the view rewrite, every morsel cut of a candidate stream was a
//! `to_vec`, charged once per stream partition *and* per morsel.
//!
//! The same gate pins column views (`docs/architecture.md` §2.1): a typed
//! read through **any** window of a backing is a tag match plus window
//! arithmetic, cutting a window clones one `Arc`, and building a column
//! allocates that one `Arc` and nothing else.
//!
//! The kernels above the views are held to ceilings through the same gate
//! (`docs/architecture.md`, "kernel contract"): a select's live heap never
//! exceeds its output (no row mask), a candidate select's likewise (no
//! gathered column), projecting a join side allocates nothing, a hash
//! build or probe never holds a copy of its keys (`Int64`, or `Int32` that a
//! hashed directory borrows at their width), a key set
//! whose span fits its bitmap is that one bitmap, and `calc` reads `Int32`
//! operands in place instead of widening them into copies.
//!
//! Four footprints above the kernels are pinned the same way: a generated
//! string column holds its codes and its dictionary, never a `String` per
//! row; a query holds its live set of intermediates — each is released by
//! its last reader — not one per node; an intermediate that every reader
//! streams or zips stays in the parts its morsels left, never packed; and a
//! key set over morsels sets its bits from them, never from a pack.
//!
//! Everything runs in a single `#[test]` so no concurrent test body can
//! allocate while the gate is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use std::sync::Arc;

use apq_columnar::datagen::uniform_strings;
use apq_columnar::{Catalog, Column, Oid, ScalarValue, TableBuilder};
use apq_engine::interpreter::{exchange_union, execute_node};
use apq_engine::plan::{JoinSide, OperatorSpec, Plan};
use apq_engine::{Chunk, Engine, JoinView, OidsView, DEFAULT_MORSEL_ROWS};
use apq_operators::{
    calc_col_col, select, select_with_candidates, AggFunc, BinaryOp, CmpOp, JoinHashTable,
    JoinResult, Predicate,
};

/// Wraps the system allocator, counting allocations (and their bytes) made
/// while the gate is open. Deallocations do not count as allocations
/// (dropping an `Arc`-backed view is free-ing, not allocating); they only
/// lower the live-byte level whose high-water mark is [`PEAK`].
struct CountingAlloc;

static GATE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated minus bytes freed since the gate opened, and its maximum.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(allocated: usize, freed: usize) {
    if GATE.load(Ordering::Relaxed) {
        if allocated > 0 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(allocated, Ordering::Relaxed);
        }
        let delta = allocated as isize - freed as isize;
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the gate open; returns `(allocations, bytes)` it made.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    GATE.store(true, Ordering::SeqCst);
    let out = f();
    GATE.store(false, Ordering::SeqCst);
    black_box(out);
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

/// Runs `f` with the gate open; returns the most heap it held at any moment.
fn peak_bytes_during<R>(f: impl FnOnce() -> R) -> usize {
    allocations_during(f);
    PEAK.load(Ordering::SeqCst) as usize
}

/// The kernels' ceilings: what each may hold live, at most.
fn kernels_hold_no_more_than_their_outputs() {
    const N: usize = 1 << 20;
    const SLACK: usize = 16 * 1024;
    let oid_bytes = std::mem::size_of::<Oid>();

    // A 1 % selection of 1 Mi rows. A row mask would be 1 MiB, a gathered
    // candidate column 8 MiB; the output's growth is at most twice its size.
    let quantity = Column::from_i64((0..N as i64).map(|v| (v * 7919) % 100).collect());
    let rare = Predicate::cmp(CmpOp::Lt, 1i64);
    let hits = select(&quantity, &rare).unwrap().len();
    assert!(hits > 10_000 && hits < 11_000, "the selection is about 1 %: {hits}");
    let ceiling = 2 * oid_bytes * hits + SLACK;
    let peak = peak_bytes_during(|| select(&quantity, &rare));
    assert!(peak <= ceiling, "select held {peak} bytes for {hits} hits (ceiling {ceiling})");

    let everything: Vec<Oid> = (0..N as Oid).collect();
    let peak = peak_bytes_during(|| select_with_candidates(&quantity, &rare, &everything));
    assert!(peak <= ceiling, "candidate select held {peak} bytes (ceiling {ceiling})");

    // A string predicate may also hold its per-dictionary-entry mask.
    let flags = Column::from_strings((0..N).map(|i| if i % 100 == 0 { "R" } else { "N" }));
    let returned = Predicate::cmp(CmpOp::Eq, "R");
    let peak = peak_bytes_during(|| select(&flags, &returned));
    assert!(peak <= ceiling, "string select held {peak} bytes (ceiling {ceiling})");

    // Projecting a join side is the join window over one side's backing.
    let join_chunk = Chunk::join(JoinResult {
        outer_oids: (0..N as u64).collect(),
        inner_oids: (0..N as u64).rev().collect(),
    });
    let window = Chunk::Join(join_chunk.as_join_view().unwrap().slice(4_321, 64 * 1024));
    let cat = Catalog::new();
    for side in [JoinSide::Outer, JoinSide::Inner] {
        let spec = OperatorSpec::ProjectJoinSide { side };
        let (allocs, _) =
            allocations_during(|| execute_node(0, &spec, std::slice::from_ref(&window), &cat));
        assert_eq!(allocs, 0, "ProjectJoinSide allocated");
    }
    let projected =
        execute_node(0, &OperatorSpec::ProjectJoinSide { side: JoinSide::Inner }, &[window], &cat)
            .unwrap();
    let view = projected.as_oids_view().unwrap();
    assert_eq!((view.offset(), view.stream_base(), view.len()), (4_321, 4_321, 64 * 1024));
    assert_eq!(view.as_slice()[0], (N - 1 - 4_321) as Oid);

    // A build over Int64 keys owns its directory and chain links only — for
    // the dense range 0..N, 1 Mi slots + 1 Mi links of 4 bytes — not 8 MiB
    // of keys ...
    let keys = Column::from_i64((0..N as i64).collect());
    let peak = peak_bytes_during(|| JoinHashTable::build(&keys));
    assert!(peak <= 2 * N * 4 + SLACK, "an Int64 build held {peak} bytes: a key copy?");
    // A hashed build over Int32 keys borrows them at their width: 2 Mi
    // buckets + 1 Mi links of 4 bytes, not 8 MiB more of widened keys.
    let sparse = Column::from_i32((0..N as i32).map(|k| k * 1000).collect());
    assert_eq!(JoinHashTable::build(&sparse).unwrap().directory(), "hashed");
    let hashed = 3 * N * 4 + SLACK;
    let peak = peak_bytes_during(|| JoinHashTable::build(&sparse));
    assert!(peak <= hashed, "an Int32 hashed build held {peak} bytes (directory {hashed})");
    // A key set over the same keys is one allocation: the bitmap of the
    // span's N bits, N / 8 bytes — no directory, no links, no keys.
    let (allocs, bytes) = allocations_during(|| JoinHashTable::build_key_set(&keys));
    assert_eq!((allocs, bytes), (1, N / 8), "a key-set build over a span of {N} keys");
    // ... and a probe holds its two reserved output vectors, not 8 MiB more
    // for the outer keys — whether they are Int64 or widened from Int32.
    let table = JoinHashTable::build(&Column::from_i64((0..64).collect())).unwrap();
    let outputs = 2 * oid_bytes * N + SLACK;
    let peak = peak_bytes_during(|| table.probe(&keys));
    assert!(peak <= outputs, "an Int64 probe held {peak} bytes (outputs {outputs})");
    let narrow = Column::from_i32((0..N as i32).collect());
    let peak = peak_bytes_during(|| table.probe(&narrow));
    assert!(peak <= outputs, "an Int32 probe held {peak} bytes (outputs {outputs})");

    // Arithmetic over two Int32 columns holds its Int64 output, not two
    // 8 MiB widened copies of its inputs.
    let output = 8 * N + SLACK;
    let peak = peak_bytes_during(|| calc_col_col(BinaryOp::Mul, &narrow, &narrow));
    assert!(peak <= output, "an Int32 calc held {peak} bytes (output {output})");
}

/// A generated string column draws a dictionary index per row: it allocates
/// per dictionary entry, not per row, and holds codes plus dictionary.
fn generated_strings_hold_codes_and_dictionary() {
    const N: usize = 1_000_000;
    const SLACK: usize = 16 * 1024;
    let modes = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
    let (allocs, _) = allocations_during(|| uniform_strings(N, &modes, 7));
    assert!(allocs <= 2 * modes.len() + 8, "{allocs} allocations for {} entries", modes.len());
    let dict_bytes: usize = modes.iter().map(|m| m.len() + std::mem::size_of::<String>()).sum();
    let ceiling = 4 * N + dict_bytes + SLACK;
    let peak = peak_bytes_during(|| uniform_strings(N, &modes, 7));
    assert!(peak <= ceiling, "a {N}-row string column held {peak} bytes (ceiling {ceiling})");
}

/// scan → calc → calc → calc → calc → scalar agg over `N` `Int64` rows
/// holds at most two intermediates at once — the one a calc reads and the
/// one it writes — on one worker, as built and cut into morsels.
fn a_query_holds_its_live_set() {
    const N: usize = 1 << 20;
    const SLACK: usize = 64 * 1024;
    let mut catalog = Catalog::new();
    catalog
        .register(TableBuilder::new("t").i64_column("x", (0..N as i64).collect()).build().unwrap());
    let catalog = Arc::new(catalog);
    let mut plan = Plan::new();
    let scan = OperatorSpec::ScanColumn { table: "t".into(), column: "x".into() };
    let mut last = plan.add(scan, vec![]);
    for _ in 0..4 {
        let add_one = OperatorSpec::Calc {
            op: BinaryOp::Add,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(1)),
        };
        last = plan.add(add_one, vec![last]);
    }
    let agg = plan.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![last]);
    let root = plan.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    plan.set_root(root);
    let expected = (0..N as i64).map(|v| v + 4).sum::<i64>();

    let ceiling = 2 * 8 * N + SLACK;
    let engine = Engine::with_workers(1);
    for (form, plan) in
        [("as built", plan.clone()), ("morsels", plan.cut_into_morsels(DEFAULT_MORSEL_ROWS))]
    {
        let plan = Arc::new(plan);
        let output = engine.execute_shared(&plan, &catalog).unwrap().output;
        assert_eq!(output, apq_engine::QueryOutput::Scalar(ScalarValue::I64(expected)));
        let peak = peak_bytes_during(|| engine.execute_shared(&plan, &catalog).unwrap());
        assert!(peak <= ceiling, "{form}: the chain held {peak} bytes (ceiling {ceiling})");
    }
}

/// A fan-out intermediate read only by steps that stream it or zip it is
/// never packed: `c = x + 1` is summed by one pipeline and zipped against
/// `x` by another, so the query allocates `c` and the product once each —
/// not a third O(rows) copy assembling `c`'s morsels into one chunk.
fn a_fan_out_read_piece_by_piece_is_never_packed() {
    const N: usize = 1 << 20;
    const SLACK: usize = 1 << 20;
    let mut catalog = Catalog::new();
    catalog
        .register(TableBuilder::new("t").i64_column("x", (0..N as i64).collect()).build().unwrap());
    let catalog = Arc::new(catalog);
    let mut plan = Plan::new();
    let x = plan.add(OperatorSpec::ScanColumn { table: "t".into(), column: "x".into() }, vec![]);
    let add_one = OperatorSpec::Calc {
        op: BinaryOp::Add,
        left_scalar: None,
        right_scalar: Some(ScalarValue::I64(1)),
    };
    let c = plan.add(add_one, vec![x]);
    let mul = OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None };
    let product = plan.add(mul, vec![x, c]);
    let sums = [c, product].map(|column| {
        let agg = plan.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![column]);
        plan.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg])
    });
    let root = plan.add(OperatorSpec::CalcScalars { op: BinaryOp::Add }, sums.to_vec());
    plan.set_root(root);
    let plan = Arc::new(plan.cut_into_morsels(DEFAULT_MORSEL_ROWS));
    let expected = (0..N as i64).map(|v| (v + 1) + v * (v + 1)).sum::<i64>();

    let engine = Engine::with_workers(2);
    let output = engine.execute_shared(&plan, &catalog).unwrap().output;
    assert_eq!(output, apq_engine::QueryOutput::Scalar(ScalarValue::I64(expected)));
    let ceiling = 2 * 8 * N + SLACK;
    let (_, bytes) = allocations_during(|| engine.execute_shared(&plan, &catalog).unwrap());
    assert!(bytes <= ceiling, "the fan-out allocated {bytes} bytes (no-pack ceiling {ceiling})");
}

/// A key set over a stream cut into morsels builds its bitmap from the
/// morsels where they lie: `k = x + 1` over `N` `Int64` rows feeds a key set
/// in one pipeline, so the query allocates `k`'s morsels and a bitmap of
/// `N` bits per worker (and one laid out from the smallest key) — not an
/// 8-byte-per-row pack of `k` for the key set to read whole.
fn a_key_set_over_morsels_packs_no_keys() {
    const N: usize = 1 << 20;
    const SLACK: usize = 1 << 20;
    let mut catalog = Catalog::new();
    catalog
        .register(TableBuilder::new("t").i64_column("x", (0..N as i64).collect()).build().unwrap());
    catalog.register(
        TableBuilder::new("p")
            .i64_column("y", vec![-5, 0, 1, 77, N as i64, 9 << 40])
            .build()
            .unwrap(),
    );
    let catalog = Arc::new(catalog);
    let mut plan = Plan::new();
    let x = plan.add(OperatorSpec::ScanColumn { table: "t".into(), column: "x".into() }, vec![]);
    let add_one = OperatorSpec::Calc {
        op: BinaryOp::Add,
        left_scalar: None,
        right_scalar: Some(ScalarValue::I64(1)),
    };
    let keys = plan.add(add_one, vec![x]);
    let set = plan.add(OperatorSpec::KeySet, vec![keys]);
    let y = plan.add(OperatorSpec::ScanColumn { table: "p".into(), column: "y".into() }, vec![]);
    let root = plan.add(OperatorSpec::SemiJoin, vec![y, set]);
    plan.set_root(root);
    let plan = Arc::new(plan.cut_into_morsels(DEFAULT_MORSEL_ROWS));

    let engine = Engine::with_workers(2);
    let output = engine.execute_shared(&plan, &catalog).unwrap().output;
    assert_eq!(output, apq_engine::QueryOutput::Oids(vec![2, 3, 4]));
    let ceiling = 8 * N + 3 * N / 8 + SLACK;
    let (_, bytes) = allocations_during(|| engine.execute_shared(&plan, &catalog).unwrap());
    assert!(bytes <= ceiling, "the key set allocated {bytes} bytes (no-pack ceiling {ceiling})");
}

#[test]
fn stream_view_cuts_are_alloc_free() {
    const N: usize = 1_000_000;

    // Everything the measured closures touch is built before the gate opens.
    let oids_chunk = Chunk::oids((0..N as u64).collect());
    let join_chunk = Chunk::join(JoinResult {
        outer_oids: (0..N as u64).collect(),
        inner_oids: (0..N as u64).rev().collect(),
    });
    let oids_view = oids_chunk.as_oids_view().unwrap().clone();
    let join_view = join_chunk.as_join_view().unwrap().clone();
    let (start, len) = (123_457, 64 * 1024);

    // Direct view cuts: pure window arithmetic.
    let (allocs, _) = allocations_during(|| -> OidsView { oids_view.slice(999, 4096) });
    assert_eq!(allocs, 0, "OidsView::slice allocated");
    let (allocs, _) = allocations_during(|| -> JoinView { join_view.slice(999, 4096) });
    assert_eq!(allocs, 0, "JoinView::slice allocated");

    // The executor's cut (a cut range, then a morsel of it) on both stream
    // kinds: still zero, through the `Chunk` dispatch.
    let (allocs, _) = allocations_during(|| oids_chunk.slice(start, len));
    assert_eq!(allocs, 0, "Chunk::slice over Chunk::Oids allocated");
    let (allocs, _) = allocations_during(|| join_chunk.slice(start, len));
    assert_eq!(allocs, 0, "Chunk::slice over Chunk::Join allocated");

    // Reassembling consecutive windows: the union's fast path widens the
    // first window instead of packing, so its footprint is a few pointers of
    // bookkeeping (the views vec), never the 8 MB an O(rows) pack would copy.
    let parts: Vec<Chunk> = (0..4).map(|i| oids_chunk.slice(i * (N / 4), N / 4).unwrap()).collect();
    let (allocs, bytes) = allocations_during(|| exchange_union(1, &parts));
    assert!(allocs <= 4, "zero-copy union made {allocs} allocations");
    assert!(bytes < 1024, "zero-copy union allocated {bytes} bytes for a {} byte stream", N * 8);

    // And the reassembled window really is the parent backing.
    let whole = exchange_union(1, &parts).unwrap();
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

    kernels_hold_no_more_than_their_outputs();
    generated_strings_hold_codes_and_dictionary();
    a_query_holds_its_live_set();
    a_fan_out_read_piece_by_piece_is_never_packed();
    a_key_set_over_morsels_packs_no_keys();
}
