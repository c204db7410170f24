//! The hash join's build and probe on the six build/probe shapes the seven
//! TPC-H plans of `apq-workloads` run at sf 1 — the benchmark ladder has one
//! join rung (all-hit lineitem ⋈ part); this prints one per shape.
//!
//! Keys come from the seeded generators the TPC-H datagen uses
//! (`columnar::datagen`, xoshiro seeded through SplitMix64) with TPC-H's
//! cardinalities (200 k parts, 10 k suppliers, 1.5 M orders, 150 k
//! customers), stored as `Int32` like the datagen's key columns; every probe
//! runs over 64Ki-row windows of its outer column, as a morsel or a
//! partition clone does. Times are the best of five passes.
//!
//! ```text
//! cargo run --release --example join_shapes
//! cargo run --release --example join_shapes -- --check
//! ```
//!
//! The semi- and anti-join shapes (Q4, Q22) build key sets, the others pair
//! tables. Each row also names the table's directory (`bits`: a key set's
//! bitmap and nothing else; `dense`: one slot per key value; `hashed+bits`:
//! hashed behind a bitmap of the keys; `hashed`), the bytes of its bitmap
//! and the bytes the table owns. `--check` makes one pass and asserts the
//! deterministic part only: each shape's pair count equals a plain `HashMap`
//! count of the same keys, and its directory is the one listed in `shapes`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use adaptive_parallelization::columnar::{datagen, Column};
use adaptive_parallelization::operators::JoinHashTable;

const WINDOW: usize = 64 * 1024;
const OUTER_ROWS: usize = 16 * WINDOW;

const PARTS: usize = 200_000;
const SUPPLIERS: usize = 10_000;
const ORDERS: usize = 1_500_000;
const CUSTOMERS: usize = 150_000;

/// An `Int32` key column of `keys`, each of which fits.
fn key_column(keys: impl IntoIterator<Item = i64>) -> Column {
    Column::from_i32(keys.into_iter().map(|k| i32::try_from(k).expect("a TPC-H key")).collect())
}

/// `rows` foreign keys drawn uniformly from `0..n`.
fn uniform(rows: usize, n: usize, seed: u64) -> Column {
    key_column(datagen::fk_uniform(rows, n, seed))
}

/// The keys of `0..n` a filter keeping `per_mille` in a thousand lets through,
/// ascending — a dimension's key column fetched through a selection.
fn subset(n: usize, per_mille: i64, seed: u64) -> Column {
    let draws = datagen::uniform_i64(n, 0, 1000, seed);
    key_column((0..n as i64).zip(draws).filter(|&(_, d)| d < per_mille).map(|(k, _)| k))
}

#[derive(Clone, Copy)]
enum Flavour {
    Inner,
    Semi,
    Anti,
}

struct Shape {
    name: &'static str,
    build: Column,
    outer: Column,
    flavour: Flavour,
    /// The directory the build keys get (`JoinHashTable::directory`).
    directory: &'static str,
}

fn shapes(seed: u64) -> Vec<Shape> {
    let dense = |n: usize| key_column(datagen::sequential_i64(n));
    // Like dbgen, a third of the customers never place an order.
    let o_custkey = datagen::fk_uniform(ORDERS, CUSTOMERS, seed).into_iter().map(|k| {
        if k % 3 == 0 {
            (k + 1) % CUSTOMERS as i64
        } else {
            k
        }
    });
    vec![
        Shape {
            name: "Q9 lineitem x part(%BRUSHED%)",
            build: subset(PARTS, 200, seed ^ 1),
            outer: uniform(OUTER_ROWS, PARTS, seed ^ 2),
            flavour: Flavour::Inner,
            directory: "hashed+bits",
        },
        Shape {
            name: "Q8 lineitem x part(STEEL)",
            build: subset(PARTS, 7, seed ^ 3),
            outer: uniform(OUTER_ROWS, PARTS, seed ^ 4),
            flavour: Flavour::Inner,
            directory: "hashed+bits",
        },
        Shape {
            name: "Q9 lineitem x supplier",
            build: dense(SUPPLIERS),
            outer: uniform(OUTER_ROWS, SUPPLIERS, seed ^ 5),
            flavour: Flavour::Inner,
            directory: "dense",
        },
        Shape {
            name: "lineitem x part (all hit)",
            build: dense(PARTS),
            outer: uniform(OUTER_ROWS, PARTS, seed ^ 6),
            flavour: Flavour::Inner,
            directory: "dense",
        },
        Shape {
            name: "Q4 orders semi late lineitems",
            build: uniform(3_800_000, ORDERS, seed ^ 7),
            outer: subset(ORDERS, 38, seed ^ 8),
            flavour: Flavour::Semi,
            directory: "bits",
        },
        Shape {
            name: "Q22 customer anti orders",
            build: key_column(o_custkey),
            outer: subset(CUSTOMERS, 255, seed ^ 9),
            flavour: Flavour::Anti,
            directory: "bits",
        },
    ]
}

/// The table a shape's join builds: a key set for an existence join.
fn build_table(build: &Column, flavour: Flavour) -> JoinHashTable {
    match flavour {
        Flavour::Inner => JoinHashTable::build(build),
        Flavour::Semi | Flavour::Anti => JoinHashTable::build_key_set(build),
    }
    .expect("integer keys")
}

/// Pairs (inner), or surviving outer rows (semi, anti), of one pass over the
/// outer column in `WINDOW`-row views.
fn probe_pass(table: &JoinHashTable, outer: &Column, flavour: Flavour) -> usize {
    let mut pairs = 0;
    for start in (0..outer.len()).step_by(WINDOW) {
        let window = outer
            .slice(start, WINDOW.min(outer.len() - start))
            .expect("window inside the outer column");
        pairs += match flavour {
            Flavour::Inner => table.probe(&window).expect("integer keys").len(),
            Flavour::Semi => table.probe_semi(&window).expect("integer keys").len(),
            Flavour::Anti => table.probe_anti(&window).expect("integer keys").len(),
        };
    }
    pairs
}

/// What a nested map says `probe_pass` must count.
fn reference_pairs(shape: &Shape) -> usize {
    let build = shape.build.i32_values().expect("shapes are Int32");
    let outer = shape.outer.i32_values().expect("shapes are Int32");
    let mut copies: HashMap<i32, usize> = HashMap::new();
    for &k in build {
        *copies.entry(k).or_default() += 1;
    }
    let of = |k: &i32| copies.get(k).copied().unwrap_or(0);
    match shape.flavour {
        Flavour::Inner => outer.iter().map(of).sum(),
        Flavour::Semi => outer.iter().filter(|k| of(k) > 0).count(),
        Flavour::Anti => outer.iter().filter(|k| of(k) == 0).count(),
    }
}

/// Nanoseconds per row of the fastest of `passes` runs of `f`, and its result.
fn best_ns_per_row<R>(passes: usize, rows: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..passes {
        let start = Instant::now();
        let out = black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / rows.max(1) as f64);
        last = Some(out);
    }
    (best, last.expect("at least one pass"))
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let passes = if check { 1 } else { 5 };
    println!(
        "{:<32} {:>10} {:>10} {:>12} {:>12} {:>10} {:>11} {:>12} {:>12}",
        "shape",
        "build_rows",
        "outer_rows",
        "build_ns/row",
        "probe_ns/row",
        "pairs",
        "directory",
        "bitmap_bytes",
        "table_bytes"
    );
    for shape in shapes(2016) {
        let (build, outer) = (&shape.build, &shape.outer);
        let (build_ns, table) =
            best_ns_per_row(passes, build.len(), || build_table(black_box(build), shape.flavour));
        let (probe_ns, pairs) = best_ns_per_row(passes, outer.len(), || {
            probe_pass(&table, black_box(outer), shape.flavour)
        });
        let directory = table.directory();
        println!(
            "{:<32} {:>10} {:>10} {:>12.2} {:>12.2} {:>10} {:>11} {:>12} {:>12}",
            shape.name,
            build.len(),
            outer.len(),
            build_ns,
            probe_ns,
            pairs,
            directory,
            table.bitmap_bytes(),
            table.byte_size()
        );
        if check {
            assert_eq!(pairs, reference_pairs(&shape), "{}: pair count", shape.name);
            assert_eq!(directory, shape.directory, "{}: directory", shape.name);
        }
    }
    if check {
        println!("pair counts match the nested-map reference; directories as listed");
    }
}
