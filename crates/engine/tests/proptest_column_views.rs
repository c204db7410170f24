//! Property tests for zero-copy column views: random `build` / `slice` /
//! `concat` / typed-access interleavings — including concurrent typed access
//! from several threads over windows of one backing — must match a
//! materializing reference exactly (values and `base_oid` labels).
//!
//! The reference keeps a plain `Vec` plus an explicit base label and
//! re-slices on every cut; the engine path goes through `Column::slice` /
//! `Column::concat` and the typed accessors.

use apq_columnar::{Column, Oid};
use proptest::prelude::*;

/// Materializing reference: owned values + the base-oid label the view
/// should carry.
#[derive(Debug, Clone, PartialEq)]
struct RefCol {
    values: Vec<i64>,
    base: Oid,
}

impl RefCol {
    fn slice(&self, start: usize, len: usize) -> RefCol {
        RefCol { values: self.values[start..start + len].to_vec(), base: self.base + start as Oid }
    }

    fn concat(parts: &[RefCol]) -> RefCol {
        // `Column::concat` packs into fresh backing labelled from zero.
        RefCol { values: parts.iter().flat_map(|p| p.values.iter().copied()).collect(), base: 0 }
    }
}

fn assert_matches(col: &Column, reference: &RefCol) {
    assert_eq!(col.i64_values().unwrap(), &reference.values[..], "typed window values diverged");
    assert_eq!(col.base_oid(), reference.base, "base_oid label diverged");
    assert_eq!(col.len(), reference.values.len());
}

/// Reads `col` through several threads at once, each over a different
/// window of the same backing. Values must match the reference everywhere.
fn concurrent_fanout(col: &Column, reference: &RefCol, threads: usize) {
    let rows = col.len();
    std::thread::scope(|s| {
        for t in 0..threads {
            let col = col.clone();
            let reference = reference.clone();
            s.spawn(move || {
                // Deterministic per-thread window; always in range.
                let start = if rows == 0 { 0 } else { (t * 31) % rows };
                let len = (rows - start) / (t + 1);
                let window = col.slice(start, len).expect("in-range window");
                assert_matches(&window, &reference.slice(start, len));
                // The base view itself, alongside the other threads' windows.
                assert_matches(&col, &reference);
            });
        }
    });
}

/// Drives one random op sequence, starting from a freshly built column.
fn drive(len: usize, ops: &[(usize, usize, usize, usize)]) {
    let mut col = Column::from_i64((0..len as i64).map(|v| v.wrapping_mul(7) - 3).collect());
    let mut reference =
        RefCol { values: (0..len as i64).map(|v| v.wrapping_mul(7) - 3).collect(), base: 0 };

    for &(kind, a, b, threads) in ops {
        let rows = col.len();
        match kind {
            // Nested zero-copy cut (shares_storage_with stays true).
            0 => {
                let start = if rows == 0 { 0 } else { a % (rows + 1) };
                let cut = b % (rows - start + 1);
                let sliced = col.slice(start, cut).expect("in-range slice");
                assert!(sliced.shares_storage_with(&col), "slice must not copy");
                reference = reference.slice(start, cut);
                col = sliced;
            }
            // Morsel-grid split + concat: non-divisible morsel sizes, packed
            // in order into fresh backing relabelled from zero.
            1 => {
                let morsel = (a % (rows + 2)).max(1);
                let n = rows.div_ceil(morsel).max(1);
                let parts: Vec<Column> = (0..n)
                    .map(|i| {
                        let start = i * morsel;
                        col.slice(start, morsel.min(rows - start)).expect("grid part")
                    })
                    .collect();
                let ref_parts: Vec<RefCol> = (0..n)
                    .map(|i| {
                        let start = i * morsel;
                        reference.slice(start, morsel.min(rows - start))
                    })
                    .collect();
                col = Column::concat(&parts).expect("concat");
                reference = RefCol::concat(&ref_parts);
            }
            // Concurrent typed access across threads.
            _ => concurrent_fanout(&col, &reference, threads.max(1)),
        }
        assert_matches(&col, &reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn typed_access_matches_materializing_reference(
        len in 0usize..257,
        ops in prop::collection::vec((0usize..3, 0usize..300, 0usize..300, 1usize..5), 1..7),
    ) {
        drive(len, &ops);
    }
}

#[test]
fn mismatched_accessor_keeps_failing() {
    // A successful typed read leaves nothing behind that a later read of
    // another type could be served from, on the base view or a window.
    let ints = Column::from_i64(vec![1, 2, 3]);
    assert!(ints.f64_values().is_err(), "mismatched accessor must fail");
    assert_eq!(ints.i64_values().unwrap(), &[1, 2, 3]);
    assert_eq!(ints.slice(1, 2).unwrap().i64_values().unwrap(), &[2, 3]);
    assert!(ints.f64_values().is_err());
    assert!(ints.slice(1, 2).unwrap().f64_values().is_err());

    let floats = Column::from_f64(vec![0.5, -1.25]);
    assert_eq!(floats.f64_values().unwrap(), &[0.5, -1.25]);
    assert!(floats.i64_values().is_err(), "a failed access after a good one must still fail");
}

#[test]
fn empty_and_degenerate_windows_round_trip() {
    // Shapes at the edge of the sampled space: zero-length builds, empty
    // cuts, single-row grids.
    drive(0, &[(2, 0, 0, 4), (1, 3, 0, 2), (0, 5, 9, 1)]);
    drive(1, &[(1, 1, 1, 1), (2, 0, 0, 3)]);
    let col = Column::from_i64(vec![9, 8, 7]);
    col.i64_values().unwrap();
    let empty = col.slice(3, 0).unwrap();
    assert_eq!(empty.i64_values().unwrap(), &[] as &[i64]);
    assert_eq!(empty.base_oid(), 3);
}
