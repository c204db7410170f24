//! Property-based tests for the storage layer invariants the adaptive
//! parallelizer relies on: slicing never loses or duplicates data, and
//! oid gathers inside a slice address the base column's values.

use apq_columnar::Column;
use proptest::prelude::*;

proptest! {
    /// Slicing a column and concatenating the slices reproduces the column.
    #[test]
    fn slice_then_concat_roundtrip(values in prop::collection::vec(-1000i64..1000, 1..200),
                                   cuts in prop::collection::vec(0usize..200, 0..6)) {
        let col = Column::from_i64(values.clone());
        let n = values.len();
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        points.push(0);
        points.push(n);
        points.sort_unstable();
        points.dedup();
        let mut parts = Vec::new();
        for w in points.windows(2) {
            if w[1] > w[0] {
                parts.push(col.slice(w[0], w[1] - w[0]).unwrap());
            }
        }
        let packed = Column::concat(&parts).unwrap();
        prop_assert_eq!(packed.i64_values().unwrap(), &values[..]);
    }

    /// gather_oids round-trips values for oids drawn inside the slice.
    #[test]
    fn gather_oids_roundtrip(values in prop::collection::vec(-500i64..500, 10..300),
                             start_frac in 0usize..10, picks in prop::collection::vec(0usize..1000, 1..50)) {
        let col = Column::from_i64(values.clone());
        let n = values.len();
        let start = (n / 10) * start_frac.min(5);
        let len = n - start;
        let slice = col.slice(start, len).unwrap();
        let oids: Vec<u64> = picks.iter().map(|&p| (start + p % len) as u64).collect();
        let gathered = slice.gather_oids(&oids).unwrap();
        let got = gathered.i64_values().unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            prop_assert_eq!(got[i], values[oid as usize]);
        }
    }
}
