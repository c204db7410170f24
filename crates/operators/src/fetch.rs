//! Tuple reconstruction (MonetDB `leftfetchjoin`).
//!
//! Column stores project attributes lazily: a select produces a list of oids
//! and the values of other columns are *fetched* afterwards by using those
//! oids as positions into the (possibly sliced) value column. Paper §2.3
//! explains the alignment hazard this creates under dynamically sized
//! partitions: if the oid list's boundaries overshoot the value slice's
//! boundaries, the lookup is an invalid access. [`fetch`] enforces strict
//! alignment (any overshoot is an error); [`fetch_clamped`] implements the
//! paper's boundary adjustment, dropping overshooting oids and reporting how
//! many were dropped.

use apq_columnar::{Column, Oid};

use crate::error::Result;

/// Fetches `column[oid]` for every oid, producing a dense value column in
/// `oids` order (unsorted and duplicated oids are fine).
///
/// Every oid must lie inside the column view's `[base_oid, end_oid)` range;
/// otherwise a `MisalignedOid` storage error naming the first offending oid
/// in list order is returned (the paper's "invalid access") and no column is
/// produced. The range check and the load are one pass.
pub fn fetch(column: &Column, oids: &[Oid]) -> Result<Column> {
    Ok(column.gather_oids(oids)?)
}

/// Fetch with boundary clamping: oids outside the column view are dropped
/// (the paper's "the lower boundary of LT is adjusted ... to match the lower
/// boundary of RH"). Returns the fetched column, the clamped oid list (the
/// surviving oids in their original order) and the number of oids that were
/// dropped. Never fails on an out-of-range oid.
pub fn fetch_clamped(column: &Column, oids: &[Oid]) -> Result<(Column, Vec<Oid>, usize)> {
    let (lo, len) = (column.base_oid(), column.len() as Oid);
    // An oid below `lo` wraps far past `len`.
    let clamped: Vec<Oid> = oids.iter().copied().filter(|o| o.wrapping_sub(lo) < len).collect();
    let fetched = column.gather_oids(&clamped)?;
    let dropped = oids.len() - clamped.len();
    Ok((fetched, clamped, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::ColumnarError;

    #[test]
    fn fetch_reconstructs_values() {
        let c = Column::from_i64(vec![100, 200, 300, 400, 500]);
        let out = fetch(&c, &[4, 0, 2]).unwrap();
        assert_eq!(out.i64_values().unwrap(), &[500, 100, 300]);
    }

    #[test]
    fn fetch_from_slice_uses_absolute_oids() {
        let base = Column::from_i64((0..100).map(|v| v * 10).collect());
        let part = base.slice(50, 50).unwrap();
        let out = fetch(&part, &[50, 75, 99]).unwrap();
        assert_eq!(out.i64_values().unwrap(), &[500, 750, 990]);
    }

    #[test]
    fn misaligned_fetch_is_invalid_access() {
        let base = Column::from_i64((0..100).collect());
        let part = base.slice(0, 50).unwrap();
        let err = fetch(&part, &[10, 60]).unwrap_err();
        assert!(matches!(
            err,
            crate::OperatorError::Columnar(ColumnarError::MisalignedOid { oid: 60, .. })
        ));
    }

    #[test]
    fn clamped_fetch_adjusts_boundaries() {
        // Mirrors the paper's Fig. 10 example: LT holds oids {2,4,5,7,8} but the
        // value slice covers oids [1,8); oid 8 overshoots and must be dropped.
        let base = Column::from_i64(vec![0, 11, 12, 13, 14, 20, 16, 13, 99]);
        let rh = base.slice(1, 7).unwrap(); // oids [1, 8)
        let lt = vec![2u64, 4, 5, 7, 8];
        let (vals, clamped, dropped) = fetch_clamped(&rh, &lt).unwrap();
        assert_eq!(clamped, vec![2, 4, 5, 7]);
        assert_eq!(dropped, 1);
        assert_eq!(vals.i64_values().unwrap(), &[12, 14, 20, 13]);
    }

    #[test]
    fn clamped_fetch_with_fully_aligned_input_drops_nothing() {
        let base = Column::from_i64((0..10).collect());
        let (vals, clamped, dropped) = fetch_clamped(&base, &[0, 9, 5]).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(clamped, vec![0, 9, 5]);
        assert_eq!(vals.i64_values().unwrap(), &[0, 9, 5]);
    }

    #[test]
    fn fetch_strings() {
        let c = Column::from_strings(["a", "b", "c", "d"]);
        let out = fetch(&c, &[3, 1]).unwrap();
        assert_eq!(out.get(0).unwrap().as_str().map(String::from), Some("d".into()));
        assert_eq!(out.get(1).unwrap().as_str().map(String::from), Some("b".into()));
    }
}
