//! Tuple reconstruction (MonetDB `leftfetchjoin`).
//!
//! Column stores project attributes lazily: a select produces a list of oids
//! and the values of other columns are *fetched* afterwards by using those
//! oids as positions into the (possibly sliced) value column. Paper §2.3
//! explains the alignment hazard this creates under dynamically sized
//! partitions: if the oid list's boundaries overshoot the value slice's
//! boundaries, the lookup is an invalid access. [`fetch`] enforces strict
//! alignment: any overshoot is an error, and nothing clamps (how plans stay
//! aligned is the engine's `stream_base` invariant, `docs/architecture.md`
//! §6).

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
    fn fetch_strings() {
        let c = Column::from_strings(["a", "b", "c", "d"]);
        let out = fetch(&c, &[3, 1]).unwrap();
        assert_eq!(out.get(0).unwrap().as_str().map(String::from), Some("d".into()));
        assert_eq!(out.get(1).unwrap().as_str().map(String::from), Some("b".into()));
    }
}
