//! Typed columns with zero-copy range views.
//!
//! A [`Column`] is an `Arc`-shared typed vector ([`ColumnData`]) plus a
//! `(offset, len)` window. Slicing a column adjusts the window only, so the
//! dynamically sized partitions created by adaptive parallelization
//! (paper §2.3 "creating slices involves marking the boundary ranges ... and
//! is cheap, as there is no data copying involved") share the same backing
//! storage. For *base* columns the window offset is also the oid of the first
//! visible row, which is what keeps partition boundaries aligned with the
//! base column (paper Fig. 8).
//!
//! # Typed access
//!
//! Typed accessors ([`Column::i64_values`] and friends) are a tag match on
//! [`ColumnData`] plus window arithmetic — no cached state, no allocation.
//! Kernels resolve them once per call, i.e. once per stage per morsel:
//! measured 749 per 771-morsel pass over the seven TPC-H shapes at sf 1.

use std::sync::Arc;

use crate::error::{ColumnarError, Result};
use crate::strings::StringColumn;
use crate::value::{DataType, ScalarValue};
use crate::Oid;

/// Always `0`: the typed-access cache this counted is gone (typed access is
/// a plain tag match, see the module docs).
///
/// Kept only because `benchmark/src/sut.rs` links this symbol and
/// `benchmark/` cannot be edited outside a `[benchmark]` PR; the next one
/// drops it together with the `columnar.typed_cache_hits_per_pass` row.
#[doc(hidden)]
pub fn typed_cache_hits() -> u64 {
    0
}

/// Physical storage for one column.
#[derive(Debug)]
pub enum ColumnData {
    /// 64-bit integers (also fixed-point decimals).
    Int64(Vec<i64>),
    /// 32-bit integers (also dates as days since epoch).
    Int32(Vec<i32>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded strings.
    Str(StringColumn),
}

impl ColumnData {
    /// Number of stored rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Int32(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type of the stored values.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Str(_) => DataType::Str,
        }
    }
}

/// A typed column view: shared storage plus a `(offset, len)` window and the
/// logical oid of the first visible row.
///
/// For base-table columns the logical base oid equals the window offset (row
/// `i` of the view is base row `offset + i`). Computed intermediates (the
/// output of `batcalc`-style element-wise operators) start their own storage
/// at index 0 but may still be *aligned* with a partition of the base column;
/// [`Column::with_base_oid`] records that alignment so that selections over
/// the intermediate keep producing absolute oids — exactly the alignment
/// bookkeeping paper §2.3 requires for dynamically sized partitions.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    offset: usize,
    len: usize,
    base: Oid,
}

impl Column {
    // ---------------------------------------------------------------- constructors

    /// Wraps existing storage, viewing all of it.
    pub fn new(data: Arc<ColumnData>) -> Self {
        let len = data.len();
        Column { data, offset: 0, len, base: 0 }
    }

    /// Builds an `Int64` column from values.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::new(Arc::new(ColumnData::Int64(values)))
    }

    /// Builds an `Int32` column from values.
    pub fn from_i32(values: Vec<i32>) -> Self {
        Column::new(Arc::new(ColumnData::Int32(values)))
    }

    /// Builds a `Float64` column from values.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::new(Arc::new(ColumnData::Float64(values)))
    }

    /// Builds a `Bool` column from values.
    pub fn from_bool(values: Vec<bool>) -> Self {
        Column::new(Arc::new(ColumnData::Bool(values)))
    }

    /// Builds a dictionary-encoded string column from values.
    pub fn from_strings<S: AsRef<str>, I: IntoIterator<Item = S>>(values: I) -> Self {
        Column::new(Arc::new(ColumnData::Str(StringColumn::from_values(values))))
    }

    /// Builds a string column from an existing [`StringColumn`].
    pub fn from_string_column(col: StringColumn) -> Self {
        Column::new(Arc::new(ColumnData::Str(col)))
    }

    // ---------------------------------------------------------------- metadata

    /// Number of visible rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of the view within the backing storage.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Logical oid of the first visible row.
    ///
    /// Equals [`Column::offset`] for base-table columns and their slices;
    /// computed intermediates carry the base oid assigned via
    /// [`Column::with_base_oid`] (0 by default).
    pub fn base_oid(&self) -> Oid {
        self.base
    }

    /// One past the oid of the last visible row.
    pub fn end_oid(&self) -> Oid {
        self.base + self.len as Oid
    }

    /// Re-labels the logical base oid of this view (zero-copy).
    ///
    /// Used for computed intermediates that are positionally aligned with a
    /// base-column partition starting at `base`.
    pub fn with_base_oid(mut self, base: Oid) -> Column {
        self.base = base;
        self
    }

    /// Logical type of the column.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Bytes covered by the visible window: exactly `len × value_width`.
    pub fn byte_size(&self) -> usize {
        self.len * self.data_type().value_width()
    }

    /// Total length of the backing storage (ignoring the view window).
    pub fn backing_len(&self) -> usize {
        self.data.len()
    }

    /// True when two columns share the same backing allocation.
    pub fn shares_storage_with(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    // ---------------------------------------------------------------- slicing

    /// Returns a zero-copy sub-view of `len` rows starting at `start`
    /// (relative to this view).
    pub fn slice(&self, start: usize, len: usize) -> Result<Column> {
        if start.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(ColumnarError::InvalidSlice { start, len, column_len: self.len });
        }
        Ok(Column {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len,
            base: self.base + start as Oid,
        })
    }

    // ---------------------------------------------------------------- typed access

    /// Visible rows as an `i64` slice.
    pub fn i64_values(&self) -> Result<&[i64]> {
        match self.data.as_ref() {
            ColumnData::Int64(v) => Ok(&v[self.offset..self.offset + self.len]),
            other => Err(self.type_error("int64", other)),
        }
    }

    /// Visible rows as an `i32` slice.
    pub fn i32_values(&self) -> Result<&[i32]> {
        match self.data.as_ref() {
            ColumnData::Int32(v) => Ok(&v[self.offset..self.offset + self.len]),
            other => Err(self.type_error("int32", other)),
        }
    }

    /// Visible rows as an `f64` slice.
    pub fn f64_values(&self) -> Result<&[f64]> {
        match self.data.as_ref() {
            ColumnData::Float64(v) => Ok(&v[self.offset..self.offset + self.len]),
            other => Err(self.type_error("float64", other)),
        }
    }

    /// Visible rows as a `bool` slice.
    pub fn bool_values(&self) -> Result<&[bool]> {
        match self.data.as_ref() {
            ColumnData::Bool(v) => Ok(&v[self.offset..self.offset + self.len]),
            other => Err(self.type_error("bool", other)),
        }
    }

    /// Visible rows as dictionary codes plus the shared dictionary.
    pub fn str_codes(&self) -> Result<(&[u32], &Arc<Vec<String>>)> {
        let s = self.string_column()?;
        Ok((&s.codes()[self.offset..self.offset + self.len], s.dict()))
    }

    /// The underlying [`StringColumn`] (whole backing storage, ignoring the view).
    pub fn string_column(&self) -> Result<&StringColumn> {
        match self.data.as_ref() {
            ColumnData::Str(s) => Ok(s),
            other => Err(self.type_error("str", other)),
        }
    }

    fn type_error(&self, expected: &'static str, found: &ColumnData) -> ColumnarError {
        ColumnarError::TypeMismatch { expected, found: found.data_type().name() }
    }

    /// Scalar value of visible row `i`.
    pub fn get(&self, i: usize) -> Result<ScalarValue> {
        if i >= self.len {
            return Err(ColumnarError::OutOfBounds { index: i, len: self.len });
        }
        let p = self.offset + i;
        Ok(match self.data.as_ref() {
            ColumnData::Int64(v) => ScalarValue::I64(v[p]),
            ColumnData::Int32(v) => ScalarValue::I32(v[p]),
            ColumnData::Float64(v) => ScalarValue::F64(v[p]),
            ColumnData::Bool(v) => ScalarValue::Bool(v[p]),
            ColumnData::Str(v) => ScalarValue::Str(v.value(p).to_string()),
        })
    }

    // ---------------------------------------------------------------- gathering / materializing

    /// Gathers the rows addressed by absolute oids into a new, dense column,
    /// in `oids` order (duplicates and unsorted lists are fine).
    ///
    /// This is the tuple-reconstruction primitive (MonetDB `leftfetchjoin`):
    /// every oid must fall within this view's `[base_oid, end_oid)` range,
    /// otherwise the access is invalid (paper §2.3: misalignment leads to an
    /// "invalid access"). Validation and gathering are one pass; on error
    /// nothing is returned and `MisalignedOid` names the *first* offending
    /// oid in list order.
    pub fn gather_oids(&self, oids: &[Oid]) -> Result<Column> {
        let lo = self.base_oid();
        // An oid below `lo` wraps to a position no slice can hold.
        let positions =
            oids.iter().map(|&o| usize::try_from(o.wrapping_sub(lo)).unwrap_or(usize::MAX));
        self.gather(positions).map_err(|i| ColumnarError::MisalignedOid {
            oid: oids[i],
            lo,
            hi: self.end_oid(),
        })
    }

    /// The one gather loop: bounds check and load per position in a single
    /// pass per type. `Err(i)` is the index (in list order) of the first
    /// position outside the view.
    fn gather(&self, positions: impl Iterator<Item = usize>) -> std::result::Result<Column, usize> {
        fn pick<T: Copy + Default>(
            values: &[T],
            positions: impl Iterator<Item = usize>,
            first_bad: &mut Option<usize>,
        ) -> Vec<T> {
            // A miss stores a placeholder and keeps going: the loop stays
            // free of early exits (the iterator's exact length reserves the
            // output once) and the caller discards everything on error.
            positions
                .enumerate()
                .map(|(i, p)| match values.get(p) {
                    Some(&v) => v,
                    None => {
                        first_bad.get_or_insert(i);
                        T::default()
                    }
                })
                .collect()
        }
        let window = self.offset..self.offset + self.len;
        let mut bad = None;
        let out = match self.data.as_ref() {
            ColumnData::Int64(v) => Column::from_i64(pick(&v[window], positions, &mut bad)),
            ColumnData::Int32(v) => Column::from_i32(pick(&v[window], positions, &mut bad)),
            ColumnData::Float64(v) => Column::from_f64(pick(&v[window], positions, &mut bad)),
            ColumnData::Bool(v) => Column::from_bool(pick(&v[window], positions, &mut bad)),
            ColumnData::Str(s) => Column::from_string_column(s.with_codes(pick(
                &s.codes()[window],
                positions,
                &mut bad,
            ))),
        };
        bad.map_or(Ok(out), Err)
    }

    /// Concatenates several columns of the same type into one dense column.
    ///
    /// This is the value-column flavour of the exchange-union operator
    /// ("mat.pack" in the paper's plans). The inputs are packed in argument
    /// order, which is what preserves the mutation-sequence ordering the
    /// paper relies on (§2.3 "the exchange union operator must maintain the
    /// correct ordering"). String parts that share one dictionary (every
    /// window or gather of one base column does) keep it and concatenate
    /// their codes; parts with different dictionaries are re-encoded into a
    /// fresh one — the rows are the same either way.
    ///
    /// `InvalidPartitioning` for no parts, `TypeMismatch` naming the first
    /// part whose type differs from the first part's.
    pub fn concat(parts: &[Column]) -> Result<Column> {
        let first = parts.first().ok_or_else(|| {
            ColumnarError::InvalidPartitioning("cannot concatenate zero columns".to_string())
        })?;
        let ty = first.data_type();
        for p in parts {
            if p.data_type() != ty {
                return Err(ColumnarError::TypeMismatch {
                    expected: ty.name(),
                    found: p.data_type().name(),
                });
            }
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        Ok(match ty {
            DataType::Int64 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.i64_values()?);
                }
                Column::from_i64(out)
            }
            DataType::Int32 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.i32_values()?);
                }
                Column::from_i32(out)
            }
            DataType::Float64 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.f64_values()?);
                }
                Column::from_f64(out)
            }
            DataType::Bool => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.bool_values()?);
                }
                Column::from_bool(out)
            }
            DataType::Str => {
                let dict = first.string_column()?.dict();
                let mut shared = true;
                for p in parts {
                    shared &= Arc::ptr_eq(p.string_column()?.dict(), dict);
                }
                if shared {
                    // Windows and gathers of one base column share its
                    // dictionary: the codes already mean the same strings.
                    let mut codes = Vec::with_capacity(total);
                    for p in parts {
                        codes.extend_from_slice(p.str_codes()?.0);
                    }
                    Column::from_string_column(first.string_column()?.with_codes(codes))
                } else {
                    // Genuinely different dictionaries: re-encode through strings.
                    let mut values: Vec<&str> = Vec::with_capacity(total);
                    for p in parts {
                        let (codes, dict) = p.str_codes()?;
                        values.extend(codes.iter().map(|&c| dict[c as usize].as_str()));
                    }
                    Column::from_strings(values)
                }
            }
        })
    }

    // ---------------------------------------------------------------- test helpers

    /// Materializes the visible rows as owned scalars (test / debugging helper).
    pub fn to_scalars(&self) -> Vec<ScalarValue> {
        (0..self.len).map(|i| self.get(i).expect("in range")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        assert_eq!(c.byte_size(), 32);
        assert_eq!(c.len(), 4);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.i64_values().unwrap(), &[10, 20, 30, 40]);
        assert_eq!(c.get(2).unwrap(), ScalarValue::I64(30));
        assert!(c.get(4).is_err());
        assert!(!c.is_empty());
    }

    #[test]
    fn slicing_is_zero_copy_and_oid_aware() {
        let c = Column::from_i64((0..100).collect());
        let s = c.slice(10, 20).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.base_oid(), 10);
        assert_eq!(s.end_oid(), 30);
        assert_eq!(s.i64_values().unwrap()[0], 10);
        assert!(s.shares_storage_with(&c));

        // Slicing a slice keeps absolute oids.
        let s2 = s.slice(5, 5).unwrap();
        assert_eq!(s2.base_oid(), 15);
        assert_eq!(s2.i64_values().unwrap(), &[15, 16, 17, 18, 19]);

        // Out of bounds slice is rejected.
        assert!(c.slice(95, 10).is_err());
        assert!(matches!(c.slice(95, 10).unwrap_err(), ColumnarError::InvalidSlice { .. }));
    }

    #[test]
    fn slice_by_oid_range() {
        let c = Column::from_i64((0..50).collect());
        let part = c.slice(20, 10).unwrap();
        assert_eq!(part.base_oid(), 20);
        assert_eq!(part.len(), 10);
        // A sub-partition of the partition, labelled with absolute oids.
        let sub = part.slice(5, 3).unwrap();
        assert_eq!(sub.base_oid(), 25);
        assert_eq!(sub.i64_values().unwrap(), &[25, 26, 27]);
    }

    #[test]
    fn typed_access_mismatch() {
        let c = Column::from_f64(vec![1.0, 2.0]);
        assert!(c.i64_values().is_err());
        assert!(c.bool_values().is_err());
        assert_eq!(c.f64_values().unwrap(), &[1.0, 2.0]);
        let e = c.i64_values().unwrap_err();
        assert!(matches!(e, ColumnarError::TypeMismatch { .. }));
    }

    #[test]
    fn gather_by_oid_checks_alignment() {
        let c = Column::from_i64((0..100).map(|v| v * 2).collect());
        let part = c.slice(50, 50).unwrap(); // oids [50, 100)
        let g = part.gather_oids(&[50, 99, 60]).unwrap();
        assert_eq!(g.i64_values().unwrap(), &[100, 198, 120]);

        // oid 10 lies before the partition: invalid access.
        let err = part.gather_oids(&[10]).unwrap_err();
        assert!(matches!(err, ColumnarError::MisalignedOid { oid: 10, lo: 50, hi: 100 }));
    }

    #[test]
    fn concat_packs_in_order() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![3]);
        let c = Column::from_i64(vec![4, 5, 6]);
        let packed = Column::concat(&[a, b, c]).unwrap();
        assert_eq!(packed.i64_values().unwrap(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn concat_rejects_mixed_types_and_empty() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_f64(vec![2.0]);
        assert!(Column::concat(&[a, b]).is_err());
        assert!(Column::concat(&[]).is_err());
    }

    #[test]
    fn concat_strings_keeps_a_shared_dictionary_and_reencodes_distinct_ones() {
        let strings = |c: &Column| -> Vec<String> {
            let (codes, dict) = c.str_codes().unwrap();
            codes.iter().map(|&code| dict[code as usize].clone()).collect()
        };
        // Windows and a gather of one base column: one dictionary, kept.
        let base = Column::from_strings(["x", "y", "z", "y", "x"]);
        let parts = [
            base.slice(3, 2).unwrap(),
            base.gather_oids(&[2, 0]).unwrap(),
            base.slice(0, 1).unwrap(),
        ];
        let packed = Column::concat(&parts).unwrap();
        assert_eq!(strings(&packed), ["y", "x", "z", "x", "x"]);
        assert!(Arc::ptr_eq(
            packed.string_column().unwrap().dict(),
            base.string_column().unwrap().dict()
        ));

        // Different dictionaries (equal or not): re-encoded, same rows.
        let other = Column::from_strings(["y", "w"]);
        let packed = Column::concat(&[base.slice(1, 2).unwrap(), other.clone()]).unwrap();
        assert_eq!(strings(&packed), ["y", "z", "y", "w"]);
        assert!(!Arc::ptr_eq(
            packed.string_column().unwrap().dict(),
            base.string_column().unwrap().dict()
        ));
        assert_eq!(packed.string_column().unwrap().dict_len(), 3);
        let twin = Column::from_strings(["x", "y", "z", "y", "x"]);
        let packed = Column::concat(&[base.clone(), twin]).unwrap();
        assert_eq!(packed.len(), 10);
        assert_eq!(strings(&packed)[5..], strings(&base)[..]);
    }

    #[test]
    fn gather_reports_the_first_offender_in_list_order() {
        let part = Column::from_i64((0..100).collect()).slice(50, 10).unwrap(); // oids [50, 60)
                                                                                // 70 comes before 3 in the list, although 3 is the smaller oid.
        let err = part.gather_oids(&[55, 70, 3, 51]).unwrap_err();
        assert_eq!(err, ColumnarError::MisalignedOid { oid: 70, lo: 50, hi: 60 });
        let err = part.gather_oids(&[49]).unwrap_err();
        assert_eq!(err, ColumnarError::MisalignedOid { oid: 49, lo: 50, hi: 60 });
        // Duplicates, any order, all five types.
        assert_eq!(part.gather_oids(&[59, 50, 59]).unwrap().i64_values().unwrap(), &[59, 50, 59]);
        let strings = Column::from_strings(["a", "b", "c"]).slice(1, 2).unwrap();
        assert_eq!(strings.gather_oids(&[2, 1, 2]).unwrap().to_scalars().len(), 3);
        assert!(strings.gather_oids(&[0]).is_err());
        assert!(Column::from_i64(vec![]).gather_oids(&[]).unwrap().is_empty());
        assert!(Column::from_i64(vec![]).gather_oids(&[0]).is_err());
    }

    #[test]
    fn relabelled_base_oid_keeps_alignment() {
        // A computed intermediate holding values for base rows [100, 104).
        let computed = Column::from_i64(vec![7, 8, 9, 10]).with_base_oid(100);
        assert_eq!(computed.base_oid(), 100);
        assert_eq!(computed.end_oid(), 104);
        // Values are still read positionally.
        assert_eq!(computed.i64_values().unwrap(), &[7, 8, 9, 10]);
        // Absolute-oid access resolves against the logical base.
        let g = computed.gather_oids(&[103, 100]).unwrap();
        assert_eq!(g.i64_values().unwrap(), &[10, 7]);
        assert!(computed.gather_oids(&[0]).is_err());
        // Slicing shifts the base along.
        let s = computed.slice(2, 2).unwrap();
        assert_eq!(s.base_oid(), 102);
        assert_eq!(s.i64_values().unwrap(), &[9, 10]);
        let r = computed.slice(1, 2).unwrap();
        assert_eq!(r.base_oid(), 101);
        assert_eq!(r.i64_values().unwrap(), &[8, 9]);
    }

    #[test]
    fn i32_bool_columns() {
        let c = Column::from_i32(vec![7, 8, 9]);
        assert_eq!(c.i32_values().unwrap(), &[7, 8, 9]);
        assert_eq!(c.get(0).unwrap(), ScalarValue::I32(7));
        let b = Column::from_bool(vec![true, false]);
        assert_eq!(b.byte_size(), 2);
        assert_eq!(b.bool_values().unwrap(), &[true, false]);
    }

    #[test]
    fn str_access_through_a_window_sees_the_whole_dictionary() {
        let c = Column::from_strings(["a", "b", "c", "d"]);
        let s = c.slice(2, 2).unwrap();
        let (codes, dict) = s.str_codes().unwrap();
        assert_eq!(codes.len(), 2);
        assert_eq!(dict[codes[0] as usize], "c");
        assert_eq!(s.string_column().unwrap().len(), 4);
    }

    #[test]
    fn a_view_is_one_arc_plus_its_window() {
        assert_eq!(
            std::mem::size_of::<Column>(),
            std::mem::size_of::<Arc<ColumnData>>()
                + 2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<Oid>()
        );
        // Disjoint windows claim exactly the bytes of the view they split.
        let c = Column::from_i64((0..100).collect());
        let (w1, w2) = (c.slice(0, 50).unwrap(), c.slice(50, 50).unwrap());
        assert_eq!(w1.byte_size() + w2.byte_size(), c.byte_size());
        assert_eq!(c.byte_size(), 800);
    }
}
