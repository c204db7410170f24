//! The select operator: predicate evaluation producing a candidate oid list.
//!
//! The output is a list of *absolute* oids (positions in the base column),
//! not positions within the slice — this is what keeps the results of select
//! clones running on different dynamic partitions directly combinable by the
//! exchange-union operator and directly usable by tuple reconstruction.

use apq_columnar::{Column, Oid};

use crate::error::Result;
use crate::predicate::{Predicate, RowKernel};

/// Oids are compacted into a stack block of this many entries and appended
/// to the output a block at a time.
const BLOCK: usize = 1024;

/// Evaluates `predicate` over every visible row of `column` and returns the
/// absolute oids (`column.base_oid() + row`) of matching rows, in ascending
/// order.
///
/// One pass over the typed slice, no row mask. A predicate that cannot apply
/// to the column's type is `PredicateTypeMismatch`, also for an empty column.
pub fn select(column: &Column, predicate: &Predicate) -> Result<Vec<Oid>> {
    struct Scan(Oid);
    impl RowKernel for Scan {
        type Out = Vec<Oid>;
        fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Vec<Oid> {
            let mut out = Vec::new();
            let mut block = [0 as Oid; BLOCK];
            let mut oid = self.0;
            for rows in values.chunks(BLOCK) {
                // Every row stores its oid; only a hit advances the cursor,
                // so there is no branch on the data. `k` never passes the
                // rows seen of a chunk of at most BLOCK, so the (checked)
                // indexing stays in bounds.
                let mut k = 0;
                for &v in rows {
                    block[k] = oid;
                    k += hit(v) as usize;
                    oid += 1;
                }
                out.extend_from_slice(&block[..k]);
            }
            out
        }

        /// 64 rows at a time: the range test fills 64 bytes (a loop the
        /// compiler vectorizes), eight multiply-shifts gather them into a
        /// 64-bit mask, and only its set bits store an oid. Measured 3.3×
        /// the stack-block loop's speed at 1 % selectivity and 1.2× at 60 %
        /// on `Int32` dates (`docs/architecture.md` §1.1); over wider values
        /// the byte-mask's pack costs more than it saves.
        fn run_i32_range(self, values: &[i32], lo: i32, hi: i32) -> Vec<Oid> {
            let mut out = Vec::new();
            let mut block = [0 as Oid; BLOCK];
            let mut oid = self.0;
            for rows in values.chunks(BLOCK) {
                let mut k = 0;
                let mut groups = rows.chunks_exact(64);
                for group in &mut groups {
                    let mut hits = [0u8; 64];
                    for (hit, &v) in hits.iter_mut().zip(group) {
                        *hit = u8::from((lo <= v) & (v <= hi));
                    }
                    // Byte `i` of a word (0 or 1) lands on bit `56 + i` of
                    // its product with this constant, with no carry.
                    let mut mask = 0u64;
                    for (i, eight) in hits.chunks_exact(8).enumerate() {
                        let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
                        mask |= (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
                    }
                    // `k` grows by at most 64 per group of a chunk of at
                    // most BLOCK rows, so the (checked) index stays in bounds.
                    while mask != 0 {
                        block[k] = oid + Oid::from(mask.trailing_zeros());
                        k += 1;
                        mask &= mask - 1;
                    }
                    oid += 64;
                }
                for &v in groups.remainder() {
                    block[k] = oid;
                    k += usize::from((lo <= v) & (v <= hi));
                    oid += 1;
                }
                out.extend_from_slice(&block[..k]);
            }
            out
        }
    }
    Ok(predicate.resolve(column)?.drive(Scan(column.base_oid())))
}

/// Evaluates `predicate` only for the rows named by `candidates` (absolute
/// oids) and returns the surviving oids, preserving the candidate order
/// (unsorted and duplicated candidates are kept as given).
///
/// This is the second select flavour of paper §2.2: a filter that accepts a
/// column *and* the output of a previous selection. Candidates that fall
/// outside the column's `[base_oid, end_oid)` are ignored (they belong to
/// another partition's clone and will be evaluated there). The partition
/// test, the value load and the predicate are one loop over the candidates —
/// no gathered column.
///
/// The predicate is resolved before any candidate is looked at, so a
/// predicate that cannot apply to the column's type is
/// `PredicateTypeMismatch` even when no candidate falls inside the partition.
pub fn select_with_candidates(
    column: &Column,
    predicate: &Predicate,
    candidates: &[Oid],
) -> Result<Vec<Oid>> {
    struct Probe<'a>(Oid, &'a [Oid]);
    impl RowKernel for Probe<'_> {
        type Out = Vec<Oid>;
        fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Vec<Oid> {
            let Probe(lo, candidates) = self;
            let mut out = Vec::new();
            let Some(last) = values.len().checked_sub(1) else {
                return out;
            };
            let mut block = [0 as Oid; BLOCK];
            for oids in candidates.chunks(BLOCK) {
                let mut k = 0;
                for &oid in oids {
                    // An oid below `lo` wraps to a position past the end. An
                    // outside candidate still loads a value (the last row's)
                    // so that the loop has no branch; `inside` discards it.
                    let pos = oid.wrapping_sub(lo);
                    let inside = pos <= last as Oid;
                    let v = values[if inside { pos as usize } else { last }];
                    block[k] = oid;
                    k += (inside & hit(v)) as usize;
                }
                out.extend_from_slice(&block[..k]);
            }
            out
        }
    }
    Ok(predicate.resolve(column)?.drive(Probe(column.base_oid(), candidates)))
}

/// Fraction of rows of `column` that satisfy `predicate` (test / workload helper).
pub fn selectivity(column: &Column, predicate: &Predicate) -> Result<f64> {
    if column.is_empty() {
        return Ok(0.0);
    }
    let hits = select(column, predicate)?.len();
    Ok(hits as f64 / column.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    #[test]
    fn select_returns_absolute_oids() {
        let base = Column::from_i64((0..100).collect());
        let slice = base.slice(40, 20).unwrap(); // oids [40, 60)
        let oids = select(&slice, &Predicate::cmp(CmpOp::Ge, 55i64)).unwrap();
        assert_eq!(oids, vec![55, 56, 57, 58, 59]);
    }

    #[test]
    fn select_on_full_column() {
        let c = Column::from_i64(vec![5, 1, 9, 3]);
        let oids = select(&c, &Predicate::cmp(CmpOp::Gt, 3i64)).unwrap();
        assert_eq!(oids, vec![0, 2]);
        let none = select(&c, &Predicate::cmp(CmpOp::Gt, 100i64)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn partitioned_selects_union_to_serial_select() {
        let values: Vec<i64> = (0..1000).map(|v| (v * 7919) % 100).collect();
        let c = Column::from_i64(values);
        let pred = Predicate::cmp(CmpOp::Lt, 37i64);
        let serial = select(&c, &pred).unwrap();

        let mut packed = Vec::new();
        for (start, len) in [(0usize, 400usize), (400, 350), (750, 250)] {
            let part = c.slice(start, len).unwrap();
            packed.extend(select(&part, &pred).unwrap());
        }
        assert_eq!(packed, serial);
    }

    #[test]
    fn candidate_select_preserves_order_and_filters() {
        let c = Column::from_i64(vec![10, 20, 30, 40, 50]);
        let cands = vec![4, 1, 3];
        let out = select_with_candidates(&c, &Predicate::cmp(CmpOp::Ge, 40i64), &cands).unwrap();
        assert_eq!(out, vec![4, 3]);
    }

    #[test]
    fn candidate_select_ignores_out_of_partition_oids() {
        let base = Column::from_i64((0..100).collect());
        let part = base.slice(50, 50).unwrap();
        // Candidates 10 and 20 belong to the other partition: silently skipped.
        let out =
            select_with_candidates(&part, &Predicate::cmp(CmpOp::Ge, 0i64), &[10, 20, 60, 70])
                .unwrap();
        assert_eq!(out, vec![60, 70]);
        // All candidates out of range.
        let out =
            select_with_candidates(&part, &Predicate::cmp(CmpOp::Ge, 0i64), &[1, 2, 3]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn selectivity_helper() {
        let c = Column::from_i64((0..100).collect());
        let s = selectivity(&c, &Predicate::cmp(CmpOp::Lt, 25i64)).unwrap();
        assert!((s - 0.25).abs() < 1e-9);
        let empty = Column::from_i64(vec![]);
        assert_eq!(selectivity(&empty, &Predicate::cmp(CmpOp::Lt, 1i64)).unwrap(), 0.0);
    }
}
