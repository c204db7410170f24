//! The exchange-union operator (`mat.pack`).
//!
//! The exchange-union combines the results of cloned operators running on
//! different partitions back into a single intermediate (paper §2.1). Its
//! cost is proportional to the amount of data being packed, which is why the
//! paper treats it as a first-class operator that can itself become the most
//! expensive one (triggering the *medium mutation*) and why low-selectivity
//! plans push it as high as possible (§4.1.2).
//!
//! Packing preserves the argument order; because clones are appended to the
//! union in mutation-sequence order, this is exactly the ordering guarantee
//! the paper relies on ("the correct ordering is maintained, as the operators
//! whose results are packed follow the mutation sequence order").

use apq_columnar::{Column, Oid};

use crate::error::{OperatorError, Result};

/// Packs per-partition candidate lists into one list, in argument order.
///
/// Parts are borrowed (`&[Oid]` slices, owned `Vec`s, or anything slice-like)
/// so callers holding windowed views pack straight from the shared backing —
/// one allocation for the output, no per-part intermediate copies.
pub fn pack_oids<S: AsRef<[Oid]>>(parts: &[S]) -> Vec<Oid> {
    let total: usize = parts.iter().map(|p| p.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend_from_slice(p.as_ref());
    }
    out
}

/// Packs per-partition value columns into one dense column, in argument order.
pub fn pack_columns(parts: &[Column]) -> Result<Column> {
    if parts.is_empty() {
        return Err(OperatorError::EmptyInput("pack_columns"));
    }
    Ok(Column::concat(parts)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_oids_preserves_partition_order() {
        let a = vec![1u64, 2, 3];
        let b = vec![10u64];
        let c = vec![];
        let d = vec![20u64, 21];
        assert_eq!(pack_oids(&[a, b, c, d]), vec![1, 2, 3, 10, 20, 21]);
        assert!(pack_oids::<Vec<Oid>>(&[]).is_empty());
    }

    #[test]
    fn pack_oids_packs_from_borrowed_slices() {
        // Windowed callers pack straight from a shared backing: slices of
        // one vector, no per-part owned clones.
        let backing: Vec<Oid> = (0..10).collect();
        let parts: [&[Oid]; 3] = [&backing[0..4], &backing[4..4], &backing[4..10]];
        assert_eq!(pack_oids(&parts), backing);
    }

    #[test]
    fn pack_columns_concatenates() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![3]);
        let out = pack_columns(&[a, b]).unwrap();
        assert_eq!(out.i64_values().unwrap(), &[1, 2, 3]);
        assert!(pack_columns(&[]).is_err());
    }
}
