//! Kernel property suite: every one-pass kernel against the two-pass body it
//! replaced.
//!
//! [`reference`] holds the previous implementations of `eval_mask`, `select`,
//! `select_with_candidates`, `gather_oids`, the hash join (the build, the
//! pair probes and the existence probes before key sets and bitmaps),
//! `grouped_agg` and the three `calc` flavours, written against the public
//! API only. Each property
//! generates columns of all five types (as windows with a non-zero offset
//! and, sometimes, a relabelled base oid), predicates of every shape with
//! constants of every type, and oid lists that are unsorted, duplicated,
//! empty and out of partition, and demands the same `Result` — the same `Ok`
//! value and the same error, field for field. One deterministic test lines
//! outer lengths and hit patterns up with the edges of the probe's row blocks.
//!
//! The vendored proptest shim has no recursive or mapped strategies, so each
//! property draws one seed and [`Gen`] derives the inputs from it; a failure
//! prints the seed, which reproduces the case exactly.
//!
//! Run it in `--release` as well (CI does): the debug build's overflow and
//! bounds checks change the loops this suite is meant to exercise.

use apq_columnar::{Column, ColumnarError, DataType, Oid, ScalarValue, StringColumn};
use apq_operators::join::BITMAP_FLOOR_BYTES;
use apq_operators::{
    calc_col_col, calc_col_scalar, calc_scalar_col, fetch, grouped_agg, merge_grouped, select,
    select_with_candidates, AggFunc, AggState, BinaryOp, CmpOp, GroupKey, JoinHashTable,
    JoinResult, KeySetPart, OperatorError, Predicate,
};
use proptest::prelude::*;

type Result<T> = std::result::Result<T, OperatorError>;

/// The bodies the kernels had before the one-pass rewrite.
mod reference {
    use super::*;
    use apq_columnar::strings::like_match;
    use std::collections::HashMap;

    fn holds<T: PartialOrd>(op: CmpOp, left: T, right: T) -> bool {
        match op {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }

    fn type_error(p: &Predicate, column: &Column) -> OperatorError {
        OperatorError::PredicateTypeMismatch {
            column_type: column.data_type().name(),
            predicate: p.describe(),
        }
    }

    pub fn eval_mask(p: &Predicate, column: &Column) -> Result<Vec<bool>> {
        match p {
            Predicate::And(a, b) => {
                let mut m = eval_mask(a, column)?;
                let mb = eval_mask(b, column)?;
                for (x, y) in m.iter_mut().zip(mb) {
                    *x = *x && y;
                }
                Ok(m)
            }
            Predicate::Or(a, b) => {
                let mut m = eval_mask(a, column)?;
                let mb = eval_mask(b, column)?;
                for (x, y) in m.iter_mut().zip(mb) {
                    *x = *x || y;
                }
                Ok(m)
            }
            Predicate::Not(a) => {
                let mut m = eval_mask(a, column)?;
                for x in m.iter_mut() {
                    *x = !*x;
                }
                Ok(m)
            }
            _ => eval_leaf(p, column),
        }
    }

    fn eval_leaf(p: &Predicate, column: &Column) -> Result<Vec<bool>> {
        match column.data_type() {
            DataType::Int64 => eval_i64(p, column.i64_values()?.iter().copied(), column),
            // Widening: predicates on dates are i32 columns with i64 constants.
            DataType::Int32 => eval_i64(p, column.i32_values()?.iter().map(|&v| v as i64), column),
            DataType::Float64 => eval_f64(p, column.f64_values()?, column),
            DataType::Bool => eval_bool(p, column.bool_values()?, column),
            DataType::Str => eval_str(p, column),
        }
    }

    fn eval_i64(
        p: &Predicate,
        values: impl Iterator<Item = i64>,
        column: &Column,
    ) -> Result<Vec<bool>> {
        Ok(match p {
            Predicate::Compare { op, value } => {
                let rhs = value.as_i64().ok_or_else(|| type_error(p, column))?;
                values.map(|v| holds(*op, v, rhs)).collect()
            }
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => {
                let lo = lo.as_i64().ok_or_else(|| type_error(p, column))?;
                let hi = hi.as_i64().ok_or_else(|| type_error(p, column))?;
                values
                    .map(|v| {
                        let ge = if *lo_inclusive { v >= lo } else { v > lo };
                        let le = if *hi_inclusive { v <= hi } else { v < hi };
                        ge && le
                    })
                    .collect()
            }
            Predicate::InI64(set) => values.map(|v| set.contains(&v)).collect(),
            _ => return Err(type_error(p, column)),
        })
    }

    fn eval_f64(p: &Predicate, values: &[f64], column: &Column) -> Result<Vec<bool>> {
        Ok(match p {
            Predicate::Compare { op, value } => {
                let rhs = value.as_f64().ok_or_else(|| type_error(p, column))?;
                values.iter().map(|&v| holds(*op, v, rhs)).collect()
            }
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => {
                let lo = lo.as_f64().ok_or_else(|| type_error(p, column))?;
                let hi = hi.as_f64().ok_or_else(|| type_error(p, column))?;
                values
                    .iter()
                    .map(|&v| {
                        let ge = if *lo_inclusive { v >= lo } else { v > lo };
                        let le = if *hi_inclusive { v <= hi } else { v < hi };
                        ge && le
                    })
                    .collect()
            }
            _ => return Err(type_error(p, column)),
        })
    }

    fn eval_bool(p: &Predicate, values: &[bool], column: &Column) -> Result<Vec<bool>> {
        match p {
            Predicate::IsTrue => Ok(values.to_vec()),
            Predicate::Compare { op: CmpOp::Eq, value: ScalarValue::Bool(b) } => {
                Ok(values.iter().map(|&v| v == *b).collect())
            }
            _ => Err(type_error(p, column)),
        }
    }

    fn eval_str(p: &Predicate, column: &Column) -> Result<Vec<bool>> {
        let (codes, dict) = column.str_codes()?;
        let dict_mask: Vec<bool> = match p {
            Predicate::Compare { op, value } => {
                let rhs = value.as_str().ok_or_else(|| type_error(p, column))?;
                dict.iter().map(|s| holds(*op, s.as_str(), rhs)).collect()
            }
            Predicate::Like { pattern } => dict.iter().map(|s| like_match(pattern, s)).collect(),
            Predicate::InStr(set) => dict.iter().map(|s| set.iter().any(|x| x == s)).collect(),
            _ => return Err(type_error(p, column)),
        };
        Ok(codes.iter().map(|&c| dict_mask[c as usize]).collect())
    }

    /// `select`'s one-pass body before `Int32` ranges got their own loop:
    /// every row stores its oid into a 1,024-entry stack block and only a
    /// hit advances the cursor, the values widened to `i64` for the test.
    pub fn select_widening(column: &Column, hit: impl Fn(i64) -> bool) -> Vec<Oid> {
        let values = column.i32_values().unwrap();
        let mut out = Vec::new();
        let mut block = [0 as Oid; 1024];
        let mut oid = column.base_oid();
        for rows in values.chunks(1024) {
            let mut k = 0;
            for &v in rows {
                block[k] = oid;
                k += hit(i64::from(v)) as usize;
                oid += 1;
            }
            out.extend_from_slice(&block[..k]);
        }
        out
    }

    pub fn select(column: &Column, predicate: &Predicate) -> Result<Vec<Oid>> {
        let mask = eval_mask(predicate, column)?;
        let base = column.base_oid();
        let mut out = Vec::new();
        for (i, hit) in mask.into_iter().enumerate() {
            if hit {
                out.push(base + i as Oid);
            }
        }
        Ok(out)
    }

    pub fn select_with_candidates(
        column: &Column,
        predicate: &Predicate,
        candidates: &[Oid],
    ) -> Result<Vec<Oid>> {
        let lo = column.base_oid();
        let hi = column.end_oid();
        let in_range: Vec<Oid> =
            candidates.iter().copied().filter(|&o| o >= lo && o < hi).collect();
        if in_range.is_empty() {
            return Ok(Vec::new());
        }
        let gathered = gather_oids(column, &in_range)?;
        let mask = eval_mask(predicate, &gathered)?;
        Ok(in_range.into_iter().zip(mask).filter_map(|(oid, hit)| hit.then_some(oid)).collect())
    }

    /// Validate every oid, then gather by position.
    pub fn gather_oids(column: &Column, oids: &[Oid]) -> Result<Column> {
        let lo = column.base_oid();
        let hi = column.end_oid();
        for &oid in oids {
            if oid < lo || oid >= hi {
                return Err(ColumnarError::MisalignedOid { oid, lo, hi }.into());
            }
        }
        let positions = oids.iter().map(|&o| (o - lo) as usize);
        Ok(match column.data_type() {
            DataType::Int64 => {
                let v = column.i64_values()?;
                Column::from_i64(positions.map(|p| v[p]).collect())
            }
            DataType::Int32 => {
                let v = column.i32_values()?;
                Column::from_i32(positions.map(|p| v[p]).collect())
            }
            DataType::Float64 => {
                let v = column.f64_values()?;
                Column::from_f64(positions.map(|p| v[p]).collect())
            }
            DataType::Bool => {
                let v = column.bool_values()?;
                Column::from_bool(positions.map(|p| v[p]).collect())
            }
            DataType::Str => {
                let abs: Vec<usize> = positions.map(|p| column.offset() + p).collect();
                Column::from_string_column(column.string_column()?.gather(&abs))
            }
        })
    }

    const EMPTY: u32 = u32::MAX;
    const BLOCK: usize = 256;

    /// The join table before key sets and bitmaps: a dense directory
    /// (`slot = key − min`) when the keys' span is below the
    /// `(2n).next_power_of_two()` buckets a hashed one would have, Fibonacci
    /// top-bit buckets otherwise, the key column kept either way, and pairs
    /// pushed one at a time.
    pub struct Table {
        /// `Some(min)` for a dense directory, `None` for a hashed one.
        dense_min: Option<i64>,
        mask: u64,
        heads: Vec<u32>,
        next: Vec<u32>,
        keys: Column,
        base: Oid,
    }

    fn hash_key(key: i64, mask: u64) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> mask.leading_zeros()) as usize
    }

    fn dense_slot(key: i64, min: i64) -> usize {
        usize::try_from(key.wrapping_sub(min) as u64).unwrap_or(usize::MAX)
    }

    fn dense_range(keys: &[i64], limit: u64) -> Option<(i64, i64)> {
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for block in keys.chunks(1024) {
            (min, max) = block.iter().fold((min, max), |(lo, hi), &k| (lo.min(k), hi.max(k)));
            if max.abs_diff(min) >= limit {
                return None;
            }
        }
        (min <= max).then_some((min, max))
    }

    fn link(keys: &[i64], heads: &mut [u32], next: &mut [u32], slot: impl Fn(i64) -> usize) {
        for (i, (&key, link)) in keys.iter().zip(next).enumerate() {
            let head = &mut heads[slot(key)];
            *link = *head;
            *head = i as u32;
        }
    }

    impl Table {
        pub fn build(inner: &Column) -> Result<Table> {
            if inner.len() >= EMPTY as usize {
                return Err(OperatorError::JoinBuildTooLarge { rows: inner.len() });
            }
            let keys = match inner.data_type() {
                DataType::Int64 => inner.clone(),
                DataType::Int32 => {
                    Column::from_i64(inner.i32_values()?.iter().map(|&v| v as i64).collect())
                }
                other => return Err(OperatorError::UnsupportedJoinKey(other.name())),
            };
            let values = keys.i64_values()?;
            let n = values.len();
            let n_buckets = (n.max(1) * 2).next_power_of_two();
            let mut next = vec![EMPTY; n];
            let mask = (n_buckets - 1) as u64;
            let (dense_min, heads) = match dense_range(values, n_buckets as u64) {
                Some((min, max)) => {
                    let mut heads = vec![EMPTY; max.abs_diff(min) as usize + 1];
                    link(values, &mut heads, &mut next, |k| dense_slot(k, min));
                    (Some(min), heads)
                }
                None => {
                    let mut heads = vec![EMPTY; n_buckets];
                    link(values, &mut heads, &mut next, |k| hash_key(k, mask));
                    (None, heads)
                }
            };
            Ok(Table { dense_min, mask, heads, next, keys, base: inner.base_oid() })
        }

        /// The probe body: a block's chain heads first, rows with an empty
        /// slot dropped, then the survivors' chains; `first` stops a row's
        /// walk at its first match.
        fn walk(
            &self,
            outer: &[i64],
            first: bool,
            mut on_match: impl FnMut(usize, Oid),
            mut on_block: impl FnMut(usize, &[bool]),
        ) {
            let keys = self.keys.i64_values().unwrap();
            let slot = |k: i64| match self.dense_min {
                Some(min) => dense_slot(k, min),
                None => hash_key(k, self.mask),
            };
            let mut firsts = [EMPTY; BLOCK];
            let mut rows = [0u16; BLOCK];
            let mut matched = [false; BLOCK];
            for (b, block) in outer.chunks(BLOCK).enumerate() {
                let mut c = 0;
                for (r, &k) in block.iter().enumerate() {
                    let head = self.heads.get(slot(k)).map_or(EMPTY, |&h| h);
                    firsts[c] = head;
                    rows[c] = r as u16;
                    c += usize::from(head != EMPTY);
                }
                let matched = &mut matched[..block.len()];
                matched.fill(false);
                for (&head, &r) in firsts[..c].iter().zip(&rows[..c]) {
                    let r = usize::from(r);
                    let mut e = head;
                    while e != EMPTY {
                        let j = e as usize;
                        if self.dense_min.is_some() || keys[j] == block[r] {
                            matched[r] = true;
                            on_match(b * BLOCK + r, j as Oid);
                            if first {
                                break;
                            }
                        }
                        e = self.next[j];
                    }
                }
                on_block(b * BLOCK, matched);
            }
        }

        pub fn lookup(&self, key: i64) -> Vec<Oid> {
            let mut out = Vec::new();
            self.walk(&[key], false, |_, j| out.push(self.base + j), |_, _| {});
            out
        }

        pub fn probe(&self, outer: &Column) -> Result<JoinResult> {
            let keys = key_values(outer)?;
            let base = outer.base_oid();
            let mut result = JoinResult {
                outer_oids: Vec::with_capacity(outer.len()),
                inner_oids: Vec::with_capacity(outer.len()),
            };
            self.walk(
                &keys,
                false,
                |i, j| {
                    result.outer_oids.push(base + i as Oid);
                    result.inner_oids.push(self.base + j);
                },
                |_, _| {},
            );
            Ok(result)
        }

        fn existence(&self, outer: &Column, wanted: bool) -> Result<Vec<Oid>> {
            let keys = key_values(outer)?;
            let base = outer.base_oid();
            let mut out = Vec::new();
            self.walk(
                &keys,
                true,
                |_, _| {},
                |start, matched| {
                    for (r, &m) in matched.iter().enumerate() {
                        if m == wanted {
                            out.push(base + (start + r) as Oid);
                        }
                    }
                },
            );
            Ok(out)
        }

        pub fn probe_semi(&self, outer: &Column) -> Result<Vec<Oid>> {
            self.existence(outer, true)
        }

        pub fn probe_anti(&self, outer: &Column) -> Result<Vec<Oid>> {
            self.existence(outer, false)
        }
    }

    fn key_values(column: &Column) -> Result<Vec<i64>> {
        match column.data_type() {
            DataType::Int64 => Ok(column.i64_values()?.to_vec()),
            DataType::Int32 => Ok(column.i32_values()?.iter().map(|&v| v as i64).collect()),
            other => Err(OperatorError::UnsupportedJoinKey(other.name())),
        }
    }

    fn apply_i64(op: BinaryOp, a: i64, b: i64) -> Result<i64> {
        Ok(match op {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Div => {
                if b == 0 {
                    return Err(OperatorError::DivisionByZero);
                }
                a / b
            }
        })
    }

    fn apply_f64(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
        Ok(match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    return Err(OperatorError::DivisionByZero);
                }
                a / b
            }
        })
    }

    fn numeric_error(left: DataType, right: DataType) -> OperatorError {
        OperatorError::InvalidCalc(format!(
            "calc requires numeric inputs of matching class, got {left} and {right}"
        ))
    }

    fn is_int(t: DataType) -> bool {
        matches!(t, DataType::Int64 | DataType::Int32)
    }

    fn widened_i64(col: &Column) -> Result<std::borrow::Cow<'_, [i64]>> {
        match col.data_type() {
            DataType::Int64 => Ok(std::borrow::Cow::Borrowed(col.i64_values()?)),
            DataType::Int32 => {
                Ok(std::borrow::Cow::Owned(col.i32_values()?.iter().map(|&v| v as i64).collect()))
            }
            other => Err(numeric_error(other, other)),
        }
    }

    /// A per-row `Result` and a per-row `match op`, over `Int32` inputs
    /// widened into copies first.
    pub fn calc_col_col(op: BinaryOp, left: &Column, right: &Column) -> Result<Column> {
        if left.len() != right.len() {
            return Err(OperatorError::LengthMismatch { left: left.len(), right: right.len() });
        }
        match (left.data_type(), right.data_type()) {
            (DataType::Float64, DataType::Float64) => {
                let l = left.f64_values()?;
                let r = right.f64_values()?;
                let mut out = Vec::with_capacity(l.len());
                for (a, b) in l.iter().zip(r) {
                    out.push(apply_f64(op, *a, *b)?);
                }
                Ok(Column::from_f64(out))
            }
            (lt, rt) if is_int(lt) && is_int(rt) => {
                let l = widened_i64(left)?;
                let r = widened_i64(right)?;
                let mut out = Vec::with_capacity(l.len());
                for (a, b) in l.iter().zip(r.iter()) {
                    out.push(apply_i64(op, *a, *b)?);
                }
                Ok(Column::from_i64(out))
            }
            (lt, rt) => Err(numeric_error(lt, rt)),
        }
    }

    pub fn calc_col_scalar(op: BinaryOp, left: &Column, scalar: &ScalarValue) -> Result<Column> {
        match left.data_type() {
            DataType::Float64 => {
                let rhs = scalar
                    .as_f64()
                    .ok_or_else(|| numeric_error(DataType::Float64, scalar.data_type()))?;
                let l = left.f64_values()?;
                let mut out = Vec::with_capacity(l.len());
                for a in l {
                    out.push(apply_f64(op, *a, rhs)?);
                }
                Ok(Column::from_f64(out))
            }
            lt if is_int(lt) => {
                let rhs = scalar.as_i64().ok_or_else(|| numeric_error(lt, scalar.data_type()))?;
                let l = widened_i64(left)?;
                let mut out = Vec::with_capacity(l.len());
                for a in l.iter() {
                    out.push(apply_i64(op, *a, rhs)?);
                }
                Ok(Column::from_i64(out))
            }
            lt => Err(numeric_error(lt, scalar.data_type())),
        }
    }

    pub fn calc_scalar_col(op: BinaryOp, scalar: &ScalarValue, right: &Column) -> Result<Column> {
        match right.data_type() {
            DataType::Float64 => {
                let lhs = scalar
                    .as_f64()
                    .ok_or_else(|| numeric_error(scalar.data_type(), DataType::Float64))?;
                let r = right.f64_values()?;
                let mut out = Vec::with_capacity(r.len());
                for b in r {
                    out.push(apply_f64(op, lhs, *b)?);
                }
                Ok(Column::from_f64(out))
            }
            rt if is_int(rt) => {
                let lhs = scalar.as_i64().ok_or_else(|| numeric_error(scalar.data_type(), rt))?;
                let r = widened_i64(right)?;
                let mut out = Vec::with_capacity(r.len());
                for b in r.iter() {
                    out.push(apply_i64(op, lhs, *b)?);
                }
                Ok(Column::from_i64(out))
            }
            rt => Err(numeric_error(scalar.data_type(), rt)),
        }
    }

    /// Row `i` of a key column that is not `Float64`.
    fn group_key(keys: &Column, i: usize) -> Result<GroupKey> {
        Ok(match keys.data_type() {
            DataType::Int64 => GroupKey::I64(keys.i64_values()?[i]),
            DataType::Int32 => GroupKey::I64(keys.i32_values()?[i] as i64),
            DataType::Bool => GroupKey::I64(keys.bool_values()?[i] as i64),
            DataType::Str => {
                let (codes, dict) = keys.str_codes()?;
                GroupKey::Str(dict[codes[i] as usize].clone())
            }
            DataType::Float64 => unreachable!("refused before the first row"),
        })
    }

    /// One `GroupKey` clone and one SipHash lookup per row; groups in
    /// first-occurrence order.
    pub fn grouped_agg(
        func: AggFunc,
        keys: &Column,
        values: &Column,
    ) -> Result<Vec<(GroupKey, AggState)>> {
        if keys.len() != values.len() {
            return Err(OperatorError::LengthMismatch { left: keys.len(), right: values.len() });
        }
        if keys.data_type() == DataType::Float64 {
            return Err(OperatorError::IncompatibleAggregates(
                "float group-by keys are not supported".to_string(),
            ));
        }
        if values.data_type() == DataType::Str && func != AggFunc::Count {
            return Err(OperatorError::IncompatibleAggregates(format!(
                "{} over a string value column",
                func.name()
            )));
        }
        let mut groups: Vec<(GroupKey, AggState)> = Vec::new();
        let mut index: HashMap<GroupKey, usize> = HashMap::new();
        for i in 0..keys.len() {
            let key = group_key(keys, i)?;
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, AggState::new(func)));
                groups.len() - 1
            });
            let state = &mut groups[slot].1;
            match values.data_type() {
                DataType::Int64 => state.update_i64(values.i64_values()?[i]),
                DataType::Int32 => state.update_i64(values.i32_values()?[i] as i64),
                DataType::Float64 => state.update_f64(values.f64_values()?[i]),
                DataType::Bool => state.update_i64(values.bool_values()?[i] as i64),
                DataType::Str => state.update_i64(1),
            }
        }
        Ok(groups)
    }
}

// ------------------------------------------------------------ generation

/// SplitMix64: the inputs of one case, derived from its seed.
struct Gen(u64);

const ALL_TYPES: [DataType; 5] =
    [DataType::Int64, DataType::Int32, DataType::Float64, DataType::Bool, DataType::Str];
const WORDS: [&str; 8] = ["", "AIR", "RAIL", "SHIP", "PROMO BRUSHED", "PROMO PLATED", "a_c", "%"];
const PATTERNS: [&str; 7] = ["%", "PROMO%", "%ED", "%A%", "_IR", "", "SHIP"];
const FLOATS: [f64; 10] =
    [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, -1.5, 1.5, 2.0, -2.0, 1e300];
const INT_EDGES: [i64; 8] = [
    i64::MIN,
    i64::MAX,
    i32::MIN as i64 - 1,
    i32::MIN as i64,
    i32::MAX as i64,
    i32::MAX as i64 + 1,
    -1,
    0,
];
/// Divisors the TPC-H plans use, the reciprocal division's edges, and the
/// divisors it does not take.
const DIVISORS: [i64; 12] = [100, 365, 2, 3, 7, 1 << 32, i64::MAX, 1, 0, -1, -100, i64::MIN];
const OPS: [BinaryOp; 4] = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div];
const NUMERIC: [DataType; 3] = [DataType::Int64, DataType::Int32, DataType::Float64];

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// A small value most of the time (so that rows collide with constants
    /// and with each other), an edge of `i32`/`i64` otherwise.
    fn int(&mut self) -> i64 {
        if self.chance(6) {
            self.pick(&INT_EDGES)
        } else {
            self.below(13) as i64 - 6
        }
    }

    fn int32(&mut self) -> i32 {
        self.int().clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }

    fn word(&mut self) -> String {
        self.pick(&WORDS).to_string()
    }

    /// A base column of `rows` rows of `ty`.
    fn base_column(&mut self, ty: DataType, rows: usize) -> Column {
        match ty {
            DataType::Int64 => Column::from_i64((0..rows).map(|_| self.int()).collect()),
            DataType::Int32 => Column::from_i32((0..rows).map(|_| self.int32()).collect()),
            DataType::Float64 => Column::from_f64((0..rows).map(|_| self.pick(&FLOATS)).collect()),
            DataType::Bool => Column::from_bool((0..rows).map(|_| self.chance(2)).collect()),
            DataType::Str => {
                let values: Vec<String> = (0..rows).map(|_| self.word()).collect();
                Column::from_strings(values)
            }
        }
    }

    /// A window over a base column: usually at a non-zero offset, sometimes
    /// empty, sometimes relabelled so that `base_oid() != offset()` (a
    /// computed intermediate aligned with some partition).
    fn column(&mut self, ty: DataType) -> Column {
        let rows = if self.chance(8) { 0 } else { self.below(2_500) };
        let base = self.base_column(ty, rows);
        let start = self.below(rows + 1);
        let len = if self.chance(10) { 0 } else { self.below(rows - start + 1) };
        let window = base.slice(start, len).expect("window inside the column");
        if self.chance(4) {
            let relabel = self.below(5_000) as Oid;
            window.with_base_oid(relabel)
        } else {
            window
        }
    }

    fn scalar(&mut self) -> ScalarValue {
        match self.below(6) {
            0 | 1 => ScalarValue::I64(self.int()),
            2 => ScalarValue::I32(self.int32()),
            3 => ScalarValue::F64(self.pick(&FLOATS)),
            4 => ScalarValue::Bool(self.chance(2)),
            _ => ScalarValue::Str(self.word()),
        }
    }

    /// A scalar that usually fits a column of `ty` (so that most generated
    /// predicates evaluate) and sometimes does not (so that some fail).
    fn scalar_for(&mut self, ty: DataType) -> ScalarValue {
        if self.chance(8) {
            return self.scalar();
        }
        match ty {
            DataType::Int64 | DataType::Int32 => ScalarValue::I64(self.int()),
            DataType::Float64 => ScalarValue::F64(self.pick(&FLOATS)),
            DataType::Bool => ScalarValue::Bool(self.chance(2)),
            DataType::Str => ScalarValue::Str(self.word()),
        }
    }

    fn leaf(&mut self, ty: DataType) -> Predicate {
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        // A leaf shape that suits the type most of the time.
        let shape = if self.chance(6) {
            self.below(6)
        } else {
            match ty {
                DataType::Int64 | DataType::Int32 => self.below(3),
                DataType::Float64 => self.below(2),
                DataType::Bool => self.pick(&[0, 5]),
                DataType::Str => self.pick(&[0, 3, 4]),
            }
        };
        match shape {
            0 => {
                let op = if ty == DataType::Bool && !self.chance(4) {
                    CmpOp::Eq
                } else {
                    self.pick(&ops)
                };
                Predicate::Compare { op, value: self.scalar_for(ty) }
            }
            1 => Predicate::Between {
                lo: self.scalar_for(ty),
                hi: self.scalar_for(ty),
                lo_inclusive: self.chance(2),
                hi_inclusive: self.chance(2),
            },
            2 => {
                let n = self.below(6);
                Predicate::InI64((0..n).map(|_| self.int()).collect())
            }
            3 => Predicate::like(self.pick(&PATTERNS)),
            4 => {
                let n = self.below(4);
                Predicate::InStr((0..n).map(|_| self.word()).collect())
            }
            _ => Predicate::IsTrue,
        }
    }

    fn predicate(&mut self, ty: DataType, depth: usize) -> Predicate {
        if depth == 0 || self.chance(2) {
            return self.leaf(ty);
        }
        match self.below(3) {
            0 => self.predicate(ty, depth - 1).and(self.predicate(ty, depth - 1)),
            1 => self.predicate(ty, depth - 1).or(self.predicate(ty, depth - 1)),
            _ => self.predicate(ty, depth - 1).negate(),
        }
    }

    /// Puts `values` in a window at a small offset of a longer column of
    /// `ty`, sometimes relabelled.
    fn window(&mut self, ty: DataType, values: Vec<i64>) -> Column {
        let (pad, len) = (self.below(4), values.len());
        let padded: Vec<i64> = (0..pad).map(|_| self.int()).chain(values).chain([0, 1]).collect();
        let base = match ty {
            DataType::Int32 => Column::from_i32(padded.iter().map(|&v| v as i32).collect()),
            _ => Column::from_i64(padded),
        };
        let window = base.slice(pad, len).expect("window inside the column");
        if self.chance(4) {
            window.with_base_oid(self.below(5_000) as Oid)
        } else {
            window
        }
    }

    /// A join key column of `ty` (`Int64` or `Int32`) and the range its keys
    /// were drawn from. The range decides the directory: a dense range from a
    /// small, negative or extreme start; a span straddling the hashed
    /// directory's `buckets` (spans `buckets - 2` and `- 1` are dense,
    /// `buckets` and `+ 1` hash); a span straddling the bitmap's limit
    /// (`bitmap_bits(rows) - 2` and `- 1` keep a bitmap, the limit and
    /// `+ 1` do not); or [`Gen::column`]'s mix of small values and edges.
    fn join_keys(&mut self, ty: DataType) -> (Column, (i64, i64)) {
        let rows = if self.chance(8) { 0 } else { self.below(2_500) };
        let buckets = (rows.max(1) * 2).next_power_of_two() as i64;
        let span = match self.below(4) {
            0 => self.below(rows + 1) as i64,
            1 => buckets - 2 + self.below(4) as i64,
            2 => bitmap_bits(rows) - 2 + self.below(4) as i64,
            _ => return (self.column(ty), (-6, 6)),
        };
        let (type_min, type_max) = match ty {
            DataType::Int32 => (i32::MIN as i64, i32::MAX as i64),
            _ => (i64::MIN, i64::MAX),
        };
        let lo = match self.below(4) {
            0 => self.below(10_000) as i64,
            1 => -(self.below(10_000) as i64) - span,
            2 => type_min,
            _ => type_max - span,
        };
        // The range's ends come first, so the window's keys span it exactly.
        let keys = (0..rows)
            .map(|row| match row {
                0 => lo,
                1 => lo + span,
                _ => lo + self.below(span as usize + 1) as i64,
            })
            .collect();
        (self.window(ty, keys), (lo, lo + span))
    }

    /// Key columns a key set is built in parts over, with the range their
    /// keys were drawn from: [`Gen::join_keys`]' (every directory, and spans
    /// on both sides of the bitmap's limit), the same sorted (so most parts'
    /// spans are disjoint), or two sorted clusters whose gap puts the union
    /// past the bitmap's limit while every part within one cluster fits.
    fn key_set_keys(&mut self, ty: DataType) -> (Column, (i64, i64)) {
        match self.below(4) {
            0 => {
                let rows = 2 + self.below(2_500);
                let lo = self.below(10_000) as i64 - 5_000;
                let gap = bitmap_bits(rows) + self.below(100) as i64;
                let mut keys: Vec<i64> = (0..rows)
                    .map(|row| lo + self.below(50) as i64 + if row % 2 == 0 { 0 } else { gap })
                    .collect();
                keys.sort_unstable();
                (self.window(ty, keys), (lo, lo + gap + 50))
            }
            1 => {
                let (keys, range) = self.join_keys(ty);
                let mut sorted: Vec<i64> = match ty {
                    DataType::Int32 => {
                        keys.i32_values().unwrap().iter().map(|&k| k as i64).collect()
                    }
                    _ => keys.i64_values().unwrap().to_vec(),
                };
                sorted.sort_unstable();
                (self.window(ty, sorted), range)
            }
            _ => self.join_keys(ty),
        }
    }

    /// `column` cut into windows at ascending offsets: repeated offsets give
    /// empty parts, adjacent ones one-row parts.
    fn cut(&mut self, column: &Column) -> Vec<Column> {
        let rows = column.len();
        let mut at: Vec<usize> = (0..self.below(8)).map(|_| self.below(rows + 1)).collect();
        if rows > 0 && self.chance(2) {
            let one = self.below(rows);
            at.extend([one, one + 1, one + 1]);
        }
        at.push(0);
        at.push(rows);
        at.sort_unstable();
        at.windows(2).map(|w| column.slice(w[0], w[1] - w[0]).unwrap()).collect()
    }

    /// Probe keys of `ty` for a table over `range`: mostly inside it, some
    /// just outside either end, some anywhere.
    fn probe_keys(&mut self, ty: DataType, (lo, hi): (i64, i64)) -> Column {
        let rows = if self.chance(8) { 0 } else { self.below(2_500) };
        let keys = (0..rows)
            .map(|_| match self.below(8) {
                0 => lo.saturating_sub(1 + self.below(3) as i64),
                1 => hi.saturating_add(1 + self.below(3) as i64),
                2 => self.int(),
                _ => lo + (self.next() % ((hi - lo) as u64 + 1)) as i64,
            })
            .map(|k| match ty {
                DataType::Int32 => k.clamp(i32::MIN as i64, i32::MAX as i64),
                _ => k,
            })
            .collect();
        self.window(ty, keys)
    }

    /// A numeric column of `len` rows for `calc`, one time in ten of another
    /// length. Without `zeros`, no row is `0` or `-1` (nor `±0.0`), so a
    /// division by it mostly divides rather than failing.
    fn calc_column(&mut self, ty: DataType, len: usize, zeros: bool) -> Column {
        let len = if self.chance(10) { self.below(len + 2) } else { len };
        match ty {
            DataType::Float64 => {
                let pad = self.below(4);
                let values: Vec<f64> = (0..pad + len)
                    .map(|_| self.pick(&FLOATS))
                    .map(|v| if v == 0.0 && !zeros { 2.0 } else { v })
                    .collect();
                Column::from_f64(values).slice(pad, len).expect("window inside the column")
            }
            DataType::Int64 | DataType::Int32 => {
                let values = (0..len)
                    .map(|_| if ty == DataType::Int32 { self.int32() as i64 } else { self.int() })
                    .map(|v| if (v == 0 || v == -1) && !zeros { v + 7 } else { v })
                    .collect();
                self.window(ty, values)
            }
            other => self.base_column(other, len),
        }
    }

    /// A scalar operand for `calc` next to a column of `ty`: usually of its
    /// numeric class, often a divisor the TPC-H plans use or an edge of the
    /// reciprocal division, sometimes anything.
    fn calc_scalar(&mut self, ty: DataType) -> ScalarValue {
        if self.chance(8) {
            return self.scalar();
        }
        match (ty, self.below(3)) {
            (DataType::Float64, 0) => ScalarValue::F64(self.pick(&FLOATS)),
            (DataType::Float64, _) => ScalarValue::F64(self.pick(&DIVISORS) as f64),
            (_, 0) => ScalarValue::I64(self.int()),
            (_, 1) => ScalarValue::I32(self.int32()),
            _ => ScalarValue::I64(self.pick(&DIVISORS)),
        }
    }

    /// Oids around `column`'s range: unsorted, duplicated, and — one in
    /// `stray` — outside `[base_oid, end_oid)` on either side.
    fn oids(&mut self, column: &Column, stray: usize) -> Vec<Oid> {
        let n = if self.chance(6) { 0 } else { self.below(2_500) };
        let (lo, len) = (column.base_oid(), column.len() as Oid);
        (0..n)
            .map(|_| {
                if len == 0 || (stray > 0 && self.chance(stray)) {
                    match self.below(3) {
                        0 => lo.saturating_sub(1 + self.below(40) as Oid),
                        1 => lo + len + self.below(40) as Oid,
                        _ => self.next(),
                    }
                } else {
                    lo + self.below(len as usize) as Oid
                }
            })
            .collect()
    }
}

/// The widest key span a bitmap covers for `rows` build rows: the hashed
/// directory's bytes or the floor, whichever is more, in bits.
fn bitmap_bits(rows: usize) -> i64 {
    let buckets = (rows.max(1) * 2).next_power_of_two();
    (buckets * 4).max(BITMAP_FLOOR_BYTES) as i64 * 8
}

// ------------------------------------------------------------- comparison

/// The `Int64` twin of an `Int32` key column: the same keys widened, the same
/// base oid.
fn int64_twin(narrow: &Column) -> Column {
    let keys = narrow.i32_values().unwrap().iter().map(|&k| i64::from(k)).collect();
    Column::from_i64(keys).with_base_oid(narrow.base_oid())
}

/// Everything a pair table and a key set over `inner` answer: each one's
/// directory, `len()`, `byte_size()` and `bitmap_bytes()`, then its pairs
/// (in order), semi rows and anti rows for a probe with each of `outers`.
fn table_answers(inner: &Column, outers: &[Column]) -> Vec<String> {
    let mut answers = Vec::new();
    for table in [JoinHashTable::build(inner), JoinHashTable::build_key_set(inner)] {
        let table = table.unwrap();
        answers.push(format!(
            "{} {} {} {}",
            table.directory(),
            table.len(),
            table.byte_size(),
            table.bitmap_bytes()
        ));
        for outer in outers {
            answers.push(format!("{:?}", table.probe(outer)));
            answers.push(format!("{:?}", table.probe_semi(outer)));
            answers.push(format!("{:?}", table.probe_anti(outer)));
        }
    }
    answers
}

/// Everything observable about a column: type, base oid, length and rows.
type Facts = (DataType, Oid, usize, Vec<String>);

/// A column's [`Facts`]; floats by bit pattern, so that `NaN` and `-0.0`
/// must be carried over exactly.
fn facts(column: &Column) -> Facts {
    let rows = match column.data_type() {
        DataType::Float64 => {
            column.f64_values().unwrap().iter().map(|v| format!("{:#x}", v.to_bits())).collect()
        }
        _ => column.to_scalars().iter().map(|v| format!("{v:?}")).collect(),
    };
    (column.data_type(), column.base_oid(), column.len(), rows)
}

fn column_facts(result: Result<Column>) -> Result<Facts> {
    result.map(|c| facts(&c))
}

/// A reference result as what `GroupedAgg` lets a caller observe: the sorted
/// finalized groups. `Debug` text, because a `NaN` sum is not `==` itself.
fn sorted_groups(mut groups: Vec<(GroupKey, AggState)>) -> String {
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let finished: Vec<(GroupKey, ScalarValue)> =
        groups.into_iter().map(|(k, s)| (k, s.finish())).collect();
    format!("{finished:?}")
}

/// One operand of a `calc` call.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Column(&'a Column),
    Scalar(&'a ScalarValue),
}

/// An operand's rows as the integer path reads them (a scalar repeated
/// `rows` times), `None` when `calc` takes another path for it.
fn int_rows(operand: Operand, rows: usize) -> Option<Vec<i64>> {
    match operand {
        Operand::Column(c) => match c.data_type() {
            DataType::Int64 => Some(c.i64_values().unwrap().to_vec()),
            DataType::Int32 => Some(c.i32_values().unwrap().iter().map(|&v| v as i64).collect()),
            _ => None,
        },
        Operand::Scalar(s) => s.as_i64().map(|v| vec![v; rows]),
    }
}

/// What `dividend <op> divisor` must return when it is an integer division
/// that reaches a row `i64::MIN / -1`: `DivisionByZero` if any divisor is
/// zero, the overflow otherwise. `None` for every other call.
fn overflowing_division(
    op: BinaryOp,
    dividend: Operand,
    divisor: Operand,
) -> Option<Result<Facts>> {
    let column_rows = |o: Operand| match o {
        Operand::Column(c) => c.len(),
        Operand::Scalar(_) => 0,
    };
    let rows = column_rows(dividend).max(column_rows(divisor));
    let (a, b) = (int_rows(dividend, rows)?, int_rows(divisor, rows)?);
    if op != BinaryOp::Div || a.len() != b.len() {
        return None;
    }
    let pairs: Vec<(i64, i64)> = a.into_iter().zip(b).collect();
    if !pairs.contains(&(i64::MIN, -1)) {
        return None;
    }
    Some(Err(if pairs.iter().any(|&(_, b)| b == 0) {
        OperatorError::DivisionByZero
    } else {
        OperatorError::InvalidCalc(format!("integer overflow: {} / -1", i64::MIN))
    }))
}

const FUNCS: [AggFunc; 5] =
    [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Avg];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `select` and `eval_mask` over every column type and predicate shape.
    #[test]
    fn select_and_mask_match_the_two_pass_bodies(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for ty in ALL_TYPES {
            let column = g.column(ty);
            let predicate = g.predicate(ty, 3);
            prop_assert_eq!(
                select(&column, &predicate),
                reference::select(&column, &predicate),
                "select of {} over a {} window", predicate.describe(), ty
            );
            prop_assert_eq!(
                predicate.eval_mask(&column),
                reference::eval_mask(&predicate, &column),
                "mask of {} over a {} window", predicate.describe(), ty
            );
        }
    }

    /// `select_with_candidates`: candidate order kept, strays skipped. The
    /// one permitted difference: the predicate is resolved first, so a
    /// mismatched predicate fails even when the old body, finding no
    /// candidate inside the partition, never looked at it.
    #[test]
    fn candidate_select_matches_filter_gather_mask(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for ty in ALL_TYPES {
            let column = g.column(ty);
            let predicate = g.predicate(ty, 3);
            let stray = g.pick(&[0, 2, 5]);
            let candidates = g.oids(&column, stray);
            let expected = reference::eval_mask(&predicate, &column)
                .and_then(|_| reference::select_with_candidates(&column, &predicate, &candidates));
            prop_assert_eq!(
                select_with_candidates(&column, &predicate, &candidates),
                expected,
                "{} over a {} window, {} candidates", predicate.describe(), ty, candidates.len()
            );
        }
    }

    /// `gather_oids` / `fetch`: rows in list order, the first offending oid
    /// named, nothing on error.
    #[test]
    fn gathers_match_validate_then_gather(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for ty in ALL_TYPES {
            let column = g.column(ty);
            let stray = g.pick(&[0, 0, 50, 3]);
            let oids = g.oids(&column, stray);
            let expected = column_facts(reference::gather_oids(&column, &oids));
            prop_assert_eq!(column_facts(fetch(&column, &oids)), expected.clone());
            prop_assert_eq!(
                column_facts(column.gather_oids(&oids).map_err(OperatorError::from)),
                expected
            );
        }
    }

    /// The hash join: `Int64` and `Int32` keys on either side, duplicate
    /// build keys (pair order: outer ascending, newest-inserted match
    /// first), windows on both sides, unsupported key types — over build
    /// sides whose ranges give every directory, probed inside, around and
    /// far from the range — and the key set over the same keys: the same
    /// existence answers, and pairs only when it is not a bitmap.
    #[test]
    fn probes_match_the_parent_table(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let key_types = [DataType::Int64, DataType::Int32];
        let inner_ty = g.pick(&key_types);
        let (inner, (lo, hi)) = g.join_keys(inner_ty);
        let table = JoinHashTable::build(&inner).unwrap();
        let key_set = JoinHashTable::build_key_set(&inner).unwrap();
        let expected = reference::Table::build(&inner).unwrap();
        prop_assert_eq!(table.len(), inner.len());
        prop_assert_eq!(key_set.len(), inner.len());
        prop_assert_eq!(table.is_empty(), inner.is_empty());
        let pairs_of_set = |pairs: Result<JoinResult>| match key_set.directory() {
            "bits" => Err(OperatorError::KeySetHasNoPairs),
            _ => pairs,
        };
        for key in [lo.saturating_sub(1), lo, hi, hi.saturating_add(1), g.int(), g.int()] {
            prop_assert_eq!(table.lookup(key), Ok(expected.lookup(key)));
        }
        for ty in ALL_TYPES {
            let outer = if key_types.contains(&ty) && g.chance(2) {
                g.probe_keys(ty, (lo, hi))
            } else {
                g.column(ty)
            };
            let pairs = expected.probe(&outer);
            prop_assert_eq!(table.probe(&outer), pairs.clone(), "probe with {} keys", ty);
            prop_assert_eq!(key_set.probe(&outer), pairs_of_set(pairs));
            for probed in [&table, &key_set] {
                prop_assert_eq!(probed.probe_semi(&outer), expected.probe_semi(&outer));
                prop_assert_eq!(probed.probe_anti(&outer), expected.probe_anti(&outer));
            }
            // A build over a non-integer column is refused the same way.
            if !key_types.contains(&ty) {
                let refused = reference::Table::build(&outer).map(|_| 0);
                prop_assert_eq!(JoinHashTable::build(&outer).map(|t| t.len()), refused.clone());
                prop_assert_eq!(JoinHashTable::build_key_set(&outer).map(|t| t.len()), refused);
            }
        }
    }

    /// A key set built in parts: any cut of a key column — empty parts,
    /// one-row parts, sorted keys whose parts' spans are disjoint — merged
    /// part by part, in stream order or spread over workers that each merge
    /// theirs before the workers' parts merge, finishes into exactly
    /// `build_key_set` of the whole column: the same directory, members,
    /// `len()` and bytes. That holds where every part keeps a bitmap and the
    /// union's span fails the rule, which falls back to the hashed set.
    #[test]
    fn key_set_parts_merge_into_the_key_set_of_the_whole_column(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let ty = g.pick(&[DataType::Int64, DataType::Int32]);
        let (keys, range) = g.key_set_keys(ty);
        let whole = JoinHashTable::build_key_set(&keys).unwrap();
        let workers = 1 + g.below(3);
        let mut merged: Vec<Option<KeySetPart>> = vec![None; workers];
        for cut in g.cut(&keys) {
            let part = KeySetPart::new(&cut).unwrap();
            match &mut merged[g.below(workers)] {
                Some(merged) => merged.absorb(&part),
                slot => *slot = Some(part),
            }
        }
        let mut all: Option<KeySetPart> = None;
        for part in merged.into_iter().flatten() {
            match &mut all {
                Some(all) => all.absorb(&part),
                None => all = Some(part),
            }
        }
        let set = all.unwrap().finish().unwrap();
        let case = format!("{} {} keys over {:?}", keys.len(), ty, range);
        prop_assert_eq!(set.directory(), whole.directory(), "{}", case);
        prop_assert_eq!(set.len(), whole.len(), "{}", case);
        prop_assert_eq!(set.is_empty(), whole.is_empty(), "{}", case);
        prop_assert_eq!(set.bitmap_bytes(), whole.bitmap_bytes(), "{}", case);
        prop_assert_eq!(set.byte_size(), whole.byte_size(), "{}", case);
        for _ in 0..3 {
            let outer = g.probe_keys(ty, range);
            prop_assert_eq!(set.probe_semi(&outer), whole.probe_semi(&outer), "{}", case);
            prop_assert_eq!(set.probe_anti(&outer), whole.probe_anti(&outer), "{}", case);
        }
    }

    /// A table over an `Int32` key column is the table over the same keys as
    /// `Int64`: the same directory, `len()`, `byte_size()` and bitmap, and
    /// the same pairs in the same order, semi and anti rows, probed with
    /// keys of either width — over build sides of every directory.
    #[test]
    fn int32_build_sides_equal_their_int64_twins(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (narrow, range) = g.join_keys(DataType::Int32);
        let outers = [g.probe_keys(DataType::Int32, range), g.probe_keys(DataType::Int64, range)];
        prop_assert_eq!(
            table_answers(&narrow, &outers),
            table_answers(&int64_twin(&narrow), &outers),
            "{} Int32 keys over {:?}", narrow.len(), range
        );
    }

    /// `select` over an `Int32` column with one range — the bounds at, past
    /// and far past the ends of `i32`, either flavour of each — against the
    /// stack-block loop it had before, which widened every value.
    #[test]
    fn int32_range_selects_match_the_widening_loop(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for _ in 0..4 {
            let column = g.column(DataType::Int32);
            let (lo, hi) = (g.int(), g.int());
            let (lo_inclusive, hi_inclusive) = (g.chance(2), g.chance(2));
            let predicate = Predicate::Between {
                lo: ScalarValue::I64(lo),
                hi: ScalarValue::I64(hi),
                lo_inclusive,
                hi_inclusive,
            };
            let hit = |v: i64| {
                (if lo_inclusive { v >= lo } else { v > lo })
                    & (if hi_inclusive { v <= hi } else { v < hi })
            };
            prop_assert_eq!(
                select(&column, &predicate),
                Ok(reference::select_widening(&column, hit)),
                "{} over {} rows", predicate.describe(), column.len()
            );
        }
    }

    /// The three `calc` flavours over every operator, `Int64` / `Int32` /
    /// `Float64` mixes (a non-numeric operand now and then), both scalar
    /// sides, offset windows, zero divisors, empty columns and `i64`
    /// extremes. The reference panics on `i64::MIN / -1`; where a division
    /// reaches that row, [`overflowing_division`] stands in for it.
    #[test]
    fn calc_matches_the_per_row_result_bodies(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for op in OPS {
            for lt in NUMERIC {
                let len = if g.chance(8) { 0 } else { g.below(2_500) };
                let rt = if g.chance(8) { g.pick(&ALL_TYPES) } else { g.pick(&NUMERIC) };
                let left = g.calc_column(lt, len, true);
                let zeros = g.chance(4);
                let right = g.calc_column(rt, len, zeros);
                let scalar = g.calc_scalar(lt);
                let (l, r, s) = (Operand::Column(&left), Operand::Column(&right), Operand::Scalar(&scalar));
                prop_assert_eq!(
                    column_facts(calc_col_col(op, &left, &right)),
                    overflowing_division(op, l, r)
                        .unwrap_or_else(|| column_facts(reference::calc_col_col(op, &left, &right))),
                    "{:?} of {} and {} columns", op, lt, rt
                );
                prop_assert_eq!(
                    column_facts(calc_col_scalar(op, &left, &scalar)),
                    overflowing_division(op, l, s)
                        .unwrap_or_else(|| column_facts(reference::calc_col_scalar(op, &left, &scalar))),
                    "{:?} of a {} column and {:?}", op, lt, scalar
                );
                prop_assert_eq!(
                    column_facts(calc_scalar_col(op, &scalar, &right)),
                    overflowing_division(op, s, r)
                        .unwrap_or_else(|| column_facts(reference::calc_scalar_col(op, &scalar, &right))),
                    "{:?} of {:?} and a {} column", op, scalar, rt
                );
            }
        }
    }

    /// `grouped_agg` over every key type × value type × function, and the
    /// merge of ragged partials against the whole-column reference.
    #[test]
    fn grouped_agg_matches_the_per_row_hashing_body(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for key_ty in ALL_TYPES {
            let rows = g.below(2_500);
            let keys = g.column(key_ty);
            let keys = keys.slice(0, rows.min(keys.len())).unwrap();
            for value_ty in ALL_TYPES {
                let base = g.base_column(value_ty, keys.len() + 3);
                // Same length most of the time; a mismatch must be reported first.
                let values = base.slice(g.below(3), if g.chance(10) { keys.len() + 1 } else { keys.len() }).unwrap();
                for func in FUNCS {
                    let got = grouped_agg(func, &keys, &values);
                    let expected = reference::grouped_agg(func, &keys, &values);
                    match (got, expected) {
                        (Ok(got), Ok(expected)) => {
                            prop_assert_eq!(got.len(), expected.len());
                            prop_assert_eq!(got.func(), func);
                            for (key, state) in &expected {
                                prop_assert_eq!(
                                    format!("{:?}", got.get(key)),
                                    format!("{:?}", Some(state.finish()))
                                );
                            }
                            prop_assert_eq!(
                                format!("{:?}", got.finish_sorted()),
                                sorted_groups(expected)
                            );
                        }
                        (got, expected) => prop_assert_eq!(
                            got.map(|g| g.len()).err(),
                            expected.map(|g| g.len()).err(),
                            "{:?} of {} by {}", func, value_ty, key_ty
                        ),
                    }
                }
            }
            // Ragged partials (exact arithmetic: integer values) merge to the whole.
            if key_ty != DataType::Float64 {
                let values = g.base_column(DataType::Int32, keys.len());
                let mut cuts: Vec<usize> = (0..g.below(5)).map(|_| g.below(keys.len() + 1)).collect();
                cuts.extend([0, keys.len()]);
                cuts.sort_unstable();
                for func in FUNCS {
                    let parts: Vec<_> = cuts
                        .windows(2)
                        .map(|w| {
                            let (k, v) = (
                                keys.slice(w[0], w[1] - w[0]).unwrap(),
                                values.slice(w[0], w[1] - w[0]).unwrap(),
                            );
                            grouped_agg(func, &k, &v).unwrap()
                        })
                        .collect();
                    let merged = merge_grouped(&parts).unwrap();
                    let whole = reference::grouped_agg(func, &keys, &values).unwrap();
                    prop_assert_eq!(format!("{:?}", merged.finish_sorted()), sorted_groups(whole));
                }
            }
        }
    }
}

/// The documented widening of `select_with_candidates`, pinned on its own: a
/// predicate that cannot apply to the column fails although no candidate
/// falls inside the partition. Before the rewrite this returned `Ok(vec![])`.
#[test]
fn a_mismatched_predicate_fails_candidate_select_without_any_inside_candidate() {
    let part = Column::from_i64((0..100).collect()).slice(50, 50).unwrap();
    let mismatched = Predicate::like("%x%");
    for candidates in [&[][..], &[1, 2, 3][..], &[100, 7][..]] {
        assert_eq!(reference::select_with_candidates(&part, &mismatched, candidates), Ok(vec![]));
        assert!(matches!(
            select_with_candidates(&part, &mismatched, candidates),
            Err(OperatorError::PredicateTypeMismatch { column_type: "int64", .. })
        ));
    }
    // With a predicate that does apply, the same calls are still empty.
    let fits = Predicate::cmp(CmpOp::Ge, 0i64);
    assert_eq!(select_with_candidates(&part, &fits, &[1, 2, 3]), Ok(vec![]));
}

/// The probe's block length (`BLOCK` in `join.rs`): bucket heads are looked
/// up for this many outer rows, the rows with an empty bucket dropped, and
/// only then are chains walked and — for semi/anti — the block's survivors
/// compacted.
const PROBE_BLOCK: usize = 256;

/// Outer columns whose length and hit pattern sit on the probe's block edges,
/// as `Int64` and `Int32`, as offset windows and relabelled intermediates,
/// against build sides without duplicates, with every key tripled and with
/// one key holding more rows than two blocks — all four probes, and the key
/// set's two, against the parent table. The generated cases above rarely
/// exceed a few blocks and never line a pattern up with an edge; the second
/// build side's pairs also fill the pair probe's stack blocks several times.
#[test]
fn probes_match_the_parent_table_at_block_edges() {
    // (build keys, the keys a hitting row cycles through); odd keys miss, some
    // into an empty bucket and some into another key's chain.
    let builds: [(Vec<i64>, Vec<i64>); 3] = [
        ((0..300).map(|k| 2 * k).collect(), (0..300).map(|k| 2 * k).collect()),
        ((0..900).map(|i| 2 * (i % 300)).collect(), (0..300).map(|k| 2 * k).collect()),
        (vec![0; 2 * PROBE_BLOCK + 3], vec![0]),
    ];
    type Pattern = fn(usize, usize) -> bool;
    let patterns: [(&str, Pattern); 4] = [
        ("all rows miss", |_, _| false),
        ("all rows hit", |_, _| true),
        ("alternating", |i, _| i % 2 == 0),
        ("only the last row of a block hits", |i, len| {
            i % PROBE_BLOCK == PROBE_BLOCK - 1 || i + 1 == len
        }),
    ];
    for (build_keys, hit_keys) in &builds {
        let inner = Column::from_i64(build_keys.clone()).with_base_oid(100);
        let table = JoinHashTable::build(&inner).unwrap();
        let key_set = JoinHashTable::build_key_set(&inner).unwrap();
        let expected = reference::Table::build(&inner).unwrap();
        for len in [0, 1, PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1, 2 * PROBE_BLOCK + 1] {
            for (name, hits) in patterns {
                // Five rows of padding in front: the window starts at offset 5.
                let keys: Vec<i64> = (0..len + 5)
                    .map(|row| match row.checked_sub(5) {
                        Some(i) if hits(i, len) => hit_keys[i % hit_keys.len()],
                        Some(i) => 2 * i as i64 + 1,
                        None => 0,
                    })
                    .collect();
                let narrow = Column::from_i32(keys.iter().map(|&k| k as i32).collect());
                for base in [Column::from_i64(keys), narrow] {
                    let window = base.slice(5, len).unwrap();
                    for outer in [window.clone(), window.with_base_oid(1_000)] {
                        let case = format!(
                            "{name}, {len} {} rows from oid {}, {} build rows",
                            outer.data_type(),
                            outer.base_oid(),
                            inner.len()
                        );
                        assert_eq!(table.probe(&outer), expected.probe(&outer), "{case}");
                        for probed in [&table, &key_set] {
                            assert_eq!(
                                probed.probe_semi(&outer),
                                expected.probe_semi(&outer),
                                "{case}"
                            );
                            assert_eq!(
                                probed.probe_anti(&outer),
                                expected.probe_anti(&outer),
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The build sides [`Gen::join_keys`] generates give every directory, and
/// its straddling spans land on both sides of the dense threshold and of the
/// bitmap's limit.
#[test]
fn join_key_ranges_reach_every_directory() {
    let mut kinds: std::collections::BTreeMap<&str, usize> = Default::default();
    let (mut dense_edge, mut bitmap_edge) = ([0; 2], [0; 2]);
    for seed in 0..512 {
        let mut g = Gen(seed);
        let ty = g.pick(&[DataType::Int64, DataType::Int32]);
        let (inner, (lo, hi)) = g.join_keys(ty);
        let table = JoinHashTable::build(&inner).unwrap();
        let key_set = JoinHashTable::build_key_set(&inner).unwrap();
        for kind in [table.directory(), key_set.directory()] {
            *kinds.entry(kind).or_default() += 1;
        }
        let buckets = (inner.len().max(1) * 2).next_power_of_two() as i64;
        if inner.len() >= 2 && (buckets - 2..=buckets + 1).contains(&(hi - lo)) {
            dense_edge[usize::from(table.directory() == "dense")] += 1;
        }
        let bits = bitmap_bits(inner.len());
        if inner.len() >= 2 && (bits - 2..=bits + 1).contains(&(hi - lo)) {
            bitmap_edge[usize::from(key_set.directory() == "bits")] += 1;
        }
    }
    for kind in ["bits", "dense", "hashed+bits", "hashed"] {
        assert!(kinds.get(kind).copied().unwrap_or(0) >= 32, "{kinds:?}");
    }
    assert!(dense_edge[0] >= 8 && dense_edge[1] >= 8, "dense threshold: {dense_edge:?}");
    assert!(bitmap_edge[0] >= 8 && bitmap_edge[1] >= 8, "bitmap limit: {bitmap_edge:?}");
}

/// The named build sides the `Int32` twin property covers by draw: dense,
/// hashed, hashed behind a bitmap, a key set's bitmap, empty, duplicate and
/// negative keys (down to `i32::MIN`) each build the table their `Int64`
/// twin builds.
#[test]
fn int32_build_sides_of_every_directory_equal_their_int64_twins() {
    let min = i32::MIN;
    let cases: [(&str, Vec<i32>, &str); 7] = [
        ("dense", vec![3, 1, 4, 1, 5], "dense"),
        ("hashed", vec![0, 1 << 20, 7, 7, 3], "hashed"),
        ("hashed+bits", vec![3, 1, 4, 1, 17], "hashed+bits"),
        ("bits", (0..1000).collect(), "dense"),
        ("empty", vec![], "hashed"),
        ("duplicate", vec![9, 9, 9, 1 << 30, 9, 1 << 30], "hashed"),
        ("negative", vec![-5, -3, -5, min, min + 1, -1], "hashed"),
    ];
    let outer: Vec<i32> = vec![9, -5, 3, 17, min, 0, 1 << 20, 1 << 30, -3, 1, 2, 999, min + 1];
    for (name, keys, directory) in cases {
        let narrow = Column::from_i32(keys).with_base_oid(40);
        assert_eq!(JoinHashTable::build(&narrow).unwrap().directory(), directory, "{name}");
        let outer = Column::from_i32(outer.clone());
        let outers = [int64_twin(&outer), outer];
        let (got, want) =
            (table_answers(&narrow, &outers), table_answers(&int64_twin(&narrow), &outers));
        assert_eq!(got, want, "{name}");
    }
    let bits = JoinHashTable::build_key_set(&Column::from_i32((0..1000).collect())).unwrap();
    assert_eq!(bits.directory(), "bits");
}

/// Constants outside `i32` against an `Int32` column: the values widen, the
/// constant is never narrowed (which would wrap `i32::MAX + 1` to
/// `i32::MIN` and select everything or nothing).
#[test]
fn int32_columns_compare_against_wide_constants_by_widening() {
    let column = Column::from_i32(vec![i32::MIN, -1, 0, 1, i32::MAX]);
    let above = i32::MAX as i64 + 1;
    let below = i32::MIN as i64 - 1;
    let all: Vec<Oid> = (0..5).collect();
    let none: Vec<Oid> = Vec::new();
    for (predicate, expected) in [
        (Predicate::cmp(CmpOp::Lt, above), &all),
        (Predicate::cmp(CmpOp::Ge, above), &none),
        (Predicate::cmp(CmpOp::Eq, above), &none),
        (Predicate::cmp(CmpOp::Ne, above), &all),
        (Predicate::cmp(CmpOp::Gt, below), &all),
        (Predicate::cmp(CmpOp::Le, below), &none),
        (Predicate::between(below, above), &all),
        (Predicate::range(above, i64::MAX), &none),
        (Predicate::InI64(vec![above, below]), &none),
        (Predicate::cmp(CmpOp::Lt, i64::MIN), &none),
        (Predicate::cmp(CmpOp::Gt, i64::MAX), &none),
        (Predicate::cmp(CmpOp::Ge, i64::MIN), &all),
    ] {
        assert_eq!(&select(&column, &predicate).unwrap(), expected, "{}", predicate.describe());
        assert_eq!(select(&column, &predicate), reference::select(&column, &predicate));
    }
}

/// A dictionary with a repeated entry (two codes, one string) still forms
/// one group per string.
#[test]
fn grouped_agg_groups_by_string_not_by_dictionary_code() {
    let dict = std::sync::Arc::new(vec!["x".to_string(), "y".to_string(), "x".to_string()]);
    let keys = Column::from_string_column(StringColumn::from_codes(vec![2, 1, 0, 2], dict));
    let values = Column::from_i64(vec![1, 10, 100, 1000]);
    let got = grouped_agg(AggFunc::Sum, &keys, &values).unwrap();
    assert_eq!(
        got.finish_sorted(),
        vec![
            (GroupKey::Str("x".into()), ScalarValue::I64(1101)),
            (GroupKey::Str("y".into()), ScalarValue::I64(10)),
        ]
    );
}
