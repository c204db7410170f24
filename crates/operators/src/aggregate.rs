//! Scalar and grouped aggregation with mergeable partial states.
//!
//! Adaptive parallelization clones aggregation operators over partitions and
//! later combines their outputs (the *advanced mutation*, paper §2.1). That
//! only works if per-partition aggregates are *partial states* that can be
//! merged: sums add up, counts add up, min/max take the extremum and avg
//! carries `(sum, count)`. Both the scalar aggregate ([`AggState`]) and the
//! single-attribute grouped aggregate ([`GroupedAgg`]) are therefore
//! represented as mergeable states with a final `finish` step, exactly like
//! the paper's `aggr.sum` over `mat.pack`-ed partials in the Q14 plan.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use apq_columnar::{Column, DataType, ScalarValue};

use crate::error::{OperatorError, Result};
use crate::join::mix;

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of values.
    Sum,
    /// Row count.
    Count,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl AggFunc {
    /// Short name for plan pretty-printing.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// Mergeable partial state of one aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggState {
    func: AggFunc,
    saw_float: bool,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    min_i: i64,
    max_i: i64,
    min_f: f64,
    max_f: f64,
}

impl AggState {
    /// Fresh (empty) state for the given function.
    pub fn new(func: AggFunc) -> Self {
        AggState {
            func,
            saw_float: false,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            min_i: i64::MAX,
            max_i: i64::MIN,
            min_f: f64::INFINITY,
            max_f: f64::NEG_INFINITY,
        }
    }

    /// The aggregate function this state computes.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of accumulated rows.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Accumulates one integer value.
    pub fn update_i64(&mut self, v: i64) {
        self.count += 1;
        self.sum_i = self.sum_i.wrapping_add(v);
        self.sum_f += v as f64;
        self.min_i = self.min_i.min(v);
        self.max_i = self.max_i.max(v);
        self.min_f = self.min_f.min(v as f64);
        self.max_f = self.max_f.max(v as f64);
    }

    /// Accumulates one float value.
    pub fn update_f64(&mut self, v: f64) {
        self.saw_float = true;
        self.count += 1;
        self.sum_f += v;
        self.min_f = self.min_f.min(v);
        self.max_f = self.max_f.max(v);
    }

    /// Accumulates every visible row of a column.
    pub fn update_column(&mut self, column: &Column) -> Result<()> {
        match column.data_type() {
            DataType::Int64 => {
                for &v in column.i64_values()? {
                    self.update_i64(v);
                }
            }
            DataType::Int32 => {
                for &v in column.i32_values()? {
                    self.update_i64(v as i64);
                }
            }
            DataType::Float64 => {
                for &v in column.f64_values()? {
                    self.update_f64(v);
                }
            }
            DataType::Bool => {
                for &v in column.bool_values()? {
                    self.update_i64(v as i64);
                }
            }
            DataType::Str => {
                if self.func != AggFunc::Count {
                    return Err(OperatorError::IncompatibleAggregates(format!(
                        "{} over a string column",
                        self.func.name()
                    )));
                }
                self.count += column.len() as i64;
            }
        }
        Ok(())
    }

    /// Merges another partial state into this one.
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        if self.func != other.func {
            return Err(OperatorError::IncompatibleAggregates(format!(
                "{} vs {}",
                self.func.name(),
                other.func.name()
            )));
        }
        self.saw_float |= other.saw_float;
        self.count += other.count;
        self.sum_i = self.sum_i.wrapping_add(other.sum_i);
        self.sum_f += other.sum_f;
        self.min_i = self.min_i.min(other.min_i);
        self.max_i = self.max_i.max(other.max_i);
        self.min_f = self.min_f.min(other.min_f);
        self.max_f = self.max_f.max(other.max_f);
        Ok(())
    }

    /// Finalizes the state into a scalar result.
    ///
    /// Empty inputs yield `0` for sum/count and `0.0` for avg; min/max over
    /// an empty input yield `I64(0)` (the engine never produces that case for
    /// the evaluated queries, but the behaviour is defined and tested).
    pub fn finish(&self) -> ScalarValue {
        match self.func {
            AggFunc::Count => ScalarValue::I64(self.count),
            AggFunc::Sum => {
                if self.saw_float {
                    ScalarValue::F64(self.sum_f)
                } else {
                    ScalarValue::I64(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    ScalarValue::F64(0.0)
                } else {
                    ScalarValue::F64(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    ScalarValue::I64(0)
                } else if self.saw_float {
                    ScalarValue::F64(self.min_f)
                } else {
                    ScalarValue::I64(self.min_i)
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    ScalarValue::I64(0)
                } else if self.saw_float {
                    ScalarValue::F64(self.max_f)
                } else {
                    ScalarValue::I64(self.max_i)
                }
            }
        }
    }
}

/// Computes the partial aggregate of `func` over a whole column.
pub fn scalar_agg(func: AggFunc, column: &Column) -> Result<AggState> {
    let mut state = AggState::new(func);
    state.update_column(column)?;
    Ok(state)
}

/// Grouping key of the single-attribute grouped aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// Integer key (covers `Int64`, `Int32` and `Bool` key columns).
    I64(i64),
    /// String key.
    Str(String),
}

impl std::fmt::Display for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupKey::I64(v) => write!(f, "{v}"),
            GroupKey::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Mergeable result of a single-attribute grouped aggregation.
#[derive(Debug, Clone)]
pub struct GroupedAgg {
    func: AggFunc,
    keys: Vec<GroupKey>,
    states: Vec<AggState>,
    index: HashMap<GroupKey, usize>,
}

impl GroupedAgg {
    /// Empty grouped aggregate for `func`.
    pub fn new(func: AggFunc) -> Self {
        GroupedAgg { func, keys: Vec::new(), states: Vec::new(), index: HashMap::new() }
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no groups were formed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Index of `key`'s group, appended (in first-occurrence order) if new.
    fn slot(&mut self, key: &GroupKey) -> usize {
        if let Some(&idx) = self.index.get(key) {
            return idx;
        }
        self.keys.push(key.clone());
        self.states.push(AggState::new(self.func));
        self.index.insert(key.clone(), self.keys.len() - 1);
        self.keys.len() - 1
    }

    /// Finalized value of one group, if present.
    pub fn get(&self, key: &GroupKey) -> Option<ScalarValue> {
        self.index.get(key).map(|&i| self.states[i].finish())
    }

    /// Merges another grouped aggregate into this one. Groups new to `self`
    /// are appended in `other`'s order; `IncompatibleAggregates` (and `self`
    /// untouched) when the two compute different functions.
    pub fn merge(&mut self, other: &GroupedAgg) -> Result<()> {
        if self.func != other.func {
            return Err(OperatorError::IncompatibleAggregates(format!(
                "{} vs {}",
                self.func.name(),
                other.func.name()
            )));
        }
        for (key, state) in other.keys.iter().zip(&other.states) {
            let slot = self.slot(key);
            self.states[slot].merge(state)?;
        }
        Ok(())
    }

    /// Groups sorted by key with their finalized values — the deterministic
    /// result representation used to compare serial and parallel plans.
    pub fn finish_sorted(&self) -> Vec<(GroupKey, ScalarValue)> {
        let mut out: Vec<(GroupKey, ScalarValue)> =
            self.keys.iter().cloned().zip(self.states.iter().map(AggState::finish)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// The one accumulation loop: row `i` updates the state of group
/// `slot_of(keys[i])` with `values[i]`, the value column read through its
/// typed slice and the matching [`AggState`] update.
fn accumulate<K: Copy>(
    agg: &mut GroupedAgg,
    keys: &[K],
    values: &Column,
    slot_of: impl FnMut(&mut GroupedAgg, K) -> usize,
) -> Result<()> {
    fn rows<K: Copy, V: Copy>(
        agg: &mut GroupedAgg,
        keys: &[K],
        values: &[V],
        mut slot_of: impl FnMut(&mut GroupedAgg, K) -> usize,
        update: impl Fn(&mut AggState, V),
    ) {
        for (&k, &v) in keys.iter().zip(values) {
            let slot = slot_of(agg, k);
            update(&mut agg.states[slot], v);
        }
    }
    match values.data_type() {
        DataType::Int64 => rows(agg, keys, values.i64_values()?, slot_of, AggState::update_i64),
        DataType::Int32 => {
            rows(agg, keys, values.i32_values()?, slot_of, |s, v| s.update_i64(v as i64))
        }
        DataType::Float64 => rows(agg, keys, values.f64_values()?, slot_of, AggState::update_f64),
        DataType::Bool => {
            rows(agg, keys, values.bool_values()?, slot_of, |s, v| s.update_i64(v as i64))
        }
        DataType::Str => {
            if agg.func != AggFunc::Count {
                return Err(OperatorError::IncompatibleAggregates(format!(
                    "{} over a string value column",
                    agg.func.name()
                )));
            }
            // Only the row count matters: every key row counts one.
            rows(agg, keys, keys, slot_of, |s, _| s.update_i64(1))
        }
    }
    Ok(())
}

/// Groups keys drawn from a small dense domain `0..domain` (dictionary codes,
/// booleans) through a `code → group slot` table: the [`GroupKey`] is built,
/// and the aggregate's own index consulted, once per distinct code.
fn accumulate_dense<K: Copy>(
    agg: &mut GroupedAgg,
    keys: &[K],
    values: &Column,
    domain: usize,
    code_of: impl Fn(K) -> usize,
    key_of: impl Fn(usize) -> GroupKey,
) -> Result<()> {
    const UNSEEN: u32 = u32::MAX;
    let mut slots = vec![UNSEEN; domain];
    accumulate(agg, keys, values, |agg, k| {
        let code = code_of(k);
        if slots[code] == UNSEEN {
            // Two codes may carry one key (a dictionary with a repeated
            // entry): `slot` finds the group the first of them opened.
            slots[code] = agg.slot(&key_of(code)) as u32;
        }
        slots[code] as usize
    })
}

/// The join's multiplicative hash as a `Hasher` for `i64` keys.
#[derive(Default)]
struct FibHasher(u64);

impl Hasher for FibHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only i64 keys are hashed");
    }
    fn write_i64(&mut self, key: i64) {
        // The map takes its bucket from the low end of the hash and its
        // control byte from the top: give the low end the well-mixed half.
        self.0 = mix(key).rotate_left(32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Groups integer keys through an `i64 → group slot` map.
fn accumulate_ints<K: Copy>(
    agg: &mut GroupedAgg,
    keys: &[K],
    values: &Column,
    widen: impl Fn(K) -> i64,
) -> Result<()> {
    let mut slots: HashMap<i64, usize, BuildHasherDefault<FibHasher>> = HashMap::default();
    accumulate(agg, keys, values, |agg, k| {
        let key = widen(k);
        *slots.entry(key).or_insert_with(|| agg.slot(&GroupKey::I64(key)))
    })
}

/// Single-attribute grouped aggregation: `SELECT key, func(value) GROUP BY key`.
///
/// `keys` and `values` must be equally long and positionally aligned (they
/// usually are two columns fetched through the same candidate list). One pass
/// over both; groups are kept in first-occurrence order.
///
/// Errors, in this order: `LengthMismatch`; `IncompatibleAggregates` for
/// `Float64` keys; `IncompatibleAggregates` for anything but `Count` over a
/// string value column.
pub fn grouped_agg(func: AggFunc, keys: &Column, values: &Column) -> Result<GroupedAgg> {
    if keys.len() != values.len() {
        return Err(OperatorError::LengthMismatch { left: keys.len(), right: values.len() });
    }
    let mut agg = GroupedAgg::new(func);
    match keys.data_type() {
        DataType::Int64 => accumulate_ints(&mut agg, keys.i64_values()?, values, |k| k)?,
        DataType::Int32 => accumulate_ints(&mut agg, keys.i32_values()?, values, i64::from)?,
        DataType::Bool => accumulate_dense(
            &mut agg,
            keys.bool_values()?,
            values,
            2,
            |k| k as usize,
            |code| GroupKey::I64(code as i64),
        )?,
        DataType::Str => {
            let (codes, dict) = keys.str_codes()?;
            accumulate_dense(
                &mut agg,
                codes,
                values,
                dict.len(),
                |c| c as usize,
                |code| GroupKey::Str(dict[code].clone()),
            )?
        }
        DataType::Float64 => {
            return Err(OperatorError::IncompatibleAggregates(
                "float group-by keys are not supported".to_string(),
            ))
        }
    }
    Ok(agg)
}

/// Merges per-partition grouped aggregates into one (the exchange union's
/// grouped merge, which recombines the advanced mutation's clones and a
/// fused pipeline's morsels). The inputs are consumed in order: groups
/// appear in first-occurrence order, and float states sum in that order.
pub fn merge_grouped<'a>(parts: impl IntoIterator<Item = &'a GroupedAgg>) -> Result<GroupedAgg> {
    let mut parts = parts.into_iter().peekable();
    let first = parts.peek().ok_or(OperatorError::EmptyInput("merge_grouped"))?;
    let mut out = GroupedAgg::new(first.func());
    for p in parts {
        out.merge(p)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sum_count_min_max_avg() {
        let c = Column::from_i64(vec![3, 1, 4, 1, 5]);
        assert_eq!(scalar_agg(AggFunc::Sum, &c).unwrap().finish(), ScalarValue::I64(14));
        assert_eq!(scalar_agg(AggFunc::Count, &c).unwrap().finish(), ScalarValue::I64(5));
        assert_eq!(scalar_agg(AggFunc::Min, &c).unwrap().finish(), ScalarValue::I64(1));
        assert_eq!(scalar_agg(AggFunc::Max, &c).unwrap().finish(), ScalarValue::I64(5));
        assert_eq!(scalar_agg(AggFunc::Avg, &c).unwrap().finish(), ScalarValue::F64(2.8));
    }

    #[test]
    fn scalar_float_and_i32_and_bool() {
        let f = Column::from_f64(vec![1.5, 2.5]);
        assert_eq!(scalar_agg(AggFunc::Sum, &f).unwrap().finish(), ScalarValue::F64(4.0));
        assert_eq!(scalar_agg(AggFunc::Min, &f).unwrap().finish(), ScalarValue::F64(1.5));
        let i = Column::from_i32(vec![2, 3]);
        assert_eq!(scalar_agg(AggFunc::Sum, &i).unwrap().finish(), ScalarValue::I64(5));
        let b = Column::from_bool(vec![true, true, false]);
        assert_eq!(scalar_agg(AggFunc::Sum, &b).unwrap().finish(), ScalarValue::I64(2));
    }

    #[test]
    fn scalar_empty_inputs() {
        let c = Column::from_i64(vec![]);
        assert_eq!(scalar_agg(AggFunc::Sum, &c).unwrap().finish(), ScalarValue::I64(0));
        assert_eq!(scalar_agg(AggFunc::Count, &c).unwrap().finish(), ScalarValue::I64(0));
        assert_eq!(scalar_agg(AggFunc::Avg, &c).unwrap().finish(), ScalarValue::F64(0.0));
        assert_eq!(scalar_agg(AggFunc::Min, &c).unwrap().finish(), ScalarValue::I64(0));
    }

    #[test]
    fn scalar_strings_only_countable() {
        let c = Column::from_strings(["a", "b"]);
        assert_eq!(scalar_agg(AggFunc::Count, &c).unwrap().finish(), ScalarValue::I64(2));
        assert!(scalar_agg(AggFunc::Sum, &c).is_err());
    }

    #[test]
    fn partial_merge_equals_whole_column() {
        let values: Vec<i64> = (0..1000).map(|v| (v * 31) % 97).collect();
        let whole = Column::from_i64(values.clone());
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let expected = scalar_agg(func, &whole).unwrap().finish();
            let mut merged = AggState::new(func);
            for chunk in values.chunks(137) {
                let part = scalar_agg(func, &Column::from_i64(chunk.to_vec())).unwrap();
                merged.merge(&part).unwrap();
            }
            assert_eq!(merged.finish(), expected, "func {:?}", func);
        }
    }

    #[test]
    fn merge_rejects_mixed_functions() {
        let mut a = AggState::new(AggFunc::Sum);
        let b = AggState::new(AggFunc::Count);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn grouped_agg_by_int_key() {
        let keys = Column::from_i64(vec![1, 2, 1, 3, 2, 1]);
        let vals = Column::from_i64(vec![10, 20, 30, 40, 50, 60]);
        let g = grouped_agg(AggFunc::Sum, &keys, &vals).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(&GroupKey::I64(1)), Some(ScalarValue::I64(100)));
        assert_eq!(g.get(&GroupKey::I64(2)), Some(ScalarValue::I64(70)));
        assert_eq!(g.get(&GroupKey::I64(3)), Some(ScalarValue::I64(40)));
        assert_eq!(g.get(&GroupKey::I64(9)), None);
    }

    #[test]
    fn grouped_agg_by_string_key_and_count() {
        let keys = Column::from_strings(["AIR", "RAIL", "AIR", "SHIP"]);
        let vals = Column::from_strings(["x", "y", "z", "w"]);
        let g = grouped_agg(AggFunc::Count, &keys, &vals).unwrap();
        assert_eq!(g.get(&GroupKey::Str("AIR".into())), Some(ScalarValue::I64(2)));
        assert_eq!(g.get(&GroupKey::Str("SHIP".into())), Some(ScalarValue::I64(1)));
        // Non-count aggregates over string values are rejected.
        assert!(grouped_agg(AggFunc::Sum, &keys, &vals).is_err());
        // Float group keys are rejected.
        let fkeys = Column::from_f64(vec![1.0]);
        let v = Column::from_i64(vec![1]);
        assert!(grouped_agg(AggFunc::Sum, &fkeys, &v).is_err());
    }

    #[test]
    fn grouped_merge_equals_whole() {
        let n = 2000;
        let keys: Vec<i64> = (0..n).map(|v| v % 17).collect();
        let vals: Vec<i64> = (0..n).map(|v| v * 3).collect();
        let whole = grouped_agg(
            AggFunc::Sum,
            &Column::from_i64(keys.clone()),
            &Column::from_i64(vals.clone()),
        )
        .unwrap();
        let mut parts = Vec::new();
        let kcol = Column::from_i64(keys);
        let vcol = Column::from_i64(vals);
        for (s, l) in [(0usize, 700usize), (700, 800), (1500, 500)] {
            parts.push(
                grouped_agg(AggFunc::Sum, &kcol.slice(s, l).unwrap(), &vcol.slice(s, l).unwrap())
                    .unwrap(),
            );
        }
        let merged = merge_grouped(&parts).unwrap();
        assert_eq!(merged.finish_sorted(), whole.finish_sorted());
    }

    #[test]
    fn groups_keep_first_occurrence_order() {
        let values = Column::from_i64(vec![1; 6]);
        let by_str = Column::from_strings(["b", "a", "b", "c", "a", "d"]);
        let g = grouped_agg(AggFunc::Count, &by_str, &values).unwrap();
        let strs = |keys: &[&str]| keys.iter().map(|k| GroupKey::Str(k.to_string())).collect();
        let expected: Vec<GroupKey> = strs(&["b", "a", "c", "d"]);
        assert_eq!(g.keys, expected);
        // A window sees its own first occurrences, not the dictionary's order.
        let window =
            grouped_agg(AggFunc::Count, &by_str.slice(3, 3).unwrap(), &values.slice(3, 3).unwrap())
                .unwrap();
        let expected: Vec<GroupKey> = strs(&["c", "a", "d"]);
        assert_eq!(window.keys, expected);

        let ints = |keys: &[i64]| keys.iter().map(|&k| GroupKey::I64(k)).collect::<Vec<_>>();
        let by_i64 = Column::from_i64(vec![7, -1, 7, i64::MIN, -1, 0]);
        assert_eq!(
            grouped_agg(AggFunc::Sum, &by_i64, &values).unwrap().keys,
            ints(&[7, -1, i64::MIN, 0])
        );
        let by_i32 = Column::from_i32(vec![2, 2, 1, 3, 1, 2]);
        assert_eq!(grouped_agg(AggFunc::Sum, &by_i32, &values).unwrap().keys, ints(&[2, 1, 3]));
        let by_bool = Column::from_bool(vec![true, true, false, true, false, false]);
        assert_eq!(grouped_agg(AggFunc::Sum, &by_bool, &values).unwrap().keys, ints(&[1, 0]));

        // Merging ragged partials appends unseen groups in the other's order,
        // and states stay parallel to keys.
        let mut merged = window.clone();
        merged.merge(&g).unwrap();
        let expected: Vec<GroupKey> = strs(&["c", "a", "d", "b"]);
        assert_eq!(merged.keys, expected);
        let counts: Vec<i64> = merged.states.iter().map(AggState::count).collect();
        assert_eq!(counts, vec![2, 3, 2, 2]);
        for (i, key) in merged.keys.iter().enumerate() {
            assert_eq!(merged.index[key], i);
        }
    }

    #[test]
    fn grouped_errors() {
        let keys = Column::from_i64(vec![1, 2]);
        let vals = Column::from_i64(vec![1]);
        assert!(grouped_agg(AggFunc::Sum, &keys, &vals).is_err());
        assert!(merge_grouped(&[]).is_err());
        let mut a = GroupedAgg::new(AggFunc::Sum);
        let b = GroupedAgg::new(AggFunc::Count);
        assert!(a.merge(&b).is_err());
        assert!(a.is_empty());
    }

    #[test]
    fn group_key_display_and_order() {
        assert_eq!(GroupKey::I64(3).to_string(), "3");
        assert_eq!(GroupKey::Str("x".into()).to_string(), "x");
        assert!(GroupKey::I64(1) < GroupKey::I64(2));
        assert!(GroupKey::I64(1) < GroupKey::Str("a".into()));
    }
}
