//! Selection predicates.
//!
//! A [`Predicate`] describes the condition a select operator evaluates over a
//! column. Predicates are self-contained values (no closures) so that plan
//! nodes can be cloned freely during plan mutation and compared in tests.

use std::fmt;

use apq_columnar::strings::like_match;
use apq_columnar::{Column, DataType, ScalarValue};

use crate::error::{OperatorError, Result};

/// Comparison operator of a simple predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn holds<T: PartialOrd>(self, left: T, right: T) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A predicate over a single column.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column <op> constant`.
    Compare {
        /// Comparison operator.
        op: CmpOp,
        /// Constant compared against.
        value: ScalarValue,
    },
    /// `lo <= column <= hi` (bounds inclusive/exclusive per flags).
    Between {
        /// Lower bound.
        lo: ScalarValue,
        /// Upper bound.
        hi: ScalarValue,
        /// Whether the lower bound itself matches.
        lo_inclusive: bool,
        /// Whether the upper bound itself matches.
        hi_inclusive: bool,
    },
    /// SQL `LIKE` on a string column.
    Like {
        /// Pattern with `%` / `_` wildcards.
        pattern: String,
    },
    /// Membership in a set of integer values.
    InI64(Vec<i64>),
    /// Membership in a set of string values.
    InStr(Vec<String>),
    /// The column is a boolean column and the row is `true`.
    IsTrue,
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// At least one sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `column <op> value`.
    pub fn cmp(op: CmpOp, value: impl Into<ScalarValue>) -> Self {
        Predicate::Compare { op, value: value.into() }
    }

    /// Convenience constructor for an inclusive between.
    pub fn between(lo: impl Into<ScalarValue>, hi: impl Into<ScalarValue>) -> Self {
        Predicate::Between { lo: lo.into(), hi: hi.into(), lo_inclusive: true, hi_inclusive: true }
    }

    /// Convenience constructor for a half-open range `[lo, hi)`, which is how
    /// TPC-H date predicates (`>= date AND < date + interval`) are expressed.
    pub fn range(lo: impl Into<ScalarValue>, hi: impl Into<ScalarValue>) -> Self {
        Predicate::Between { lo: lo.into(), hi: hi.into(), lo_inclusive: true, hi_inclusive: false }
    }

    /// Convenience constructor for `LIKE`.
    pub fn like(pattern: impl Into<String>) -> Self {
        Predicate::Like { pattern: pattern.into() }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    pub fn negate(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Short human-readable description (used in plan pretty-printing).
    pub fn describe(&self) -> String {
        match self {
            Predicate::Compare { op, value } => format!("x {op} {value}"),
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => format!(
                "x in {}{lo}, {hi}{}",
                if *lo_inclusive { "[" } else { "(" },
                if *hi_inclusive { "]" } else { ")" }
            ),
            Predicate::Like { pattern } => format!("x LIKE '{pattern}'"),
            Predicate::InI64(v) => format!("x IN {v:?}"),
            Predicate::InStr(v) => format!("x IN {v:?}"),
            Predicate::IsTrue => "x".to_string(),
            Predicate::And(a, b) => format!("({}) AND ({})", a.describe(), b.describe()),
            Predicate::Or(a, b) => format!("({}) OR ({})", a.describe(), b.describe()),
            Predicate::Not(a) => format!("NOT ({})", a.describe()),
        }
    }

    /// Evaluates the predicate over every visible row of `column`, returning
    /// one boolean per row, in row order.
    ///
    /// The predicate tree is resolved once against the column's type and the
    /// mask is filled in one pass — `And`/`Or`/`Not` are evaluated per row,
    /// not by combining per-branch masks. A sub-predicate that cannot apply
    /// to the column's type is `PredicateTypeMismatch` naming the leftmost
    /// such leaf, whether or not the column has rows.
    pub fn eval_mask(&self, column: &Column) -> Result<Vec<bool>> {
        struct Mask;
        impl RowKernel for Mask {
            type Out = Vec<bool>;
            fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Vec<bool> {
                values.iter().map(|&v| hit(v)).collect()
            }
        }
        Ok(self.resolve(column)?.drive(Mask))
    }

    /// Resolves the predicate tree against `column`'s type: the crate's one
    /// type dispatch for predicates. Costs O(predicate size) for numeric
    /// columns and O(predicate size × dictionary size) for string columns —
    /// never O(rows).
    pub(crate) fn resolve<'a>(&self, column: &'a Column) -> Result<Resolved<'a>> {
        let mismatch = |leaf: &Predicate| OperatorError::PredicateTypeMismatch {
            column_type: column.data_type().name(),
            predicate: leaf.describe(),
        };
        let int_tree = || self.fold(&|p| p.int_leaf().map(Node::Leaf).ok_or_else(|| mismatch(p)));
        Ok(match column.data_type() {
            DataType::Int64 => Resolved::I64(column.i64_values()?, int_tree()?),
            DataType::Int32 => Resolved::I32(column.i32_values()?, int_tree()?),
            DataType::Float64 => Resolved::F64(
                column.f64_values()?,
                self.fold(&|p| p.float_leaf().map(Node::Leaf).ok_or_else(|| mismatch(p)))?,
            ),
            DataType::Bool => Resolved::Bool(
                column.bool_values()?,
                self.fold(&|p| p.bool_leaf().ok_or_else(|| mismatch(p)))?,
            ),
            DataType::Str => {
                let (codes, dict) = column.str_codes()?;
                Resolved::Str(codes, self.fold(&|p| p.str_leaf(dict).ok_or_else(|| mismatch(p)))?)
            }
        })
    }

    /// Folds the tree bottom-up, left before right (so the leftmost failing
    /// leaf is the one reported).
    fn fold<L: Logic>(&self, leaf: &impl Fn(&Predicate) -> Result<L>) -> Result<L> {
        Ok(match self {
            Predicate::And(a, b) => a.fold(leaf)?.and(b.fold(leaf)?),
            Predicate::Or(a, b) => a.fold(leaf)?.or(b.fold(leaf)?),
            Predicate::Not(a) => a.fold(leaf)?.not(),
            _ => leaf(self)?,
        })
    }

    /// This leaf over an integer column; constants stay `i64` (an `Int32`
    /// column widens its values, never narrows the constant).
    fn int_leaf(&self) -> Option<IntLeaf> {
        Some(match self {
            Predicate::Compare { op, value } => {
                let c = value.as_i64()?;
                match op {
                    CmpOp::Eq => IntLeaf::range(Some(c), Some(c)),
                    CmpOp::Ne => IntLeaf::Ne(c),
                    CmpOp::Lt => IntLeaf::range(Some(i64::MIN), c.checked_sub(1)),
                    CmpOp::Le => IntLeaf::range(Some(i64::MIN), Some(c)),
                    CmpOp::Gt => IntLeaf::range(c.checked_add(1), Some(i64::MAX)),
                    CmpOp::Ge => IntLeaf::range(Some(c), Some(i64::MAX)),
                }
            }
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => {
                let (lo, hi) = (lo.as_i64()?, hi.as_i64()?);
                IntLeaf::range(
                    if *lo_inclusive { Some(lo) } else { lo.checked_add(1) },
                    if *hi_inclusive { Some(hi) } else { hi.checked_sub(1) },
                )
            }
            Predicate::InI64(set) => {
                let mut set = set.clone();
                set.sort_unstable();
                set.dedup();
                IntLeaf::In(set)
            }
            _ => return None,
        })
    }

    fn float_leaf(&self) -> Option<FloatLeaf> {
        Some(match self {
            Predicate::Compare { op, value } => FloatLeaf::Compare(*op, value.as_f64()?),
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => FloatLeaf::Between {
                lo: lo.as_f64()?,
                hi: hi.as_f64()?,
                lo_inclusive: *lo_inclusive,
                hi_inclusive: *hi_inclusive,
            },
            _ => return None,
        })
    }

    /// This leaf over a boolean column, as its truth table `[on false, on true]`.
    fn bool_leaf(&self) -> Option<[bool; 2]> {
        match self {
            Predicate::IsTrue => Some([false, true]),
            Predicate::Compare { op: CmpOp::Eq, value: ScalarValue::Bool(b) } => Some([!*b, *b]),
            _ => None,
        }
    }

    /// This leaf over a string column: evaluated once per dictionary entry,
    /// so the per-row test is a lookup by code.
    fn str_leaf(&self, dict: &[String]) -> Option<Vec<bool>> {
        Some(match self {
            Predicate::Compare { op, value } => {
                let rhs = value.as_str()?;
                dict.iter().map(|s| op.holds(s.as_str(), rhs)).collect()
            }
            Predicate::Like { pattern } => dict.iter().map(|s| like_match(pattern, s)).collect(),
            Predicate::InStr(set) => dict.iter().map(|s| set.iter().any(|x| x == s)).collect(),
            _ => return None,
        })
    }
}

/// A row loop that [`Resolved::drive`] hands a typed slice and a per-value
/// test with every constant already converted. The three kernels of the
/// crate (mask, select, candidate select) are its implementations.
pub(crate) trait RowKernel: Sized {
    /// What the loop produces.
    type Out;
    /// Runs the loop; `hit(values[i])` says whether row `i` qualifies.
    fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Self::Out;

    /// Runs the loop for the one range `lo <= v <= hi` over `Int32` values,
    /// the bounds narrowed to `i32` (`lo > hi` is the empty range): by
    /// default [`RowKernel::run`] with that test, which a kernel overrides
    /// when the range has a faster loop.
    fn run_i32_range(self, values: &[i32], lo: i32, hi: i32) -> Self::Out {
        self.run(values, move |v| (lo <= v) & (v <= hi))
    }
}

/// A predicate resolved against one column: the visible rows as a typed
/// slice plus the test to apply to each value.
pub(crate) enum Resolved<'a> {
    I64(&'a [i64], Node<IntLeaf>),
    I32(&'a [i32], Node<IntLeaf>),
    F64(&'a [f64], Node<FloatLeaf>),
    /// Two possible inputs: the whole tree folds into a truth table.
    Bool(&'a [bool], [bool; 2]),
    /// Dictionary codes; the whole tree folds into one mask over the dictionary.
    Str(&'a [u32], Vec<bool>),
}

impl Resolved<'_> {
    /// Runs `kernel` over the column's rows with this predicate's test.
    pub(crate) fn drive<K: RowKernel>(&self, kernel: K) -> K::Out {
        match self {
            Resolved::I64(values, node) => node.drive(values, |v| v, kernel),
            // Every TPC-H date filter: compared at the column's width.
            Resolved::I32(values, Node::Leaf(IntLeaf::Range { lo, hi })) => {
                let narrowed = (
                    i32::try_from((*lo).max(i32::MIN.into())),
                    i32::try_from((*hi).min(i32::MAX.into())),
                );
                match narrowed {
                    (Ok(lo), Ok(hi)) => kernel.run_i32_range(values, lo, hi),
                    // A bound past the other end of `i32`: no value is inside.
                    _ => kernel.run_i32_range(values, 1, 0),
                }
            }
            Resolved::I32(values, node) => node.drive(values, i64::from, kernel),
            Resolved::F64(values, node) => kernel.run(values, |v| node.eval(&|leaf| leaf.holds(v))),
            Resolved::Bool(values, table) => kernel.run(values, |v: bool| table[v as usize]),
            Resolved::Str(codes, mask) => kernel.run(codes, |c: u32| mask[c as usize]),
        }
    }
}

/// `And`/`Or`/`Not` over whatever a column type resolves its leaves to.
trait Logic {
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
    fn not(self) -> Self;
}

/// A resolved tree whose leaves are tested per value.
pub(crate) enum Node<L> {
    Leaf(L),
    And(Box<Node<L>>, Box<Node<L>>),
    Or(Box<Node<L>>, Box<Node<L>>),
    Not(Box<Node<L>>),
}

impl<L> Node<L> {
    /// Both sides of `And`/`Or` are always evaluated (`&`, `|`): the tests
    /// have no side effects and the row loop stays free of data-dependent
    /// branches.
    fn eval(&self, leaf: &impl Fn(&L) -> bool) -> bool {
        match self {
            Node::Leaf(l) => leaf(l),
            Node::And(a, b) => a.eval(leaf) & b.eval(leaf),
            Node::Or(a, b) => a.eval(leaf) | b.eval(leaf),
            Node::Not(a) => !a.eval(leaf),
        }
    }
}

impl<L> Logic for Node<L> {
    fn and(self, other: Self) -> Self {
        Node::And(Box::new(self), Box::new(other))
    }
    fn or(self, other: Self) -> Self {
        Node::Or(Box::new(self), Box::new(other))
    }
    fn not(self) -> Self {
        Node::Not(Box::new(self))
    }
}

impl Logic for [bool; 2] {
    fn and(self, o: Self) -> Self {
        [self[0] & o[0], self[1] & o[1]]
    }
    fn or(self, o: Self) -> Self {
        [self[0] | o[0], self[1] | o[1]]
    }
    fn not(self) -> Self {
        [!self[0], !self[1]]
    }
}

/// Per-dictionary-entry masks of one dictionary (equal lengths).
impl Logic for Vec<bool> {
    fn and(mut self, o: Self) -> Self {
        self.iter_mut().zip(o).for_each(|(x, y)| *x &= y);
        self
    }
    fn or(mut self, o: Self) -> Self {
        self.iter_mut().zip(o).for_each(|(x, y)| *x |= y);
        self
    }
    fn not(mut self) -> Self {
        self.iter_mut().for_each(|x| *x = !*x);
        self
    }
}

/// An integer leaf. Every comparison and `Between` flavour except `<>`
/// normalises to one inclusive range.
pub(crate) enum IntLeaf {
    /// `lo <= v <= hi`; `lo > hi` is the empty range.
    Range { lo: i64, hi: i64 },
    /// `v <> c`.
    Ne(i64),
    /// Membership in a sorted, de-duplicated set.
    In(Vec<i64>),
}

impl IntLeaf {
    /// The inclusive range `[lo, hi]`; `None` is a bound that stepped past
    /// the end of `i64` (`< i64::MIN`, `> i64::MAX`), which nothing satisfies.
    fn range(lo: Option<i64>, hi: Option<i64>) -> IntLeaf {
        match (lo, hi) {
            (Some(lo), Some(hi)) => IntLeaf::Range { lo, hi },
            _ => IntLeaf::Range { lo: 1, hi: 0 },
        }
    }

    #[inline]
    fn holds(&self, v: i64) -> bool {
        match self {
            IntLeaf::Range { lo, hi } => (*lo <= v) & (v <= *hi),
            IntLeaf::Ne(c) => v != *c,
            IntLeaf::In(set) => set.binary_search(&v).is_ok(),
        }
    }
}

impl Node<IntLeaf> {
    /// Hands `kernel` the test for this tree. The single-range tree — every
    /// TPC-H date, discount and quantity filter — gets a loop with the two
    /// bounds in registers instead of a walk over the tree per row (measured
    /// 4× on a 6 M-row `Int32` range select: 1,130 M vs 260 M rows/s).
    fn drive<T: Copy, K: RowKernel>(
        &self,
        values: &[T],
        widen: impl Fn(T) -> i64,
        kernel: K,
    ) -> K::Out {
        match self {
            Node::Leaf(IntLeaf::Range { lo, hi }) => {
                let (lo, hi) = (*lo, *hi);
                kernel.run(values, move |v| {
                    let v = widen(v);
                    (lo <= v) & (v <= hi)
                })
            }
            tree => kernel.run(values, |v| {
                let v = widen(v);
                tree.eval(&|leaf| leaf.holds(v))
            }),
        }
    }
}

/// A float leaf; IEEE comparison semantics (`NaN` fails everything but `<>`).
pub(crate) enum FloatLeaf {
    Compare(CmpOp, f64),
    Between { lo: f64, hi: f64, lo_inclusive: bool, hi_inclusive: bool },
}

impl FloatLeaf {
    #[inline]
    fn holds(&self, v: f64) -> bool {
        match *self {
            FloatLeaf::Compare(op, rhs) => op.holds(v, rhs),
            FloatLeaf::Between { lo, hi, lo_inclusive, hi_inclusive } => {
                let ge = if lo_inclusive { v >= lo } else { v > lo };
                let le = if hi_inclusive { v <= hi } else { v < hi };
                ge & le
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_i64() {
        let c = Column::from_i64(vec![1, 5, 10, 15]);
        let m = Predicate::cmp(CmpOp::Lt, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, true, false, false]);
        let m = Predicate::cmp(CmpOp::Ge, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, false, true, true]);
        let m = Predicate::cmp(CmpOp::Eq, 5i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false, false]);
        let m = Predicate::cmp(CmpOp::Ne, 5i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, false, true, true]);
    }

    #[test]
    fn between_and_range() {
        let c = Column::from_i64(vec![1, 5, 10, 15]);
        let m = Predicate::between(5i64, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, true, false]);
        let m = Predicate::range(5i64, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false, false]);
    }

    #[test]
    fn i32_dates_widen() {
        let c = Column::from_i32(vec![8035, 8400, 9000]);
        let m = Predicate::range(8035i64, 8400i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, false, false]);
    }

    #[test]
    fn float_predicates() {
        let c = Column::from_f64(vec![0.04, 0.05, 0.06, 0.07]);
        let m = Predicate::between(0.05, 0.07).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, true, true]);
        let m = Predicate::cmp(CmpOp::Lt, 0.06).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, true, false, false]);
    }

    #[test]
    fn in_lists() {
        let c = Column::from_i64(vec![1, 2, 3, 4]);
        let m = Predicate::InI64(vec![2, 4]).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false, true]);

        let s = Column::from_strings(["AIR", "RAIL", "SHIP"]);
        let m = Predicate::InStr(vec!["AIR".into(), "SHIP".into()]).eval_mask(&s).unwrap();
        assert_eq!(m, vec![true, false, true]);
    }

    #[test]
    fn string_like_and_eq() {
        let c = Column::from_strings(["PROMO BRUSHED", "STANDARD", "PROMO PLATED"]);
        let m = Predicate::like("PROMO%").eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, false, true]);
        let m = Predicate::cmp(CmpOp::Eq, "STANDARD").eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false]);
    }

    #[test]
    fn boolean_columns() {
        let c = Column::from_bool(vec![true, false, true]);
        assert_eq!(Predicate::IsTrue.eval_mask(&c).unwrap(), vec![true, false, true]);
        assert_eq!(
            Predicate::cmp(CmpOp::Eq, false).eval_mask(&c).unwrap(),
            vec![false, true, false]
        );
    }

    #[test]
    fn logical_combinators() {
        let c = Column::from_i64(vec![1, 5, 10, 15]);
        let p = Predicate::cmp(CmpOp::Gt, 1i64).and(Predicate::cmp(CmpOp::Lt, 15i64));
        assert_eq!(p.eval_mask(&c).unwrap(), vec![false, true, true, false]);
        let p = Predicate::cmp(CmpOp::Eq, 1i64).or(Predicate::cmp(CmpOp::Eq, 15i64));
        assert_eq!(p.eval_mask(&c).unwrap(), vec![true, false, false, true]);
        let p = Predicate::cmp(CmpOp::Eq, 1i64).negate();
        assert_eq!(p.eval_mask(&c).unwrap(), vec![false, true, true, true]);
    }

    #[test]
    fn type_mismatches_are_errors() {
        let c = Column::from_i64(vec![1]);
        assert!(Predicate::like("%x%").eval_mask(&c).is_err());
        assert!(Predicate::cmp(CmpOp::Eq, "str").eval_mask(&c).is_err());
        let s = Column::from_strings(["a"]);
        assert!(Predicate::between(1i64, 2i64).eval_mask(&s).is_err());
        let b = Column::from_bool(vec![true]);
        assert!(Predicate::cmp(CmpOp::Lt, 1i64).eval_mask(&b).is_err());
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(Predicate::cmp(CmpOp::Lt, 3i64).describe(), "x < 3");
        assert!(Predicate::range(1i64, 2i64).describe().contains('['));
        assert!(Predicate::like("%P%").describe().contains("LIKE"));
        assert!(Predicate::cmp(CmpOp::Eq, 1i64)
            .and(Predicate::cmp(CmpOp::Eq, 2i64))
            .describe()
            .contains("AND"));
    }
}
