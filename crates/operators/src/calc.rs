//! Vectorized arithmetic (`batcalc.*` in the paper's plans).
//!
//! TPC-H expressions such as `l_extendedprice * (1 - l_discount)` (Q6, Q14,
//! Q19) are evaluated by element-wise operations over columns and scalars.
//! Integer columns use fixed-point(2) decimal semantics: multiplication of
//! two fixed-point(2) values is rescaled back to fixed-point(2) by the
//! workload layer (the operator itself is plain integer arithmetic, exactly
//! like MonetDB's `batcalc.*` on `lng` decimals).
//!
//! Each call decides its loop once: one typed loop per operator, operand
//! types and scalar side. No row returns a `Result` — a division's
//! `DivisionByZero` and `i64::MIN / -1` overflow are found before its loop —
//! an `Int32` operand is read in place and widened per row, never copied,
//! and an integer division by a scalar `d ≥ 2` multiplies by a precomputed
//! `Reciprocal` instead of dividing.

use apq_columnar::{Column, DataType, ScalarValue};

use crate::error::{OperatorError, Result};

/// Element-wise binary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (errors on a zero divisor).
    Div,
}

impl BinaryOp {
    /// Short symbol for plan pretty-printing.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

fn numeric_error(left: DataType, right: DataType) -> OperatorError {
    OperatorError::InvalidCalc(format!(
        "calc requires numeric inputs of matching class, got {left} and {right}"
    ))
}

/// `out[i] = left[i] <op> right[i]` for two equally long numeric columns.
///
/// Both `Int64` (fixed-point) and `Float64` columns are supported; the two
/// inputs must belong to the same numeric class. `Int32` inputs are widened
/// to `Int64`. A division fails with `DivisionByZero` if any divisor is zero
/// and otherwise with `InvalidCalc` if any row is `i64::MIN / -1`.
pub fn calc_col_col(op: BinaryOp, left: &Column, right: &Column) -> Result<Column> {
    if left.len() != right.len() {
        return Err(OperatorError::LengthMismatch { left: left.len(), right: right.len() });
    }
    match (left.data_type(), right.data_type()) {
        (DataType::Float64, DataType::Float64) => {
            Ok(Column::from_f64(f64_col_col(op, left.f64_values()?, right.f64_values()?)?))
        }
        (lt, rt) if is_int(lt) && is_int(rt) => {
            let out = match (ints(left)?, ints(right)?) {
                (Ints::I64(l), Ints::I64(r)) => int_col_col(op, l, r),
                (Ints::I64(l), Ints::I32(r)) => int_col_col(op, l, r),
                (Ints::I32(l), Ints::I64(r)) => int_col_col(op, l, r),
                (Ints::I32(l), Ints::I32(r)) => int_col_col(op, l, r),
            };
            Ok(Column::from_i64(out?))
        }
        (lt, rt) => Err(numeric_error(lt, rt)),
    }
}

/// `out[i] = left[i] <op> scalar`. Errors as [`calc_col_col`]'s, with the
/// scalar as every row's right operand.
pub fn calc_col_scalar(op: BinaryOp, left: &Column, scalar: &ScalarValue) -> Result<Column> {
    match left.data_type() {
        DataType::Float64 => {
            let rhs = scalar
                .as_f64()
                .ok_or_else(|| numeric_error(DataType::Float64, scalar.data_type()))?;
            Ok(Column::from_f64(f64_col_scalar(op, left.f64_values()?, rhs)?))
        }
        lt if is_int(lt) => {
            let rhs = scalar.as_i64().ok_or_else(|| numeric_error(lt, scalar.data_type()))?;
            let out = match ints(left)? {
                Ints::I64(l) => int_col_scalar(op, l, rhs),
                Ints::I32(l) => int_col_scalar(op, l, rhs),
            };
            Ok(Column::from_i64(out?))
        }
        lt => Err(numeric_error(lt, scalar.data_type())),
    }
}

/// `out[i] = scalar <op> right[i]` (needed for `1 - l_discount` style
/// expressions). Errors as [`calc_col_col`]'s, with the scalar as every
/// row's left operand.
pub fn calc_scalar_col(op: BinaryOp, scalar: &ScalarValue, right: &Column) -> Result<Column> {
    match right.data_type() {
        DataType::Float64 => {
            let lhs = scalar
                .as_f64()
                .ok_or_else(|| numeric_error(scalar.data_type(), DataType::Float64))?;
            Ok(Column::from_f64(f64_scalar_col(op, lhs, right.f64_values()?)?))
        }
        rt if is_int(rt) => {
            let lhs = scalar.as_i64().ok_or_else(|| numeric_error(scalar.data_type(), rt))?;
            let out = match ints(right)? {
                Ints::I64(r) => int_scalar_col(op, lhs, r),
                Ints::I32(r) => int_scalar_col(op, lhs, r),
            };
            Ok(Column::from_i64(out?))
        }
        rt => Err(numeric_error(scalar.data_type(), rt)),
    }
}

fn is_int(t: DataType) -> bool {
    matches!(t, DataType::Int64 | DataType::Int32)
}

/// An integer column's visible values as stored.
enum Ints<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
}

fn ints(col: &Column) -> Result<Ints<'_>> {
    match col.data_type() {
        DataType::Int64 => Ok(Ints::I64(col.i64_values()?)),
        DataType::Int32 => Ok(Ints::I32(col.i32_values()?)),
        other => Err(numeric_error(other, other)),
    }
}

/// An integer element `calc` reads in place, widened per row.
trait Int: Copy {
    fn wide(self) -> i64;
}

impl Int for i64 {
    #[inline]
    fn wide(self) -> i64 {
        self
    }
}

impl Int for i32 {
    #[inline]
    fn wide(self) -> i64 {
        i64::from(self)
    }
}

/// `f` of every row, widened.
#[inline]
fn each<A: Int>(values: &[A], f: impl Fn(i64) -> i64) -> Vec<i64> {
    values.iter().map(|&a| f(a.wide())).collect()
}

/// `f` of every row pair, widened.
#[inline]
fn each_pair<A: Int, B: Int>(l: &[A], r: &[B], f: impl Fn(i64, i64) -> i64) -> Vec<i64> {
    l.iter().zip(r).map(|(&a, &b)| f(a.wide(), b.wide())).collect()
}

/// The error a division of these `(dividend, divisor)` rows raises, if any:
/// `DivisionByZero` for a zero divisor anywhere, else `InvalidCalc` for
/// `i64::MIN / -1` anywhere — the one quotient `i64` cannot hold.
fn check_division(rows: impl Iterator<Item = (i64, i64)>) -> Result<()> {
    let (zero, overflow) = rows.fold((false, false), |(zero, overflow), (a, b)| {
        (zero | (b == 0), overflow | ((a == i64::MIN) & (b == -1)))
    });
    if zero {
        Err(OperatorError::DivisionByZero)
    } else if overflow {
        Err(OperatorError::InvalidCalc(format!("integer overflow: {} / -1", i64::MIN)))
    } else {
        Ok(())
    }
}

fn int_col_col<A: Int, B: Int>(op: BinaryOp, l: &[A], r: &[B]) -> Result<Vec<i64>> {
    Ok(match op {
        BinaryOp::Add => each_pair(l, r, i64::wrapping_add),
        BinaryOp::Sub => each_pair(l, r, i64::wrapping_sub),
        BinaryOp::Mul => each_pair(l, r, i64::wrapping_mul),
        BinaryOp::Div => {
            check_division(l.iter().zip(r).map(|(&a, &b)| (a.wide(), b.wide())))?;
            each_pair(l, r, i64::wrapping_div)
        }
    })
}

fn int_col_scalar<A: Int>(op: BinaryOp, l: &[A], s: i64) -> Result<Vec<i64>> {
    Ok(match op {
        BinaryOp::Add => each(l, |a| a.wrapping_add(s)),
        BinaryOp::Sub => each(l, |a| a.wrapping_sub(s)),
        BinaryOp::Mul => each(l, |a| a.wrapping_mul(s)),
        BinaryOp::Div => match Reciprocal::of(s) {
            Some(d) => each(l, |a| d.divide(a)),
            None => {
                check_division(l.iter().map(|&a| (a.wide(), s)))?;
                each(l, |a| a.wrapping_div(s))
            }
        },
    })
}

fn int_scalar_col<B: Int>(op: BinaryOp, s: i64, r: &[B]) -> Result<Vec<i64>> {
    Ok(match op {
        BinaryOp::Add => each(r, |b| s.wrapping_add(b)),
        BinaryOp::Sub => each(r, |b| s.wrapping_sub(b)),
        BinaryOp::Mul => each(r, |b| s.wrapping_mul(b)),
        BinaryOp::Div => {
            check_division(r.iter().map(|&b| (s, b.wide())))?;
            each(r, |b| s.wrapping_div(b))
        }
    })
}

/// `DivisionByZero` if any divisor is zero (`-0.0` included).
fn check_f64_divisors(divisors: &[f64]) -> Result<()> {
    if divisors.contains(&0.0) {
        return Err(OperatorError::DivisionByZero);
    }
    Ok(())
}

fn f64_col_col(op: BinaryOp, l: &[f64], r: &[f64]) -> Result<Vec<f64>> {
    let pairs = || l.iter().zip(r);
    Ok(match op {
        BinaryOp::Add => pairs().map(|(a, b)| a + b).collect(),
        BinaryOp::Sub => pairs().map(|(a, b)| a - b).collect(),
        BinaryOp::Mul => pairs().map(|(a, b)| a * b).collect(),
        BinaryOp::Div => {
            check_f64_divisors(r)?;
            pairs().map(|(a, b)| a / b).collect()
        }
    })
}

fn f64_col_scalar(op: BinaryOp, l: &[f64], s: f64) -> Result<Vec<f64>> {
    Ok(match op {
        BinaryOp::Add => l.iter().map(|a| a + s).collect(),
        BinaryOp::Sub => l.iter().map(|a| a - s).collect(),
        BinaryOp::Mul => l.iter().map(|a| a * s).collect(),
        BinaryOp::Div => {
            if !l.is_empty() {
                check_f64_divisors(&[s])?;
            }
            l.iter().map(|a| a / s).collect()
        }
    })
}

fn f64_scalar_col(op: BinaryOp, s: f64, r: &[f64]) -> Result<Vec<f64>> {
    Ok(match op {
        BinaryOp::Add => r.iter().map(|b| s + b).collect(),
        BinaryOp::Sub => r.iter().map(|b| s - b).collect(),
        BinaryOp::Mul => r.iter().map(|b| s * b).collect(),
        BinaryOp::Div => {
            check_f64_divisors(r)?;
            r.iter().map(|b| s / b).collect()
        }
    })
}

/// Truncating division of any `i64` by a constant `d ≥ 2` as a multiply-high,
/// an add, a shift and a sign fix — the same quotient as `n / d` for every
/// `n` (Granlund & Montgomery, "Division by Invariant Integers using
/// Multiplication", PLDI '94, fig. 5.2, for a positive divisor).
#[derive(Debug, Clone, Copy)]
struct Reciprocal {
    /// `m − 2^64` for the multiplier `m = 1 + ⌊2^(63+ℓ) / d⌋`, `ℓ = ⌈log2 d⌉`;
    /// `2^63 < m < 2^64`, so this is negative.
    magic: i64,
    /// `ℓ − 1`.
    shift: u32,
}

impl Reciprocal {
    /// The reciprocal of `d`, or `None` for `d < 2`.
    fn of(d: i64) -> Option<Reciprocal> {
        if d < 2 {
            return None;
        }
        let l = 64 - (d - 1).leading_zeros();
        let m = 1 + (1u128 << (63 + l)) / d as u128;
        Some(Reciprocal { magic: m as u64 as i64, shift: l - 1 })
    }

    /// `n / d`.
    #[inline]
    fn divide(self, n: i64) -> i64 {
        // ⌊m·n / 2^64⌋ = n + ⌊(m − 2^64)·n / 2^64⌋, and |m·n / 2^64| ≤ |n|,
        // so the sum cannot overflow.
        let high = ((i128::from(self.magic) * i128::from(n)) >> 64) as i64;
        let floor = (n + high) >> self.shift;
        // Rounded towards −∞ so far; a negative `n` rounds towards zero.
        floor - (n >> 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_col_int() {
        let a = Column::from_i64(vec![10, 20, 30]);
        let b = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(
            calc_col_col(BinaryOp::Add, &a, &b).unwrap().i64_values().unwrap(),
            &[11, 22, 33]
        );
        assert_eq!(
            calc_col_col(BinaryOp::Sub, &a, &b).unwrap().i64_values().unwrap(),
            &[9, 18, 27]
        );
        assert_eq!(
            calc_col_col(BinaryOp::Mul, &a, &b).unwrap().i64_values().unwrap(),
            &[10, 40, 90]
        );
        assert_eq!(
            calc_col_col(BinaryOp::Div, &a, &b).unwrap().i64_values().unwrap(),
            &[10, 10, 10]
        );
    }

    #[test]
    fn col_col_float_and_mixed_int() {
        let a = Column::from_f64(vec![1.5, 2.5]);
        let b = Column::from_f64(vec![0.5, 0.5]);
        assert_eq!(
            calc_col_col(BinaryOp::Mul, &a, &b).unwrap().f64_values().unwrap(),
            &[0.75, 1.25]
        );
        let a = Column::from_i32(vec![1, 2]);
        let b = Column::from_i64(vec![10, 20]);
        assert_eq!(calc_col_col(BinaryOp::Add, &a, &b).unwrap().i64_values().unwrap(), &[11, 22]);
    }

    #[test]
    fn scalar_variants() {
        let a = Column::from_i64(vec![100, 200]);
        assert_eq!(
            calc_col_scalar(BinaryOp::Div, &a, &ScalarValue::I64(10))
                .unwrap()
                .i64_values()
                .unwrap(),
            &[10, 20]
        );
        assert_eq!(
            calc_scalar_col(BinaryOp::Sub, &ScalarValue::I64(100), &a)
                .unwrap()
                .i64_values()
                .unwrap(),
            &[0, -100]
        );
        let f = Column::from_f64(vec![0.1, 0.2]);
        assert_eq!(
            calc_scalar_col(BinaryOp::Sub, &ScalarValue::F64(1.0), &f)
                .unwrap()
                .f64_values()
                .unwrap(),
            &[0.9, 0.8]
        );
    }

    #[test]
    fn division_by_zero() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![0]);
        assert_eq!(calc_col_col(BinaryOp::Div, &a, &b).unwrap_err(), OperatorError::DivisionByZero);
        let f = Column::from_f64(vec![1.0]);
        assert_eq!(
            calc_col_scalar(BinaryOp::Div, &f, &ScalarValue::F64(0.0)).unwrap_err(),
            OperatorError::DivisionByZero
        );
        // No row, no division: an empty column divides by a zero scalar.
        let none = Column::from_i64(vec![]);
        assert!(calc_col_scalar(BinaryOp::Div, &none, &ScalarValue::I64(0)).unwrap().is_empty());
        assert!(calc_scalar_col(BinaryOp::Div, &ScalarValue::I64(1), &none).unwrap().is_empty());
    }

    fn is_overflow(result: Result<Column>) -> bool {
        matches!(result, Err(OperatorError::InvalidCalc(msg)) if msg.contains("overflow"))
    }

    #[test]
    fn i64_min_divided_by_minus_one_is_an_error_in_every_flavour() {
        let dividends = Column::from_i64(vec![7, i64::MIN, 9]);
        let divisors = Column::from_i64(vec![1, -1, 3]);
        assert!(is_overflow(calc_col_col(BinaryOp::Div, &dividends, &divisors)));
        assert!(is_overflow(calc_col_scalar(BinaryOp::Div, &dividends, &ScalarValue::I64(-1))));
        let min = ScalarValue::I64(i64::MIN);
        assert!(is_overflow(calc_scalar_col(BinaryOp::Div, &min, &divisors)));
        // A zero divisor anywhere wins over the overflow.
        let with_zero = Column::from_i64(vec![1, -1, 0]);
        assert_eq!(
            calc_col_col(BinaryOp::Div, &dividends, &with_zero).unwrap_err(),
            OperatorError::DivisionByZero
        );
        assert_eq!(
            calc_scalar_col(BinaryOp::Div, &min, &with_zero).unwrap_err(),
            OperatorError::DivisionByZero
        );
        // Int32 operands widen first, so their extremes cannot overflow.
        let narrow = Column::from_i32(vec![i32::MIN]);
        assert_eq!(
            calc_col_scalar(BinaryOp::Div, &narrow, &ScalarValue::I64(-1))
                .unwrap()
                .i64_values()
                .unwrap(),
            &[-(i32::MIN as i64)]
        );
        // Every other quotient by -1, i64::MAX's included, stays defined.
        let fine = Column::from_i64(vec![i64::MIN + 1, i64::MAX, 0]);
        assert_eq!(
            calc_col_scalar(BinaryOp::Div, &fine, &ScalarValue::I64(-1))
                .unwrap()
                .i64_values()
                .unwrap(),
            &[i64::MAX, -i64::MAX, 0]
        );
    }

    #[test]
    fn the_reciprocal_divides_like_the_hardware_for_every_i64() {
        let mut divisors: Vec<i64> = (2..=1_100).collect();
        for k in 1..63 {
            divisors.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        divisors.extend([365, 10_000, 1_000_000_007, i64::MAX - 1, i64::MAX]);
        divisors.retain(|&d| d >= 2);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for d in divisors {
            let reciprocal = Reciprocal::of(d).unwrap();
            // The edges of i64, the quotient steps around them, and random
            // dividends: n / d changes value exactly at multiples of d.
            let steps = [i64::MIN / d * d, i64::MAX / d * d, d, -d, 0];
            let mut dividends = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
            for step in steps {
                dividends.extend((-2..=2).map(|delta| step.saturating_add(delta)));
            }
            for _ in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                dividends.push(state as i64);
                dividends.push((state >> (state % 64)) as i64);
            }
            for n in dividends {
                assert_eq!(reciprocal.divide(n), n / d, "{n} / {d}");
            }
        }
        for d in [i64::MIN, -7, -1, 0, 1] {
            assert!(Reciprocal::of(d).is_none(), "{d}");
        }
    }

    #[test]
    fn errors_on_bad_inputs() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![1]);
        assert!(matches!(
            calc_col_col(BinaryOp::Add, &a, &b).unwrap_err(),
            OperatorError::LengthMismatch { .. }
        ));
        let s = Column::from_strings(["x", "y"]);
        assert!(calc_col_col(BinaryOp::Add, &a, &s).is_err());
        assert!(calc_col_scalar(BinaryOp::Add, &s, &ScalarValue::I64(1)).is_err());
        assert!(calc_col_scalar(BinaryOp::Add, &a, &ScalarValue::Str("x".into())).is_err());
        assert!(calc_scalar_col(BinaryOp::Add, &ScalarValue::I64(1), &s).is_err());
    }

    #[test]
    fn fixed_point_revenue_expression() {
        // revenue = extendedprice * (1 - discount), prices fixed-point(2),
        // discount fixed-point(2) as well: (100 - disc) then rescale by /100.
        let price = Column::from_i64(vec![10_00, 20_00]); // 10.00, 20.00
        let disc = Column::from_i64(vec![10, 25]); // 0.10, 0.25
        let one_minus = calc_scalar_col(BinaryOp::Sub, &ScalarValue::I64(100), &disc).unwrap();
        let raw = calc_col_col(BinaryOp::Mul, &price, &one_minus).unwrap();
        let revenue = calc_col_scalar(BinaryOp::Div, &raw, &ScalarValue::I64(100)).unwrap();
        assert_eq!(revenue.i64_values().unwrap(), &[9_00, 15_00]);
    }
}
