//! Synthetic data generators.
//!
//! The paper's experiments need three kinds of data:
//!
//! * uniformly distributed columns (TPC-H is "uniformly distributed data",
//!   §4.2.1) with controllable selectivity,
//! * the skewed column of Fig. 13 (random first half, five clusters of
//!   identical values in the second half) used by the data-skew experiment
//!   (Fig. 12), and
//! * Zipf-skewed foreign keys / dimension references for the TPC-DS-like
//!   workload ("the presence of the skewed data", §4.2.2).
//!
//! String columns draw a dictionary index per row and store codes
//! ([`dictionary_column`]): a generator never holds a `String` per row.
//!
//! All generators are deterministic given a seed so experiments are
//! reproducible run to run.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::column::Column;
use crate::strings::StringColumn;

/// Deterministic RNG used by every generator.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` uniform `i64` values in `[lo, hi)`.
pub fn uniform_i64(n: usize, lo: i64, hi: i64, seed: u64) -> Vec<i64> {
    assert!(lo < hi, "empty value range");
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// `n` uniform `i32` values in `[lo, hi)`.
pub fn uniform_i32(n: usize, lo: i32, hi: i32, seed: u64) -> Vec<i32> {
    assert!(lo < hi, "empty value range");
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// `n` uniform `f64` values in `[lo, hi)`.
pub fn uniform_f64(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    assert!(lo < hi, "empty value range");
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// The dense sequence `0..n` (primary keys / virtual oids materialized).
pub fn sequential_i64(n: usize) -> Vec<i64> {
    (0..n as i64).collect()
}

/// `n` uniform foreign keys referencing a parent table of `n_parent` rows.
pub fn fk_uniform(n: usize, n_parent: usize, seed: u64) -> Vec<i64> {
    assert!(n_parent > 0, "parent table must not be empty");
    uniform_i64(n, 0, n_parent as i64, seed)
}

/// `n` values drawn from `0..n_distinct` following a Zipf distribution with
/// exponent `theta` (`theta = 0` is uniform; larger is more skewed).
pub fn zipf_i64(n: usize, n_distinct: usize, theta: f64, seed: u64) -> Vec<i64> {
    assert!(n_distinct > 0, "need at least one distinct value");
    assert!(theta >= 0.0, "zipf exponent must be non-negative");
    // Precompute the cumulative distribution once; n_distinct is modest in
    // all workloads (dimension cardinalities), so this is cheap.
    let mut cdf = Vec::with_capacity(n_distinct);
    let mut acc = 0.0f64;
    for k in 1..=n_distinct {
        acc += 1.0 / (k as f64).powf(theta);
        cdf.push(acc);
    }
    let total = acc;
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let u: f64 = r.gen_range(0.0..total);
            // Binary search for the first cdf entry >= u.
            let idx = cdf.partition_point(|&c| c < u);
            idx.min(n_distinct - 1) as i64
        })
        .collect()
}

/// Value assigned to skew cluster `i` (0-based) by [`skewed_column`].
pub fn skew_cluster_value(i: usize) -> i64 {
    SKEW_CLUSTER_BASE + i as i64
}

/// First value used for the identical-value clusters of [`skewed_column`].
pub const SKEW_CLUSTER_BASE: i64 = 1_000_000_000;

/// Number of identical-value clusters in [`skewed_column`] (paper: 5 clusters).
pub const SKEW_CLUSTERS: usize = 5;

/// The skewed column of paper Fig. 13, scaled to `n` rows.
///
/// * Rows `[0, n/2)`: uniform random values in `[0, SKEW_CLUSTER_BASE)`.
/// * Rows `[n/2, n)`: five sequential clusters of `n/10` rows each, every row
///   within a cluster holding the identical value [`skew_cluster_value`]`(i)`.
///
/// Selecting `value == skew_cluster_value(i)` for `k` of the clusters thus
/// matches `k * 10%` of the rows, all concentrated in one region of the
/// column — which is exactly what produces execution skew under static
/// equi-range partitioning (paper §4.1.1).
pub fn skewed_column(n: usize, seed: u64) -> Vec<i64> {
    assert!(n >= 10, "skewed column needs at least 10 rows");
    let half = n / 2;
    let cluster_rows = (n - half) / SKEW_CLUSTERS;
    let mut out = uniform_i64(half, 0, SKEW_CLUSTER_BASE, seed);
    for c in 0..SKEW_CLUSTERS {
        let value = skew_cluster_value(c);
        let rows = if c == SKEW_CLUSTERS - 1 {
            n - out.len() // last cluster absorbs the rounding remainder
        } else {
            cluster_rows
        };
        out.extend(std::iter::repeat_n(value, rows));
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// `n` dates as days-since-epoch drawn uniformly from `[start_day, end_day)`.
///
/// TPC-H dates span 1992-01-01 .. 1998-12-31; the workload crate passes the
/// corresponding day numbers.
pub fn dates(n: usize, start_day: i32, end_day: i32, seed: u64) -> Vec<i32> {
    uniform_i32(n, start_day, end_day, seed)
}

/// `n` rows of a dictionary-encoded string column over `domain`, without a
/// `String` per row: `draw(row)` picks each row's domain index, the row
/// stores its code, and the dictionary holds the drawn entries in order of
/// first appearance. That is exactly what [`Column::from_strings`] builds
/// from the drawn strings, so a generator may switch to this without
/// changing a byte — while holding only the codes and the dictionary.
///
/// # Panics
/// Panics when `domain` repeats an entry (two codes would then spell one
/// string) or `draw` returns an index outside it.
pub fn dictionary_column<S: AsRef<str>>(
    domain: &[S],
    n: usize,
    mut draw: impl FnMut(usize) -> usize,
) -> Column {
    let distinct: HashSet<&str> = domain.iter().map(AsRef::as_ref).collect();
    assert_eq!(distinct.len(), domain.len(), "dictionary domain repeats an entry");
    let mut code_of = vec![u32::MAX; domain.len()];
    let mut dict = Vec::new();
    let codes = (0..n)
        .map(|row| {
            let index = draw(row);
            let code = &mut code_of[index];
            if *code == u32::MAX {
                *code = dict.len() as u32;
                dict.push(domain[index].as_ref().to_string());
            }
            *code
        })
        .collect();
    Column::from_string_column(StringColumn::from_codes(codes, Arc::new(dict)))
}

/// `n` strings drawn uniformly from `choices`, as a [`dictionary_column`].
pub fn uniform_strings(n: usize, choices: &[&str], seed: u64) -> Column {
    let mut r = rng(seed);
    dictionary_column(choices, n, |_| r.gen_range(0..choices.len()))
}

/// Fixed-point decimal helper: converts a float price into the `i64`
/// representation used by the workloads (two decimal digits).
pub fn to_decimal2(value: f64) -> i64 {
    (value * 100.0).round() as i64
}

/// `n` fixed-point(2) prices drawn uniformly from `[lo, hi)` (in whole units).
pub fn prices_decimal2(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<i64> {
    uniform_f64(n, lo, hi, seed).into_iter().map(to_decimal2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let a = uniform_i64(1000, 10, 20, 42);
        let b = uniform_i64(1000, 10, 20, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (10..20).contains(&v)));
        let c = uniform_i64(1000, 10, 20, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_f64_and_i32_ranges() {
        let f = uniform_f64(100, 0.0, 1.0, 7);
        assert!(f.iter().all(|&v| (0.0..1.0).contains(&v)));
        let i = uniform_i32(100, -5, 5, 7);
        assert!(i.iter().all(|&v| (-5..5).contains(&v)));
    }

    #[test]
    fn sequential_and_fk() {
        assert_eq!(sequential_i64(4), vec![0, 1, 2, 3]);
        let fk = fk_uniform(500, 10, 1);
        assert!(fk.iter().all(|&v| (0..10).contains(&v)));
        // All parents should be referenced with 500 draws over 10 parents.
        let distinct: HashSet<i64> = fk.iter().copied().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn zipf_is_skewed() {
        let vals = zipf_i64(20_000, 100, 1.2, 5);
        assert!(vals.iter().all(|&v| (0..100).contains(&v)));
        let zero = vals.iter().filter(|&&v| v == 0).count();
        let tail = vals.iter().filter(|&&v| v == 99).count();
        // Value 0 must be far more frequent than the tail value.
        assert!(zero > tail * 5, "zipf skew not visible: {zero} vs {tail}");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let vals = zipf_i64(50_000, 10, 0.0, 9);
        let zero = vals.iter().filter(|&&v| v == 0).count() as f64;
        let nine = vals.iter().filter(|&&v| v == 9).count() as f64;
        assert!((zero / nine) < 1.3 && (nine / zero) < 1.3);
    }

    #[test]
    fn skewed_column_matches_figure_13() {
        let n = 1000;
        let col = skewed_column(n, 3);
        assert_eq!(col.len(), n);
        // First half is random, below the cluster base.
        assert!(col[..n / 2].iter().all(|&v| v < SKEW_CLUSTER_BASE));
        // Second half consists of exactly the 5 cluster values, each forming
        // one contiguous run of ~n/10 rows.
        let second = &col[n / 2..];
        let distinct: HashSet<i64> = second.iter().copied().collect();
        assert_eq!(distinct.len(), SKEW_CLUSTERS);
        for c in 0..SKEW_CLUSTERS {
            let v = skew_cluster_value(c);
            let count = second.iter().filter(|&&x| x == v).count();
            assert!(count >= n / 10, "cluster {c} too small: {count}");
        }
        // Clusters are sequential (sorted run order).
        let mut seen = Vec::new();
        for &v in second {
            if seen.last() != Some(&v) {
                seen.push(v);
            }
        }
        assert_eq!(seen, (0..SKEW_CLUSTERS).map(skew_cluster_value).collect::<Vec<_>>());
    }

    #[test]
    fn dates_in_range() {
        let d = dates(100, 8035, 9861, 11); // 1992-01-01 .. 1996-xx
        assert!(d.iter().all(|&v| (8035..9861).contains(&v)));
    }

    #[test]
    fn dictionary_column_matches_per_row_strings() {
        let domain = ["AIR", "RAIL", "TRUCK", "SHIP"];
        let mut r = rng(2);
        let drawn: Vec<usize> = (0..500).map(|_| r.gen_range(0..3)).collect();
        let col = dictionary_column(&domain, drawn.len(), |row| drawn[row]);
        let reference = Column::from_strings(drawn.iter().map(|&i| domain[i]));
        assert_eq!(col.str_codes().unwrap(), reference.str_codes().unwrap());
        // Only drawn entries enter the dictionary: "SHIP" never is.
        assert_eq!(col.string_column().unwrap().dict_len(), 3);
        assert!(dictionary_column(&domain, 0, |_| 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "dictionary domain repeats an entry")]
    fn dictionary_column_refuses_a_repeated_entry() {
        dictionary_column(&["a", "b", "a"], 3, |row| row);
    }

    #[test]
    fn decimal_helpers() {
        assert_eq!(to_decimal2(12.345), 1235);
        assert_eq!(to_decimal2(0.1), 10);
        let p = prices_decimal2(10, 1.0, 2.0, 4);
        assert!(p.iter().all(|&v| (100..=200).contains(&v)));
    }
}
