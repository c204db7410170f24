//! An independent oracle for the Q6 family: a plain loop over the raw
//! `lineitem` columns, sharing no code with the engine's operators.
//!
//! `q06_with_quantity(t)` is `sum(l_extendedprice * l_discount)` over rows
//! with `l_shipdate` in 1994, `l_discount` between 5 and 7 and
//! `l_quantity < t`. One pass buckets the revenue by quantity; a prefix sum
//! then answers every threshold at once.

use crate::sut::{column, Catalog};

/// Days since 1970-01-01 (proleptic Gregorian; Hinnant's algorithm).
fn days_from_civil(year: i64, month: i64, day: i64) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * ((month + 9) % 12) + 2) / 5 + day - 1;
    era * 146_097 + yoe * 365 + yoe / 4 - yoe / 100 + doy - 719_468
}

/// Expected revenue of `q06_with_quantity(t)` for `t = 1..=max_threshold`,
/// at index `t - 1`.
pub fn q06_family(catalog: &Catalog, max_threshold: usize) -> Vec<i64> {
    let read = |name: &str| column(catalog, "lineitem", name);
    let (ship, discount) = (read("l_shipdate"), read("l_discount"));
    let (quantity, price) = (read("l_quantity"), read("l_extendedprice"));
    let ship = ship.i32_values().expect("l_shipdate is a date column");
    let discount = discount.i64_values().expect("l_discount is an integer column");
    let quantity = quantity.i64_values().expect("l_quantity is an integer column");
    let price = price.i64_values().expect("l_extendedprice is an integer column");

    let (from, to) = (days_from_civil(1994, 1, 1), days_from_civil(1995, 1, 1));
    let mut by_quantity = vec![0i64; max_threshold + 1];
    for row in 0..ship.len() {
        let day = i64::from(ship[row]);
        if day >= from && day < to && (5..=7).contains(&discount[row]) {
            // Quantities beyond the largest threshold qualify for none.
            let bucket = usize::try_from(quantity[row]).ok().and_then(|q| by_quantity.get_mut(q));
            if let Some(bucket) = bucket {
                *bucket = bucket.wrapping_add(price[row].wrapping_mul(discount[row]));
            }
        }
    }
    let mut below = 0i64;
    (1..=max_threshold)
        .map(|t| {
            below = below.wrapping_add(by_quantity[t - 1]);
            below
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1992, 1, 1), 8035);
        assert_eq!(days_from_civil(1994, 1, 1), 8766);
        assert_eq!(days_from_civil(1995, 1, 1), 9131);
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
    }

    #[test]
    fn thresholds_are_monotone_and_saturate_above_the_domain() {
        let catalog = crate::sut::generate(0.002, 5);
        let family = q06_family(&catalog, 256);
        assert_eq!(family.len(), 256);
        assert_eq!(family[0], 0, "no quantity is below 1");
        assert!(family.windows(2).all(|w| w[0] <= w[1]));
        assert!(family[23] > 0 && family[23] < family[50]);
        // Quantities are 1..=50, so every threshold above 50 selects them all.
        assert!(family[50..].iter().all(|v| *v == family[50]));
    }
}
