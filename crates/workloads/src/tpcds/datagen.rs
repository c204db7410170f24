//! Synthetic TPC-DS-like data generator (skewed star schema).

use std::sync::Arc;

use apq_columnar::datagen::{
    dictionary_column, prices_decimal2, sequential_i64, uniform_i64, uniform_strings, zipf_i64,
};
use apq_columnar::{Catalog, Table, TableBuilder};

/// Scale factor for the TPC-DS-like schema (`store_sales ≈ 2.88 M × sf`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpcdsScale {
    /// Scale factor.
    pub sf: f64,
}

impl TpcdsScale {
    /// Creates a scale; tiny values are clamped so every table has rows.
    pub fn new(sf: f64) -> Self {
        TpcdsScale { sf: sf.max(1e-4) }
    }

    /// Rows of the `store_sales` fact table.
    pub fn store_sales_rows(&self) -> usize {
        ((2_880_000.0 * self.sf) as usize).max(2_000)
    }

    /// Rows of the `item` dimension.
    pub fn item_rows(&self) -> usize {
        ((18_000.0 * self.sf) as usize).max(100)
    }

    /// Rows of the `date_dim` dimension (5 years of 365 days, fixed).
    pub fn date_rows(&self) -> usize {
        5 * 365
    }

    /// Rows of the `store` dimension.
    pub fn store_rows(&self) -> usize {
        12
    }
}

/// Zipf exponent used for the skewed fact-table foreign keys.
pub const ITEM_SKEW_THETA: f64 = 1.1;
/// Zipf exponent used for the store foreign key.
pub const STORE_SKEW_THETA: f64 = 0.8;

/// Item categories (group-by attribute of several queries).
pub const CATEGORIES: [&str; 10] = [
    "Books",
    "Electronics",
    "Home",
    "Jewelry",
    "Men",
    "Music",
    "Shoes",
    "Sports",
    "Women",
    "Children",
];

/// Store states (filter attribute).
pub const STATES: [&str; 8] = ["TN", "CA", "TX", "WA", "NY", "GA", "OH", "IL"];

/// Number of distinct `i_brand` values.
const BRANDS: usize = 120;

fn item(scale: &TpcdsScale, seed: u64) -> Arc<Table> {
    let n = scale.item_rows();
    let brands: Vec<String> = (0..BRANDS).map(|b| format!("Brand#{b:03}")).collect();
    TableBuilder::new("item")
        .i64_column("i_item_sk", sequential_i64(n))
        .column("i_brand", dictionary_column(&brands, n, |i| (i * 7919) % BRANDS))
        .column("i_category", uniform_strings(n, &CATEGORIES, seed ^ 0x71))
        .i64_column("i_manager_id", uniform_i64(n, 0, 100, seed ^ 0x72))
        .build()
        .expect("item columns are equally long")
}

fn date_dim(scale: &TpcdsScale) -> Arc<Table> {
    let n = scale.date_rows();
    // Five years starting 1998-01-01; month lengths are approximated with a
    // fixed 30.44-day month, which is all the evaluated filters need.
    let years: Vec<i64> = (0..n as i64).map(|d| 1998 + d / 365).collect();
    let months: Vec<i64> = (0..n as i64).map(|d| (d % 365) / 31 + 1).collect();
    TableBuilder::new("date_dim")
        .i64_column("d_date_sk", sequential_i64(n))
        .i64_column("d_year", years)
        .i64_column("d_moy", months.iter().map(|&m| m.min(12)).collect())
        .build()
        .expect("date_dim columns are equally long")
}

fn store(scale: &TpcdsScale, seed: u64) -> Arc<Table> {
    let n = scale.store_rows();
    TableBuilder::new("store")
        .i64_column("s_store_sk", sequential_i64(n))
        .column("s_state", uniform_strings(n, &STATES, seed ^ 0x81))
        .build()
        .expect("store columns are equally long")
}

fn store_sales(scale: &TpcdsScale, seed: u64) -> Arc<Table> {
    let n = scale.store_sales_rows();
    // Fact tables are loaded in date order in practice, so the date foreign
    // key is non-decreasing along the row order. A dimension filter on
    // `date_dim` therefore matches a *contiguous region* of the fact table,
    // which is exactly what creates execution skew under static equi-range
    // partitioning (and what adaptive parallelization balances out).
    let mut sold_dates = uniform_i64(n, 0, scale.date_rows() as i64, seed ^ 0x91);
    sold_dates.sort_unstable();
    TableBuilder::new("store_sales")
        .i64_column("ss_sold_date_sk", sold_dates)
        .i64_column("ss_item_sk", zipf_i64(n, scale.item_rows(), ITEM_SKEW_THETA, seed ^ 0x92))
        .i64_column("ss_store_sk", zipf_i64(n, scale.store_rows(), STORE_SKEW_THETA, seed ^ 0x93))
        .i64_column("ss_quantity", uniform_i64(n, 1, 101, seed ^ 0x94))
        .i64_column("ss_ext_sales_price", prices_decimal2(n, 1.0, 20_000.0, seed ^ 0x95))
        .i64_column("ss_net_profit", prices_decimal2(n, -5_000.0, 10_000.0, seed ^ 0x96))
        .build()
        .expect("store_sales columns are equally long")
}

/// Generates the TPC-DS-like catalog for the given scale factor and seed.
pub fn generate(scale: TpcdsScale, seed: u64) -> Arc<Catalog> {
    let mut catalog = Catalog::new();
    catalog.register(store_sales(&scale, seed));
    catalog.register(item(&scale, seed.wrapping_add(1)));
    catalog.register(date_dim(&scale));
    catalog.register(store(&scale, seed.wrapping_add(2)));
    Arc::new(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_and_tables() {
        let scale = TpcdsScale::new(0.005);
        let cat = generate(scale, 5);
        for t in ["store_sales", "item", "date_dim", "store"] {
            assert!(cat.table(t).is_ok(), "missing {t}");
        }
        assert_eq!(cat.table("store_sales").unwrap().row_count(), scale.store_sales_rows());
        let rows = |t: &str| cat.table(t).unwrap().row_count();
        for t in ["item", "date_dim", "store"] {
            assert!(rows(t) < rows("store_sales"), "{t} outgrows the fact table");
        }
        assert_eq!(cat.table("store").unwrap().row_count(), 12);
        assert!(TpcdsScale::new(0.0).store_sales_rows() >= 2_000);
    }

    #[test]
    fn fact_foreign_keys_are_valid_and_skewed() {
        let scale = TpcdsScale::new(0.005);
        let cat = generate(scale, 5);
        let items = cat.table("item").unwrap().row_count() as i64;
        let fact = cat.table("store_sales").unwrap();
        let fk = fact.column("ss_item_sk").unwrap().i64_values().unwrap();
        assert!(fk.iter().all(|&v| v >= 0 && v < items));
        // Skew: the most popular item is referenced far more often than an
        // item from the middle of the domain.
        let popular = fk.iter().filter(|&&v| v == 0).count();
        let median_item = items / 2;
        let unpopular = fk.iter().filter(|&&v| v == median_item).count();
        assert!(popular > unpopular * 5 + 5, "popular {popular} vs unpopular {unpopular}");

        let dates = cat.table("date_dim").unwrap().row_count() as i64;
        let dk = fact.column("ss_sold_date_sk").unwrap().i64_values().unwrap();
        assert!(dk.iter().all(|&v| v >= 0 && v < dates));
    }

    #[test]
    fn date_dim_covers_five_years() {
        let cat = generate(TpcdsScale::new(0.001), 1);
        let years = cat.table("date_dim").unwrap().column("d_year").unwrap();
        let values = years.i64_values().unwrap();
        assert_eq!(*values.first().unwrap(), 1998);
        assert_eq!(*values.last().unwrap(), 2002);
        let moy = cat.table("date_dim").unwrap().column("d_moy").unwrap();
        assert!(moy.i64_values().unwrap().iter().all(|&m| (1..=12).contains(&m)));
    }

    #[test]
    fn determinism() {
        let a = generate(TpcdsScale::new(0.002), 3);
        let b = generate(TpcdsScale::new(0.002), 3);
        assert_eq!(
            a.table("store_sales").unwrap().column("ss_quantity").unwrap().i64_values().unwrap(),
            b.table("store_sales").unwrap().column("ss_quantity").unwrap().i64_values().unwrap()
        );
    }
}
