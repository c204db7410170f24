//! Synthetic TPC-H-like data generator.
//!
//! The twelve key columns are `Int32`, as TPC-H's identifier type allows:
//! each key is drawn as an `i64` and narrowed as it is drawn, so no `Int64`
//! key vector is ever built. [`generate`] refuses a scale whose keys would
//! not fit ([`TpchScale::keys_fit_i32`]).

use std::sync::Arc;

use apq_columnar::datagen::{
    dictionary_column, prices_decimal2, rng, uniform_i64, uniform_strings,
};
use apq_columnar::{Catalog, Column, Table, TableBuilder};
use rand::Rng;

use crate::dates::{days_from_civil, TPCH_DATE_MIN};

/// Scale factor: row counts are linear in `sf` like in TPC-H
/// (`lineitem ≈ 6 M × sf`). `sf = 1.0` is the canonical 1 GB database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchScale {
    /// The TPC-H scale factor.
    pub sf: f64,
}

impl TpchScale {
    /// Creates a scale; values below `1e-4` are clamped so every table has rows.
    pub fn new(sf: f64) -> Self {
        TpchScale { sf: sf.max(1e-4) }
    }

    fn scaled(&self, base: f64, minimum: usize) -> usize {
        ((base * self.sf) as usize).max(minimum)
    }

    /// Rows of `lineitem`.
    pub fn lineitem_rows(&self) -> usize {
        self.scaled(6_000_000.0, 1_000)
    }

    /// Rows of `orders`.
    pub fn orders_rows(&self) -> usize {
        self.scaled(1_500_000.0, 250)
    }

    /// Rows of `part`.
    pub fn part_rows(&self) -> usize {
        self.scaled(200_000.0, 100)
    }

    /// Rows of `customer`.
    pub fn customer_rows(&self) -> usize {
        self.scaled(150_000.0, 100)
    }

    /// Rows of `supplier`.
    pub fn supplier_rows(&self) -> usize {
        self.scaled(10_000.0, 25)
    }

    /// Rows of `nation` (fixed).
    pub fn nation_rows(&self) -> usize {
        25
    }

    /// True when every key of this scale fits an `i32`: `orders` is the
    /// largest keyed table, and its keys are `0..orders_rows()`. False from
    /// sf ≈ 1,432 up.
    pub fn keys_fit_i32(&self) -> bool {
        self.orders_rows() <= i32::MAX as usize
    }
}

/// `n` foreign keys drawn uniformly from `0..n_parent`: the `i64` draws of
/// [`apq_columnar::datagen::fk_uniform`], one at a time, so each is narrowed
/// as it is drawn.
fn fk_draws(n: usize, n_parent: usize, seed: u64) -> impl Iterator<Item = i64> {
    assert!(n_parent > 0, "parent table must not be empty");
    let mut r = rng(seed);
    (0..n).map(move |_| r.gen_range(0..n_parent as i64))
}

/// A key stored at 32 bits; [`generate`] has checked that the scale's keys
/// fit.
fn narrow(key: i64) -> i32 {
    i32::try_from(key).expect("the scale's keys fit an i32")
}

/// `n` uniform foreign keys into a parent of `n_parent` rows, as `Int32`.
fn fk_keys(n: usize, n_parent: usize, seed: u64) -> Vec<i32> {
    fk_draws(n, n_parent, seed).map(narrow).collect()
}

/// The dense keys `0..n` (a table's primary key), as `Int32`.
fn sequential_keys(n: usize) -> Vec<i32> {
    (0..n as i64).map(narrow).collect()
}

/// TPC-H string domains used by the evaluated predicates.
pub mod domains {
    /// First `p_type` word (Q14 filters on the `PROMO` prefix).
    pub const TYPE_SYLLABLE_1: [&str; 6] =
        ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
    /// Second `p_type` word.
    pub const TYPE_SYLLABLE_2: [&str; 5] =
        ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
    /// Third `p_type` word.
    pub const TYPE_SYLLABLE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
    /// Ship modes (Q19 filters on AIR / AIR REG).
    pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
    /// Ship instructions (Q19 filters on DELIVER IN PERSON).
    pub const SHIP_INSTRUCTS: [&str; 4] =
        ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
    /// Order priorities (Q4 groups by this attribute).
    pub const ORDER_PRIORITIES: [&str; 5] =
        ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
    /// Part containers.
    pub const CONTAINERS: [&str; 7] =
        ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK"];
    /// Customer country codes (Q22 filters on a subset).
    pub const COUNTRY_CODES: [&str; 10] =
        ["10", "11", "13", "17", "18", "21", "23", "29", "30", "31"];
    /// Nation names (Q9 groups by nation).
    pub const NATIONS: [&str; 25] = [
        "ALGERIA",
        "ARGENTINA",
        "BRAZIL",
        "CANADA",
        "EGYPT",
        "ETHIOPIA",
        "FRANCE",
        "GERMANY",
        "INDIA",
        "INDONESIA",
        "IRAN",
        "IRAQ",
        "JAPAN",
        "JORDAN",
        "KENYA",
        "MOROCCO",
        "MOZAMBIQUE",
        "PERU",
        "CHINA",
        "ROMANIA",
        "SAUDI ARABIA",
        "VIETNAM",
        "RUSSIA",
        "UNITED KINGDOM",
        "UNITED STATES",
    ];
}

/// `p_type`: three words, each drawn uniformly in word order.
fn p_types(n: usize, seed: u64) -> Column {
    use domains::{TYPE_SYLLABLE_1 as W1, TYPE_SYLLABLE_2 as W2, TYPE_SYLLABLE_3 as W3};
    let domain: Vec<String> = W1
        .iter()
        .flat_map(|a| W2.iter().flat_map(move |b| W3.iter().map(move |c| format!("{a} {b} {c}"))))
        .collect();
    let mut r = rng(seed);
    dictionary_column(&domain, n, |_| {
        let a = r.gen_range(0..W1.len());
        let b = r.gen_range(0..W2.len());
        let c = r.gen_range(0..W3.len());
        (a * W2.len() + b) * W3.len() + c
    })
}

/// `p_brand`: `Brand#MN` with the digits `M` and `N` drawn uniformly from 1..=5.
fn p_brands(n: usize, seed: u64) -> Column {
    let domain: Vec<String> =
        (1..6).flat_map(|m| (1..6).map(move |n| format!("Brand#{m}{n}"))).collect();
    let mut r = rng(seed);
    dictionary_column(&domain, n, |_| {
        let m: usize = r.gen_range(1..6);
        let n: usize = r.gen_range(1..6);
        (m - 1) * 5 + (n - 1)
    })
}

fn lineitem(scale: &TpchScale, seed: u64) -> Arc<Table> {
    let n = scale.lineitem_rows();
    let orders = scale.orders_rows();
    let parts = scale.part_rows();
    let suppliers = scale.supplier_rows();
    let ship_min = TPCH_DATE_MIN;
    let ship_max = days_from_civil(1998, 12, 1);

    let shipdate = apq_columnar::datagen::dates(n, ship_min, ship_max, seed);
    let mut r = rng(seed ^ 0x11);
    let commitdate: Vec<i32> = shipdate.iter().map(|&d| d + r.gen_range(-30..45)).collect();
    let receiptdate: Vec<i32> = shipdate.iter().map(|&d| d + r.gen_range(1..30)).collect();

    TableBuilder::new("lineitem")
        .i32_column("l_orderkey", fk_keys(n, orders, seed ^ 0x21))
        .i32_column("l_partkey", fk_keys(n, parts, seed ^ 0x22))
        .i32_column("l_suppkey", fk_keys(n, suppliers, seed ^ 0x23))
        .i64_column("l_quantity", uniform_i64(n, 1, 51, seed ^ 0x24))
        .i64_column("l_extendedprice", prices_decimal2(n, 900.0, 105_000.0, seed ^ 0x25))
        .i64_column("l_discount", uniform_i64(n, 0, 11, seed ^ 0x26))
        .i64_column("l_tax", uniform_i64(n, 0, 9, seed ^ 0x27))
        .i32_column("l_shipdate", shipdate)
        .i32_column("l_commitdate", commitdate)
        .i32_column("l_receiptdate", receiptdate)
        .column("l_shipmode", uniform_strings(n, &domains::SHIP_MODES, seed ^ 0x28))
        .column("l_shipinstruct", uniform_strings(n, &domains::SHIP_INSTRUCTS, seed ^ 0x29))
        .build()
        .expect("lineitem columns are equally long")
}

fn orders(scale: &TpchScale, seed: u64) -> Arc<Table> {
    let n = scale.orders_rows();
    let customers = scale.customer_rows();
    let date_min = TPCH_DATE_MIN;
    let date_max = days_from_civil(1998, 8, 2);
    // Like TPC-H, a third of the customers never place an order (dbgen skips
    // custkeys divisible by three); Q22's anti-join depends on this.
    let custkeys: Vec<i32> = fk_draws(n, customers, seed ^ 0x31)
        .map(|k| narrow(if k % 3 == 0 { (k + 1) % customers as i64 } else { k }))
        .collect();
    TableBuilder::new("orders")
        .i32_column("o_orderkey", sequential_keys(n))
        .i32_column("o_custkey", custkeys)
        .i32_column("o_orderdate", apq_columnar::datagen::dates(n, date_min, date_max, seed ^ 0x32))
        .column("o_orderpriority", uniform_strings(n, &domains::ORDER_PRIORITIES, seed ^ 0x33))
        .i64_column("o_totalprice", prices_decimal2(n, 800.0, 500_000.0, seed ^ 0x34))
        .build()
        .expect("orders columns are equally long")
}

fn part(scale: &TpchScale, seed: u64) -> Arc<Table> {
    let n = scale.part_rows();
    TableBuilder::new("part")
        .i32_column("p_partkey", sequential_keys(n))
        .column("p_type", p_types(n, seed ^ 0x41))
        .column("p_brand", p_brands(n, seed ^ 0x42))
        .column("p_container", uniform_strings(n, &domains::CONTAINERS, seed ^ 0x43))
        .i64_column("p_size", uniform_i64(n, 1, 51, seed ^ 0x44))
        .i64_column("p_retailprice", prices_decimal2(n, 900.0, 2_000.0, seed ^ 0x45))
        .build()
        .expect("part columns are equally long")
}

fn customer(scale: &TpchScale, seed: u64) -> Arc<Table> {
    let n = scale.customer_rows();
    TableBuilder::new("customer")
        .i32_column("c_custkey", sequential_keys(n))
        .i32_column("c_nationkey", fk_keys(n, scale.nation_rows(), seed ^ 0x51))
        .i64_column("c_acctbal", prices_decimal2(n, -999.99, 9_999.99, seed ^ 0x52))
        .column("c_cntrycode", uniform_strings(n, &domains::COUNTRY_CODES, seed ^ 0x53))
        .build()
        .expect("customer columns are equally long")
}

fn supplier(scale: &TpchScale, seed: u64) -> Arc<Table> {
    let n = scale.supplier_rows();
    TableBuilder::new("supplier")
        .i32_column("s_suppkey", sequential_keys(n))
        .i32_column("s_nationkey", fk_keys(n, scale.nation_rows(), seed ^ 0x61))
        .i64_column("s_acctbal", prices_decimal2(n, -999.99, 9_999.99, seed ^ 0x62))
        .build()
        .expect("supplier columns are equally long")
}

fn nation(scale: &TpchScale) -> Arc<Table> {
    let n = scale.nation_rows();
    TableBuilder::new("nation")
        .i32_column("n_nationkey", sequential_keys(n))
        .str_column("n_name", domains::NATIONS[..n].to_vec())
        .i32_column("n_regionkey", (0..n as i64).map(|v| narrow(v % 5)).collect())
        .build()
        .expect("nation columns are equally long")
}

/// Generates the full TPC-H-like catalog for the given scale factor and seed.
///
/// # Panics
/// Panics, before generating anything, when the scale's keys do not fit the
/// `Int32` key columns ([`TpchScale::keys_fit_i32`]).
pub fn generate(scale: TpchScale, seed: u64) -> Arc<Catalog> {
    assert!(scale.keys_fit_i32(), "sf {} has keys past i32::MAX", scale.sf);
    let mut catalog = Catalog::new();
    catalog.register(lineitem(&scale, seed));
    catalog.register(orders(&scale, seed.wrapping_add(1)));
    catalog.register(part(&scale, seed.wrapping_add(2)));
    catalog.register(customer(&scale, seed.wrapping_add(3)));
    catalog.register(supplier(&scale, seed.wrapping_add(4)));
    catalog.register(nation(&scale));
    Arc::new(catalog)
}

/// Convenience accessor for a column, used by tests and experiments.
pub fn column<'a>(catalog: &'a Catalog, table: &str, column: &str) -> &'a Column {
    catalog.table(table).expect("table exists").column(column).expect("column exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_operators::{select, selectivity, CmpOp, Predicate};

    #[test]
    fn scale_controls_row_counts() {
        let small = TpchScale::new(0.001);
        let large = TpchScale::new(0.01);
        assert!(large.lineitem_rows() > small.lineitem_rows());
        assert_eq!(TpchScale::new(0.01).lineitem_rows(), 60_000);
        assert_eq!(TpchScale::new(0.01).orders_rows(), 15_000);
        assert_eq!(small.nation_rows(), 25);
        // Clamping keeps tiny scales usable.
        assert!(TpchScale::new(0.0).lineitem_rows() >= 1_000);
    }

    #[test]
    fn generated_catalog_has_all_tables_and_consistent_fks() {
        let scale = TpchScale::new(0.002);
        let cat = generate(scale, 42);
        for t in ["lineitem", "orders", "part", "customer", "supplier", "nation"] {
            assert!(cat.table(t).is_ok(), "missing table {t}");
        }
        let li = cat.table("lineitem").unwrap();
        assert_eq!(li.row_count(), scale.lineitem_rows());
        for t in ["orders", "part", "customer", "supplier", "nation"] {
            let rows = cat.table(t).unwrap().row_count();
            assert!(rows < li.row_count(), "{t} outgrows lineitem");
        }

        // Foreign keys reference valid parent rows.
        let orders_rows = cat.table("orders").unwrap().row_count() as i32;
        let ok = column(&cat, "lineitem", "l_orderkey").i32_values().unwrap();
        assert!(ok.iter().all(|&v| v >= 0 && v < orders_rows));
        let parts_rows = cat.table("part").unwrap().row_count() as i32;
        let pk = column(&cat, "lineitem", "l_partkey").i32_values().unwrap();
        assert!(pk.iter().all(|&v| v >= 0 && v < parts_rows));
        // o_orderkey and p_partkey are dense row ids.
        assert_eq!(column(&cat, "orders", "o_orderkey").i32_values().unwrap()[5], 5);
        assert_eq!(column(&cat, "part", "p_partkey").i32_values().unwrap()[7], 7);
    }

    /// The twelve key columns as the `Int64` generator drew them: the same
    /// draws, in the same order, from the same seeds.
    fn int64_keys(scale: &TpchScale, seed: u64) -> Vec<(&'static str, &'static str, Vec<i64>)> {
        use apq_columnar::datagen::{fk_uniform, sequential_i64};
        let (li, ord, customers) = (seed, seed.wrapping_add(1), scale.customer_rows());
        let nations = scale.nation_rows() as i64;
        let custkeys = fk_uniform(scale.orders_rows(), customers, ord ^ 0x31)
            .into_iter()
            .map(|k| if k % 3 == 0 { (k + 1) % customers as i64 } else { k })
            .collect();
        let n = scale.lineitem_rows();
        vec![
            ("lineitem", "l_orderkey", fk_uniform(n, scale.orders_rows(), li ^ 0x21)),
            ("lineitem", "l_partkey", fk_uniform(n, scale.part_rows(), li ^ 0x22)),
            ("lineitem", "l_suppkey", fk_uniform(n, scale.supplier_rows(), li ^ 0x23)),
            ("orders", "o_orderkey", sequential_i64(scale.orders_rows())),
            ("orders", "o_custkey", custkeys),
            ("part", "p_partkey", sequential_i64(scale.part_rows())),
            ("customer", "c_custkey", sequential_i64(customers)),
            (
                "customer",
                "c_nationkey",
                uniform_i64(customers, 0, nations, seed.wrapping_add(3) ^ 0x51),
            ),
            ("supplier", "s_suppkey", sequential_i64(scale.supplier_rows())),
            (
                "supplier",
                "s_nationkey",
                uniform_i64(scale.supplier_rows(), 0, nations, seed.wrapping_add(4) ^ 0x61),
            ),
            ("nation", "n_nationkey", sequential_i64(scale.nation_rows())),
            ("nation", "n_regionkey", (0..nations).map(|v| v % 5).collect()),
        ]
    }

    #[test]
    fn key_columns_are_int32_and_equal_the_int64_draws() {
        let scale = TpchScale::new(0.01);
        for seed in [2016, 4242] {
            let cat = generate(scale, seed);
            for (table, name, expected) in int64_keys(&scale, seed) {
                let keys = column(&cat, table, name);
                assert_eq!(keys.data_type(), apq_columnar::DataType::Int32, "{name}");
                let widened: Vec<i64> =
                    keys.i32_values().unwrap().iter().map(|&v| i64::from(v)).collect();
                assert_eq!(widened, expected, "{name}, seed {seed}");
            }
        }
    }

    #[test]
    fn keys_fit_i32_up_to_sf_1431() {
        // Row arithmetic only: no data is generated.
        for (sf, fits) in [(1.0, true), (1_000.0, true), (1_431.0, true), (1_432.0, false)] {
            assert_eq!(TpchScale::new(sf).keys_fit_i32(), fits, "sf {sf}");
        }
        let last = TpchScale::new(1_431.0);
        assert!(last.orders_rows() <= i32::MAX as usize);
        assert!(TpchScale::new(1_432.0).orders_rows() > i32::MAX as usize);
        assert!(last.part_rows() < last.orders_rows() && last.customer_rows() < last.orders_rows());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(TpchScale::new(0.002), 7);
        let b = generate(TpchScale::new(0.002), 7);
        let c = generate(TpchScale::new(0.002), 8);
        let qa = column(&a, "lineitem", "l_quantity").i64_values().unwrap();
        let qb = column(&b, "lineitem", "l_quantity").i64_values().unwrap();
        let qc = column(&c, "lineitem", "l_quantity").i64_values().unwrap();
        assert_eq!(qa, qb);
        assert_ne!(qa, qc);
    }

    #[test]
    fn predicate_domains_have_expected_selectivities() {
        let cat = generate(TpchScale::new(0.003), 11);
        // PROMO parts ≈ 1/6 of the part table.
        let ptype = column(&cat, "part", "p_type");
        let promo = selectivity(ptype, &Predicate::like("PROMO%")).unwrap();
        assert!((0.10..0.25).contains(&promo), "promo selectivity {promo}");
        // Quantity < 25 selects roughly half of lineitem.
        let qty = column(&cat, "lineitem", "l_quantity");
        let half = selectivity(qty, &Predicate::cmp(CmpOp::Lt, 25i64)).unwrap();
        assert!((0.4..0.6).contains(&half), "quantity selectivity {half}");
        // A one-year shipdate window selects roughly 1/7 of lineitem.
        let ship = column(&cat, "lineitem", "l_shipdate");
        let y1994 = selectivity(
            ship,
            &Predicate::range(
                days_from_civil(1994, 1, 1) as i64,
                days_from_civil(1995, 1, 1) as i64,
            ),
        )
        .unwrap();
        assert!((0.08..0.22).contains(&y1994), "1994 selectivity {y1994}");
        // Some lineitems satisfy commit < receipt, some do not.
        let commit = column(&cat, "lineitem", "l_commitdate").i32_values().unwrap();
        let receipt = column(&cat, "lineitem", "l_receiptdate").i32_values().unwrap();
        let late = commit.iter().zip(receipt).filter(|(c, r)| c < r).count();
        assert!(late > 0 && late < commit.len());
        // Discounts are integer percents 0..=10.
        let disc = column(&cat, "lineitem", "l_discount");
        assert!(select(disc, &Predicate::cmp(CmpOp::Gt, 10i64)).unwrap().is_empty());
    }

    #[test]
    fn nation_table_is_fixed_and_named() {
        let cat = generate(TpchScale::new(0.001), 1);
        let nation = cat.table("nation").unwrap();
        assert_eq!(nation.row_count(), 25);
        let names = nation.column("n_name").unwrap();
        assert_eq!(names.get(0).unwrap().as_str().map(String::from), Some("ALGERIA".into()));
        assert_eq!(names.get(24).unwrap().as_str().map(String::from), Some("UNITED STATES".into()));
    }
}
