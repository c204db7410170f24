//! The per-row `String` generators the TPC-H and TPC-DS string columns were
//! built from before they became dictionary draws
//! ([`apq_columnar::datagen::dictionary_column`]), kept as the reference
//! that holds the draws byte-identical: same codes, same dictionary.

use apq_columnar::datagen::rng;
use apq_columnar::{Catalog, Column, DataType};
use rand::Rng;

use crate::tpcds::{self, TpcdsScale};
use crate::tpch::{self, TpchScale};

/// `n` strings picked uniformly from `choices`, one `String` a row.
fn picks(n: usize, choices: &[&str], seed: u64) -> Vec<String> {
    let mut r = rng(seed);
    (0..n).map(|_| choices[r.gen_range(0..choices.len())].to_string()).collect()
}

fn p_types(n: usize, seed: u64) -> Vec<String> {
    use tpch::datagen::domains::{TYPE_SYLLABLE_1, TYPE_SYLLABLE_2, TYPE_SYLLABLE_3};
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            format!(
                "{} {} {}",
                TYPE_SYLLABLE_1[r.gen_range(0..TYPE_SYLLABLE_1.len())],
                TYPE_SYLLABLE_2[r.gen_range(0..TYPE_SYLLABLE_2.len())],
                TYPE_SYLLABLE_3[r.gen_range(0..TYPE_SYLLABLE_3.len())],
            )
        })
        .collect()
}

fn p_brands(n: usize, seed: u64) -> Vec<String> {
    let mut r = rng(seed);
    (0..n).map(|_| format!("Brand#{}{}", r.gen_range(1..6), r.gen_range(1..6))).collect()
}

/// Every string column of the TPC-H catalog, `(table, column, rows)`, with
/// the generator's seed derivation.
fn tpch_strings(scale: TpchScale, seed: u64) -> Vec<(&'static str, &'static str, Vec<String>)> {
    use tpch::datagen::domains::{
        COUNTRY_CODES, NATIONS, ORDER_PRIORITIES, SHIP_INSTRUCTS, SHIP_MODES,
    };
    let (lineitem, orders, part, customer) =
        (seed, seed.wrapping_add(1), seed.wrapping_add(2), seed.wrapping_add(3));
    let containers = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK"];
    let (l, o, p, c) =
        (scale.lineitem_rows(), scale.orders_rows(), scale.part_rows(), scale.customer_rows());
    vec![
        ("lineitem", "l_shipmode", picks(l, &SHIP_MODES, lineitem ^ 0x28)),
        ("lineitem", "l_shipinstruct", picks(l, &SHIP_INSTRUCTS, lineitem ^ 0x29)),
        ("orders", "o_orderpriority", picks(o, &ORDER_PRIORITIES, orders ^ 0x33)),
        ("part", "p_type", p_types(p, part ^ 0x41)),
        ("part", "p_brand", p_brands(p, part ^ 0x42)),
        ("part", "p_container", picks(p, &containers, part ^ 0x43)),
        ("customer", "c_cntrycode", picks(c, &COUNTRY_CODES, customer ^ 0x53)),
        ("nation", "n_name", NATIONS.iter().map(|s| s.to_string()).collect()),
    ]
}

/// Every string column of the TPC-DS catalog, as [`tpch_strings`].
fn tpcds_strings(scale: TpcdsScale, seed: u64) -> Vec<(&'static str, &'static str, Vec<String>)> {
    let (item, store) = (seed.wrapping_add(1), seed.wrapping_add(2));
    let n = scale.item_rows();
    vec![
        ("item", "i_brand", (0..n).map(|i| format!("Brand#{:03}", (i * 7919) % 120)).collect()),
        ("item", "i_category", picks(n, &tpcds::datagen::CATEGORIES, item ^ 0x71)),
        ("store", "s_state", picks(scale.store_rows(), &tpcds::datagen::STATES, store ^ 0x81)),
    ]
}

/// Holds every string column of `catalog` (whose tables are `tables`)
/// equal, codes and dictionary, to `Column::from_strings` over its
/// reference rows — and `reference` to cover every string column there is.
fn assert_matches(catalog: &Catalog, tables: &[&str], reference: Vec<(&str, &str, Vec<String>)>) {
    assert_eq!(catalog.len(), tables.len());
    let string_columns: usize = tables
        .iter()
        .map(|t| catalog.table(t).unwrap().columns())
        .map(|cols| cols.iter().filter(|(_, c)| c.data_type() == DataType::Str).count())
        .sum();
    assert_eq!(reference.len(), string_columns, "a string column has no reference");
    for (table, column, rows) in reference {
        let generated = catalog.table(table).unwrap().column(column).unwrap();
        let expected = Column::from_strings(&rows);
        assert_eq!(
            generated.str_codes().unwrap(),
            expected.str_codes().unwrap(),
            "{table}.{column}"
        );
    }
}

#[test]
fn generated_string_columns_equal_their_per_row_strings() {
    for sf in [0.01, 0.05] {
        for seed in [2016, 4242] {
            assert_matches(
                &tpch::generate(TpchScale::new(sf), seed),
                &["lineitem", "orders", "part", "customer", "supplier", "nation"],
                tpch_strings(TpchScale::new(sf), seed),
            );
            assert_matches(
                &tpcds::generate(TpcdsScale::new(sf), seed),
                &["store_sales", "item", "date_dim", "store"],
                tpcds_strings(TpcdsScale::new(sf), seed),
            );
        }
    }
}
