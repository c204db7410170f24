//! Serial plans for the evaluated TPC-H query subset.
//!
//! The paper evaluates Q4, Q6, Q8, Q9, Q14, Q19 and Q22 (Table 4), modified
//! "so that they have a single attribute group-by representation". The plans
//! below follow the same spirit: they keep each query's structural skeleton
//! (selective scans over `lineitem`/`orders`, hash joins against the
//! dimension tables, the revenue expression, one grouping attribute) while
//! dropping SQL details that the execution engine does not model (correlated
//! sub-query averages, multi-attribute ordering). Every simplification is
//! noted on the corresponding builder.

use apq_columnar::Catalog;
use apq_engine::plan::{JoinSide, Plan};
use apq_engine::Result;
use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};

use crate::builder::PlanBuilder;
use crate::dates::days_from_civil;

/// The evaluated TPC-H query subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchQuery {
    /// Order-priority checking (EXISTS semi-join, group by priority).
    Q4,
    /// Forecasting revenue change (selective scan + aggregate).
    Q6,
    /// National market share (two joins, group by order year).
    Q8,
    /// Product-type profit (joins to supplier/nation, group by nation).
    Q9,
    /// Promotion effect (join to part, conditional revenue ratio).
    Q14,
    /// Discounted revenue (string predicates + join to part).
    Q19,
    /// Global sales opportunity (anti-join against orders).
    Q22,
}

impl TpchQuery {
    /// All evaluated queries in paper order.
    pub fn all() -> [TpchQuery; 7] {
        [
            TpchQuery::Q4,
            TpchQuery::Q6,
            TpchQuery::Q8,
            TpchQuery::Q9,
            TpchQuery::Q14,
            TpchQuery::Q19,
            TpchQuery::Q22,
        ]
    }

    /// TPC-H query number.
    pub fn number(&self) -> u32 {
        match self {
            TpchQuery::Q4 => 4,
            TpchQuery::Q6 => 6,
            TpchQuery::Q8 => 8,
            TpchQuery::Q9 => 9,
            TpchQuery::Q14 => 14,
            TpchQuery::Q19 => 19,
            TpchQuery::Q22 => 22,
        }
    }

    /// Builds the serial plan for this query over `catalog`.
    pub fn build(&self, catalog: &Catalog) -> Result<Plan> {
        match self {
            TpchQuery::Q4 => q04(catalog),
            TpchQuery::Q6 => q06(catalog),
            TpchQuery::Q8 => q08(catalog),
            TpchQuery::Q9 => q09(catalog),
            TpchQuery::Q14 => q14(catalog),
            TpchQuery::Q19 => q19(catalog),
            TpchQuery::Q22 => q22(catalog),
        }
    }
}

impl std::fmt::Display for TpchQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.number())
    }
}

/// Q6 with the standard parameters (shipdate in 1994, discount 5..7 %,
/// quantity < 24): `sum(l_extendedprice * l_discount)` over the filtered rows.
pub fn q06(catalog: &Catalog) -> Result<Plan> {
    q06_with_quantity(catalog, 24)
}

/// Q6 with a configurable quantity threshold — the knob the paper turns to
/// vary the select operator's selectivity (Fig. 14 / Table 2).
pub fn q06_with_quantity(catalog: &Catalog, quantity_threshold: i64) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    let ship = b.scan("lineitem", "l_shipdate")?;
    let in_1994 = b.select(
        ship,
        Predicate::range(days_from_civil(1994, 1, 1) as i64, days_from_civil(1995, 1, 1) as i64),
    );
    let disc = b.scan("lineitem", "l_discount")?;
    let disc_band = b.select_with(disc, in_1994, Predicate::between(5i64, 7i64));
    let qty = b.scan("lineitem", "l_quantity")?;
    let selected = b.select_with(qty, disc_band, Predicate::cmp(CmpOp::Lt, quantity_threshold));
    let price = b.scan("lineitem", "l_extendedprice")?;
    let price_f = b.fetch(selected, price);
    let disc_f = b.fetch(selected, disc);
    let revenue = b.calc(BinaryOp::Mul, price_f, disc_f);
    let total = b.scalar_agg(AggFunc::Sum, revenue);
    b.finish(total)
}

/// Q14: promotion effect — the share of revenue coming from `PROMO` parts in
/// one shipping month. Returns the ratio `promo_revenue / total_revenue`.
pub fn q14(catalog: &Catalog) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    let ship = b.scan("lineitem", "l_shipdate")?;
    let month = b.select(
        ship,
        Predicate::range(days_from_civil(1995, 9, 1) as i64, days_from_civil(1995, 10, 1) as i64),
    );
    let l_partkey = b.scan("lineitem", "l_partkey")?;
    let keys = b.fetch(month, l_partkey);
    let p_partkey = b.scan("part", "p_partkey")?;
    let hash = b.hash_build(p_partkey);
    let join = b.probe(keys, hash);
    let lineitem_side = b.join_side(join, JoinSide::Outer);
    let part_side = b.join_side(join, JoinSide::Inner);

    let price = b.scan("lineitem", "l_extendedprice")?;
    let disc = b.scan("lineitem", "l_discount")?;
    let price_f = b.fetch(month, price);
    let disc_f = b.fetch(month, disc);
    let price_j = b.fetch(lineitem_side, price_f);
    let disc_j = b.fetch(lineitem_side, disc_f);
    let revenue = b.revenue(price_j, disc_j);

    let p_type = b.scan("part", "p_type")?;
    let type_j = b.fetch(part_side, p_type);
    let promo_mask = b.mask(type_j, Predicate::like("PROMO%"));
    let promo_revenue = b.if_then_else(promo_mask, revenue, 0i64);

    let promo_total = b.scalar_agg(AggFunc::Sum, promo_revenue);
    let total = b.scalar_agg(AggFunc::Sum, revenue);
    let share = b.calc_scalars(BinaryOp::Div, promo_total, total);
    b.finish(share)
}

/// Q4: order-priority checking — orders placed in one quarter that have at
/// least one late lineitem (`l_commitdate < l_receiptdate`), counted per
/// order priority.
pub fn q04(catalog: &Catalog) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    // Late lineitems: receipt - commit > 0.
    let commit = b.scan("lineitem", "l_commitdate")?;
    let receipt = b.scan("lineitem", "l_receiptdate")?;
    let lateness = b.calc(BinaryOp::Sub, receipt, commit);
    let late = b.select(lateness, Predicate::cmp(CmpOp::Gt, 0i64));
    let l_orderkey = b.scan("lineitem", "l_orderkey")?;
    let late_orders = b.fetch(late, l_orderkey);
    let late_keys = b.key_set(late_orders);

    // Orders of 1993 Q3.
    let orderdate = b.scan("orders", "o_orderdate")?;
    let quarter = b.select(
        orderdate,
        Predicate::range(days_from_civil(1993, 7, 1) as i64, days_from_civil(1993, 10, 1) as i64),
    );
    let o_orderkey = b.scan("orders", "o_orderkey")?;
    let okeys = b.fetch(quarter, o_orderkey);
    let with_late_item = b.semi_join(okeys, late_keys);

    let priority = b.scan("orders", "o_orderpriority")?;
    let priority_f = b.fetch(quarter, priority);
    let priority_j = b.fetch(with_late_item, priority_f);
    let counts = b.group_agg(AggFunc::Count, priority_j, priority_j);
    b.finish(counts)
}

/// Q8 (simplified national market share): revenue from `ECONOMY ANODIZED
/// STEEL` parts ordered in 1995–1996, grouped by the order year.
///
/// Simplification: the paper's customer/nation/region chain that restricts
/// the market to one region and the final per-nation share division are
/// dropped; the join skeleton (lineitem ⋈ part ⋈ orders) and the per-year
/// grouping are kept.
pub fn q08(catalog: &Catalog) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    // Filtered part side.
    let p_type = b.scan("part", "p_type")?;
    let steel = b.select(p_type, Predicate::cmp(CmpOp::Eq, "ECONOMY ANODIZED STEEL"));
    let p_partkey = b.scan("part", "p_partkey")?;
    let part_keys = b.fetch(steel, p_partkey);
    let part_hash = b.hash_build(part_keys);

    // Filtered orders side (1995-01-01 .. 1996-12-31), with the order year.
    let orderdate = b.scan("orders", "o_orderdate")?;
    let window = b.select(
        orderdate,
        Predicate::range(days_from_civil(1995, 1, 1) as i64, days_from_civil(1997, 1, 1) as i64),
    );
    let o_orderkey = b.scan("orders", "o_orderkey")?;
    let order_keys = b.fetch(window, o_orderkey);
    let order_hash = b.hash_build(order_keys);
    let dates_f = b.fetch(window, orderdate);
    let order_year = b.calc_scalar(BinaryOp::Div, dates_f, 365i64);

    // Lineitem pipeline: join to part, then to the filtered orders.
    let l_partkey = b.scan("lineitem", "l_partkey")?;
    let join_part = b.probe(l_partkey, part_hash);
    let li_side = b.join_side(join_part, JoinSide::Outer);
    let l_orderkey = b.scan("lineitem", "l_orderkey")?;
    let li_orderkeys = b.fetch(li_side, l_orderkey);
    let join_orders = b.probe(li_orderkeys, order_hash);
    let li2_side = b.join_side(join_orders, JoinSide::Outer);
    let orders_side = b.join_side(join_orders, JoinSide::Inner);

    let price = b.scan("lineitem", "l_extendedprice")?;
    let disc = b.scan("lineitem", "l_discount")?;
    let price_f = b.fetch(li_side, price);
    let disc_f = b.fetch(li_side, disc);
    let revenue = b.revenue(price_f, disc_f);
    let revenue_j = b.fetch(li2_side, revenue);
    let year_j = b.fetch(orders_side, order_year);

    let by_year = b.group_agg(AggFunc::Sum, year_j, revenue_j);
    b.finish(by_year)
}

/// Q9 (simplified product-type profit): revenue of lineitems whose part type
/// contains `BRUSHED`, grouped by the supplier's nation.
///
/// Simplification: the `partsupp` supply-cost term of the profit expression
/// and the order-year grouping attribute are dropped (single-attribute
/// group-by, as the paper requires); the lineitem ⋈ part ⋈ supplier ⋈ nation
/// join chain is kept.
pub fn q09(catalog: &Catalog) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    let p_type = b.scan("part", "p_type")?;
    let brushed = b.select(p_type, Predicate::like("%BRUSHED%"));
    let p_partkey = b.scan("part", "p_partkey")?;
    let part_keys = b.fetch(brushed, p_partkey);
    let part_hash = b.hash_build(part_keys);

    let l_partkey = b.scan("lineitem", "l_partkey")?;
    let join_part = b.probe(l_partkey, part_hash);
    let li_side = b.join_side(join_part, JoinSide::Outer);

    let l_suppkey = b.scan("lineitem", "l_suppkey")?;
    let li_suppkeys = b.fetch(li_side, l_suppkey);
    let s_suppkey = b.scan("supplier", "s_suppkey")?;
    let supp_hash = b.hash_build(s_suppkey);
    let join_supp = b.probe(li_suppkeys, supp_hash);
    let li2_side = b.join_side(join_supp, JoinSide::Outer);
    let supp_side = b.join_side(join_supp, JoinSide::Inner);

    let s_nationkey = b.scan("supplier", "s_nationkey")?;
    let nation_keys = b.fetch(supp_side, s_nationkey);
    let nation_oids = b.as_oids(nation_keys);
    let n_name = b.scan("nation", "n_name")?;
    let nation_names = b.fetch(nation_oids, n_name);

    let price = b.scan("lineitem", "l_extendedprice")?;
    let disc = b.scan("lineitem", "l_discount")?;
    let price_f = b.fetch(li_side, price);
    let disc_f = b.fetch(li_side, disc);
    let revenue = b.revenue(price_f, disc_f);
    let revenue_j = b.fetch(li2_side, revenue);

    let by_nation = b.group_agg(AggFunc::Sum, nation_names, revenue_j);
    b.finish(by_nation)
}

/// Q19 (simplified discounted revenue): revenue of air-shipped, in-person
/// delivered lineitems of one brand within a quantity band.
///
/// Simplification: the three OR-ed brand/container/quantity branches of the
/// original query are collapsed into one branch; the characteristic string
/// predicates and the part join are kept.
pub fn q19(catalog: &Catalog) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    let p_brand = b.scan("part", "p_brand")?;
    let brand = b.select(p_brand, Predicate::cmp(CmpOp::Eq, "Brand#23"));
    let p_partkey = b.scan("part", "p_partkey")?;
    let part_keys = b.fetch(brand, p_partkey);
    let part_hash = b.hash_build(part_keys);

    let shipmode = b.scan("lineitem", "l_shipmode")?;
    let air = b.select(shipmode, Predicate::InStr(vec!["AIR".to_string(), "REG AIR".to_string()]));
    let instruct = b.scan("lineitem", "l_shipinstruct")?;
    let in_person = b.select_with(instruct, air, Predicate::cmp(CmpOp::Eq, "DELIVER IN PERSON"));
    let qty = b.scan("lineitem", "l_quantity")?;
    let in_band = b.select_with(qty, in_person, Predicate::between(1i64, 30i64));

    let l_partkey = b.scan("lineitem", "l_partkey")?;
    let keys = b.fetch(in_band, l_partkey);
    let join = b.probe(keys, part_hash);
    let li_side = b.join_side(join, JoinSide::Outer);

    let price = b.scan("lineitem", "l_extendedprice")?;
    let disc = b.scan("lineitem", "l_discount")?;
    let price_f = b.fetch(in_band, price);
    let disc_f = b.fetch(in_band, disc);
    let price_j = b.fetch(li_side, price_f);
    let disc_j = b.fetch(li_side, disc_f);
    let revenue = b.revenue(price_j, disc_j);
    let total = b.scalar_agg(AggFunc::Sum, revenue);
    b.finish(total)
}

/// Q22 (simplified global sales opportunity): positive-balance customers from
/// a set of country codes with no orders, their account balance summed per
/// country code.
///
/// Simplification: the average-balance correlated sub-query is replaced by a
/// constant threshold (balance > 0); the characteristic anti-join against
/// `orders` — "the join operator is always the most expensive operator"
/// (paper §4.3) — is kept.
pub fn q22(catalog: &Catalog) -> Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    let cntry = b.scan("customer", "c_cntrycode")?;
    let in_codes = b.select(
        cntry,
        Predicate::InStr(vec![
            "13".to_string(),
            "31".to_string(),
            "23".to_string(),
            "29".to_string(),
            "30".to_string(),
            "18".to_string(),
            "17".to_string(),
        ]),
    );
    let acctbal = b.scan("customer", "c_acctbal")?;
    let positive = b.select_with(acctbal, in_codes, Predicate::cmp(CmpOp::Gt, 0i64));
    let c_custkey = b.scan("customer", "c_custkey")?;
    let cust_keys = b.fetch(positive, c_custkey);

    let o_custkey = b.scan("orders", "o_custkey")?;
    let ordering = b.key_set(o_custkey);
    let without_orders = b.anti_join(cust_keys, ordering);

    let cntry_f = b.fetch(positive, cntry);
    let bal_f = b.fetch(positive, acctbal);
    let cntry_j = b.fetch(without_orders, cntry_f);
    let bal_j = b.fetch(without_orders, bal_f);
    let by_code = b.group_agg(AggFunc::Sum, cntry_j, bal_j);
    b.finish(by_code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::datagen::{generate, TpchScale};
    use apq_engine::{Engine, QueryOutput};

    fn engine() -> Engine {
        Engine::with_workers(3)
    }

    #[test]
    fn metadata() {
        assert_eq!(TpchQuery::all().len(), 7);
        assert_eq!(TpchQuery::Q14.number(), 14);
        assert_eq!(TpchQuery::Q14.to_string(), "Q14");
    }

    #[test]
    fn all_queries_build_and_execute() {
        let cat = generate(TpchScale::new(0.002), 17);
        let engine = engine();
        for query in TpchQuery::all() {
            let plan = query.build(&cat).unwrap_or_else(|e| panic!("{query} failed to build: {e}"));
            plan.validate().unwrap();
            let exec = engine
                .execute(&plan, &cat)
                .unwrap_or_else(|e| panic!("{query} failed to execute: {e}"));
            assert!(exec.output.rows() > 0, "{query} produced an empty result");
        }
    }

    #[test]
    fn q6_produces_a_positive_revenue_scalar() {
        let cat = generate(TpchScale::new(0.002), 3);
        let plan = q06(&cat).unwrap();
        let out = engine().execute(&plan, &cat).unwrap().output;
        match out {
            QueryOutput::Scalar(v) => assert!(v.as_i64().unwrap() > 0),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn q6_selectivity_knob_is_monotonic() {
        let cat = generate(TpchScale::new(0.002), 3);
        let engine = engine();
        let mut previous = None;
        for qty in [10i64, 30, 51] {
            let plan = q06_with_quantity(&cat, qty).unwrap();
            let out = engine.execute(&plan, &cat).unwrap().output;
            let value = match out {
                QueryOutput::Scalar(v) => v.as_i64().unwrap(),
                other => panic!("unexpected output {other:?}"),
            };
            if let Some(prev) = previous {
                assert!(value >= prev, "revenue must grow with the quantity threshold");
            }
            previous = Some(value);
        }
    }

    #[test]
    fn q14_ratio_is_a_sane_fraction() {
        let cat = generate(TpchScale::new(0.002), 5);
        let plan = q14(&cat).unwrap();
        let out = engine().execute(&plan, &cat).unwrap().output;
        match out {
            QueryOutput::Scalar(v) => {
                let ratio = v.as_f64().unwrap();
                assert!((0.0..=1.0).contains(&ratio), "promo share {ratio} outside [0, 1]");
                assert!(ratio > 0.01, "promo share {ratio} suspiciously small");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn q4_counts_every_priority() {
        let cat = generate(TpchScale::new(0.002), 9);
        let plan = q04(&cat).unwrap();
        let out = engine().execute(&plan, &cat).unwrap().output;
        match out {
            QueryOutput::Groups(groups) => {
                assert!(!groups.is_empty() && groups.len() <= 5);
                for (_, count) in groups {
                    assert!(count.as_i64().unwrap() > 0);
                }
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn q9_groups_by_nation_names() {
        let cat = generate(TpchScale::new(0.002), 13);
        let plan = q09(&cat).unwrap();
        let out = engine().execute(&plan, &cat).unwrap().output;
        match out {
            QueryOutput::Groups(groups) => {
                assert!(groups.len() > 5 && groups.len() <= 25);
                assert!(groups.iter().all(|(k, _)| matches!(k, apq_operators::GroupKey::Str(_))));
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn q8_groups_by_year_bucket() {
        let cat = generate(TpchScale::new(0.002), 21);
        let plan = q08(&cat).unwrap();
        let out = engine().execute(&plan, &cat).unwrap().output;
        match out {
            QueryOutput::Groups(groups) => {
                // Two calendar years fall in the window; with day/365 bucketing
                // the boundary may add one extra bucket.
                assert!((1..=3).contains(&groups.len()), "{} year buckets", groups.len());
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn q22_balances_are_positive_sums() {
        let cat = generate(TpchScale::new(0.002), 23);
        let plan = q22(&cat).unwrap();
        let out = engine().execute(&plan, &cat).unwrap().output;
        match out {
            QueryOutput::Groups(groups) => {
                assert!(!groups.is_empty() && groups.len() <= 7);
                for (_, sum) in groups {
                    assert!(sum.as_i64().unwrap() > 0);
                }
            }
            other => panic!("unexpected output {other:?}"),
        }
    }
}
