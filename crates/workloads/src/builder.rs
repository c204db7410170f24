//! A small fluent helper for constructing serial plans against a catalog.
//!
//! The paper assumes "an optimal input serial plan" produced by the SQL
//! compiler; this builder plays that role for the hand-written query plans of
//! the workload crates, keeping them short and uniform.

use apq_columnar::{Catalog, ScalarValue};
use apq_engine::plan::{JoinSide, NodeId, OperatorSpec, Plan};
use apq_engine::Result;
use apq_operators::{AggFunc, BinaryOp, Predicate};

/// Incrementally builds a serial [`Plan`] over a catalog.
#[derive(Debug)]
pub struct PlanBuilder<'a> {
    catalog: &'a Catalog,
    plan: Plan,
}

impl<'a> PlanBuilder<'a> {
    /// Starts a builder over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        PlanBuilder { catalog, plan: Plan::new() }
    }

    /// Adds an arbitrary node.
    pub fn add(&mut self, spec: OperatorSpec, inputs: Vec<NodeId>) -> NodeId {
        self.plan.add(spec, inputs)
    }

    /// Scan of a whole base-table column, which must exist in the catalog.
    pub fn scan(&mut self, table: &str, column: &str) -> Result<NodeId> {
        self.catalog.table(table)?.column(column)?;
        Ok(self.plan.add(
            OperatorSpec::ScanColumn { table: table.to_string(), column: column.to_string() },
            vec![],
        ))
    }

    /// Predicate selection over a column.
    pub fn select(&mut self, column: NodeId, predicate: Predicate) -> NodeId {
        self.plan.add(OperatorSpec::Select { predicate }, vec![column])
    }

    /// Predicate selection refining a previous candidate list.
    pub fn select_with(
        &mut self,
        column: NodeId,
        candidates: NodeId,
        predicate: Predicate,
    ) -> NodeId {
        self.plan.add(OperatorSpec::Select { predicate }, vec![column, candidates])
    }

    /// Predicate evaluated as a boolean mask column.
    pub fn mask(&mut self, column: NodeId, predicate: Predicate) -> NodeId {
        self.plan.add(OperatorSpec::PredMask { predicate }, vec![column])
    }

    /// `cond ? then : otherwise`.
    pub fn if_then_else(
        &mut self,
        cond: NodeId,
        then: NodeId,
        otherwise: impl Into<ScalarValue>,
    ) -> NodeId {
        self.plan.add(OperatorSpec::IfThenElse { otherwise: otherwise.into() }, vec![cond, then])
    }

    /// Tuple reconstruction (values of `column` at `oids`).
    pub fn fetch(&mut self, oids: NodeId, column: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::Fetch, vec![oids, column])
    }

    /// Hash-table build over a key column.
    pub fn hash_build(&mut self, keys: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::HashBuild, vec![keys])
    }

    /// Key-set build over a key column: the table a semi- or anti-join
    /// needs, which no hash-join probe may read.
    pub fn key_set(&mut self, keys: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::KeySet, vec![keys])
    }

    /// Hash-join probe.
    pub fn probe(&mut self, outer_keys: NodeId, hash: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::HashProbe, vec![outer_keys, hash])
    }

    /// Semi-join (EXISTS).
    pub fn semi_join(&mut self, outer_keys: NodeId, hash: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::SemiJoin, vec![outer_keys, hash])
    }

    /// Anti-join (NOT EXISTS).
    pub fn anti_join(&mut self, outer_keys: NodeId, hash: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::AntiJoin, vec![outer_keys, hash])
    }

    /// Projects one side of a join result as oids.
    pub fn join_side(&mut self, join: NodeId, side: JoinSide) -> NodeId {
        self.plan.add(OperatorSpec::ProjectJoinSide { side }, vec![join])
    }

    /// Interprets an integer column as an oid list.
    pub fn as_oids(&mut self, column: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::OidsFromColumn, vec![column])
    }

    /// Element-wise `left <op> right`.
    pub fn calc(&mut self, op: BinaryOp, left: NodeId, right: NodeId) -> NodeId {
        self.plan.add(
            OperatorSpec::Calc { op, left_scalar: None, right_scalar: None },
            vec![left, right],
        )
    }

    /// Element-wise `column <op> scalar`.
    pub fn calc_scalar(
        &mut self,
        op: BinaryOp,
        column: NodeId,
        scalar: impl Into<ScalarValue>,
    ) -> NodeId {
        self.plan.add(
            OperatorSpec::Calc { op, left_scalar: None, right_scalar: Some(scalar.into()) },
            vec![column],
        )
    }

    /// Element-wise `scalar <op> column`.
    pub fn scalar_calc(
        &mut self,
        op: BinaryOp,
        scalar: impl Into<ScalarValue>,
        column: NodeId,
    ) -> NodeId {
        self.plan.add(
            OperatorSpec::Calc { op, left_scalar: Some(scalar.into()), right_scalar: None },
            vec![column],
        )
    }

    /// The TPC revenue expression `price × (100 − discount) / 100` over
    /// fixed-point(2) prices and integer-percent discounts.
    pub fn revenue(&mut self, price: NodeId, discount_percent: NodeId) -> NodeId {
        let one_minus = self.scalar_calc(BinaryOp::Sub, 100i64, discount_percent);
        let raw = self.calc(BinaryOp::Mul, price, one_minus);
        self.calc_scalar(BinaryOp::Div, raw, 100i64)
    }

    /// Scalar aggregate followed by its finalizer; returns the finalizer node.
    pub fn scalar_agg(&mut self, func: AggFunc, values: NodeId) -> NodeId {
        let partial = self.plan.add(OperatorSpec::ScalarAgg { func }, vec![values]);
        self.plan.add(OperatorSpec::FinalizeAgg { func }, vec![partial])
    }

    /// Single-attribute grouped aggregate; returns its node. Run in parts,
    /// its grouped partials merge as they are published.
    pub fn group_agg(&mut self, func: AggFunc, keys: NodeId, values: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::GroupAgg { func }, vec![keys, values])
    }

    /// Arithmetic between two scalar results.
    pub fn calc_scalars(&mut self, op: BinaryOp, left: NodeId, right: NodeId) -> NodeId {
        self.plan.add(OperatorSpec::CalcScalars { op }, vec![left, right])
    }

    /// Finalizes the plan with `root` as its result node.
    pub fn finish(mut self, root: NodeId) -> Result<Plan> {
        self.plan.set_root(root);
        self.plan.validate()?;
        Ok(self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::ColumnarError;
    use apq_columnar::TableBuilder;
    use apq_engine::{Engine, EngineError, QueryOutput};
    use apq_operators::CmpOp;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("t")
                .i64_column("k", (0..1000).map(|v| v % 10).collect())
                .i64_column("v", (0..1000).collect())
                .i64_column("price", (0..1000).map(|v| v * 100).collect())
                .i64_column("disc", (0..1000).map(|v| v % 10).collect())
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn builds_a_runnable_filter_aggregate_plan() {
        let cat = catalog();
        let mut b = PlanBuilder::new(&cat);
        let k = b.scan("t", "k").unwrap();
        let sel = b.select(k, Predicate::cmp(CmpOp::Eq, 3i64));
        let v = b.scan("t", "v").unwrap();
        let vals = b.fetch(sel, v);
        let total = b.scalar_agg(AggFunc::Count, vals);
        let plan = b.finish(total).unwrap();
        let engine = Engine::with_workers(2);
        let out = engine.execute(&plan, &Arc::new(cat)).unwrap().output;
        assert_eq!(out, QueryOutput::Scalar(ScalarValue::I64(100)));
    }

    #[test]
    fn revenue_expression_and_grouping() {
        let cat = catalog();
        let mut b = PlanBuilder::new(&cat);
        let price = b.scan("t", "price").unwrap();
        let disc = b.scan("t", "disc").unwrap();
        let rev = b.revenue(price, disc);
        let k = b.scan("t", "k").unwrap();
        let grouped = b.group_agg(AggFunc::Sum, k, rev);
        let plan = b.finish(grouped).unwrap();
        let engine = Engine::with_workers(2);
        let out = engine.execute(&plan, &Arc::new(cat)).unwrap().output;
        match out {
            QueryOutput::Groups(g) => assert_eq!(g.len(), 10),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn unknown_table_is_an_error() {
        let cat = catalog();
        let mut b = PlanBuilder::new(&cat);
        assert!(b.scan("missing", "x").is_err());
    }

    #[test]
    fn unknown_column_is_an_error_at_build_time() {
        let cat = catalog();
        let mut b = PlanBuilder::new(&cat);
        let err = b.scan("t", "missing").unwrap_err();
        assert!(
            matches!(&err, EngineError::Columnar(ColumnarError::UnknownColumn(c)) if c == "t.missing"),
            "{err}"
        );
    }
}
