//! Dataflow plan representation.
//!
//! A [`Plan`] is a DAG of [`PlanNode`]s, each holding an [`OperatorSpec`] and
//! its input edges: the ids of its producer nodes, each with an optional row
//! window. This mirrors the property the paper requires of a host system:
//! "its plan representation allows identification of individual expensive
//! operators" (§2). The adaptive parallelizer (crate `apq-core`) and the
//! heuristic baseline morph plans by cloning nodes over partitions and
//! putting the clones in place ([`Plan::recombine`]); everything they need
//! — consumer lookup, node insertion/removal, per-operator metadata such as
//! which inputs are range-partitionable — lives here. A partition is
//! a window on the edge that reads it, not a node: "creating slices involves
//! marking the boundary ranges … there is no data copying involved" (§2.3).

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use apq_columnar::partition::RowRange;
use apq_columnar::ScalarValue;
use apq_operators::{AggFunc, BinaryOp, Predicate};

use crate::error::{EngineError, Result};

/// Identifier of a plan node (index into the plan's node table).
pub type NodeId = usize;

/// One input edge of a plan node: the producer and the edge's row window
/// (`None` reads the producer's whole output).
pub type Edge = (NodeId, Option<RowRange>);

/// Which side of a join result an operator projects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The probe (outer, partitioned) side.
    Outer,
    /// The build (inner, shared hash table) side.
    Inner,
}

/// The physical operator a plan node executes.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorSpec {
    /// A base-table column, published whole and zero-copy (leaf). A
    /// consumer that reads part of it reads a window on its edge
    /// ([`PlanNode::windows`]).
    ScanColumn {
        /// Table name in the catalog.
        table: String,
        /// Column name within the table.
        column: String,
    },
    /// Predicate selection producing a candidate oid list. Optional second
    /// input: a previous candidate list to refine.
    Select {
        /// The predicate to evaluate.
        predicate: Predicate,
    },
    /// Predicate evaluation producing a boolean column (one flag per row).
    PredMask {
        /// The predicate to evaluate.
        predicate: Predicate,
    },
    /// `out[i] = cond[i] ? then[i] : otherwise` (MonetDB `batcalc.ifthenelse`).
    IfThenElse {
        /// Value used where the condition is false.
        otherwise: ScalarValue,
    },
    /// Tuple reconstruction: fetch values of input-1 at the oids of input-0.
    Fetch,
    /// Builds a join hash table over the input key column.
    HashBuild,
    /// Builds a key set over the input key column: the table a `SemiJoin`
    /// or `AntiJoin` needs, which may be a bitmap of the keys and nothing
    /// else ([`apq_operators::JoinHashTable::build_key_set`]). A `HashProbe`
    /// over it is refused by [`Plan::validate`].
    KeySet,
    /// Probes a hash table (input 1) with an outer key column (input 0).
    HashProbe,
    /// Semi-join: outer oids that have at least one match in the hash table.
    SemiJoin,
    /// Anti-join: outer oids that have no match in the hash table.
    AntiJoin,
    /// Projects one side of a join result as an oid list.
    ProjectJoinSide {
        /// Which side to project.
        side: JoinSide,
    },
    /// Re-interprets an integer column as an oid list (MonetDB's use of a
    /// BAT whose tail holds oids, e.g. a foreign-key column addressing a
    /// dimension table whose primary key equals the row id).
    OidsFromColumn,
    /// Element-wise arithmetic. With `left_scalar` set the expression is
    /// `scalar <op> input0`; with `right_scalar` set it is `input0 <op>
    /// scalar`; with neither it is `input0 <op> input1`.
    Calc {
        /// The arithmetic operation.
        op: BinaryOp,
        /// Optional scalar left operand.
        left_scalar: Option<ScalarValue>,
        /// Optional scalar right operand.
        right_scalar: Option<ScalarValue>,
    },
    /// Scalar aggregate over a column, producing a mergeable partial state.
    ScalarAgg {
        /// The aggregate function.
        func: AggFunc,
    },
    /// Merges partial scalar aggregates (any number of inputs) and finalizes.
    FinalizeAgg {
        /// The aggregate function (must match the partials).
        func: AggFunc,
    },
    /// Single-attribute grouped aggregate: input 0 = keys, input 1 = values.
    GroupAgg {
        /// The aggregate function.
        func: AggFunc,
    },
    /// Exchange union: packs same-kind inputs in argument order, and merges
    /// partial aggregates (scalar or grouped) in that order.
    ExchangeUnion,
    /// Arithmetic between two scalar inputs (final result expressions).
    CalcScalars {
        /// The arithmetic operation.
        op: BinaryOp,
    },
}

impl OperatorSpec {
    /// Operator family name, used for plan statistics (paper Table 5 counts
    /// select and join operators) and for the tomograph-style traces.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorSpec::ScanColumn { .. } => "scan",
            OperatorSpec::Select { .. } => "select",
            OperatorSpec::PredMask { .. } => "predmask",
            OperatorSpec::IfThenElse { .. } => "ifthenelse",
            OperatorSpec::Fetch => "fetch",
            // A key set is a hash build to traces and Table 5's counts.
            OperatorSpec::HashBuild | OperatorSpec::KeySet => "hashbuild",
            OperatorSpec::HashProbe => "join",
            OperatorSpec::SemiJoin => "semijoin",
            OperatorSpec::AntiJoin => "antijoin",
            OperatorSpec::ProjectJoinSide { .. } => "projectside",
            OperatorSpec::OidsFromColumn => "asoids",
            OperatorSpec::Calc { .. } => "calc",
            OperatorSpec::ScalarAgg { .. } => "aggregate",
            OperatorSpec::FinalizeAgg { .. } => "finalizeagg",
            OperatorSpec::GroupAgg { .. } => "groupby",
            OperatorSpec::ExchangeUnion => "union",
            OperatorSpec::CalcScalars { .. } => "calcscalar",
        }
    }

    /// Valid input arity `(min, max)`. A `Calc` reads one column per
    /// operand that is not a scalar.
    pub fn arity(&self) -> (usize, usize) {
        match self {
            OperatorSpec::ScanColumn { .. } => (0, 0),
            OperatorSpec::Calc { left_scalar: None, right_scalar: None, .. } => (2, 2),
            OperatorSpec::Calc { .. } => (1, 1),
            OperatorSpec::PredMask { .. }
            | OperatorSpec::HashBuild
            | OperatorSpec::KeySet
            | OperatorSpec::ProjectJoinSide { .. }
            | OperatorSpec::OidsFromColumn
            | OperatorSpec::ScalarAgg { .. } => (1, 1),
            OperatorSpec::Select { .. } => (1, 2),
            OperatorSpec::IfThenElse { .. }
            | OperatorSpec::Fetch
            | OperatorSpec::HashProbe
            | OperatorSpec::SemiJoin
            | OperatorSpec::AntiJoin
            | OperatorSpec::GroupAgg { .. }
            | OperatorSpec::CalcScalars { .. } => (2, 2),
            OperatorSpec::FinalizeAgg { .. } | OperatorSpec::ExchangeUnion => (1, usize::MAX),
        }
    }

    /// Which of the node's inputs are *range partitionable together*
    /// (aligned): when the operator is cloned over a partition, every aligned
    /// input edge is windowed to the same row range while the others (hash
    /// tables, full columns being fetched into, candidate lists) are shared.
    pub fn aligned_inputs(&self, n_inputs: usize) -> Vec<bool> {
        let pattern: &[bool] = match self {
            OperatorSpec::Select { .. } => &[true, false],
            OperatorSpec::PredMask { .. }
            | OperatorSpec::HashBuild
            | OperatorSpec::KeySet
            | OperatorSpec::ProjectJoinSide { .. }
            | OperatorSpec::OidsFromColumn
            | OperatorSpec::ScalarAgg { .. } => &[true],
            OperatorSpec::IfThenElse { .. }
            | OperatorSpec::Calc { .. }
            | OperatorSpec::GroupAgg { .. } => &[true, true],
            OperatorSpec::Fetch
            | OperatorSpec::HashProbe
            | OperatorSpec::SemiJoin
            | OperatorSpec::AntiJoin => &[true, false],
            OperatorSpec::ExchangeUnion => return vec![true; n_inputs],
            OperatorSpec::ScanColumn { .. }
            | OperatorSpec::FinalizeAgg { .. }
            | OperatorSpec::CalcScalars { .. } => return vec![false; n_inputs],
        };
        (0..n_inputs).map(|i| pattern.get(i).copied().unwrap_or(false)).collect()
    }

    /// True when the operator can be cloned over range partitions by the
    /// basic or advanced mutation (the exchange-union is handled separately
    /// by the medium mutation). The clones are recombined by an exchange
    /// union, which packs positional outputs and merges partial aggregates,
    /// or by an existing combiner consumer.
    pub fn is_parallelizable(&self) -> bool {
        match self {
            OperatorSpec::Select { .. }
            | OperatorSpec::PredMask { .. }
            | OperatorSpec::IfThenElse { .. }
            | OperatorSpec::Fetch
            | OperatorSpec::HashProbe
            | OperatorSpec::SemiJoin
            | OperatorSpec::AntiJoin
            | OperatorSpec::ProjectJoinSide { .. }
            | OperatorSpec::OidsFromColumn
            | OperatorSpec::Calc { .. }
            | OperatorSpec::ScalarAgg { .. }
            | OperatorSpec::GroupAgg { .. } => true,
            OperatorSpec::ScanColumn { .. }
            | OperatorSpec::HashBuild
            | OperatorSpec::KeySet
            | OperatorSpec::FinalizeAgg { .. }
            | OperatorSpec::ExchangeUnion
            | OperatorSpec::CalcScalars { .. } => false,
        }
    }

    /// True when the operator absorbs partitioned inputs directly: it takes
    /// any number of inputs and combines them (an exchange union packs or
    /// merges them, `FinalizeAgg` merges partial scalar aggregates and
    /// finishes them), so a rewrite may splice a producer's partitioned
    /// versions into its input list instead of placing a new union in front
    /// of it.
    pub fn is_combiner(&self) -> bool {
        matches!(self, OperatorSpec::ExchangeUnion | OperatorSpec::FinalizeAgg { .. })
    }

    /// Compact parameter description for plan pretty-printing.
    pub fn describe(&self) -> String {
        match self {
            OperatorSpec::ScanColumn { table, column } => format!("{table}.{column}"),
            OperatorSpec::Select { predicate } | OperatorSpec::PredMask { predicate } => {
                predicate.describe()
            }
            OperatorSpec::IfThenElse { otherwise } => format!("else {otherwise}"),
            OperatorSpec::ProjectJoinSide { side } => format!("{side:?}"),
            OperatorSpec::Calc { op, left_scalar, right_scalar } => {
                match (left_scalar, right_scalar) {
                    (Some(s), None) => format!("{s} {} col", op.symbol()),
                    (None, Some(s)) => format!("col {} {s}", op.symbol()),
                    _ => format!("col {} col", op.symbol()),
                }
            }
            OperatorSpec::ScalarAgg { func }
            | OperatorSpec::FinalizeAgg { func }
            | OperatorSpec::GroupAgg { func } => func.name().to_string(),
            OperatorSpec::CalcScalars { op } => op.symbol().to_string(),
            _ => String::new(),
        }
    }
}

/// One node of the plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator this node executes.
    pub spec: OperatorSpec,
    /// Ids of the producer nodes whose outputs feed this node, in order.
    pub inputs: Vec<NodeId>,
    /// One row window per input, in the same order: `Some(range)` reads rows
    /// `[range.start, range.end)` of that producer's output, clamped to its
    /// length; `None` reads the whole output.
    pub windows: Vec<Option<RowRange>>,
}

impl PlanNode {
    /// The window on input edge `index` (`None` for a whole-output edge).
    pub fn window(&self, index: usize) -> Option<RowRange> {
        self.windows.get(index).copied().flatten()
    }

    /// The input edges in order: each producer with its window.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.inputs.iter().enumerate().map(|(i, &input)| (input, self.window(i)))
    }
}

/// A dataflow plan: a DAG of operator nodes with a single result node.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    nodes: Vec<Option<PlanNode>>,
    root: Option<NodeId>,
}

impl Plan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Adds a node reading the whole output of each input and returns its id.
    pub fn add(&mut self, spec: OperatorSpec, inputs: Vec<NodeId>) -> NodeId {
        self.add_edges(spec, inputs.into_iter().map(|input| (input, None)))
    }

    /// Adds a node over `edges` — each producer with its row window — and
    /// returns its id.
    pub fn add_edges(
        &mut self,
        spec: OperatorSpec,
        edges: impl IntoIterator<Item = Edge>,
    ) -> NodeId {
        let (inputs, windows) = edges.into_iter().unzip();
        self.nodes.push(Some(PlanNode { spec, inputs, windows }));
        self.nodes.len() - 1
    }

    /// Marks `id` as the plan's result node.
    pub fn set_root(&mut self, id: NodeId) {
        self.root = Some(id);
    }

    /// The plan's result node.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Total slots in the node table (including removed nodes).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes — the paper's "number of MAL instructions".
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Immutable access to a live node.
    pub fn node(&self, id: NodeId) -> Result<&PlanNode> {
        self.nodes
            .get(id)
            .and_then(Option::as_ref)
            .ok_or_else(|| EngineError::InvalidPlan(format!("node {id} does not exist")))
    }

    /// Mutable access to a live node.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut PlanNode> {
        self.nodes
            .get_mut(id)
            .and_then(Option::as_mut)
            .ok_or_else(|| EngineError::InvalidPlan(format!("node {id} does not exist")))
    }

    /// True when the node id refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.get(id).is_some_and(Option::is_some)
    }

    /// Removes a node (its consumers must have been rewired first).
    pub fn remove(&mut self, id: NodeId) -> Result<()> {
        if !self.contains(id) {
            return Err(EngineError::InvalidPlan(format!("cannot remove missing node {id}")));
        }
        self.nodes[id] = None;
        Ok(())
    }

    /// Ids of all live nodes, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| n.as_ref().map(|_| i)).collect()
    }

    /// Ids of the live nodes that consume `id`'s output, ascending.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().and_then(|node| node.inputs.contains(&id).then_some(i)))
            .collect()
    }

    /// Replaces every occurrence of `old` in `node`'s input list with `new`;
    /// each edge keeps its window.
    fn replace_input(&mut self, node: NodeId, old: NodeId, new: NodeId) -> Result<()> {
        let n = self.node_mut(node)?;
        for input in n.inputs.iter_mut() {
            if *input == old {
                *input = new;
            }
        }
        Ok(())
    }

    /// Replaces the first occurrence of `old` in `node`'s inputs with the
    /// edges `new`, each with its own window. The replaced edge must read
    /// `old` whole: the parts of a window are not windows of the parts.
    fn splice_input(
        &mut self,
        node: NodeId,
        old: NodeId,
        new: impl IntoIterator<Item = Edge>,
    ) -> Result<()> {
        let n = self.node_mut(node)?;
        let pos = n.inputs.iter().position(|&i| i == old).ok_or_else(|| {
            EngineError::InvalidPlan(format!("node {node} does not consume node {old}"))
        })?;
        if n.window(pos).is_some() {
            return Err(EngineError::InvalidPlan(format!(
                "node {node} reads a window of node {old}, which cannot be spliced"
            )));
        }
        let (inputs, windows): (Vec<_>, Vec<_>) = new.into_iter().unzip();
        n.inputs.splice(pos..=pos, inputs);
        n.windows.splice(pos..=pos, windows);
        Ok(())
    }

    /// Puts `parts` in the place of `target` and removes `target`: the parts
    /// are edges whose outputs, in order, make up `target`'s output (its
    /// clones over partitions, or the inputs of a union). Every combiner that
    /// reads `target` once and whole takes the parts in that input position;
    /// every other reader, and the root, reads one new exchange union over
    /// the parts, each edge keeping its window. This is the one step that
    /// rewires the readers of a node replaced by parts.
    ///
    /// Returns the node combining the parts for `target`'s readers: the new
    /// union when one was added, else the last combiner that took them;
    /// `None` when nothing read `target`.
    pub fn recombine(&mut self, target: NodeId, parts: &[Edge]) -> Result<Option<NodeId>> {
        self.node(target)?;
        let takes_parts = |node: &PlanNode| {
            let mut reads = node.edges().filter(|&(input, _)| input == target);
            let once_whole = reads.next() == Some((target, None)) && reads.next().is_none();
            node.spec.is_combiner() && once_whole
        };
        let (combiners, others): (Vec<NodeId>, Vec<NodeId>) = self
            .consumers(target)
            .into_iter()
            .partition(|&reader| self.node(reader).is_ok_and(takes_parts));
        for &combiner in &combiners {
            self.splice_input(combiner, target, parts.iter().copied())?;
        }
        let is_root = self.root == Some(target);
        let union = (is_root || !others.is_empty())
            .then(|| self.add_edges(OperatorSpec::ExchangeUnion, parts.iter().copied()));
        if let Some(union) = union {
            for reader in others {
                self.replace_input(reader, target, union)?;
            }
            if is_root {
                self.root = Some(union);
            }
        }
        self.remove(target)?;
        Ok(union.or(combiners.last().copied()))
    }

    /// Canonical structural signature of the plan: every live node's full
    /// operator spec and input edges (windows included) plus the root
    /// marker, in id order.
    /// Plans that build the same DAG the same way produce equal signatures;
    /// the encoding includes every operator parameter (predicate constants,
    /// scanned columns) and every edge window, so "same shape, different
    /// constants" never collides.
    /// This is the cache key of the service layer's shared plan and result
    /// caches ([`crate::service`]).
    pub fn signature(&self) -> String {
        let mut out = String::new();
        for id in self.node_ids() {
            let node = self.node(id).expect("live node");
            let _ = write!(out, "{id}:{:?}<-{};", node.spec, Edges(node));
        }
        let _ = write!(out, "root={:?}", self.root);
        out
    }

    /// Names of the tables the plan reads ([`OperatorSpec::ScanColumn`]
    /// sources), deduplicated and sorted — the invalidation key set of the
    /// service layer's result cache ([`crate::service`]).
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut tables: Vec<String> = self
            .node_ids()
            .into_iter()
            .filter_map(|id| match &self.node(id).expect("live node").spec {
                OperatorSpec::ScanColumn { table, .. } => Some(table.clone()),
                _ => None,
            })
            .collect();
        tables.sort();
        tables.dedup();
        tables
    }

    /// Counts live operators per family name (e.g. `select`, `join`, `union`).
    pub fn count_by_name(&self) -> HashMap<&'static str, usize> {
        let mut out = HashMap::new();
        for id in self.node_ids() {
            *out.entry(self.node(id).expect("live").spec.name()).or_insert(0) += 1;
        }
        out
    }

    /// Number of live operators of one family.
    pub fn count_of(&self, name: &str) -> usize {
        self.count_by_name().get(name).copied().unwrap_or(0)
    }

    /// Topological order of the live nodes (producers before consumers),
    /// ties broken by ascending id. Linear in nodes + input edges: it runs on
    /// every submission ([`Plan::validate`]).
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let mut in_deg = vec![0usize; self.nodes.len()];
        // One entry per input reference, so a consumer listing the same
        // producer several times appears that many times (adjacently).
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        let ids = self.node_ids();
        for &id in &ids {
            for &input in &self.node(id)?.inputs {
                if !self.contains(input) {
                    return Err(EngineError::InvalidPlan(format!(
                        "node {id} references missing node {input}"
                    )));
                }
                in_deg[id] += 1;
                consumers[input].push(id);
            }
        }
        let mut queue: VecDeque<NodeId> =
            ids.iter().copied().filter(|&id| in_deg[id] == 0).collect();
        let mut order = Vec::with_capacity(ids.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &consumer in &consumers[id] {
                in_deg[consumer] -= 1;
                if in_deg[consumer] == 0 {
                    queue.push_back(consumer);
                }
            }
        }
        if order.len() != ids.len() {
            return Err(EngineError::InvalidPlan("plan contains a cycle".to_string()));
        }
        Ok(order)
    }

    /// Structural validation: root set and live, inputs live, one window
    /// per input and none inverted, arities valid, no `Calc` with two scalar
    /// operands, no `HashProbe` over a `KeySet` (a key set may have no rows
    /// to pair), DAG acyclic.
    pub fn validate(&self) -> Result<()> {
        let root =
            self.root.ok_or_else(|| EngineError::InvalidPlan("plan has no root".to_string()))?;
        if !self.contains(root) {
            return Err(EngineError::InvalidPlan(format!("root {root} is not a live node")));
        }
        for id in self.node_ids() {
            let node = self.node(id)?;
            let (min, max) = node.spec.arity();
            if node.inputs.len() < min || node.inputs.len() > max {
                return Err(EngineError::InvalidPlan(format!(
                    "node {id} ({}) has {} inputs, expected between {min} and {}",
                    node.spec.name(),
                    node.inputs.len(),
                    if max == usize::MAX { "unbounded".to_string() } else { max.to_string() }
                )));
            }
            for &input in &node.inputs {
                if !self.contains(input) {
                    return Err(EngineError::InvalidPlan(format!(
                        "node {id} references missing node {input}"
                    )));
                }
            }
            let inverted = node.windows.iter().flatten().any(|w| w.start > w.end);
            if inverted || node.windows.len() != node.inputs.len() {
                let windows = &node.windows;
                let n = node.inputs.len();
                return Err(EngineError::InvalidPlan(format!(
                    "node {id} has windows {windows:?} for {n} inputs"
                )));
            }
            if let OperatorSpec::Calc { left_scalar: Some(_), right_scalar: Some(_), .. } =
                node.spec
            {
                return Err(EngineError::InvalidPlan(format!(
                    "node {id} (calc) has two scalar operands and no column"
                )));
            }
            if let (OperatorSpec::HashProbe, Some(&table)) = (&node.spec, node.inputs.get(1)) {
                if self.node(table)?.spec == OperatorSpec::KeySet {
                    return Err(EngineError::InvalidPlan(format!(
                        "node {id} (join) probes key set {table}, which has no rows to pair"
                    )));
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Human-readable plan dump (one line per node, topological order).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => self.node_ids(),
        };
        for id in order {
            let node = self.node(id).expect("live");
            let marker = if Some(id) == self.root { "*" } else { " " };
            let _ = writeln!(
                out,
                "{marker}[{id:>3}] {:<12} {:<28} <- {}",
                node.spec.name(),
                node.spec.describe(),
                Edges(node)
            );
        }
        out
    }
}

/// A node's input edges, shown as `[3, 5[0, 10)]`: each producer id,
/// followed by its window when it has one. Written in place, since every
/// service submission computes a [`Plan::signature`].
struct Edges<'a>(&'a PlanNode);

impl std::fmt::Display for Edges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("[")?;
        for (i, (input, window)) in self.0.edges().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{input}")?;
            if let Some(w) = window {
                write!(f, "[{}, {})", w.start, w.end)?;
            }
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_operators::CmpOp;

    fn scan(table: &str, column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: table.into(), column: column.into() }
    }

    fn tiny_plan() -> Plan {
        // scan -> select -> (fetch from another scan) -> sum -> finalize
        let mut p = Plan::new();
        let s0 = p.add(scan("t", "a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![s0]);
        let s1 = p.add(scan("t", "b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, s1]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    #[test]
    fn build_and_validate() {
        let p = tiny_plan();
        assert_eq!(p.node_count(), 6);
        p.validate().unwrap();
        assert_eq!(p.root(), Some(5));
        assert!(p.contains(0));
        assert!(!p.contains(99));
    }

    #[test]
    fn consumers_and_rewiring() {
        let mut p = tiny_plan();
        assert_eq!(p.consumers(1), vec![3]); // select feeds fetch
        assert_eq!(p.consumers(5), Vec::<NodeId>::new());
        // Replace the fetch's oid input with a new select.
        let s0 = 0;
        let sel2 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 5i64) }, vec![s0]);
        p.replace_input(3, 1, sel2).unwrap();
        assert_eq!(p.consumers(sel2), vec![3]);
        assert!(p.consumers(1).is_empty());
        p.remove(1).unwrap();
        p.validate().unwrap();
        assert!(p.remove(1).is_err());
    }

    #[test]
    fn splice_input_expands_unions() {
        let mut p = Plan::new();
        let a = p.add(scan("t", "a"), vec![]);
        let s1 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let s2 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let u = p.add(OperatorSpec::ExchangeUnion, vec![s1, s2]);
        p.set_root(u);
        let s3 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let s4 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.splice_input(u, s2, [(s3, None), (s4, None)]).unwrap();
        assert_eq!(p.node(u).unwrap().inputs, vec![s1, s3, s4]);
        assert!(p.splice_input(u, 999, [(s1, None)]).is_err());
    }

    #[test]
    fn edges_carry_windows_through_rewiring() {
        let mut p = Plan::new();
        let a = p.add(scan("t", "a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let head = Some(RowRange::new(0, 4));
        let tail = Some(RowRange::new(4, 10));
        let u = p.add_edges(OperatorSpec::ExchangeUnion, [(sel, head), (sel, tail)]);
        p.set_root(u);
        p.validate().unwrap();
        let node = p.node(u).unwrap();
        assert_eq!(node.inputs, vec![sel, sel]);
        assert_eq!(node.edges().collect::<Vec<_>>(), vec![(sel, head), (sel, tail)]);
        assert_eq!(node.window(2), None);
        assert_eq!(p.consumers(sel), vec![u]);

        // The windows are part of the plan's identity and its dump.
        let whole = {
            let mut w = p.clone();
            w.node_mut(u).unwrap().windows = vec![None, None];
            w
        };
        assert_ne!(p.signature(), whole.signature());
        assert!(p.pretty().contains(&format!("[{sel}[0, 4), {sel}[4, 10)]")), "{}", p.pretty());
        assert!(whole.pretty().contains(&format!("[{sel}, {sel}]")), "{}", whole.pretty());

        // A new producer keeps each edge's window; a windowed edge cannot be
        // spliced, a whole one takes the new edges with theirs.
        let sel2 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 5i64) }, vec![a]);
        p.replace_input(u, sel, sel2).unwrap();
        assert_eq!(
            p.node(u).unwrap().edges().collect::<Vec<_>>(),
            vec![(sel2, head), (sel2, tail)]
        );
        assert!(p.splice_input(u, sel2, [(sel, None)]).is_err());
        let outer = p.add(OperatorSpec::ExchangeUnion, vec![u, a]);
        p.splice_input(outer, u, [(sel2, head), (sel, None)]).unwrap();
        assert_eq!(
            p.node(outer).unwrap().edges().collect::<Vec<_>>(),
            vec![(sel2, head), (sel, None), (a, None)]
        );
    }

    #[test]
    fn recombine_splices_into_whole_combiners_and_unions_for_every_other_reader() {
        let mut p = Plan::new();
        let a = p.add(scan("t", "a"), vec![]);
        let select = || OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) };
        let target = p.add(select(), vec![a]);
        // Read whole by a combiner, through a window, and by a fetch; and the root.
        let combiner = p.add(OperatorSpec::ExchangeUnion, vec![target, a]);
        let head = Some(RowRange::new(0, 4));
        let windowed = p.add_edges(OperatorSpec::ExchangeUnion, [(target, head)]);
        let fetch = p.add(OperatorSpec::Fetch, vec![target, a]);
        p.set_root(target);
        let clones = [(0, 5), (5, 10)]
            .map(|(lo, hi)| p.add_edges(select(), [(a, Some(RowRange::new(lo, hi)))]));
        let parts = clones.map(|clone| (clone, None));

        let union = p.recombine(target, &parts).unwrap().expect("a union for the root");
        assert!(!p.contains(target));
        assert_eq!(p.root(), Some(union));
        let edges = |p: &Plan, id| p.node(id).unwrap().edges().collect::<Vec<_>>();
        assert_eq!(edges(&p, union), parts);
        assert_eq!(edges(&p, combiner), [parts[0], parts[1], (a, None)]);
        assert_eq!(edges(&p, windowed), [(union, head)]);
        assert_eq!(edges(&p, fetch), [(union, None), (a, None)]);
        assert_eq!(p.count_of("union"), 3, "one union serves every reader and the root");
        p.validate().unwrap();

        // Combiners alone take the parts and add nothing (the first clone is
        // read by two); a node nothing reads is removed with nothing to
        // combine.
        let nodes = p.node_count();
        assert_eq!(p.recombine(clones[0], &[(a, head)]).unwrap(), Some(union));
        assert_eq!((edges(&p, combiner)[0], edges(&p, union)[0]), ((a, head), (a, head)));
        assert_eq!(p.node_count(), nodes - 1);
        assert_eq!(p.recombine(fetch, &[(a, None)]).unwrap(), None);
        assert!(!p.contains(fetch));
        assert!(p.recombine(fetch, &[]).is_err());
    }

    #[test]
    fn validation_checks_windows() {
        let mut p = Plan::new();
        let a = p.add(scan("t", "a"), vec![]);
        let sel = p.add_edges(
            OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) },
            [(a, Some(RowRange::new(2, 8)))],
        );
        p.set_root(sel);
        p.validate().unwrap();
        p.node_mut(sel).unwrap().windows.push(None);
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains(&format!("node {sel} has windows [Some(")), "{err}");
        assert!(err.ends_with(", None] for 1 inputs"), "{err}");
        p.node_mut(sel).unwrap().windows = vec![Some(RowRange { start: 8, end: 2 })];
        let err = p.validate().unwrap_err().to_string();
        assert!(
            err.contains("windows [Some(RowRange { start: 8, end: 2 })] for 1 inputs"),
            "{err}"
        );
    }

    /// The quadratic body `Plan::topo_order` replaced (one `consumers` scan
    /// per node), kept as the reference the linear one is held to.
    fn topo_order_reference(plan: &Plan) -> Result<Vec<NodeId>> {
        let ids = plan.node_ids();
        let mut in_deg: HashMap<NodeId, usize> = ids.iter().map(|&i| (i, 0)).collect();
        for &id in &ids {
            for &input in &plan.node(id)?.inputs {
                if !plan.contains(input) {
                    return Err(EngineError::InvalidPlan(format!(
                        "node {id} references missing node {input}"
                    )));
                }
                *in_deg.get_mut(&id).expect("present") += 1;
            }
        }
        let mut ready: Vec<NodeId> = ids.iter().copied().filter(|i| in_deg[i] == 0).collect();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(ids.len());
        let mut queue = VecDeque::from(ready);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for consumer in plan.consumers(id) {
                let d = in_deg.get_mut(&consumer).expect("present");
                // A consumer may list the same producer several times.
                let times = plan.node(consumer)?.inputs.iter().filter(|&&i| i == id).count();
                *d -= times;
                if *d == 0 {
                    queue.push_back(consumer);
                }
            }
        }
        if order.len() != ids.len() {
            return Err(EngineError::InvalidPlan("plan contains a cycle".to_string()));
        }
        Ok(order)
    }

    /// A ~2,000-node plan of the `heuristic_parallelize(.., 128)` shape:
    /// per column pair, 128 partition chains (two scans, each read through
    /// the chain's window, select, fetch, a calc reading its input twice,
    /// partial aggregate) under one wide
    /// union and one wide finalize; a few chains are removed to leave holes
    /// in the node table, and later columns reuse the first one's scans.
    fn wide_plan() -> Plan {
        const PARTITIONS: usize = 128;
        let mut p = Plan::new();
        let mut first_scans = Vec::new();
        let mut roots = Vec::new();
        for column in 0..3 {
            let mut selects = Vec::new();
            let mut partials = Vec::new();
            for part in 0..PARTITIONS {
                let window = Some(RowRange::new(part * 100, (part + 1) * 100));
                let a = if column == 0 {
                    let a = p.add(scan("t", "a"), vec![]);
                    first_scans.push(a);
                    a
                } else {
                    first_scans[part]
                };
                let b = p.add(scan("t", "b"), vec![]);
                let pred = Predicate::cmp(CmpOp::Lt, column as i64);
                let sel = p.add_edges(OperatorSpec::Select { predicate: pred }, [(a, window)]);
                let fetch = p.add_edges(OperatorSpec::Fetch, [(sel, None), (b, window)]);
                let square = p.add(
                    OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
                    vec![fetch, fetch],
                );
                let dead = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![square]);
                if part % 7 == 0 {
                    p.remove(dead).unwrap();
                }
                selects.push(sel);
                partials.push(p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![square]));
            }
            p.add(OperatorSpec::ExchangeUnion, selects);
            roots.push(p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, partials));
        }
        let root = p.add(OperatorSpec::CalcScalars { op: BinaryOp::Add }, roots[..2].to_vec());
        p.set_root(root);
        p
    }

    #[test]
    fn topo_order_matches_the_quadratic_reference() {
        let wide = wide_plan();
        assert!(wide.node_count() > 2_000, "{} nodes", wide.node_count());
        let mut rewired = tiny_plan();
        let sel2 = rewired
            .add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 5i64) }, vec![0]);
        rewired.replace_input(3, 1, sel2).unwrap();
        rewired.remove(1).unwrap();
        let mut cyclic = tiny_plan();
        cyclic.node_mut(0).unwrap().inputs.push(5);
        cyclic.node_mut(0).unwrap().windows.push(None);
        let mut dangling = tiny_plan();
        dangling.remove(2).unwrap();
        for plan in [tiny_plan(), rewired, wide, cyclic, dangling, Plan::new()] {
            assert_eq!(plan.topo_order(), topo_order_reference(&plan));
        }
    }

    #[test]
    fn topo_order_and_cycles() {
        let p = tiny_plan();
        let order = p.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in p.node_ids() {
            for &input in &p.node(id).unwrap().inputs {
                assert!(pos[&input] < pos[&id], "{input} must precede {id}");
            }
        }
        // Introduce a cycle.
        let mut bad = p.clone();
        bad.node_mut(0).unwrap().inputs.push(5);
        bad.node_mut(0).unwrap().windows.push(None);
        assert!(bad.topo_order().is_err());
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_arity_and_missing_root() {
        let mut p = Plan::new();
        let a = p.add(scan("t", "a"), vec![]);
        // No root set.
        assert!(p.validate().is_err());
        // Fetch with a single input violates arity.
        let f = p.add(OperatorSpec::Fetch, vec![a]);
        p.set_root(f);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_refuses_a_calc_whose_inputs_disagree_with_its_scalars() {
        let calc = |left_scalar, right_scalar| OperatorSpec::Calc {
            op: BinaryOp::Add,
            left_scalar,
            right_scalar,
        };
        let one = || Some(ScalarValue::I64(1));
        for (spec, n_inputs, valid) in [
            (calc(None, None), 2, true),
            (calc(None, None), 1, false),
            (calc(one(), None), 1, true),
            (calc(None, one()), 1, true),
            (calc(one(), None), 2, false),
            (calc(None, one()), 2, false),
            (calc(one(), one()), 1, false),
        ] {
            let mut p = Plan::new();
            let a = p.add(scan("t", "a"), vec![]);
            let c = p.add(spec.clone(), vec![a; n_inputs]);
            p.set_root(c);
            let err = p.validate().err().map(|e| e.to_string());
            assert_eq!(err.is_none(), valid, "{spec:?} over {n_inputs} inputs: {err:?}");
            if let Some(err) = err {
                assert!(err.contains(&format!("node {c} (calc)")), "{err}");
            }
        }
    }

    #[test]
    fn validation_refuses_a_probe_over_a_key_set() {
        let mut p = Plan::new();
        let keys = p.add(scan("t", "a"), vec![]);
        let outer = p.add(scan("t", "b"), vec![]);
        let set = p.add(OperatorSpec::KeySet, vec![keys]);
        let semi = p.add(OperatorSpec::SemiJoin, vec![outer, set]);
        p.set_root(semi);
        p.validate().unwrap();
        let probe = p.add(OperatorSpec::HashProbe, vec![outer, set]);
        p.set_root(probe);
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains(&format!("node {probe} (join) probes key set {set}")), "{err}");
        // A key set is a hash build to the operator counts.
        assert_eq!(OperatorSpec::KeySet.name(), "hashbuild");
        assert!(!OperatorSpec::KeySet.is_parallelizable());
    }

    #[test]
    fn operator_metadata() {
        let sel = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 1i64) };
        assert_eq!(sel.name(), "select");
        assert!(sel.is_parallelizable());
        assert_eq!(sel.aligned_inputs(2), vec![true, false]);

        let agg = OperatorSpec::ScalarAgg { func: AggFunc::Sum };
        assert!(agg.is_parallelizable());
        let group = OperatorSpec::GroupAgg { func: AggFunc::Sum };
        assert!(group.is_parallelizable());
        assert_eq!(group.aligned_inputs(2), vec![true, true]);

        let union = OperatorSpec::ExchangeUnion;
        assert!(!union.is_parallelizable());
        assert_eq!(union.aligned_inputs(4), vec![true; 4]);
        assert_eq!(union.arity(), (1, usize::MAX));

        // The combiners are exactly the operators of unbounded arity.
        let fin = OperatorSpec::FinalizeAgg { func: AggFunc::Sum };
        assert!(!fin.is_parallelizable());
        for spec in [&union, &fin] {
            assert!(spec.is_combiner(), "{spec:?}");
            assert_eq!(spec.arity().1, usize::MAX);
        }
        assert!(!sel.is_combiner() && !agg.is_combiner() && !group.is_combiner());

        let scanop = scan("t", "a");
        assert!(!scanop.is_parallelizable());
        assert_eq!(scanop.arity(), (0, 0));
        assert!(scanop.describe().contains("t.a"));

        let probe = OperatorSpec::HashProbe;
        assert_eq!(probe.name(), "join");
        assert_eq!(probe.aligned_inputs(2), vec![true, false]);
    }

    #[test]
    fn counting_and_pretty() {
        let p = tiny_plan();
        let counts = p.count_by_name();
        assert_eq!(counts.get("scan"), Some(&2));
        assert_eq!(counts.get("select"), Some(&1));
        assert_eq!(p.count_of("fetch"), 1);
        assert_eq!(p.count_of("join"), 0);
        let dump = p.pretty();
        assert!(dump.contains("select"));
        assert!(dump.contains('*')); // root marker
        assert!(dump.lines().count() >= 6);
    }
}
