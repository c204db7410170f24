//! Dataflow plan representation.
//!
//! A [`Plan`] is a DAG of [`PlanNode`]s, each holding an [`OperatorSpec`],
//! the ids of its producer nodes and its [`Cuts`]. This mirrors the property
//! the paper requires of a host system: "its plan representation allows
//! identification of individual expensive operators" (§2).
//!
//! The paper parallelizes an operator by cloning it over range partitions
//! and recombining the clones with an exchange union (§2.1). Here a
//! parallelized node stays one node and carries its cut points instead: the
//! rows it streams are cut into parts, "marking the boundary ranges … there
//! is no data copying involved" (§2.3), the driver runs one task per part
//! and publishes the parts as one list, and a reader that reads the list
//! whole packs it once. Cuts never change a node's output, so the adaptive
//! parallelizer (crate `apq-core`) and the heuristic baseline rewrite a plan
//! by setting cuts alone, and every parallel plan has its serial plan's
//! nodes and edges.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use apq_columnar::ScalarValue;
use apq_operators::{AggFunc, BinaryOp, Predicate};

use crate::error::{EngineError, Result};
use crate::pipeline::stream_input;

/// Identifier of a plan node (index into the plan's node table).
pub type NodeId = usize;

fn missing(id: NodeId) -> EngineError {
    EngineError::InvalidPlan(format!("node {id} does not exist"))
}

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
    /// A base-table column, published whole and zero-copy (leaf). A reader
    /// that runs in parts cuts it ([`PlanNode::cuts`]).
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
    /// else ([`apq_operators::JoinHashTable::build_key_set`]). It may run in
    /// parts, each building a [`apq_operators::KeySetPart`] that the step
    /// merges. A `HashProbe` over it is refused by [`Plan::validate`].
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
    /// Finalizes a partial scalar aggregate (its parts merged when it was
    /// published).
    FinalizeAgg {
        /// The aggregate function (must match the partials).
        func: AggFunc,
    },
    /// Single-attribute grouped aggregate: input 0 = keys, input 1 = values.
    GroupAgg {
        /// The aggregate function.
        func: AggFunc,
    },
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
            | OperatorSpec::ScalarAgg { .. }
            | OperatorSpec::FinalizeAgg { .. } => (1, 1),
            OperatorSpec::Select { .. } => (1, 2),
            OperatorSpec::IfThenElse { .. }
            | OperatorSpec::Fetch
            | OperatorSpec::HashProbe
            | OperatorSpec::SemiJoin
            | OperatorSpec::AntiJoin
            | OperatorSpec::GroupAgg { .. }
            | OperatorSpec::CalcScalars { .. } => (2, 2),
        }
    }

    /// Which of the node's inputs are *range aligned*: row `i` of each is
    /// zipped with row `i` of the others, so a cut cuts them all at the same
    /// offsets, while the other inputs (hash tables, full columns being
    /// fetched into, a refining select's column) are read whole.
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
            OperatorSpec::ScanColumn { .. }
            | OperatorSpec::FinalizeAgg { .. }
            | OperatorSpec::CalcScalars { .. } => return vec![false; n_inputs],
        };
        (0..n_inputs).map(|i| pattern.get(i).copied().unwrap_or(false)).collect()
    }

    /// True when the operator may carry cuts ([`PlanNode::cuts`]): it runs
    /// over the rows it streams part by part, and its parts' outputs, in
    /// order, are its whole output — positional outputs side by side,
    /// partial aggregates and key-set parts merged.
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
            | OperatorSpec::GroupAgg { .. }
            | OperatorSpec::KeySet => true,
            OperatorSpec::ScanColumn { .. }
            | OperatorSpec::HashBuild
            | OperatorSpec::FinalizeAgg { .. }
            | OperatorSpec::CalcScalars { .. } => false,
        }
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

/// Default morsel size, in rows (the ballpark of Leis et al.'s ~100k-tuple
/// morsels, rounded to a power of two).
pub const DEFAULT_MORSEL_ROWS: usize = 64 * 1024;

/// Where a node cuts the rows it streams into parts: the rows of its stream
/// input (a refining select's candidates, every other operator's first
/// input) and of the range-aligned inputs zipped with it. The driver runs
/// one task per part and publishes the parts' outputs, in order, as the
/// node's one output: cuts never change what a node computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cuts {
    /// Ascending row offsets: part `k` is rows `[at[k - 1], at[k])`, the
    /// first starting at 0 and the last ending at the stream's end (an
    /// offset past it cuts there). No offsets: one part.
    At(Vec<usize>),
    /// One part per published part of the stream.
    Adopt,
    /// One part per `rows` rows of the stream: morsels (Leis et al.). Unlike
    /// explicit offsets, these parts are a dispatch grid, not partitions:
    /// the driver may pack a selective stage's small outputs across them.
    Every(usize),
}

impl Default for Cuts {
    fn default() -> Self {
        Cuts::At(Vec::new())
    }
}

impl Cuts {
    /// True for the default: one part, the whole stream.
    pub fn is_whole(&self) -> bool {
        matches!(self, Cuts::At(at) if at.is_empty())
    }
}

impl std::fmt::Display for Cuts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cuts::At(at) if at.is_empty() => Ok(()),
            Cuts::At(at) => write!(f, " cut at {at:?}"),
            Cuts::Adopt => f.write_str(" adopts its stream's parts"),
            Cuts::Every(rows) => write!(f, " cut every {rows} rows"),
        }
    }
}

/// A plan's topological order and each node's consumers, one entry per
/// input reference (a `calc(x, x)` is listed twice under `x`).
pub(crate) struct Sorted {
    pub(crate) order: Vec<NodeId>,
    pub(crate) consumers: Vec<Vec<NodeId>>,
}

/// One node of the plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator this node executes.
    pub spec: OperatorSpec,
    /// Ids of the producer nodes whose outputs feed this node, in order.
    pub inputs: Vec<NodeId>,
    /// Where the node cuts the rows it streams; the default is one part.
    pub cuts: Cuts,
}

impl PlanNode {
    /// The producer whose output this node streams, if it has inputs.
    pub fn stream(&self) -> Option<NodeId> {
        self.inputs.get(stream_input(&self.spec, self.inputs.len())).copied()
    }
}

/// A dataflow plan: a DAG of operator nodes with a single result node. A
/// node's id is its index; nodes are never removed, since a rewrite only
/// sets cuts.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    nodes: Vec<PlanNode>,
    root: Option<NodeId>,
}

impl Plan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Adds a node over `inputs`, in one part, and returns its id.
    pub fn add(&mut self, spec: OperatorSpec, inputs: Vec<NodeId>) -> NodeId {
        self.nodes.push(PlanNode { spec, inputs, cuts: Cuts::default() });
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

    /// Size of the node table: one past the largest id.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes — the paper's "number of MAL instructions".
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> Result<&PlanNode> {
        self.nodes.get(id).ok_or_else(|| missing(id))
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut PlanNode> {
        self.nodes.get_mut(id).ok_or_else(|| missing(id))
    }

    /// True when the node id refers to a node.
    pub fn contains(&self, id: NodeId) -> bool {
        id < self.nodes.len()
    }

    /// Ids of all nodes, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).collect()
    }

    /// The parts `id` runs in as the plan knows them (table 5's count): one
    /// per range of its explicit cuts, its stream producer's parts when it
    /// adopts them, else one — so one for a node cut [`Cuts::Every`] so many
    /// rows, whose morsels a reader may adopt but the plan cannot count.
    pub fn parts(&self, id: NodeId) -> usize {
        match self.node(id) {
            Ok(PlanNode { cuts: Cuts::At(at), .. }) => at.len() + 1,
            Ok(node @ PlanNode { cuts: Cuts::Adopt, .. }) => {
                node.stream().map_or(1, |s| self.parts(s))
            }
            Ok(PlanNode { cuts: Cuts::Every(_), .. }) => 1,
            Err(_) => 0,
        }
    }

    /// True when `id`'s output comes in several parts, so a reader may adopt
    /// them: it is cut at offsets or into morsels, or adopts the parts of a
    /// stream that comes in several. Unlike [`Plan::parts`], this counts
    /// morsels as several.
    pub fn in_parts(&self, id: NodeId) -> bool {
        match self.node(id) {
            Ok(PlanNode { cuts: Cuts::At(at), .. }) => !at.is_empty(),
            Ok(PlanNode { cuts: Cuts::Every(_), .. }) => true,
            Ok(node @ PlanNode { cuts: Cuts::Adopt, .. }) => {
                node.stream().is_some_and(|s| self.in_parts(s))
            }
            Err(_) => false,
        }
    }

    /// The plan cut into morsels of `rows` rows (Leis et al.): every node
    /// without cuts that can run in parts and reads its stream once is cut
    /// [`Cuts::Every`] `rows` rows, so the driver fuses each chain of such
    /// nodes into one pipeline over its producer's list. Nodes with cuts
    /// keep them; breakers, scans and a `calc(x, x)` run whole.
    pub fn cut_into_morsels(&self, rows: usize) -> Plan {
        let mut plan = self.clone();
        for node in &mut plan.nodes {
            let reads_stream_once = node
                .stream()
                .is_some_and(|stream| node.inputs.iter().filter(|&&i| i == stream).count() == 1);
            if node.cuts.is_whole() && node.spec.is_parallelizable() && reads_stream_once {
                node.cuts = Cuts::Every(rows);
            }
        }
        plan
    }

    /// Canonical structural signature of the plan: every live node's full
    /// operator spec, inputs and cuts plus the root marker, in id order.
    /// Plans that build the same DAG the same way produce equal signatures;
    /// the encoding includes every operator parameter (predicate constants,
    /// scanned columns) and every cut, so "same shape, different constants"
    /// never collides.
    /// This is the key of the service layer's result cache
    /// ([`crate::service`]).
    pub fn signature(&self) -> String {
        let mut out = String::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let _ = write!(out, "{id}:{:?}<-{:?}{};", node.spec, node.inputs, node.cuts);
        }
        let _ = write!(out, "root={:?}", self.root);
        out
    }

    /// Names of the tables the plan reads ([`OperatorSpec::ScanColumn`]
    /// sources), deduplicated and sorted — the invalidation key set of the
    /// service layer's result cache ([`crate::service`]).
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut tables: Vec<String> = self
            .nodes
            .iter()
            .filter_map(|node| match &node.spec {
                OperatorSpec::ScanColumn { table, .. } => Some(table.clone()),
                _ => None,
            })
            .collect();
        tables.sort();
        tables.dedup();
        tables
    }

    /// Counts operators per family name (e.g. `select`, `join`) as they run:
    /// each live node counts its [`Plan::parts`], as the paper counts each
    /// clone of an operator (Table 5).
    pub fn count_by_name(&self) -> HashMap<&'static str, usize> {
        let mut out = HashMap::new();
        for (id, node) in self.nodes.iter().enumerate() {
            *out.entry(node.spec.name()).or_insert(0) += self.parts(id);
        }
        out
    }

    /// Number of operators of one family, counted as [`Plan::count_by_name`]
    /// counts them.
    pub fn count_of(&self, name: &str) -> usize {
        self.count_by_name().get(name).copied().unwrap_or(0)
    }

    /// Topological order of the nodes (producers before consumers),
    /// ties broken by ascending id. Linear in nodes + input edges: it runs on
    /// every submission ([`Plan::validate`]).
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        Ok(self.sorted()?.order)
    }

    /// [`Plan::topo_order`] with the consumer lists it sorts by.
    fn sorted(&self) -> Result<Sorted> {
        let mut in_deg = vec![0usize; self.nodes.len()];
        // One entry per input reference, so a consumer listing the same
        // producer several times appears that many times (adjacently).
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
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
            (0..self.nodes.len()).filter(|&id| in_deg[id] == 0).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &consumer in &consumers[id] {
                in_deg[consumer] -= 1;
                if in_deg[consumer] == 0 {
                    queue.push_back(consumer);
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(EngineError::InvalidPlan("plan contains a cycle".to_string()));
        }
        Ok(Sorted { order, consumers })
    }

    /// Structural validation: root set and a node, inputs nodes, arities
    /// valid, cuts only on parallelizable nodes (an adopting one with a
    /// stream), offsets strictly ascending and morsels at least a row, no
    /// `Calc` with two scalar operands, no `HashProbe` over a `KeySet` (a
    /// key set may have no rows to pair), DAG acyclic.
    pub fn validate(&self) -> Result<()> {
        self.validated_order().map(drop)
    }

    /// [`Plan::validate`], handing on the order it sorted the plan in.
    pub(crate) fn validated_order(&self) -> Result<Sorted> {
        let root =
            self.root.ok_or_else(|| EngineError::InvalidPlan("plan has no root".to_string()))?;
        if !self.contains(root) {
            return Err(EngineError::InvalidPlan(format!("root {root} is not a node")));
        }
        // Inputs are nodes and the DAG is acyclic.
        let sorted = self.sorted()?;
        for (id, node) in self.nodes.iter().enumerate() {
            let (min, max) = node.spec.arity();
            if node.inputs.len() < min || node.inputs.len() > max {
                return Err(EngineError::InvalidPlan(format!(
                    "node {id} ({}) has {} inputs, expected between {min} and {max}",
                    node.spec.name(),
                    node.inputs.len(),
                )));
            }
            let refusal = match &node.cuts {
                Cuts::Adopt if node.stream().is_none() => Some("adopts but streams no input"),
                cuts if !cuts.is_whole() && !node.spec.is_parallelizable() => {
                    Some("is cut but cannot run in parts")
                }
                Cuts::At(at) if at.windows(2).any(|w| w[0] >= w[1]) => {
                    Some("has cut offsets that do not ascend")
                }
                Cuts::Every(0) => Some("is cut every 0 rows"),
                _ => None,
            };
            if let Some(refusal) = refusal {
                let name = node.spec.name();
                return Err(EngineError::InvalidPlan(format!("node {id} ({name}) {refusal}")));
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
        Ok(sorted)
    }

    /// Human-readable plan dump (one line per node, topological order).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        for id in self.topo_order().unwrap_or_else(|_| self.node_ids()) {
            let node = &self.nodes[id];
            let marker = if Some(id) == self.root { "*" } else { " " };
            let _ = writeln!(
                out,
                "{marker}[{id:>3}] {:<12} {:<28} <- {:?}{}",
                node.spec.name(),
                node.spec.describe(),
                node.inputs,
                node.cuts
            );
        }
        out
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
    fn validation_lists_each_nodes_readers_in_id_order() {
        let mut p = tiny_plan();
        let sel2 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 5i64) }, vec![0]);
        // One entry per input reference.
        let calc = p.add(
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
            vec![1, 1],
        );
        p.set_root(calc);
        let sorted = p.validated_order().unwrap();
        assert_eq!(sorted.order, p.topo_order().unwrap());
        assert_eq!(sorted.consumers[0], [1, sel2]);
        assert_eq!(sorted.consumers[1], [3, calc, calc]);
        assert!(sorted.consumers[5].is_empty());
    }

    /// `tiny_plan` with `cuts` on `node`.
    fn cut(node: NodeId, cuts: Cuts) -> Plan {
        let mut p = tiny_plan();
        p.node_mut(node).unwrap().cuts = cuts;
        p
    }

    #[test]
    fn cuts_are_part_of_the_signature_and_the_dump() {
        let (select, fetch) = (1, 3);
        let whole = tiny_plan();
        let halves = cut(select, Cuts::At(vec![4]));
        let thirds = cut(select, Cuts::At(vec![4, 8]));
        let adopting = cut(fetch, Cuts::Adopt);
        let morsels = cut(select, Cuts::Every(4));
        let signatures = [&whole, &halves, &thirds, &adopting, &morsels].map(Plan::signature);
        for (i, a) in signatures.iter().enumerate() {
            for b in &signatures[i + 1..] {
                assert_ne!(a, b, "the result cache would mix up two cuts");
            }
        }
        assert!(signatures[1].contains("1:Select") && signatures[1].contains("<-[0] cut at [4];"));
        assert!(halves.pretty().contains("<- [0] cut at [4]"), "{}", halves.pretty());
        assert!(adopting.pretty().contains("<- [1, 2] adopts its stream's parts"));
        assert!(morsels.pretty().contains("<- [0] cut every 4 rows"), "{}", morsels.pretty());
        assert!(!whole.pretty().contains("cut"), "{}", whole.pretty());
    }

    #[test]
    fn parts_follow_cuts_and_adoption() {
        let mut p = cut(1, Cuts::At(vec![4, 8]));
        assert_eq!((p.parts(0), p.parts(1), p.parts(3)), (1, 3, 1));
        p.node_mut(3).unwrap().cuts = Cuts::Adopt;
        p.node_mut(4).unwrap().cuts = Cuts::Adopt;
        assert_eq!((p.parts(3), p.parts(4), p.parts(5)), (3, 3, 1));
        // Families count their parts; the node count stays the serial one.
        assert_eq!((p.count_of("select"), p.count_of("fetch"), p.count_of("scan")), (3, 3, 2));
        assert_eq!(p.node_count(), tiny_plan().node_count());
        assert_eq!(p.parts(99), 0);
        // Morsels count one part, and so does a node adopting them; their
        // output still comes in parts.
        p.node_mut(1).unwrap().cuts = Cuts::Every(4);
        assert_eq!((p.parts(1), p.parts(3), p.parts(4)), (1, 1, 1));
        assert_eq!(
            [0, 1, 3, 4, 5, 99].map(|id| p.in_parts(id)),
            [false, true, true, true, false, false]
        );
        p.node_mut(1).unwrap().cuts = Cuts::default();
        assert!(!p.in_parts(1) && !p.in_parts(4), "adopting one part is one part");
    }

    #[test]
    fn morsels_cut_every_whole_node_that_can_run_in_parts_and_streams_once() {
        let mut p = cut(1, Cuts::At(vec![4]));
        let square =
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None };
        p.add(square, vec![3, 3]);
        let morsels = p.cut_into_morsels(7);
        let cuts: Vec<Cuts> =
            p.node_ids().iter().map(|&id| morsels.node(id).unwrap().cuts.clone()).collect();
        // The scans, the finalize and `calc(x, x)` run whole; the cut
        // select keeps its offsets; the fetch and the sum take morsels.
        let every = Cuts::Every(7);
        let whole = Cuts::default();
        assert_eq!(
            cuts,
            [
                whole.clone(),
                Cuts::At(vec![4]),
                whole.clone(),
                every.clone(),
                every,
                whole.clone(),
                whole
            ]
        );
        morsels.validate().unwrap();
        // Nodes and edges are the plan's, and a second rewrite changes nothing.
        assert_eq!(morsels.signature(), morsels.cut_into_morsels(7).signature());
        assert_eq!(morsels.node_count(), p.node_count());
    }

    #[test]
    fn validation_refuses_misplaced_and_disordered_cuts() {
        let refusal = |p: Plan| p.validate().unwrap_err().to_string();
        for ok in [cut(1, Cuts::At(vec![0, 3, 99])), cut(3, Cuts::Adopt), cut(4, Cuts::At(vec![1]))]
        {
            ok.validate().unwrap();
        }
        // A scan streams nothing; a finalize and a hash build run whole.
        assert!(refusal(cut(0, Cuts::Adopt)).contains("node 0 (scan) adopts but streams no input"));
        assert!(refusal(cut(0, Cuts::At(vec![2]))).contains("node 0 (scan) is cut but cannot"));
        assert!(refusal(cut(5, Cuts::Adopt)).contains("node 5 (finalizeagg) is cut but cannot"));
        let mut build = tiny_plan();
        let table = build.add(OperatorSpec::HashBuild, vec![2]);
        build.node_mut(table).unwrap().cuts = Cuts::At(vec![1]);
        assert!(refusal(build).contains(&format!("node {table} (hashbuild) is cut but cannot")));
        // Morsels have at least a row, and only a node that runs in parts
        // takes them.
        cut(1, Cuts::Every(1)).validate().unwrap();
        assert!(refusal(cut(1, Cuts::Every(0))).contains("node 1 (select) is cut every 0 rows"));
        assert!(refusal(cut(5, Cuts::Every(8))).contains("node 5 (finalizeagg) is cut but cannot"));
        assert!(refusal(cut(0, Cuts::Every(8))).contains("node 0 (scan) is cut but cannot"));
        // Offsets ascend strictly.
        for at in [vec![5, 3], vec![3, 3], vec![0, 0]] {
            let err = refusal(cut(1, Cuts::At(at.clone())));
            assert!(err.contains("node 1 (select) has cut offsets that do not ascend"), "{at:?}");
        }
    }

    /// The quadratic body `Plan::topo_order` replaced (one scan of every
    /// node's inputs per node), kept as the reference the linear one is held to.
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
            let consumers = ids.iter().filter(|&&c| plan.nodes[c].inputs.contains(&id));
            for &consumer in consumers {
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

    /// A ~2,000-node plan of the `heuristic_parallelize(.., 128)` shape the
    /// paper's clones made: per column pair, 128 chains (a scan, select,
    /// fetch, a calc reading its input twice, partial aggregate and
    /// finalize), with a few dead aggregates, and later columns reuse the
    /// first one's scans.
    fn wide_plan() -> Plan {
        const PARTITIONS: usize = 128;
        let mut p = Plan::new();
        let mut first_scans = Vec::new();
        let mut roots = Vec::new();
        for column in 0..3 {
            for part in 0..PARTITIONS {
                let a = if column == 0 {
                    let a = p.add(scan("t", "a"), vec![]);
                    first_scans.push(a);
                    a
                } else {
                    first_scans[part]
                };
                let b = p.add(scan("t", "b"), vec![]);
                let pred = Predicate::cmp(CmpOp::Lt, column as i64);
                let sel = p.add(OperatorSpec::Select { predicate: pred }, vec![a]);
                let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
                let square = p.add(
                    OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
                    vec![fetch, fetch],
                );
                if part % 7 == 0 {
                    p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![square]);
                }
                let partial = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![square]);
                roots.push(p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![partial]));
            }
        }
        let root = p.add(OperatorSpec::CalcScalars { op: BinaryOp::Add }, roots[..2].to_vec());
        p.set_root(root);
        p
    }

    #[test]
    fn topo_order_matches_the_quadratic_reference() {
        let wide = wide_plan();
        assert!(wide.node_count() > 2_000, "{} nodes", wide.node_count());
        let mut reordered = tiny_plan();
        let sel2 = reordered
            .add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 5i64) }, vec![0]);
        reordered.node_mut(3).unwrap().inputs[0] = sel2;
        let mut cyclic = tiny_plan();
        cyclic.node_mut(0).unwrap().inputs.push(5);
        let mut dangling = tiny_plan();
        dangling.node_mut(3).unwrap().inputs[1] = 99;
        for plan in [tiny_plan(), reordered, wide, cyclic, dangling, Plan::new()] {
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
        assert!(OperatorSpec::KeySet.is_parallelizable());
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

        let fin = OperatorSpec::FinalizeAgg { func: AggFunc::Sum };
        assert!(!fin.is_parallelizable());
        assert_eq!(fin.arity(), (1, 1));

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
