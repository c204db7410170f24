//! An independent oracle over generated plans.
//!
//! Two halves. [`reference`] is a row-at-a-time evaluator of the plan IR: one
//! `Vec` of plain values per node, no `apq-operators` kernels, no part lists
//! and no views. [`generate`] is a seeded generator (the SplitMix `Gen` idiom
//! of `proptest_kernels.rs`: the proptest shim has no recursive strategies)
//! of catalogs and plan DAGs: selects (plain and refining), calcs, fetches,
//! probes with their side projections, semi and anti joins over a key set
//! (whole, cut at offsets or into morsels of its own) or a hash table,
//! group-bys and scalar aggregates, over ragged, empty, skewed
//! and duplicate-key columns that hold `NaN`, `-0.0` and the `i64` and `i32`
//! extremes, with `Int64` and `Int32` keys, some of them dense in a narrow
//! span (the join's dense directories).
//!
//! Every generated plan is executed serial, after `heuristic_parallelize` at
//! W = 2 and 3, and after each of up to six mutations, each as built and cut
//! into morsels of 7 and of 100 rows, and every output must equal the
//! reference's output of the serial plan.

use std::collections::HashMap;
use std::sync::Arc;

use adaptive_parallelization::adaptive::{mutate_most_expensive, AdaptiveConfig};
use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::columnar::{Catalog, Column, ScalarValue, TableBuilder};
use adaptive_parallelization::engine::plan::Cuts;
use adaptive_parallelization::engine::{Engine, JoinSide, NodeId, OperatorSpec, Plan, QueryOutput};
use adaptive_parallelization::operators::{AggFunc, BinaryOp, CmpOp, GroupKey, Predicate};

/// The SplitMix64 stream of `proptest_kernels.rs`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

const INT_EDGES: [i64; 6] = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, -1, 0];
const FLOATS: [f64; 9] =
    [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, -1.5, 1.5, 2.0, 7.25];
const ROWS: [usize; 9] = [0, 1, 2, 7, 13, 50, 99, 130, 257];
const OPS: [BinaryOp; 3] = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul];
const CMPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// An integer drawn from a small domain, a skewed one (mostly `hot`), or
/// the edges.
fn int_value(gen: &mut Gen, domain: i64, hot: i64) -> i64 {
    match gen.below(8) {
        0 => gen.pick(&INT_EDGES),
        1..=3 => hot,
        _ => gen.below(domain.max(1) as usize) as i64 - 1,
    }
}

/// An `i32` drawn like [`int_value`], its edges the `i32` extremes.
fn int32_value(gen: &mut Gen, domain: i64, hot: i64) -> i32 {
    int_value(gen, domain, hot).clamp(i32::MIN.into(), i32::MAX.into()) as i32
}

/// Keys dense in a span of at most 64 from `base`: a build over them takes
/// a dense directory or a bitmap rather than a hashed one.
fn dense_value(gen: &mut Gen, base: i64, span: usize) -> i64 {
    base + gen.below(span) as i64
}

fn float_value(gen: &mut Gen) -> f64 {
    if gen.chance(3) {
        gen.pick(&FLOATS)
    } else {
        gen.below(40) as f64 / 4.0 - 5.0
    }
}

/// Two tables: a fact table `f` and a dimension `d` whose `id` is its row
/// id, so `f.fk` (drawn below `d`'s row count) addresses `d`'s rows.
fn catalog(gen: &mut Gen) -> Arc<Catalog> {
    let (nf, nd) = (gen.pick(&ROWS), gen.pick(&ROWS[..6]));
    let nf = if nd == 0 { 0 } else { nf };
    let hot = gen.below(4) as i64;
    let mut ints = |n: usize, domain: i64| -> Vec<i64> {
        (0..n).map(|_| int_value(gen, domain, hot)).collect()
    };
    let (k, x, g) = (ints(nf, 8), ints(nf, 1_000), ints(nf, 4));
    let (dk, dv) = (ints(nd, 8), ints(nd, 100));
    let fk = (0..nf).map(|_| gen.below(nd) as i64).collect();
    let y = (0..nf).map(|_| float_value(gen)).collect();
    let w = (0..nd).map(|_| float_value(gen)).collect();
    // `Int32` keys, dense half the time, and dense `Int64` keys: one span
    // per catalog, so fact and dimension keys meet.
    let (span, dense32) = (1 + gen.below(64), gen.chance(2));
    let base = gen.pick(&[0, -40, 1 << 33, i64::MAX - 64]);
    let base32 = gen.pick(&[0, -40, i32::MAX - 64]);
    let mut int32s = |n: usize| -> Vec<i32> {
        let narrow = |gen: &mut Gen| match dense32 {
            true => base32 + gen.below(span) as i32,
            false => int32_value(gen, 8, hot),
        };
        (0..n).map(|_| narrow(gen)).collect()
    };
    let (k32, dk32) = (int32s(nf), int32s(nd));
    let (kd, dkd) = (
        (0..nf).map(|_| dense_value(gen, base, span)).collect(),
        (0..nd).map(|_| dense_value(gen, base, span)).collect(),
    );
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("f")
            .i64_column("k", k)
            .i64_column("fk", fk)
            .i64_column("x", x)
            .i64_column("g", g)
            .f64_column("y", y)
            .i32_column("k32", k32)
            .i64_column("kd", kd)
            .build()
            .unwrap(),
    );
    c.register(
        TableBuilder::new("d")
            .i64_column("id", (0..nd as i64).collect())
            .i64_column("k", dk)
            .i64_column("v", dv)
            .f64_column("w", w)
            .i32_column("k32", dk32)
            .i64_column("kd", dkd)
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

// ------------------------------------------------------------ generator

/// Value types of generated columns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    I64,
    /// Keys only: joined, grouped and fetched, never computed on.
    I32,
    F64,
    Bool,
}

/// The key types of joins and group-bys.
const KEYS: [Ty; 2] = [Ty::I64, Ty::I32];

/// What a generated node produces. A *domain* is a row space: each table's
/// rows, and each stream a select or join creates. Columns and streams of
/// one domain are positionally aligned; an oid list addresses the rows of
/// its `target` domain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A column of `dom`; `fk` when its values are row ids of table `d`.
    Col {
        dom: usize,
        ty: Ty,
        fk: bool,
    },
    Oids {
        dom: usize,
        target: usize,
    },
    Join {
        dom: usize,
    },
    /// A hash table (`pairs`) or key set.
    Table {
        pairs: bool,
    },
    Partial,
    Grouped,
    Scalar,
}

const FACT: usize = 0;
const DIM: usize = 1;
const COLUMNS: [(&str, usize, &str, Ty, bool); 12] = [
    ("f", FACT, "k", Ty::I64, false),
    ("f", FACT, "fk", Ty::I64, true),
    ("f", FACT, "x", Ty::I64, false),
    ("f", FACT, "g", Ty::I64, false),
    ("f", FACT, "y", Ty::F64, false),
    ("f", FACT, "k32", Ty::I32, false),
    ("f", FACT, "kd", Ty::I64, false),
    ("d", DIM, "k", Ty::I64, false),
    ("d", DIM, "v", Ty::I64, false),
    ("d", DIM, "w", Ty::F64, false),
    ("d", DIM, "k32", Ty::I32, false),
    ("d", DIM, "kd", Ty::I64, false),
];

struct Builder<'a> {
    gen: &'a mut Gen,
    plan: Plan,
    kinds: HashMap<NodeId, Kind>,
    domains: usize,
}

impl Builder<'_> {
    fn add(&mut self, spec: OperatorSpec, inputs: Vec<NodeId>, kind: Kind) -> NodeId {
        let id = self.plan.add(spec, inputs);
        self.kinds.insert(id, kind);
        id
    }

    fn fresh(&mut self) -> usize {
        self.domains += 1;
        self.domains - 1
    }

    /// A node whose kind `accept`s, preferring later nodes.
    fn find(&mut self, accept: impl Fn(Kind) -> bool) -> Option<NodeId> {
        let mut found: Vec<NodeId> =
            self.kinds.iter().filter(|&(_, &k)| accept(k)).map(|(&id, _)| id).collect();
        found.sort_unstable();
        let n = found.len();
        (n > 0).then(|| found[n - 1 - self.gen.below(n).min(self.gen.below(n))])
    }

    /// A column of `dom` of one of `types`: an existing one, or a new scan
    /// when `dom` is a table.
    fn column(&mut self, dom: usize, types: &[Ty]) -> Option<NodeId> {
        let existing = self
            .find(|k| matches!(k, Kind::Col { dom: d, ty, .. } if d == dom && types.contains(&ty)));
        if existing.is_some() && (dom > DIM || self.gen.chance(2)) {
            return existing;
        }
        let scans: Vec<_> =
            COLUMNS.iter().filter(|c| c.1 == dom && types.contains(&c.3)).copied().collect();
        if scans.is_empty() {
            return existing;
        }
        let (table, dom, column, ty, fk) = scans[self.gen.below(scans.len())];
        let spec = OperatorSpec::ScanColumn { table: table.into(), column: column.into() };
        Some(self.add(spec, vec![], Kind::Col { dom, ty, fk }))
    }

    /// Any column of one of `types`, from any domain.
    fn any_column(&mut self, types: &[Ty]) -> Option<NodeId> {
        let dom = if self.gen.chance(2) {
            self.gen.below(2)
        } else {
            match self.find(|k| matches!(k, Kind::Col { .. })) {
                Some(id) => self.dom(id),
                None => FACT,
            }
        };
        self.column(dom, types)
    }

    fn dom(&self, id: NodeId) -> usize {
        match self.kinds[&id] {
            Kind::Col { dom, .. } | Kind::Oids { dom, .. } | Kind::Join { dom } => dom,
            _ => usize::MAX,
        }
    }

    fn ty(&self, id: NodeId) -> Ty {
        match self.kinds[&id] {
            Kind::Col { ty, .. } => ty,
            _ => Ty::Bool,
        }
    }

    fn predicate(&mut self, ty: Ty) -> Predicate {
        let value = |gen: &mut Gen| match ty {
            Ty::I64 => ScalarValue::I64(int_value(gen, 10, 1)),
            _ => ScalarValue::F64(float_value(gen)),
        };
        if self.gen.chance(3) {
            let (lo, hi) = (value(self.gen), value(self.gen));
            Predicate::Between {
                lo,
                hi,
                lo_inclusive: self.gen.chance(2),
                hi_inclusive: self.gen.chance(2),
            }
        } else {
            let op = self.gen.pick(&CMPS);
            Predicate::Compare { op, value: value(self.gen) }
        }
    }

    fn scalar(&mut self, ty: Ty) -> ScalarValue {
        match ty {
            Ty::I64 => ScalarValue::I64(int_value(self.gen, 10, 3)),
            _ => ScalarValue::F64(float_value(self.gen)),
        }
    }

    /// Adds one random operator, if its inputs can be found.
    fn step(&mut self) -> Option<NodeId> {
        let numeric = [Ty::I64, Ty::F64];
        Some(match self.gen.below(11) {
            0 => {
                let col = self.any_column(&numeric)?;
                let (target, predicate) = (self.dom(col), self.predicate(self.ty(col)));
                let dom = self.fresh();
                self.add(OperatorSpec::Select { predicate }, vec![col], Kind::Oids { dom, target })
            }
            1 => {
                let cands = self.find(|k| matches!(k, Kind::Oids { .. }))?;
                let Kind::Oids { target, .. } = self.kinds[&cands] else { unreachable!() };
                let col = self.column(target, &numeric)?;
                let (predicate, dom) = (self.predicate(self.ty(col)), self.fresh());
                let kind = Kind::Oids { dom, target };
                self.add(OperatorSpec::Select { predicate }, vec![col, cands], kind)
            }
            2 => {
                let a = self.any_column(&numeric)?;
                let (dom, ty) = (self.dom(a), self.ty(a));
                let op = self.gen.pick(&OPS);
                let kind = Kind::Col { dom, ty, fk: false };
                match self.gen.below(4) {
                    0 => {
                        let s = self.scalar(ty);
                        let spec =
                            OperatorSpec::Calc { op, left_scalar: Some(s), right_scalar: None };
                        self.add(spec, vec![a], kind)
                    }
                    1 => {
                        let s = self.scalar(ty);
                        let spec =
                            OperatorSpec::Calc { op, left_scalar: None, right_scalar: Some(s) };
                        self.add(spec, vec![a], kind)
                    }
                    2 => {
                        let spec = OperatorSpec::Calc { op, left_scalar: None, right_scalar: None };
                        self.add(spec, vec![a, a], kind)
                    }
                    _ => {
                        let b = self.column(dom, &[ty])?;
                        let spec = OperatorSpec::Calc { op, left_scalar: None, right_scalar: None };
                        self.add(spec, vec![a, b], kind)
                    }
                }
            }
            3 => {
                let oids = self.find(|k| matches!(k, Kind::Oids { .. }))?;
                let Kind::Oids { dom, target } = self.kinds[&oids] else { unreachable!() };
                let col = self.column(target, &[Ty::I64, Ty::I32, Ty::F64, Ty::Bool])?;
                let Kind::Col { ty, fk, .. } = self.kinds[&col] else { unreachable!() };
                self.add(OperatorSpec::Fetch, vec![oids, col], Kind::Col { dom, ty, fk })
            }
            4 | 5 => {
                let outer = self.any_column(&KEYS)?;
                let inner = self.any_column(&KEYS)?;
                let (outer_dom, inner_dom) = (self.dom(outer), self.dom(inner));
                let table =
                    self.add(OperatorSpec::HashBuild, vec![inner], Kind::Table { pairs: true });
                let dom = self.fresh();
                let join =
                    self.add(OperatorSpec::HashProbe, vec![outer, table], Kind::Join { dom });
                let side = if self.gen.chance(2) { JoinSide::Outer } else { JoinSide::Inner };
                let target = if side == JoinSide::Outer { outer_dom } else { inner_dom };
                let spec = OperatorSpec::ProjectJoinSide { side };
                let projected = self.add(spec, vec![join], Kind::Oids { dom, target });
                if self.gen.chance(2) {
                    let col = self.column(target, &[Ty::I64, Ty::I32, Ty::F64])?;
                    let Kind::Col { ty, fk, .. } = self.kinds[&col] else { unreachable!() };
                    self.add(OperatorSpec::Fetch, vec![projected, col], Kind::Col { dom, ty, fk })
                } else {
                    projected
                }
            }
            6 => {
                let outer = self.any_column(&KEYS)?;
                let inner = self.any_column(&KEYS)?;
                let pairs = self.gen.chance(3);
                let spec = if pairs { OperatorSpec::HashBuild } else { OperatorSpec::KeySet };
                let table = self.add(spec, vec![inner], Kind::Table { pairs });
                // A key set runs in parts too: at offsets (some past its
                // rows, so some parts are empty) or in morsels of its own.
                if !pairs && self.gen.chance(2) {
                    let cuts = if self.gen.chance(2) {
                        let n = 1 + self.gen.below(4);
                        let mut at: Vec<usize> = (0..n).map(|_| self.gen.below(80)).collect();
                        at.sort_unstable();
                        at.dedup();
                        Cuts::At(at)
                    } else {
                        Cuts::Every(1 + self.gen.below(40))
                    };
                    self.plan.node_mut(table).expect("the key set was just added").cuts = cuts;
                }
                let spec = if self.gen.chance(2) {
                    OperatorSpec::SemiJoin
                } else {
                    OperatorSpec::AntiJoin
                };
                let (target, dom) = (self.dom(outer), self.fresh());
                self.add(spec, vec![outer, table], Kind::Oids { dom, target })
            }
            7 => {
                let keys = self.find(|k| matches!(k, Kind::Col { fk: true, .. }))?;
                let dom = self.dom(keys);
                let oids = self.add(
                    OperatorSpec::OidsFromColumn,
                    vec![keys],
                    Kind::Oids { dom, target: DIM },
                );
                let col = self.column(DIM, &[Ty::I64, Ty::F64])?;
                let ty = self.ty(col);
                self.add(OperatorSpec::Fetch, vec![oids, col], Kind::Col { dom, ty, fk: false })
            }
            8 => {
                let col = self.any_column(&numeric)?;
                let (dom, predicate) = (self.dom(col), self.predicate(self.ty(col)));
                let mask = Kind::Col { dom, ty: Ty::Bool, fk: false };
                let mask = self.add(OperatorSpec::PredMask { predicate }, vec![col], mask);
                if self.gen.chance(3) {
                    return Some(mask);
                }
                let then = self.column(dom, &numeric)?;
                let ty = self.ty(then);
                let otherwise = self.scalar(ty);
                let kind = Kind::Col { dom, ty, fk: false };
                self.add(OperatorSpec::IfThenElse { otherwise }, vec![mask, then], kind)
            }
            9 => {
                let keys = self.any_column(&[Ty::I64, Ty::I32, Ty::Bool])?;
                let values = self.column(self.dom(keys), &[Ty::I64])?;
                let func =
                    self.gen.pick(&[AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max]);
                self.add(OperatorSpec::GroupAgg { func }, vec![keys, values], Kind::Grouped)
            }
            _ => {
                let col = self.any_column(&numeric)?;
                // Float sums depend on the order partials merge in.
                let funcs: &[AggFunc] = match self.ty(col) {
                    Ty::I64 => &[AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max],
                    _ => &[AggFunc::Count, AggFunc::Min, AggFunc::Max],
                };
                let func = self.gen.pick(funcs);
                let partial = self.add(OperatorSpec::ScalarAgg { func }, vec![col], Kind::Partial);
                if self.gen.chance(4) {
                    return Some(partial);
                }
                self.add(OperatorSpec::FinalizeAgg { func }, vec![partial], Kind::Scalar)
            }
        })
    }
}

/// A seeded catalog and a valid serial plan over it.
fn generate(seed: u64) -> (Arc<Catalog>, Plan) {
    let mut gen = Gen(seed);
    let catalog = catalog(&mut gen);
    let mut b = Builder { gen: &mut gen, plan: Plan::new(), kinds: HashMap::new(), domains: 2 };
    let steps = 2 + b.gen.below(10);
    let mut last = None;
    for _ in 0..steps {
        last = b.step().or(last);
    }
    let root = match last {
        Some(root) if !matches!(b.kinds[&root], Kind::Table { .. }) => root,
        _ => b.column(FACT, &[Ty::I64]).expect("a fact column"),
    };
    b.plan.set_root(root);
    (catalog, b.plan)
}

// ------------------------------------------------------------ reference

/// One value of a reference column.
#[derive(Debug, Clone, Copy)]
enum V {
    I(i64),
    I32(i32),
    F(f64),
    B(bool),
}

impl V {
    fn scalar(self) -> ScalarValue {
        match self {
            V::I(v) => ScalarValue::I64(v),
            V::I32(v) => ScalarValue::I32(v),
            V::F(v) => ScalarValue::F64(v),
            V::B(v) => ScalarValue::Bool(v),
        }
    }

    fn int(self) -> i64 {
        match self {
            V::I(v) => v,
            V::I32(v) => i64::from(v),
            V::B(v) => i64::from(v),
            V::F(v) => panic!("float {v} used as an integer"),
        }
    }
}

/// A node's reference result. A column's rows, a stream's entries and a
/// build side's rows are numbered from 0: every node's output is whole.
#[derive(Debug, Clone)]
enum Val {
    Col(Vec<V>),
    Oids(Vec<usize>),
    Join(Vec<(usize, usize)>),
    /// A build side: its keys, by build row.
    Table(Vec<i64>),
    Partial(AggFunc, Vec<V>),
    Grouped(AggFunc, Vec<(GroupKey, V)>),
    Scalar(ScalarValue),
}

fn holds<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn matches(predicate: &Predicate, v: V) -> bool {
    let cmp = |op, c: &ScalarValue| match (v, c) {
        (V::I(v), ScalarValue::I64(c)) => holds(op, v, *c),
        (V::F(v), ScalarValue::F64(c)) => holds(op, v, *c),
        _ => panic!("predicate {predicate:?} over {v:?}"),
    };
    match predicate {
        Predicate::Compare { op, value } => cmp(*op, value),
        Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => {
            let lo_op = if *lo_inclusive { CmpOp::Ge } else { CmpOp::Gt };
            let hi_op = if *hi_inclusive { CmpOp::Le } else { CmpOp::Lt };
            cmp(lo_op, lo) && cmp(hi_op, hi)
        }
        other => panic!("the generator makes no {other:?}"),
    }
}

fn arith(op: BinaryOp, a: V, b: V) -> V {
    match (a, b) {
        (V::I(a), V::I(b)) => V::I(match op {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Div => panic!("the generator makes no division"),
        }),
        (V::F(a), V::F(b)) => V::F(match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => panic!("the generator makes no division"),
        }),
        _ => panic!("{op:?} over {a:?} and {b:?}"),
    }
}

fn scalar_v(s: &ScalarValue) -> V {
    match s {
        ScalarValue::I64(v) => V::I(*v),
        ScalarValue::F64(v) => V::F(*v),
        other => panic!("the generator makes no {other:?} scalar"),
    }
}

/// `AggState::finish` over `values`, one row at a time.
fn finish(func: AggFunc, values: &[V]) -> ScalarValue {
    let float = values.iter().any(|v| matches!(v, V::F(_)));
    let f = |v: &V| match v {
        V::F(x) => *x,
        other => other.int() as f64,
    };
    match func {
        AggFunc::Count => ScalarValue::I64(values.len() as i64),
        _ if values.is_empty() && func != AggFunc::Sum => ScalarValue::I64(0),
        AggFunc::Sum if float => panic!("the generator makes no float sum"),
        AggFunc::Sum => ScalarValue::I64(values.iter().fold(0i64, |s, v| s.wrapping_add(v.int()))),
        AggFunc::Min if float => {
            ScalarValue::F64(values.iter().map(f).fold(f64::INFINITY, f64::min))
        }
        AggFunc::Max if float => {
            ScalarValue::F64(values.iter().map(f).fold(f64::NEG_INFINITY, f64::max))
        }
        AggFunc::Min => ScalarValue::I64(values.iter().map(|v| v.int()).min().expect("rows")),
        AggFunc::Max => ScalarValue::I64(values.iter().map(|v| v.int()).max().expect("rows")),
        AggFunc::Avg => panic!("the generator makes no average"),
    }
}

fn column_values(column: &Column) -> Vec<V> {
    column
        .to_scalars()
        .into_iter()
        .map(|s| match s {
            ScalarValue::I64(v) => V::I(v),
            ScalarValue::I32(v) => V::I32(v),
            ScalarValue::F64(v) => V::F(v),
            ScalarValue::Bool(v) => V::B(v),
            other => panic!("the generator makes no {other:?} column"),
        })
        .collect()
}

/// Evaluates `plan` node by node, one row at a time, and returns the root's
/// output.
fn reference(plan: &Plan, catalog: &Catalog) -> QueryOutput {
    let mut results: HashMap<NodeId, Val> = HashMap::new();
    for id in plan.topo_order().expect("a valid plan") {
        let node = plan.node(id).expect("live node");
        let inputs: Vec<Val> = node.inputs.iter().map(|i| results[i].clone()).collect();
        results.insert(id, eval(&node.spec, inputs, catalog));
    }
    output(&results[&plan.root().expect("a root")])
}

fn eval(spec: &OperatorSpec, inputs: Vec<Val>, catalog: &Catalog) -> Val {
    let mut inputs = inputs.into_iter();
    let mut next = || inputs.next().expect("an input");
    match spec {
        OperatorSpec::ScanColumn { table, column } => {
            let column = catalog.table(table).and_then(|t| t.column(column)).expect("a column");
            Val::Col(column_values(column))
        }
        OperatorSpec::Select { predicate } => match (next(), inputs.next()) {
            (Val::Col(vals), None) => {
                Val::Oids((0..vals.len()).filter(|&i| matches(predicate, vals[i])).collect())
            }
            (Val::Col(vals), Some(Val::Oids(cands))) => {
                Val::Oids(cands.into_iter().filter(|&c| matches(predicate, vals[c])).collect())
            }
            other => panic!("select over {other:?}"),
        },
        OperatorSpec::PredMask { predicate } => match next() {
            Val::Col(vals) => {
                Val::Col(vals.into_iter().map(|v| V::B(matches(predicate, v))).collect())
            }
            other => panic!("predmask over {other:?}"),
        },
        OperatorSpec::IfThenElse { otherwise } => match (next(), next()) {
            (Val::Col(cond), Val::Col(then)) => {
                let pick =
                    |(c, t): (V, V)| if matches!(c, V::B(true)) { t } else { scalar_v(otherwise) };
                Val::Col(cond.into_iter().zip(then).map(pick).collect())
            }
            other => panic!("ifthenelse over {other:?}"),
        },
        OperatorSpec::Fetch => match (next(), next()) {
            (Val::Oids(oids), Val::Col(vals)) => {
                Val::Col(oids.into_iter().map(|o| vals[o]).collect())
            }
            other => panic!("fetch over {other:?}"),
        },
        OperatorSpec::HashBuild | OperatorSpec::KeySet => match next() {
            Val::Col(vals) => Val::Table(vals.into_iter().map(V::int).collect()),
            other => panic!("build over {other:?}"),
        },
        OperatorSpec::HashProbe => match (next(), next()) {
            (Val::Col(outer), Val::Table(keys)) => {
                let mut pairs = Vec::new();
                for (i, v) in outer.into_iter().enumerate() {
                    // Newest-inserted build row first.
                    for j in (0..keys.len()).rev().filter(|&j| keys[j] == v.int()) {
                        pairs.push((i, j));
                    }
                }
                Val::Join(pairs)
            }
            other => panic!("probe over {other:?}"),
        },
        OperatorSpec::SemiJoin | OperatorSpec::AntiJoin => match (next(), next()) {
            (Val::Col(outer), Val::Table(keys)) => {
                let semi = *spec == OperatorSpec::SemiJoin;
                Val::Oids(
                    (0..outer.len()).filter(|&i| keys.contains(&outer[i].int()) == semi).collect(),
                )
            }
            other => panic!("existence join over {other:?}"),
        },
        OperatorSpec::ProjectJoinSide { side } => match next() {
            Val::Join(pairs) => Val::Oids(
                pairs
                    .into_iter()
                    .map(|(o, i)| if *side == JoinSide::Outer { o } else { i })
                    .collect(),
            ),
            other => panic!("projection over {other:?}"),
        },
        OperatorSpec::OidsFromColumn => match next() {
            Val::Col(vals) => Val::Oids(
                vals.into_iter().map(|v| usize::try_from(v.int()).expect("an oid")).collect(),
            ),
            other => panic!("asoids over {other:?}"),
        },
        OperatorSpec::Calc { op, left_scalar, right_scalar } => {
            let Val::Col(first) = next() else { panic!("calc over a non-column") };
            Val::Col(match (left_scalar, right_scalar) {
                (Some(s), None) => first.into_iter().map(|v| arith(*op, scalar_v(s), v)).collect(),
                (None, Some(s)) => first.into_iter().map(|v| arith(*op, v, scalar_v(s))).collect(),
                _ => match next() {
                    Val::Col(second) => {
                        first.into_iter().zip(second).map(|(a, b)| arith(*op, a, b)).collect()
                    }
                    other => panic!("calc over {other:?}"),
                },
            })
        }
        OperatorSpec::ScalarAgg { func } => match next() {
            Val::Col(vals) => Val::Partial(*func, vals),
            other => panic!("aggregate over {other:?}"),
        },
        OperatorSpec::FinalizeAgg { func } => match next() {
            Val::Partial(_, vals) => Val::Scalar(finish(*func, &vals)),
            other => panic!("finalize over {other:?}"),
        },
        OperatorSpec::GroupAgg { func } => match (next(), next()) {
            (Val::Col(keys), Val::Col(vals)) => {
                let keys = keys.into_iter().map(|k| GroupKey::I64(k.int()));
                Val::Grouped(*func, keys.zip(vals).collect())
            }
            other => panic!("group-by over {other:?}"),
        },
        other => panic!("the generator makes no {other:?}"),
    }
}

fn output(val: &Val) -> QueryOutput {
    match val {
        Val::Col(vals) => QueryOutput::Column(vals.iter().map(|v| v.scalar()).collect()),
        Val::Oids(oids) => QueryOutput::Oids(oids.iter().map(|&o| o as u64).collect()),
        Val::Join(pairs) => {
            QueryOutput::JoinPairs(pairs.iter().map(|&(o, i)| (o as u64, i as u64)).collect())
        }
        Val::Partial(func, vals) => QueryOutput::Scalar(finish(*func, vals)),
        Val::Grouped(func, rows) => {
            let mut groups: Vec<(GroupKey, Vec<V>)> = Vec::new();
            for (key, v) in rows {
                match groups.iter_mut().find(|(k, _)| k == key) {
                    Some((_, vals)) => vals.push(*v),
                    None => groups.push((key.clone(), vec![*v])),
                }
            }
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            QueryOutput::Groups(
                groups.into_iter().map(|(k, vals)| (k, finish(*func, &vals))).collect(),
            )
        }
        Val::Scalar(s) => QueryOutput::Scalar(s.clone()),
        Val::Table(_) => panic!("a build side is never the root"),
    }
}

/// `output` in a form where every `NaN` equals every other and `-0.0`
/// equals `0.0`: a float minimum over both zeros may take either, and its
/// partitions may meet them in either order.
fn canonical(out: &QueryOutput) -> String {
    let zero = |s: &ScalarValue| match s {
        ScalarValue::F64(v) if *v == 0.0 => ScalarValue::F64(0.0),
        other => other.clone(),
    };
    match out {
        QueryOutput::Scalar(s) => format!("{:?}", zero(s)),
        QueryOutput::Column(vals) => format!("{:?}", vals.iter().map(zero).collect::<Vec<_>>()),
        QueryOutput::Groups(g) => {
            format!("{:?}", g.iter().map(|(k, v)| (k, zero(v))).collect::<Vec<_>>())
        }
        other => format!("{other:?}"),
    }
}

// ------------------------------------------------------------ the check

/// The forms every checked plan runs in: as built, and cut into morsels of
/// 7 and of 100 rows.
fn forms(plan: &Plan) -> [(String, Plan); 3] {
    let morsels = |rows: usize| (format!("morsels of {rows} rows"), plan.cut_into_morsels(rows));
    [("as built".to_string(), plan.clone()), morsels(7), morsels(100)]
}

/// Runs `plan` in every form and compares each output with `expected`, and
/// the reference's own evaluation of `plan` with it too.
fn check(label: &str, plan: &Plan, catalog: &Arc<Catalog>, engine: &Engine, expected: &str) {
    plan.validate().unwrap_or_else(|e| panic!("{label}: {e}\n{}", plan.pretty()));
    for (form, plan) in forms(plan) {
        let out = engine.execute(&plan, catalog).unwrap_or_else(|e| {
            panic!("{label}, {form}: {e}\n{}", plan.pretty());
        });
        assert_eq!(canonical(&out.output), expected, "{label}, {form}\n{}", plan.pretty());
    }
    assert_eq!(
        canonical(&reference(plan, catalog)),
        expected,
        "{label}: reference\n{}",
        plan.pretty()
    );
}

fn check_seed(seed: u64, engine: &Engine) {
    let (catalog, serial) = generate(seed);
    let expected = canonical(&reference(&serial, &catalog));
    check(&format!("seed {seed} serial"), &serial, &catalog, engine, &expected);
    for w in [2, 3] {
        let hp = heuristic_parallelize(&serial, &catalog, w).expect("HP builds");
        check(&format!("seed {seed} HP W = {w}"), &hp, &catalog, engine, &expected);
    }
    // Deterministic operator costs, so a seed replays its mutations.
    let mut gen = Gen(seed ^ 0xC0575);
    let config = AdaptiveConfig::for_cores(4).with_min_partition_rows(1 + gen.below(4));
    let mut plan = serial;
    for step in 1..=6 {
        let mut profile = engine.execute(&plan, &catalog).expect("runs").profile;
        for op in &mut profile.operators {
            for task in &mut op.tasks {
                task.us = 1 + gen.below(1_000) as u64;
            }
        }
        match mutate_most_expensive(&mut plan, &profile, &config).expect("mutates") {
            Some(_) => {
                check(&format!("seed {seed} mutant {step}"), &plan, &catalog, engine, &expected)
            }
            None => break,
        }
    }
}

#[test]
fn generated_plans_match_the_reference() {
    let engine = Engine::with_workers(2);
    for seed in 0..48 {
        check_seed(seed, &engine);
    }
}

/// The same check over more seeds; the optimised CI step runs it.
#[test]
#[ignore]
fn generated_plans_match_the_reference_over_many_seeds() {
    let engine = Engine::with_workers(2);
    for seed in 48..1_048 {
        check_seed(seed, &engine);
    }
}
