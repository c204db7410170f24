//! Intermediate results flowing along plan edges.
//!
//! # Candidate streams are zero-copy windowed views
//!
//! A *candidate stream* is an intermediate ordered by an oid list rather
//! than by base-table position (a fetch output, a join result, a projected
//! join side). Plan mutations cut such streams positionally, as the parts
//! of the nodes that stream them ([`crate::plan::PlanNode::cuts`]), and a
//! plan cut into morsels cuts them every so many rows; every cut is
//! [`Chunk::slice`]. Only the
//! stream-offset labels make slices position-safe, not any fixed stride.
//!
//! [`Chunk::Oids`] and [`Chunk::Join`] mirror what [`Column`] already is: an
//! `Arc`-shared backing plus an `(offset, len)` window ([`OidsView`] /
//! [`JoinView`]). Cutting a stream is therefore pure window arithmetic —
//! "creating slices involves marking the boundary ranges … there is no data
//! copying involved" (paper §2.3) now holds for candidate streams exactly as
//! it does for base columns, and [`OidsView::slice`] performs **zero heap
//! allocations** (pinned by `crates/engine/tests/zero_alloc_views.rs`).
//!
//! # The `stream_base` alignment invariant
//!
//! The invariant, introduced by the PR-1 correctness fix:
//!
//! > Every positional partition of a stream remembers its offset within the
//! > stream (`stream_base`), and every positionally-aligned output carries
//! > that offset forward.
//!
//! With windowed views the offset is no longer threaded by hand through
//! every cut: a view cut from a stream *derives* its `stream_base` from the
//! window position ([`OidsView::slice`] advances base and window offset in
//! lockstep), so the invariant holds by construction along slice chains.
//! The explicit label still exists — and matters — for views over *fresh*
//! backing at a non-zero stream position, where the backing offset is 0 but
//! the stream offset is not: a packed union of heterogeneous parts
//! ([`Chunk::oids_at`] / [`Chunk::join_at`]), and each part of a published
//! part list. The morsel driver does not pack a step's per-morsel outputs
//! back into one chunk; it publishes them in stream order, and every morsel
//! of a selection or a probe numbers its fresh output from 0. Publishing
//! relabels each part, zero-copy, with its offset within the step's stream
//! — the label the packed chunk's slice at that offset would carry — and a
//! fetch output's or a calc's base oid likewise. A projected join side is not fresh backing:
//! it is the join window itself seen through one of the result's two
//! `Arc`s, so it inherits window and stream offset alike.
//!
//! Fetch writes the offset into the output column's base oid
//! ([`apq_columnar::Column::base_oid`]); position-emitting consumers
//! (probes, selections) then emit *absolute* stream positions. Violating
//! the invariant does not crash — it silently pairs rows across the wrong
//! partitions (historically: group sums redistributed across groups; see
//! `crates/engine/tests/stream_alignment.rs` for the deterministic
//! regression and `docs/architecture.md` §6 for the full story).
//!
//! **New position-emitting operators must follow the same three rules:**
//! read the input's [`OidsView::stream_base`], emit `base + local index`,
//! and label any freshly-backed output via [`Chunk::oids_at`] /
//! [`Chunk::join_at`]. The exchange union `debug_assert`s that the parts it
//! packs — oid lists, join results and columns alike — are in consistent
//! stream order, and so does the driver of the parts it publishes.

use std::sync::Arc;

use apq_columnar::{Column, Oid, ScalarValue};
use apq_operators::{AggState, GroupKey, GroupedAgg, JoinHashTable, JoinResult, KeySetPart};

use crate::plan::JoinSide;

/// A zero-copy window over an `Arc`-shared candidate (oid) list — the
/// stream analogue of [`Column`]'s `(storage, offset, len)` view.
///
/// `stream_base` is the window's offset within the candidate *stream* it
/// belongs to: equal to the backing offset for windows cut from a fresh
/// stream, but independent of it for views over fresh backing at a non-zero
/// stream position (a packed union of stream parts).
/// [`OidsView::slice`] advances both in lockstep, so stream offsets are
/// *derived* along slice chains rather than threaded by hand.
#[derive(Debug, Clone)]
pub struct OidsView {
    data: Arc<Vec<Oid>>,
    offset: usize,
    len: usize,
    stream_base: Oid,
}

impl OidsView {
    /// A fresh candidate list (stream offset 0), viewing all of it.
    pub fn new(oids: Vec<Oid>) -> Self {
        OidsView::at(oids, 0)
    }

    /// A full view of fresh backing sitting at `stream_base` within its
    /// stream (e.g. a packed union of stream parts).
    pub fn at(oids: Vec<Oid>, stream_base: Oid) -> Self {
        let len = oids.len();
        OidsView { data: Arc::new(oids), offset: 0, len, stream_base }
    }

    /// The visible oids.
    pub fn as_slice(&self) -> &[Oid] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Number of visible oids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window covers no oids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of the window within the backing list.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Offset of the window within its candidate stream.
    pub fn stream_base(&self) -> Oid {
        self.stream_base
    }

    /// Cuts a sub-window: pure window arithmetic, no allocation. `start` and
    /// `len` are clamped to the visible window (the boundary adjustment of
    /// paper Fig. 9 for dynamically sized partitions). The sub-window's
    /// `stream_base` advances by the (clamped) start, preserving the
    /// alignment invariant by construction.
    pub fn slice(&self, start: usize, len: usize) -> OidsView {
        let end = start.saturating_add(len).min(self.len);
        let start = start.min(end);
        OidsView {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
            stream_base: self.stream_base + start as Oid,
        }
    }

    /// The same window labelled at `stream_base` within its stream: how a
    /// part of a published part list takes the label of the packed chunk's
    /// slice it stands for. No allocation.
    pub(crate) fn rebased(self, stream_base: Oid) -> OidsView {
        OidsView { stream_base, ..self }
    }

    /// True when both views window the same backing allocation.
    pub fn shares_backing_with(&self, other: &OidsView) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// True when `next` is the window immediately following `self` in the
    /// same backing *and* the same stream — the reassembly fast-path test:
    /// packing `self ++ next` equals widening `self` over both windows.
    pub fn is_contiguous_with(&self, next: &OidsView) -> bool {
        self.shares_backing_with(next)
            && next.offset == self.offset + self.len
            && next.stream_base == self.stream_base + self.len as Oid
    }

    /// The parent window covering `len` elements from this view's start —
    /// the zero-copy reassembly of consecutive windows. `len` must fit the
    /// backing.
    pub fn widened(&self, len: usize) -> OidsView {
        debug_assert!(self.offset + len <= self.data.len(), "widened window exceeds backing");
        OidsView {
            data: Arc::clone(&self.data),
            offset: self.offset,
            len,
            stream_base: self.stream_base,
        }
    }
}

/// A zero-copy window over an `Arc`-shared join result: an [`OidsView`]
/// over the outer side, whose window and stream offset the inner side
/// shares, plus the inner side's backing. All window arithmetic — and so the
/// `stream_base` invariant — is the outer view's.
///
/// The two sides are separate `Arc`s, so projecting one side
/// (`ProjectJoinSide`) is an [`OidsView`] over that side's backing — the same
/// window, no copy.
#[derive(Debug, Clone)]
pub struct JoinView {
    outer: OidsView,
    inner: Arc<Vec<Oid>>,
}

impl JoinView {
    /// A fresh join result (stream offset 0), viewing all of it.
    pub fn new(result: JoinResult) -> Self {
        JoinView::at(result, 0)
    }

    /// A full view of a fresh join result sitting at `stream_base` within
    /// its join-result stream.
    pub fn at(result: JoinResult, stream_base: Oid) -> Self {
        JoinView {
            outer: OidsView::at(result.outer_oids, stream_base),
            inner: Arc::new(result.inner_oids),
        }
    }

    /// The visible outer-side oids.
    pub fn outer(&self) -> &[Oid] {
        self.outer.as_slice()
    }

    /// The visible inner-side oids.
    pub fn inner(&self) -> &[Oid] {
        &self.inner[self.offset()..self.offset() + self.len()]
    }

    /// One side of the visible pairs as a candidate-list view over the join
    /// result's own backing: same window, same stream offset, no copy. Side
    /// views of consecutive join windows are themselves consecutive
    /// ([`OidsView::is_contiguous_with`]).
    pub(crate) fn side(&self, side: JoinSide) -> OidsView {
        match side {
            JoinSide::Outer => self.outer.clone(),
            JoinSide::Inner => OidsView { data: Arc::clone(&self.inner), ..self.outer.clone() },
        }
    }

    /// Number of visible pairs.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// True when the window covers no pairs.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// Offset of the window within the backing join result.
    pub fn offset(&self) -> usize {
        self.outer.offset()
    }

    /// Offset of the window within its join-result stream.
    pub fn stream_base(&self) -> Oid {
        self.outer.stream_base()
    }

    /// Cuts a sub-window: window arithmetic only, no allocation, clamped
    /// like [`OidsView::slice`].
    pub fn slice(&self, start: usize, len: usize) -> JoinView {
        JoinView { outer: self.outer.slice(start, len), inner: Arc::clone(&self.inner) }
    }

    /// The same window labelled at `stream_base` (see [`OidsView::rebased`]).
    pub(crate) fn rebased(self, stream_base: Oid) -> JoinView {
        JoinView { outer: self.outer.rebased(stream_base), inner: self.inner }
    }

    /// True when both views window the same backing allocation.
    pub fn shares_backing_with(&self, other: &JoinView) -> bool {
        self.outer.shares_backing_with(&other.outer) && Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// True when `next` immediately follows `self` in the same backing and
    /// the same stream (see [`OidsView::is_contiguous_with`]).
    pub fn is_contiguous_with(&self, next: &JoinView) -> bool {
        self.outer.is_contiguous_with(&next.outer) && Arc::ptr_eq(&self.inner, &next.inner)
    }

    /// The parent window covering `len` pairs from this view's start.
    pub fn widened(&self, len: usize) -> JoinView {
        JoinView { outer: self.outer.widened(len), inner: Arc::clone(&self.inner) }
    }
}

/// One materialized intermediate result (the output of a plan node).
///
/// Everything large is behind an `Arc` so that fan-out edges (one producer,
/// many consumers) never copy data, and the stream variants are windowed
/// views so that positional cuts never copy either.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// A value column (base slice or computed intermediate).
    Column(Column),
    /// A windowed view of a candidate list of absolute oids.
    ///
    /// The view's `stream_base` is its offset within the candidate *stream*
    /// it belongs to: `0` for a freshly produced list, `k` for a window of
    /// one starting at row `k`. Operators whose outputs
    /// are positionally aligned with the candidate stream (fetch) propagate
    /// it into their output column's base oid, so that plan mutations may
    /// clone position-emitting consumers (joins, selects) over partitions of
    /// a stream without the partitions forgetting where in the stream they
    /// came from (paper §2.3 alignment).
    Oids(OidsView),
    /// A windowed view of matching `(outer, inner)` oid pairs of a join,
    /// with the same stream-offset semantics as [`Chunk::Oids`].
    Join(JoinView),
    /// A shared join hash table (build side).
    Hash(Arc<JoinHashTable>),
    /// A part of a key set built in parts: a piece's [`KeySetPart`], which
    /// the step merges with its other pieces' as it folds them and publishes
    /// finished, as the [`Chunk::Hash`] of the whole key set.
    KeySet(Arc<KeySetPart>),
    /// A mergeable partial scalar aggregate.
    AggPartial(AggState),
    /// A mergeable grouped aggregate.
    Grouped(Arc<GroupedAgg>),
    /// A final scalar value.
    Scalar(ScalarValue),
}

impl Chunk {
    /// A fresh candidate list (stream offset 0).
    pub fn oids(oids: Vec<Oid>) -> Self {
        Chunk::Oids(OidsView::new(oids))
    }

    /// A candidate list cut from a stream at `stream_base`.
    pub fn oids_at(oids: Vec<Oid>, stream_base: Oid) -> Self {
        Chunk::Oids(OidsView::at(oids, stream_base))
    }

    /// A fresh join result (stream offset 0).
    pub fn join(result: JoinResult) -> Self {
        Chunk::Join(JoinView::new(result))
    }

    /// A join-result window cut from a stream at `stream_base`.
    pub fn join_at(result: JoinResult, stream_base: Oid) -> Self {
        Chunk::Join(JoinView::at(result, stream_base))
    }

    /// The oid view, when this chunk is a candidate list.
    pub fn as_oids_view(&self) -> Option<&OidsView> {
        match self {
            Chunk::Oids(v) => Some(v),
            _ => None,
        }
    }

    /// The join view, when this chunk is a join result.
    pub fn as_join_view(&self) -> Option<&JoinView> {
        match self {
            Chunk::Join(v) => Some(v),
            _ => None,
        }
    }

    /// Rows `[start, start + len)` of a positional chunk (a column, an oid
    /// list or a join result), clamped to its length (the boundary
    /// adjustment of paper Fig. 9), or `None` for any other kind. The
    /// executor's one cut, for cut ranges and morsels alike: pure window
    /// arithmetic with **zero heap allocations** (pinned by
    /// `crates/engine/tests/zero_alloc_views.rs`) that keeps absolute oids
    /// and `stream_base` labels.
    pub fn slice(&self, start: usize, len: usize) -> Option<Chunk> {
        match self {
            Chunk::Column(c) => {
                let end = start.saturating_add(len).min(c.len());
                let start = start.min(end);
                Some(Chunk::Column(c.slice(start, end - start).expect("clamped to the column")))
            }
            Chunk::Oids(view) => Some(Chunk::Oids(view.slice(start, len))),
            Chunk::Join(view) => Some(Chunk::Join(view.slice(start, len))),
            _ => None,
        }
    }

    /// Short kind name (used in error messages and plan dumps).
    pub fn kind(&self) -> &'static str {
        match self {
            Chunk::Column(_) => "column",
            Chunk::Oids(_) => "oids",
            Chunk::Join(_) => "join",
            Chunk::Hash(_) => "hash",
            Chunk::KeySet(_) => "key-set-part",
            Chunk::AggPartial(_) => "agg-partial",
            Chunk::Grouped(_) => "grouped",
            Chunk::Scalar(_) => "scalar",
        }
    }

    /// Number of rows represented by this chunk (the visible window for
    /// stream views).
    pub fn rows(&self) -> usize {
        match self {
            Chunk::Column(c) => c.len(),
            Chunk::Oids(v) => v.len(),
            Chunk::Join(v) => v.len(),
            Chunk::Hash(h) => h.len(),
            Chunk::KeySet(part) => part.len(),
            Chunk::AggPartial(_) | Chunk::Scalar(_) => 1,
            Chunk::Grouped(g) => g.len(),
        }
    }

    /// Converts the chunk into the comparable [`QueryOutput`] representation.
    pub fn to_output(&self) -> QueryOutput {
        match self {
            Chunk::Scalar(v) => QueryOutput::Scalar(v.clone()),
            Chunk::Grouped(g) => QueryOutput::Groups(g.finish_sorted()),
            Chunk::AggPartial(s) => QueryOutput::Scalar(s.finish()),
            Chunk::Oids(v) => QueryOutput::Oids(v.as_slice().to_vec()),
            Chunk::Column(c) => QueryOutput::Column(c.to_scalars()),
            Chunk::Join(v) => QueryOutput::JoinPairs(
                v.outer().iter().copied().zip(v.inner().iter().copied()).collect(),
            ),
            Chunk::Hash(h) => QueryOutput::Opaque(format!("hash-table({} entries)", h.len())),
            Chunk::KeySet(part) => {
                QueryOutput::Opaque(format!("key-set-part({} entries)", part.len()))
            }
        }
    }
}

/// Canonical, comparable representation of a query result.
///
/// Adaptive, heuristic and serial plans for the same query must produce equal
/// `QueryOutput`s — the integration tests and the optimizer's sanity checks
/// rely on this.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A single scalar (e.g. TPC-H Q6 revenue, Q14 promo share).
    Scalar(ScalarValue),
    /// Sorted `(group, value)` pairs of a grouped aggregate.
    Groups(Vec<(GroupKey, ScalarValue)>),
    /// A candidate list.
    Oids(Vec<Oid>),
    /// A materialized column.
    Column(Vec<ScalarValue>),
    /// Join pairs.
    JoinPairs(Vec<(Oid, Oid)>),
    /// Something that has no natural value representation.
    Opaque(String),
}

impl QueryOutput {
    /// Number of result rows.
    pub fn rows(&self) -> usize {
        match self {
            QueryOutput::Scalar(_) => 1,
            QueryOutput::Groups(g) => g.len(),
            QueryOutput::Oids(o) => o.len(),
            QueryOutput::Column(c) => c.len(),
            QueryOutput::JoinPairs(p) => p.len(),
            QueryOutput::Opaque(_) => 0,
        }
    }

    /// Compact single-line rendering for experiment logs.
    pub fn summary(&self) -> String {
        match self {
            QueryOutput::Scalar(v) => format!("scalar {v}"),
            QueryOutput::Groups(g) => {
                let head: Vec<String> = g.iter().take(3).map(|(k, v)| format!("{k}={v}")).collect();
                format!(
                    "{} groups [{}{}]",
                    g.len(),
                    head.join(", "),
                    if g.len() > 3 { ", ..." } else { "" }
                )
            }
            QueryOutput::Oids(o) => format!("{} oids", o.len()),
            QueryOutput::Column(c) => format!("{} rows", c.len()),
            QueryOutput::JoinPairs(p) => format!("{} join pairs", p.len()),
            QueryOutput::Opaque(s) => s.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_operators::AggFunc;

    #[test]
    fn kinds_and_rows() {
        let col = Chunk::Column(Column::from_i64(vec![1, 2, 3]));
        assert_eq!(col.kind(), "column");
        assert_eq!(col.rows(), 3);

        let oids = Chunk::oids(vec![1, 2]);
        assert_eq!(oids.kind(), "oids");
        assert_eq!(oids.rows(), 2);

        let scalar = Chunk::Scalar(ScalarValue::I64(7));
        assert_eq!(scalar.rows(), 1);
        assert_eq!(scalar.kind(), "scalar");

        let agg = Chunk::AggPartial(AggState::new(AggFunc::Sum));
        assert_eq!(agg.rows(), 1);
    }

    #[test]
    fn oids_view_windows_share_backing() {
        let parent = OidsView::new((0..100).collect());
        assert_eq!(parent.len(), 100);
        assert_eq!(parent.stream_base(), 0);

        let a = parent.slice(10, 30);
        assert_eq!(a.as_slice(), (10..40).collect::<Vec<Oid>>());
        assert_eq!(a.offset(), 10);
        assert_eq!(a.stream_base(), 10);
        assert!(a.shares_backing_with(&parent));

        // Nested slice: offsets and bases accumulate.
        let b = a.slice(5, 10);
        assert_eq!(b.as_slice(), (15..25).collect::<Vec<Oid>>());
        assert_eq!(b.stream_base(), 15);
        assert!(b.shares_backing_with(&parent));

        // Clamping: overshoot is trimmed, far starts become empty windows.
        let tail = parent.slice(90, 50);
        assert_eq!(tail.len(), 10);
        let empty = parent.slice(200, 10);
        assert!(empty.is_empty());
        assert_eq!(empty.stream_base(), 100);
    }

    #[test]
    fn oids_view_contiguity_and_widening() {
        let parent = OidsView::new((0..100).collect());
        let a = parent.slice(0, 40);
        let b = parent.slice(40, 35);
        let c = parent.slice(75, 25);
        assert!(a.is_contiguous_with(&b));
        assert!(b.is_contiguous_with(&c));
        assert!(!a.is_contiguous_with(&c));
        // A fresh list with identical values is a different backing.
        let alien = OidsView::at((40..75).collect(), 40);
        assert!(!a.is_contiguous_with(&alien));

        let whole = a.widened(100);
        assert_eq!(whole.as_slice(), parent.as_slice());
        assert_eq!(whole.stream_base(), 0);
    }

    #[test]
    fn join_view_windows() {
        let jr = JoinResult { outer_oids: (0..50).collect(), inner_oids: (100..150).collect() };
        let parent = JoinView::new(jr);
        assert_eq!(parent.len(), 50);

        let w = parent.slice(10, 20);
        assert_eq!(w.outer(), (10..30).collect::<Vec<Oid>>());
        assert_eq!(w.inner(), (110..130).collect::<Vec<Oid>>());
        assert_eq!(w.stream_base(), 10);
        assert_eq!(w.offset(), 10);
        assert!(w.shares_backing_with(&parent));

        let rest = parent.slice(30, 99);
        assert_eq!(rest.len(), 20);
        assert!(w.is_contiguous_with(&rest));
        assert_eq!(w.widened(40).outer(), (10..50).collect::<Vec<Oid>>());
    }

    #[test]
    fn slice_clamps() {
        let col = Chunk::Column(Column::from_i64(vec![1, 2, 3, 4, 5]));
        let sliced = col.slice(2, 10).unwrap();
        assert_eq!(sliced.rows(), 3);
        // A column window keeps absolute base oids.
        assert!(matches!(&sliced, Chunk::Column(c) if c.base_oid() == 2));
        let oids = Chunk::oids(vec![9, 8, 7]);
        let sliced = oids.slice(1, 1).unwrap();
        assert_eq!(sliced.to_output(), QueryOutput::Oids(vec![8]));
        let join = Chunk::join(JoinResult { outer_oids: vec![1, 2], inner_oids: vec![3, 4] });
        let sliced = join.slice(0, 1).unwrap();
        assert_eq!(sliced.rows(), 1);
        let scalar = Chunk::Scalar(ScalarValue::I64(1));
        assert!(scalar.slice(0, 1).is_none());

        // `start + len` past `usize::MAX` saturates to the tail on every
        // positional kind instead of overflowing.
        let col = Chunk::Column(Column::from_i64(vec![1, 2, 3]));
        match &col.slice(1, usize::MAX).unwrap() {
            Chunk::Column(c) => assert_eq!(c.i64_values().unwrap(), &[2, 3]),
            other => panic!("unexpected {other:?}"),
        }
        let oids = Chunk::oids(vec![9, 8, 7]);
        let sliced = oids.slice(1, usize::MAX).unwrap();
        assert_eq!(sliced.to_output(), QueryOutput::Oids(vec![8, 7]));
        let join = Chunk::join(JoinResult { outer_oids: vec![1, 2, 3], inner_oids: vec![4, 5, 6] });
        match join.slice(1, usize::MAX).unwrap() {
            Chunk::Join(v) => assert_eq!((v.outer(), v.inner()), (&[2, 3][..], &[5, 6][..])),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn outputs_compare() {
        let a = Chunk::Column(Column::from_i64(vec![1, 2])).to_output();
        let b = Chunk::Column(Column::from_i64(vec![1, 2])).to_output();
        let c = Chunk::Column(Column::from_i64(vec![2, 1])).to_output();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.rows(), 2);

        let s = Chunk::Scalar(ScalarValue::I64(3)).to_output();
        assert_eq!(s, QueryOutput::Scalar(ScalarValue::I64(3)));
        assert_eq!(s.rows(), 1);
        assert!(s.summary().contains('3'));
    }

    #[test]
    fn join_and_hash_outputs() {
        let inner = Column::from_i64(vec![1, 2]);
        let ht = JoinHashTable::build(&inner).unwrap();
        let out = Chunk::Hash(Arc::new(ht)).to_output();
        assert!(matches!(out, QueryOutput::Opaque(_)));
        assert_eq!(out.rows(), 0);

        let jr = JoinResult { outer_oids: vec![0, 1], inner_oids: vec![5, 6] };
        let out = Chunk::join(jr).to_output();
        assert_eq!(out, QueryOutput::JoinPairs(vec![(0, 5), (1, 6)]));
        assert!(out.summary().contains("2 join pairs"));
    }

    #[test]
    fn groups_summary() {
        let keys = Column::from_i64(vec![1, 1, 2, 3, 4]);
        let vals = Column::from_i64(vec![1, 1, 1, 1, 1]);
        let g = apq_operators::grouped_agg(AggFunc::Count, &keys, &vals).unwrap();
        let out = Chunk::Grouped(Arc::new(g)).to_output();
        assert_eq!(out.rows(), 4);
        assert!(out.summary().contains("4 groups"));
        assert!(out.summary().contains("..."));
    }
}
