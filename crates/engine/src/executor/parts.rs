//! A published result as its step left it: an ordered list of parts.
//!
//! A step that runs as more than one piece of work — the ranges its head's
//! cuts and the morsel grid make, and the pieces a range splits into where
//! its inputs' parts end — does not pack its outputs back into one chunk. It
//! publishes them as a [`Parts`] list, in stream order, and a consumer that
//! streams the list (or zips it as a range-aligned input) reads each part
//! where it lies: "creating slices involves marking the boundary ranges …
//! there is no data copying involved" (paper §2.3) then holds between steps
//! as well as inside one.
//!
//! Every read of a list equals the same read of the chunk packing it makes
//! ([`Parts::pack`]): part *i* is relabelled at publish so that it *is*
//! `packed.slice(offset_i, len_i)` — the same values and the same
//! `stream_base` / base oid. Only a read that needs the whole chunk (a
//! whole-node step's inputs, a shared input such as a fetch's looked-up
//! column or a probe's build side, and the root) packs, once, in the result
//! slot. Parts under half a morsel — a selective producer's — are packed
//! together cell by cell on the readers' morsel grid as they are folded into
//! the list ([`Folder`]), so no reader runs its stages over a few rows at a
//! time; the folding stays within one cut range, so a cut step publishes at
//! least one part per range and its readers can adopt them.
//!
//! The list is the driver's own: kernels never see it, only the chunks it
//! hands them.

use std::sync::Arc;

use apq_columnar::Oid;
use apq_operators::KeySetPart;

use crate::chunk::Chunk;
use crate::error::Result;
use crate::interpreter::exchange_union;
use crate::plan::NodeId;

/// True for chunks addressed by row position, which [`Chunk::slice`] cuts.
pub(super) fn is_positional(chunk: &Chunk) -> bool {
    matches!(chunk, Chunk::Column(_) | Chunk::Oids(_) | Chunk::Join(_))
}

/// The position label of a positional chunk: a column's base oid or a
/// stream's `stream_base`.
fn label(chunk: &Chunk) -> Oid {
    match chunk {
        Chunk::Column(c) => c.base_oid(),
        Chunk::Oids(v) => v.stream_base(),
        Chunk::Join(v) => v.stream_base(),
        _ => 0,
    }
}

/// `chunk` with its position label set to `base`, zero-copy.
fn relabelled(chunk: Chunk, base: Oid) -> Chunk {
    match chunk {
        Chunk::Column(c) => Chunk::Column(c.with_base_oid(base)),
        Chunk::Oids(v) => Chunk::Oids(v.rebased(base)),
        Chunk::Join(v) => Chunk::Join(v.rebased(base)),
        other => other,
    }
}

/// One node's published result: its parts in stream order.
///
/// Never empty. More than one part only for a positional kind, and then a
/// part is empty only where a cut range has no rows; partial aggregates,
/// key sets and other kinds are always one part.
#[derive(Debug, Clone)]
pub(super) struct Parts {
    chunks: Vec<Chunk>,
}

impl Parts {
    /// The list a step publishes from its pieces' terminal outputs, given in
    /// stream order: all of them pushed through one [`Folder`].
    pub fn publish(node: NodeId, chunks: Vec<Chunk>, cell_rows: Option<usize>) -> Result<Parts> {
        let mut folder = Folder::new(node, cell_rows);
        for chunk in chunks {
            folder.push(chunk)?;
        }
        folder.finish()
    }

    /// The parts, in stream order.
    #[cfg(test)]
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Rows of the whole list.
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(Chunk::rows).sum()
    }

    /// True when the parts are positional and can be windowed.
    pub fn is_positional(&self) -> bool {
        is_positional(&self.chunks[0])
    }

    /// Where each part ends, in rows from the list's start.
    pub fn ends(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().scan(0, |end, chunk| {
            *end += chunk.rows();
            Some(*end)
        })
    }

    /// Rows `[start, start + len)`, clamped to the list like
    /// [`Chunk::slice`], as the sub-list of the parts they cover, each cut
    /// zero-copy; `None` for a non-positional kind. An empty window is one
    /// empty part carrying the label the packed chunk's empty slice would.
    pub fn window(&self, start: usize, len: usize) -> Option<Parts> {
        if !self.is_positional() {
            return None;
        }
        let end = start.saturating_add(len).min(self.rows());
        let start = start.min(end);
        let mut chunks = Vec::new();
        let mut at = 0;
        for part in &self.chunks {
            let rows = part.rows();
            let (lo, hi) = (start.max(at), end.min(at + rows));
            if lo < hi || (start == end && start <= at + rows) {
                chunks.push(part.slice(lo - at, hi - lo)?);
                if start == end {
                    break;
                }
            }
            at += rows;
        }
        Some(Parts { chunks })
    }

    /// Rows `[start, start + len)`, clamped like [`Parts::window`], as one
    /// zero-copy chunk when they lie within one part (an empty window lies
    /// within the part it starts in); `None` when they straddle parts or the
    /// kind cannot be cut.
    pub fn piece(&self, start: usize, len: usize) -> Option<Chunk> {
        let end = start.saturating_add(len).min(self.rows());
        let (start, len) = (start.min(end), end - start.min(end));
        let mut at = 0;
        for part in &self.chunks {
            let rows = part.rows();
            if start + len <= at + rows {
                return (start >= at).then(|| part.slice(start - at, len)).flatten();
            }
            at += rows;
        }
        None
    }

    /// The whole chunk: the parts packed in order ([`exchange_union`]),
    /// which then replaces them, so a list packs at most once.
    pub fn pack(&mut self, node: NodeId) -> Result<Chunk> {
        if self.chunks.len() > 1 {
            self.chunks = vec![exchange_union(node, &self.chunks)?];
        }
        Ok(self.chunks[0].clone())
    }
}

/// `chunks` as one part: partial aggregates merged, positional parts packed,
/// both by [`exchange_union`] in order. Does nothing to a single chunk.
pub(super) fn merged(node: NodeId, chunks: Vec<Chunk>) -> Result<Vec<Chunk>> {
    match chunks.len() {
        1 => Ok(chunks),
        _ => Ok(vec![exchange_union(node, &chunks)?]),
    }
}

/// Builds a step's part list from its pieces' terminal outputs, pushed in
/// stream order — by the morsel driver as soon as every earlier morsel's
/// outputs are in, so most of the folding runs while later morsels still
/// execute.
///
/// A key set's parts are merged as they are pushed ([`absorb`]), and
/// [`Folder::finish`] publishes the merged part finished
/// ([`KeySetPart::finish`]): exactly the key set of the keys packed, and
/// never a pack of them. Partial aggregates are kept to merge into one part
/// at [`Folder::finish`], as the packed chunk would; so are the parts of a
/// list only ever read whole (`cell_rows` `None`), which it packs into one. Every other
/// positional part takes the label of the packed chunk's slice at its
/// offset, zero-copy, so part *i* equals `packed.slice(offset_i, len_i)`,
/// and is folded on a grid of `cell_rows`-row cells over the rows of its
/// cut range. A part of at least half a cell stays as it is. Smaller parts
/// are packed together cell by cell — one cut zero-copy where it crosses a
/// cell's edge — since a consumer runs its stages once per part it reads,
/// and a selective producer's part of a few thousand rows would pay each
/// kernel's per-call setup (an output reservation, a dictionary walk, a
/// group table) in every step that reads it. Packed on its readers' morsel
/// grid, the list is cut by them into their morsels and nothing finer. No
/// cell spans a cut ([`Folder::cut`]). Empty parts go, except that each cut
/// range keeps one; one stays if all are empty.
pub(super) struct Folder {
    node: NodeId,
    cell_rows: Option<usize>,
    /// The first chunk pushed, the list's kind and its first label.
    first: Option<Chunk>,
    /// The folded parts, or every chunk pushed when the list is merged or
    /// packed whole at the end.
    parts: Vec<Chunk>,
    /// The small parts of the current cell not yet packed.
    run: Vec<Chunk>,
    /// Rows pushed so far.
    at: usize,
    /// Where the current cut range starts, in rows and in parts.
    range_at: usize,
    range_parts: usize,
    /// Whether the list has cuts, so its last range keeps a part too.
    cut: bool,
    /// Whether the labels pushed are all 0 (fresh streams) or run on from
    /// part to part: the stream order the relabelling relies on.
    fresh: bool,
    consecutive: bool,
    /// The label the next chunk continues from, when consecutive.
    next_label: Oid,
    /// A key set's parts merged so far.
    key_set: Option<KeySetPart>,
}

impl Folder {
    /// An empty list of `node`'s parts, folded on `cell_rows`-row cells, or
    /// packed whole with `None`.
    pub fn new(node: NodeId, cell_rows: Option<usize>) -> Folder {
        Folder {
            node,
            cell_rows: cell_rows.map(|rows| rows.max(1)),
            first: None,
            parts: Vec::new(),
            run: Vec::new(),
            at: 0,
            range_at: 0,
            range_parts: 0,
            cut: false,
            fresh: true,
            consecutive: true,
            next_label: 0,
            key_set: None,
        }
    }

    /// Appends the next output in stream order.
    pub fn push(&mut self, chunk: Chunk) -> Result<()> {
        if let Chunk::KeySet(part) = chunk {
            absorb(&mut self.key_set, part);
            return Ok(());
        }
        let first = self.first.get_or_insert_with(|| chunk.clone());
        let Some(cell_rows) = self.cell_rows.filter(|_| is_positional(first)) else {
            self.parts.push(chunk);
            return Ok(());
        };
        let (rows, raw) = (chunk.rows(), label(&chunk));
        self.fresh &= raw == 0;
        self.consecutive &= self.at == 0 || raw == self.next_label;
        self.next_label = raw + rows as Oid;
        // The relabelling continues the first part's label: right only when
        // the parts are fresh streams or consecutive windows of one, which
        // is what the exchange union asserts of the parts it packs.
        debug_assert!(
            self.fresh || self.consecutive,
            "node {}: published parts are not in stream order",
            self.node
        );
        let chunk = relabelled(chunk, label(first) + self.at as Oid);
        self.at += rows;
        if rows == 0 {
            return Ok(());
        }
        if rows >= cell_rows.div_ceil(2) {
            self.flush()?;
            self.parts.push(chunk);
            return Ok(());
        }
        let (mut rest, mut at) = (chunk, self.at - rows);
        loop {
            let (rows, room) = (rest.rows(), cell_rows - (at - self.range_at) % cell_rows);
            if rows < room {
                self.run.push(rest);
                return Ok(());
            }
            self.run.push(rest.slice(0, room).expect("a positional part"));
            self.flush()?;
            if rows == room {
                return Ok(());
            }
            rest = rest.slice(room, rows - room).expect("a positional part");
            at += room;
        }
    }

    /// Packs the current cell's small parts into one part.
    fn flush(&mut self) -> Result<()> {
        match self.run.len() {
            0 | 1 => self.parts.extend(self.run.pop()),
            _ => self.parts.push(exchange_union(self.node, &std::mem::take(&mut self.run))?),
        }
        Ok(())
    }

    /// Closes the current cut range: the outputs pushed next are never
    /// packed with it, and it keeps one part, an empty one if it has no
    /// rows. Does nothing to a list that is merged or packed whole.
    pub fn cut(&mut self) -> Result<()> {
        let Some(first) =
            self.first.clone().filter(|f| self.cell_rows.is_some() && is_positional(f))
        else {
            return Ok(());
        };
        self.flush()?;
        if self.parts.len() == self.range_parts {
            let empty = first.slice(0, 0).expect("a positional part");
            self.parts.push(relabelled(empty, label(&first) + self.at as Oid));
        }
        (self.range_at, self.range_parts, self.cut) = (self.at, self.parts.len(), true);
        Ok(())
    }

    /// The finished list.
    pub fn finish(mut self) -> Result<Parts> {
        if let Some(key_set) = self.key_set {
            return Ok(Parts { chunks: vec![Chunk::Hash(Arc::new(key_set.finish()?))] });
        }
        if self.cut {
            self.cut()?;
        }
        let first = self.first.take().expect("a step publishes at least one output");
        let chunks = match self.cell_rows.filter(|_| is_positional(&first)) {
            Some(_) => {
                self.flush()?;
                if self.parts.is_empty() {
                    self.parts.push(first);
                }
                self.parts
            }
            None => merged(self.node, self.parts)?,
        };
        Ok(Parts { chunks })
    }
}

/// Merges a key-set part into `merged`, the parts before it
/// ([`KeySetPart::absorb`]): its keys' bits are set in `merged`'s bitmap, or
/// its bitmap is OR'd in at its word offset.
pub(super) fn absorb(merged: &mut Option<KeySetPart>, part: Arc<KeySetPart>) {
    match merged {
        Some(merged) => merged.absorb(&part),
        None => *merged = Some(Arc::unwrap_or_clone(part)),
    }
}

/// Cuts `[0, len)` into pieces at every boundary in `ends` (part ends
/// relative to the same start, in any order, duplicates allowed), so that
/// no piece straddles a part of any list the ends came from. An empty range
/// is one empty piece.
pub(super) fn pieces(len: usize, ends: impl IntoIterator<Item = usize>) -> Vec<(usize, usize)> {
    let mut cuts: Vec<usize> = ends.into_iter().filter(|&end| end < len).collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    if cuts.len() == 1 {
        return vec![(0, 0)];
    }
    cuts.windows(2).map(|w| (w[0], w[1] - w[0])).collect()
}
