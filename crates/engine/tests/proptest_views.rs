//! Property tests for windowed stream views: random nested
//! `Chunk::slice` / `exchange_union` sequences over candidate and join streams —
//! odd offsets, empty windows, non-divisible morsel sizes, fresh-backing
//! parts mixed into unions — must match a materializing reference
//! implementation exactly, including the derived `stream_base` labels.
//!
//! The reference keeps a plain `Vec` plus an explicit stream offset and
//! re-materializes on every cut (what the engine did before the view
//! rewrite); the engine path cuts with `Chunk::slice`, as the executor does
//! for cut ranges and morsels, and packs with the driver's `exchange_union`,
//! exercising the zero-copy window arithmetic, the contiguous-windows union
//! fast path and the borrowed-slice fallback pack.

use apq_columnar::Oid;
use apq_engine::interpreter::exchange_union;
use apq_engine::Chunk;
use apq_operators::JoinResult;
use proptest::prelude::*;

/// Materializing reference for an oid stream: owned data + stream offset.
#[derive(Debug, Clone, PartialEq)]
struct RefStream {
    outer: Vec<Oid>,
    /// Parallel inner side; empty for plain candidate streams.
    inner: Vec<Oid>,
    base: Oid,
}

impl RefStream {
    fn slice(&self, start: usize, len: usize) -> RefStream {
        let end = start.saturating_add(len).min(self.outer.len());
        let start = start.min(end);
        RefStream {
            outer: self.outer[start..end].to_vec(),
            inner: if self.inner.is_empty() { vec![] } else { self.inner[start..end].to_vec() },
            base: self.base + start as Oid,
        }
    }
}

fn slice_chunk(chunk: &Chunk, start: usize, len: usize) -> Chunk {
    chunk.slice(start, len).unwrap()
}

fn union_chunks(parts: &[Chunk]) -> Chunk {
    exchange_union(1, parts).unwrap()
}

/// Asserts the engine chunk matches the reference: same values (via the
/// comparable `QueryOutput`) and same stream offset label.
fn assert_matches(chunk: &Chunk, reference: &RefStream) {
    match chunk {
        Chunk::Oids(v) => {
            assert_eq!(v.as_slice(), &reference.outer[..], "oid window values diverged");
            assert_eq!(v.stream_base(), reference.base, "stream_base diverged");
            assert_eq!(v.len(), reference.outer.len());
        }
        Chunk::Join(v) => {
            assert_eq!(v.outer(), &reference.outer[..], "join outer window diverged");
            assert_eq!(v.inner(), &reference.inner[..], "join inner window diverged");
            assert_eq!(v.stream_base(), reference.base, "stream_base diverged");
        }
        other => panic!("unexpected chunk kind {}", other.kind()),
    }
}

/// Cuts `chunk` into ceil(len / morsel) grid parts (the morsel decomposition,
/// last part ragged), optionally re-materializing every odd part into fresh
/// backing at the correct stream offset — which forces the union's fallback
/// pack path instead of the widening fast path.
fn grid_parts(chunk: &Chunk, morsel: usize, rematerialize_odd: bool) -> Vec<Chunk> {
    let rows = chunk.rows();
    let n = rows.div_ceil(morsel).max(1);
    (0..n)
        .map(|i| {
            let part = slice_chunk(chunk, i * morsel, morsel);
            if rematerialize_odd && i % 2 == 1 {
                match &part {
                    Chunk::Oids(v) => Chunk::oids_at(v.as_slice().to_vec(), v.stream_base()),
                    Chunk::Join(v) => Chunk::join_at(
                        JoinResult {
                            outer_oids: v.outer().to_vec(),
                            inner_oids: v.inner().to_vec(),
                        },
                        v.stream_base(),
                    ),
                    other => panic!("unexpected chunk kind {}", other.kind()),
                }
            } else {
                part
            }
        })
        .collect()
}

/// Drives one random op sequence over both an oid stream and a join stream.
fn drive(len: usize, ops: &[(usize, usize, usize, usize)]) {
    let mut cases: Vec<(Chunk, RefStream)> = vec![
        (
            Chunk::oids((0..len as Oid).map(|v| v * 3 + 7).collect()),
            RefStream {
                outer: (0..len as Oid).map(|v| v * 3 + 7).collect(),
                inner: vec![],
                base: 0,
            },
        ),
        (
            Chunk::join(JoinResult {
                outer_oids: (0..len as Oid).collect(),
                inner_oids: (0..len as Oid).map(|v| v ^ 5).collect(),
            }),
            RefStream {
                outer: (0..len as Oid).collect(),
                inner: (0..len as Oid).map(|v| v ^ 5).collect(),
                base: 0,
            },
        ),
    ];

    for &(kind, a, b, k) in ops {
        for (chunk, reference) in cases.iter_mut() {
            let rows = chunk.rows();
            match kind {
                // Nested positional cut, offsets/lengths deliberately allowed
                // past the end (clamping must agree with the reference).
                0 => {
                    let start = if rows == 0 { a } else { a % (rows + 3) };
                    *chunk = slice_chunk(chunk, start, b);
                    *reference = reference.slice(start, b);
                }
                // Morsel-grid split + union round-trip: all parts are
                // consecutive windows, so the fast path must return the
                // parent window (same backing) and the identical value.
                1 => {
                    let morsel = (a % (rows + 2)).max(1);
                    let parts = grid_parts(chunk, morsel, false);
                    let reunited = union_chunks(&parts);
                    match (&reunited, &*chunk) {
                        (Chunk::Oids(u), Chunk::Oids(c)) => {
                            assert!(u.shares_backing_with(c), "fast path did not engage")
                        }
                        (Chunk::Join(u), Chunk::Join(c)) => {
                            assert!(u.shares_backing_with(c), "fast path did not engage")
                        }
                        _ => panic!("union changed chunk kind"),
                    }
                    *chunk = reunited;
                }
                // Same split, but odd parts re-materialized into fresh
                // backing: heterogeneous parts, fallback pack path. Values
                // and stream labels must still round-trip (unless every part
                // stayed windowed because there was only one).
                _ => {
                    let morsel = (b % (rows + 2)).max(1);
                    let parts = grid_parts(chunk, morsel, true);
                    *chunk = union_chunks(&parts);
                }
            }
            assert_matches(chunk, reference);
        }
        let _ = k;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn nested_slice_union_matches_materializing_reference(
        len in 0usize..257,
        ops in prop::collection::vec((0usize..3, 0usize..300, 0usize..300, 1usize..5), 1..7),
    ) {
        drive(len, &ops);
    }
}

#[test]
fn empty_stream_round_trips() {
    // Degenerate shapes outside the sampled space: zero-length streams and
    // windows entirely past the end.
    drive(0, &[(0, 5, 9, 1), (1, 3, 0, 2), (2, 0, 4, 3)]);
    let chunk = Chunk::oids(vec![1, 2, 3]);
    let empty = slice_chunk(&chunk, 50, 10);
    assert_eq!(empty.rows(), 0);
    assert_eq!(empty.as_oids_view().unwrap().stream_base(), 3);
}
