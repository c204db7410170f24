//! Range partitioning.
//!
//! Adaptive parallelization creates *dynamically sized* range partitions: each
//! mutation halves the dearest part of the currently most expensive
//! operator, so a node ends up cut into parts of different sizes whose
//! boundaries stay aligned with the rows it streams (paper Fig. 8).
//! [`RowRange`] is that half-open `[start, end)` row/oid range — one part of
//! a node's cuts, as the profiler records each task's — with the halving
//! step of the adaptive mutation and the equi-range cut of the heuristic
//! baseline.
//! (Alignment between a candidate-list partition and a value-column partition
//! during tuple reconstruction is the engine's `stream_base` invariant —
//! `docs/architecture.md` §6.)

/// A half-open range of row positions / oids: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowRange {
    /// First row of the range.
    pub start: usize,
    /// One past the last row of the range.
    pub end: usize,
}

impl RowRange {
    /// Creates a range; `start` must not exceed `end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "range start {start} exceeds end {end}");
        RowRange { start, end }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the range covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Splits the range into `n` near-equal contiguous pieces (static / heuristic partitioning).
    pub fn split_even(&self, n: usize) -> Vec<RowRange> {
        assert!(n > 0, "cannot split into zero partitions");
        let len = self.len();
        let base = len / n;
        let rem = len % n;
        let mut out = Vec::with_capacity(n);
        let mut cursor = self.start;
        for i in 0..n {
            let size = base + usize::from(i < rem);
            out.push(RowRange::new(cursor, cursor + size));
            cursor += size;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_range_basics() {
        let r = RowRange::new(10, 20);
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
        assert!(RowRange::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds end")]
    fn row_range_rejects_inverted() {
        RowRange::new(5, 4);
    }

    #[test]
    fn split_halves_with_left_bias() {
        // Two halves, the left one taking the odd row: the basic mutation's
        // "introduce two new partitions" step.
        let halves = RowRange::new(0, 10).split_even(2);
        assert_eq!(halves, [RowRange::new(0, 5), RowRange::new(5, 10)]);
        let halves = RowRange::new(0, 11).split_even(2);
        assert_eq!(halves, [RowRange::new(0, 6), RowRange::new(6, 11)]);
        let halves = RowRange::new(3, 5).split_even(2);
        assert_eq!(halves, [RowRange::new(3, 4), RowRange::new(4, 5)]);
    }

    #[test]
    fn split_even_covers_domain() {
        let parts = RowRange::new(0, 10).split_even(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], RowRange::new(0, 4));
        assert_eq!(parts[1], RowRange::new(4, 7));
        assert_eq!(parts[2], RowRange::new(7, 10));
        let total: usize = parts.iter().map(RowRange::len).sum();
        assert_eq!(total, 10);
    }
}
