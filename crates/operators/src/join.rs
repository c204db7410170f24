//! Hash join (build + probe) and key sets.
//!
//! The paper analyzes the hash-join implementation "as it suits most
//! workloads due to the omnipresence of non-sorted data" and parallelizes it
//! by splitting only the larger (outer) input into equi-range partitions
//! while the hash table built on the inner input is shared by all probe
//! clones (§2.1, Fig. 4). Accordingly:
//!
//! * [`JoinHashTable::build`] builds a chained hash table over the inner key
//!   column once; the table is immutable afterwards and cheap to share
//!   (`Arc`) between probe clones.
//! * [`JoinHashTable::build_key_set`] builds the table an `EXISTS` /
//!   `NOT EXISTS` needs: which keys the inner side holds, not where. A key
//!   set may also be built in parts, one [`KeySetPart`] per cut of its key
//!   column: merging parts sets their keys' bits in one bitmap over the
//!   union's span, or ORs a merged part's bitmap in at its word offset, and
//!   the merged part finishes into exactly the key set the packed column
//!   would build.
//! * [`JoinHashTable::probe`] probes with an outer key column (a slice of the
//!   outer base column or a fetched intermediate) and produces matching
//!   `(outer_oid, inner_oid)` pairs; [`JoinHashTable::probe_semi`] and
//!   [`JoinHashTable::probe_anti`] report only whether an outer row matches.
//!
//! The table is a classic bucket-head + next-chain layout specialized for
//! integer keys — no per-bucket allocations. Its directory takes one of four
//! forms, chosen once per build from the keys' range:
//!
//! * **bits** — a key set whose span fits the bitmap rule below: one bit per
//!   key value over `[min, max]` and nothing else — no heads, no chains, no
//!   key column;
//! * **dense** — a pair table whose `max − min` is smaller than the hashed
//!   directory would be: one slot per key value (`slot = key − min`), so no
//!   two keys share a chain, the directory is never larger than the hashed
//!   one, and a probe key outside the range reads "empty";
//! * **hashed+bits** — otherwise, two buckets per build row, a bucket named
//!   by the *top* bits of the key's Fibonacci product, which spreads TPC-H's
//!   dense keys one per bucket; behind the bitmap of the keys when their span
//!   fits, so a probe key the build side lacks costs one bit test and no
//!   directory read;
//! * **hashed** — the same without the bitmap, when the span does not fit.
//!
//! **The bitmap rule** is one constant: a bitmap is never larger than the
//! hashed directory the same keys would get, or [`BITMAP_FLOOR_BYTES`],
//! whichever is bigger. A dense directory keeps no bitmap (its heads already
//! answer exactly), and only a hashed table keeps its key column — borrowed
//! at the column's own width, each key widened as the probe compares it: the
//! other forms never compare keys.
//!
//! One build loop and one probe body serve every form, generic over how a key
//! finds its chain. The probe looks a block of outer rows' chains up before it
//! walks any chain, dropping the rows with no chain on the way: a typical hit
//! costs one chain entry and a typical miss none.

use apq_columnar::{Column, DataType, Oid};

use crate::error::{OperatorError, Result};

/// "No entry" in `heads` and `next`; build rows are numbered below it.
const EMPTY: u32 = u32::MAX;

/// Outer rows per block of the probe: their chains are looked up together,
/// then the rows with a chain walk it. Also the length of the two stack
/// blocks a pair probe collects its pairs in.
const BLOCK: usize = 256;
// A row's position within its block is kept as a `u16`.
const _: () = assert!(BLOCK <= 1 << 16);

/// The bitmap rule's floor: a membership bitmap may take the bytes of the
/// hashed directory the same keys would get, or this many, whichever is more
/// — so a small build side still filters probes over a span of 256 Ki keys.
pub const BITMAP_FLOOR_BYTES: usize = 32 << 10;

/// An immutable hash table over the inner (build-side) join keys.
///
/// Entry `i` is build row `i`, i.e. inner oid `base + i`, so no oid vector is
/// stored. A hashed table borrows its build column at the column's own width
/// (an `Arc` clone of the view); the other directories keep no key column.
#[derive(Debug)]
pub struct JoinHashTable {
    directory: Directory,
    /// Chain head per dense slot or hashed bucket; empty for a bitmap.
    heads: Vec<u32>,
    /// Per build row, the next entry of its chain; empty for a bitmap.
    next: Vec<u32>,
    rows: usize,
    base: Oid,
}

/// The output of a probe: parallel vectors of matching outer and inner oids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinResult {
    /// Oid on the probe (outer) side for each match.
    pub outer_oids: Vec<Oid>,
    /// Oid on the build (inner) side for each match.
    pub inner_oids: Vec<Oid>,
}

impl JoinResult {
    /// Number of matching pairs.
    pub fn len(&self) -> usize {
        self.outer_oids.len()
    }

    /// True when no pairs matched.
    pub fn is_empty(&self) -> bool {
        self.outer_oids.is_empty()
    }

    /// Concatenates several probe results in argument order (exchange union).
    pub fn concat(parts: &[JoinResult]) -> JoinResult {
        let total: usize = parts.iter().map(JoinResult::len).sum();
        let mut out = JoinResult {
            outer_oids: Vec::with_capacity(total),
            inner_oids: Vec::with_capacity(total),
        };
        for p in parts {
            out.outer_oids.extend_from_slice(&p.outer_oids);
            out.inner_oids.extend_from_slice(&p.inner_oids);
        }
        out
    }

    /// Concatenates borrowed `(outer, inner)` pair windows in argument order.
    ///
    /// The slice-based flavour of [`JoinResult::concat`], for callers holding
    /// windowed views over shared results: packs straight from the backing
    /// (two output allocations total, no per-part intermediate clones). Each
    /// part's slices must have equal length.
    pub fn concat_parts(parts: &[(&[Oid], &[Oid])]) -> JoinResult {
        let total: usize = parts.iter().map(|(o, _)| o.len()).sum();
        let mut out = JoinResult {
            outer_oids: Vec::with_capacity(total),
            inner_oids: Vec::with_capacity(total),
        };
        for (outer, inner) in parts {
            debug_assert_eq!(outer.len(), inner.len(), "join part windows must be parallel");
            out.outer_oids.extend_from_slice(outer);
            out.inner_oids.extend_from_slice(inner);
        }
        out
    }
}

/// Fibonacci hashing: cheap, good spread for dense and sparse keys alike.
/// Bit `b` of the product depends on bits `0..=b` of the key only, so the
/// higher a bit, the better mixed: the join's [`hash_key`] takes its bucket
/// from the very top. (`aggregate.rs`' `FibHasher` rotates the high half down
/// to where std's `HashMap` reads its bucket; that map measured the same with
/// either half.)
#[inline]
pub(crate) fn mix(key: i64) -> u64 {
    (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The bucket of `key` in a directory of `mask + 1` buckets (a power of two,
/// at least 2): the top `log2(mask + 1)` bits of [`mix`]. Consecutive keys
/// land a golden-ratio step apart, so a dense key range fills the directory
/// evenly; keys that differ only above bit 32 still differ here, which they
/// would not in the low end of the product's high half.
#[inline]
fn hash_key(key: i64, mask: u64) -> usize {
    (mix(key) >> mask.leading_zeros()) as usize
}

/// The offset of `key` from `min`, taken mod 2^64: exactly the keys
/// `min..min + n` land below `n`, and every other key lands at or past it.
#[inline]
fn dense_slot(key: i64, min: i64) -> usize {
    usize::try_from(key.wrapping_sub(min) as u64).unwrap_or(usize::MAX)
}

/// The chain head at `slot`, [`EMPTY`] past the directory's end.
#[inline]
fn head(heads: &[u32], slot: usize) -> u32 {
    heads.get(slot).map_or(EMPTY, |&h| h)
}

/// One bit per key value from `min` up: which values the build side holds.
#[derive(Debug, Clone)]
struct KeyBits {
    min: i64,
    words: Vec<u64>,
}

impl KeyBits {
    /// The words a bitmap over `[min, max]` takes.
    fn words(min: i64, max: i64) -> usize {
        (max.abs_diff(min) / 64) as usize + 1
    }

    /// The bitmap of `keys`, every one of which lies in `[min, max]`: one
    /// allocation of `max − min + 1` bits, rounded up to whole words.
    fn new<T: Copy + Into<i64>>(keys: &[T], min: i64, max: i64) -> KeyBits {
        let mut bits = KeyBits { min, words: vec![0u64; KeyBits::words(min, max)] };
        bits.set(keys);
        bits
    }

    /// Sets the bits of `keys`, every one of which lies in this bitmap's
    /// span.
    fn set<T: Copy + Into<i64>>(&mut self, keys: &[T]) {
        // A run of keys in one word (a sorted or clustered column) gathers
        // its bits in a register: set one by one in memory, each key would
        // wait for the previous key's store to the same word.
        let (mut word, mut bits) = (0, 0u64);
        for &key in keys {
            let bit = dense_slot(key.into(), self.min);
            if bit / 64 != word {
                self.words[word] |= bits;
                (word, bits) = (bit / 64, 0);
            }
            bits |= 1 << (bit % 64);
        }
        self.words[word] |= bits;
    }

    /// Sets the bits of a key column's keys, every one of which lies in this
    /// bitmap's span; the column's type was checked when its part was made.
    fn set_column(&mut self, keys: &Column) {
        match keys.data_type() {
            DataType::Int64 => self.set(keys.i64_values().expect("an Int64 key column")),
            _ => self.set(keys.i32_values().expect("an Int32 key column")),
        }
    }

    /// True when `key` is a build key; one outside `[min, max]` lands past
    /// the last word ([`dense_slot`]) and reads "absent".
    #[inline]
    fn contains(&self, key: i64) -> bool {
        let bit = dense_slot(key, self.min);
        self.words.get(bit / 64).is_some_and(|&word| word >> (bit % 64) & 1 != 0)
    }

    fn byte_size(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// An empty bitmap over `[min, max]` laid on the grid of whole words
    /// from `i64::MIN` up: it starts at the word edge at or below `min`, so
    /// any two such bitmaps OR word by word, at a whole-word offset.
    fn on_grid(min: i64, max: i64) -> KeyBits {
        let start = min - min.rem_euclid(64);
        KeyBits { min: start, words: vec![0; KeyBits::words(start, max)] }
    }

    /// This grid bitmap widened to the grid span of `[min, max]`, which
    /// holds its own: itself when it already covers it, else a copy at its
    /// word offset in a wider one.
    fn widened(self, min: i64, max: i64) -> KeyBits {
        let mut wide = KeyBits::on_grid(min, max);
        if (self.min, self.words.len()) == (wide.min, wide.words.len()) {
            return self;
        }
        wide.or(&self);
        wide
    }

    /// ORs in `other`, a grid bitmap within this one's span, word by word
    /// at its word offset.
    fn or(&mut self, other: &KeyBits) {
        let first = (other.min.abs_diff(self.min) / 64) as usize;
        for (word, &bits) in self.words[first..].iter_mut().zip(&other.words) {
            *word |= bits;
        }
    }

    /// This grid bitmap of keys in `[min, max]` laid out from `min` up, as
    /// [`KeyBits::new`] lays it: each word takes the high bits of one grid
    /// word and the low bits of the next.
    fn laid_from(self, min: i64, max: i64) -> KeyBits {
        let shift = min.abs_diff(self.min);
        if shift == 0 {
            return self;
        }
        let words = (0..KeyBits::words(min, max)).map(|i| {
            let next = self.words.get(i + 1).map_or(0, |&word| word << (64 - shift));
            self.words[i] >> shift | next
        });
        KeyBits { min, words: words.collect() }
    }
}

/// How a key finds the head of its chain.
#[derive(Debug)]
enum Directory {
    /// A key set whose span fits the bitmap: membership, and no chains.
    Bits(KeyBits),
    /// One slot per key value from `min` up ([`dense_slot`]).
    Dense { min: i64 },
    /// `mask + 1` buckets ([`hash_key`]). `keys`, the borrowed build column
    /// (`Int64` or `Int32`), tells the entries of a chain apart; `filter` is
    /// the keys' bitmap when their span fits.
    Hashed { mask: u64, keys: Column, filter: Option<KeyBits> },
}

/// The bitmap rule for `n` keys: the most bits their bitmap may take — the
/// bytes of the hashed directory they would get (`buckets` of `u32`), or
/// [`BITMAP_FLOOR_BYTES`], whichever is more.
fn bitmap_limit(n: usize) -> u64 {
    ((buckets(n) * std::mem::size_of::<u32>()).max(BITMAP_FLOOR_BYTES) * 8) as u64
}

/// The buckets of a hashed directory over `n` build rows: two per row, a
/// power of two, at least 2.
fn buckets(n: usize) -> usize {
    (n.max(1) * 2).next_power_of_two()
}

/// The smallest and largest key when they are less than `limit` apart,
/// `None` otherwise and for no keys. Taken a block at a time, so a sparse
/// build side stops as soon as its span reaches `limit`, and in eight
/// independent lanes: one running minimum and maximum compile to a branch
/// per key, which a sorted column — every key a new maximum — mispredicts
/// (six times slower on Q4's 3.6 M order keys in order).
fn key_range<T: Copy + Into<i64>>(keys: &[T], limit: u64) -> Option<(i64, i64)> {
    const LANES: usize = 8;
    let (mut lo, mut hi) = ([i64::MAX; LANES], [i64::MIN; LANES]);
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    for block in keys.chunks(1024) {
        let mut rows = block.chunks_exact(LANES);
        for row in &mut rows {
            for lane in 0..LANES {
                let k = row[lane].into();
                (lo[lane], hi[lane]) = (lo[lane].min(k), hi[lane].max(k));
            }
        }
        for &k in rows.remainder() {
            (lo[0], hi[0]) = (lo[0].min(k.into()), hi[0].max(k.into()));
        }
        (min, max) = (lo.into_iter().fold(min, i64::min), hi.into_iter().fold(max, i64::max));
        if max.abs_diff(min) >= limit {
            return None;
        }
    }
    (min <= max).then_some((min, max))
}

/// Puts build row `i` at the front of its slot's chain, for every row in
/// order, so a chain lists its entries newest-inserted first.
#[inline]
fn link<T: Copy + Into<i64>>(
    keys: &[T],
    heads: &mut [u32],
    next: &mut [u32],
    slot: impl Fn(i64) -> usize,
) {
    for (i, (&key, link)) in keys.iter().zip(next).enumerate() {
        let head = &mut heads[slot(key.into())];
        *link = *head;
        *head = i as u32;
    }
}

/// A build row index must stay below [`EMPTY`]: `i as u32` of a larger one
/// would wrap, and `u32::MAX` itself would read as the end of a chain.
fn check_build_rows(rows: usize) -> Result<()> {
    if rows >= EMPTY as usize {
        return Err(OperatorError::JoinBuildTooLarge { rows });
    }
    Ok(())
}

/// What [`JoinHashTable::scan`] reports for the outer rows: every matching
/// entry, or only whether there is one.
#[derive(Clone, Copy, PartialEq)]
enum Matches {
    All,
    First,
}

impl JoinHashTable {
    /// Builds the hash table over the inner key column. Entry `i` records the
    /// absolute oid `inner.base_oid() + i`.
    ///
    /// The directory is dense when the keys' `max − min` is smaller than the
    /// `(2n).next_power_of_two()` buckets a hashed one would have, so it is
    /// never the larger of the two; a hashed directory keeps the keys' bitmap
    /// when the bitmap rule admits it. Pair order is the same either way.
    ///
    /// Build rows are numbered in `u32` with `u32::MAX` as the "no entry"
    /// mark: `JoinBuildTooLarge` for a column of `u32::MAX` rows or more
    /// (checked first, before anything is allocated). `UnsupportedJoinKey`
    /// unless the column is `Int64` or `Int32`.
    pub fn build(inner: &Column) -> Result<JoinHashTable> {
        JoinHashTable::build_as(inner, false)
    }

    /// Builds a key set over the inner key column: a table for
    /// [`JoinHashTable::probe_semi`] and [`JoinHashTable::probe_anti`] only.
    /// When the bitmap rule admits the keys' span it is that bitmap and
    /// nothing else; otherwise it is the hashed table [`JoinHashTable::build`]
    /// gives the same keys. The pair probes and [`JoinHashTable::lookup`] of
    /// a bitmap refuse with `KeySetHasNoPairs`. Errors as `build`.
    pub fn build_key_set(inner: &Column) -> Result<JoinHashTable> {
        JoinHashTable::build_as(inner, true)
    }

    fn build_as(inner: &Column, key_set: bool) -> Result<JoinHashTable> {
        check_build_rows(inner.len())?;
        match inner.data_type() {
            DataType::Int64 => JoinHashTable::build_from(inner, inner.i64_values()?, key_set),
            DataType::Int32 => JoinHashTable::build_from(inner, inner.i32_values()?, key_set),
            other => Err(OperatorError::UnsupportedJoinKey(other.name())),
        }
    }

    /// The one build body over `inner`'s typed keys, read in place.
    fn build_from<T: Copy + Into<i64>>(
        inner: &Column,
        keys: &[T],
        key_set: bool,
    ) -> Result<JoinHashTable> {
        let n = keys.len();
        let n_buckets = buckets(n);
        let range = key_range(keys, bitmap_limit(n));
        let (mut heads, mut next) = (Vec::new(), Vec::new());
        let directory = match range {
            Some((min, max)) if key_set => Directory::Bits(KeyBits::new(keys, min, max)),
            Some((min, max)) if max.abs_diff(min) < n_buckets as u64 => {
                heads = vec![EMPTY; max.abs_diff(min) as usize + 1];
                next = vec![EMPTY; n];
                link(keys, &mut heads, &mut next, |k| dense_slot(k, min));
                Directory::Dense { min }
            }
            range => {
                let mask = (n_buckets - 1) as u64;
                heads = vec![EMPTY; n_buckets];
                next = vec![EMPTY; n];
                link(keys, &mut heads, &mut next, |k| hash_key(k, mask));
                let filter = range.map(|(min, max)| KeyBits::new(keys, min, max));
                Directory::Hashed { mask, keys: inner.clone(), filter }
            }
        };
        Ok(JoinHashTable { directory, heads, next, rows: n, base: inner.base_oid() })
    }

    /// The directory's form: `"bits"`, `"dense"`, `"hashed+bits"` or
    /// `"hashed"` (see the module documentation).
    pub fn directory(&self) -> &'static str {
        match &self.directory {
            Directory::Bits(_) => "bits",
            Directory::Dense { .. } => "dense",
            Directory::Hashed { filter: Some(_), .. } => "hashed+bits",
            Directory::Hashed { filter: None, .. } => "hashed",
        }
    }

    /// Bytes of the keys' bitmap: a key set's whole table, a hashed table's
    /// filter, 0 when there is none.
    pub fn bitmap_bytes(&self) -> usize {
        match &self.directory {
            Directory::Bits(bits) | Directory::Hashed { filter: Some(bits), .. } => {
                bits.byte_size()
            }
            _ => 0,
        }
    }

    /// Number of build-side entries.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the build side was empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Memory the table owns, in bytes: 4 per directory slot, 4 per chain
    /// link and 8 per bitmap word — a hashed table's borrowed key column is
    /// its producer's.
    pub fn byte_size(&self) -> usize {
        (self.heads.len() + self.next.len()) * std::mem::size_of::<u32>() + self.bitmap_bytes()
    }

    /// Pairs need build rows; a bitmap has none.
    fn check_pairs(&self) -> Result<()> {
        match self.directory {
            Directory::Bits(_) => Err(OperatorError::KeySetHasNoPairs),
            _ => Ok(()),
        }
    }

    /// Returns the inner oids whose key equals `key`, newest-inserted first.
    /// `KeySetHasNoPairs` for a bitmap.
    pub fn lookup(&self, key: i64) -> Result<Vec<Oid>> {
        self.check_pairs()?;
        let mut out = Vec::new();
        self.scan(&[key], Matches::All, |_, j| out.push(self.base + j), |_, _| {});
        Ok(out)
    }

    /// The one probe loop over the table's directory: [`JoinHashTable::walk`]
    /// with the chain lookup, and a hashed table's key column at its width,
    /// chosen once per call.
    #[inline]
    fn scan<T: Copy + Into<i64>>(
        &self,
        outer: &[T],
        matches: Matches,
        on_match: impl FnMut(usize, Oid),
        on_block: impl FnMut(usize, &[bool]),
    ) {
        let heads = self.heads.as_slice();
        match &self.directory {
            // A member's chain is one placeholder entry, never followed: only
            // existence probes, which stop at the first entry, reach a bitmap.
            Directory::Bits(bits) => self.walk::<true, T, i64>(
                outer,
                &[],
                |k| if bits.contains(k) { 0 } else { EMPTY },
                matches,
                on_match,
                on_block,
            ),
            Directory::Dense { min } => self.walk::<true, T, i64>(
                outer,
                &[],
                |k| head(heads, dense_slot(k, *min)),
                matches,
                on_match,
                on_block,
            ),
            Directory::Hashed { mask, keys, .. } => {
                let first = |k| head(heads, hash_key(k, *mask));
                match keys.data_type() {
                    DataType::Int64 => self.walk::<false, T, i64>(
                        outer,
                        keys.i64_values().expect("an Int64 key column"),
                        first,
                        matches,
                        on_match,
                        on_block,
                    ),
                    _ => self.walk::<false, T, i32>(
                        outer,
                        keys.i32_values().expect("an Int32 key column"),
                        first,
                        matches,
                        on_match,
                        on_block,
                    ),
                }
            }
        }
    }

    /// The probe body, a block of [`BLOCK`] outer rows at a time. Calls
    /// `on_match(i, entry)` for outer row `i` (in row order) and each build
    /// entry with its key along the chain `first(key)` starts — newest-
    /// inserted first, only the first under [`Matches::First`]; [`EMPTY`]
    /// is no chain — and, once the block's chains are walked,
    /// `on_block(start, matched)` with one "had a match" flag per row of the
    /// block starting at outer row `start`. A row whose key the table's
    /// filter lacks has no chain and is not looked up. `EXACT` says every
    /// entry of a chain holds the key that found it (a dense directory or a
    /// bitmap), so no key is compared; otherwise entry `j`'s key is
    /// `keys[j]`, widened as it is compared.
    #[inline]
    fn walk<const EXACT: bool, T: Copy + Into<i64>, K: Copy + Into<i64>>(
        &self,
        outer: &[T],
        keys: &[K],
        first: impl Fn(i64) -> u32,
        matches: Matches,
        mut on_match: impl FnMut(usize, Oid),
        mut on_block: impl FnMut(usize, &[bool]),
    ) {
        let filter = match &self.directory {
            Directory::Hashed { filter, .. } => filter.as_ref(),
            _ => None,
        };
        let mut firsts = [EMPTY; BLOCK];
        let mut rows = [0u16; BLOCK];
        let mut members = [0u16; BLOCK];
        let mut matched = [false; BLOCK];
        for (b, block) in outer.chunks(BLOCK).enumerate() {
            // The chain heads of a block are independent loads: issued back
            // to back they miss the cache together, not one behind another
            // row's chain walk. A row with no chain cannot match and is
            // dropped here by the stack-block idiom of `select` — a store
            // and an add, no branch on the data; `c` counts rows seen of a
            // chunk of at most BLOCK, so the (checked) index stays in bounds.
            let mut c = 0;
            let mut look_up = |r: usize, k: T| {
                let head = first(k.into());
                firsts[c] = head;
                rows[c] = r as u16;
                c += usize::from(head != EMPTY);
            };
            match filter {
                None => block.iter().enumerate().for_each(|(r, &k)| look_up(r, k)),
                // A filtered table tests the bitmap first, by the same idiom:
                // a row whose key it lacks costs one bit test — no hash, no
                // directory read.
                Some(bits) => {
                    let mut m = 0;
                    for (r, &k) in block.iter().enumerate() {
                        members[m] = r as u16;
                        m += usize::from(bits.contains(k.into()));
                    }
                    for &r in &members[..m] {
                        look_up(usize::from(r), block[usize::from(r)]);
                    }
                }
            }
            let matched = &mut matched[..block.len()];
            matched.fill(false);
            for (&head, &r) in firsts[..c].iter().zip(&rows[..c]) {
                let r = usize::from(r);
                let key: i64 = block[r].into();
                let mut e = head;
                while e != EMPTY {
                    let j = e as usize;
                    #[cfg(test)]
                    CHAIN_STEPS.with(|steps| steps.set(steps.get() + 1));
                    if EXACT || keys[j].into() == key {
                        matched[r] = true;
                        on_match(b * BLOCK + r, j as Oid);
                        if matches == Matches::First {
                            break;
                        }
                    }
                    e = self.next[j];
                }
            }
            on_block(b * BLOCK, matched);
        }
    }

    /// [`JoinHashTable::scan`] over an outer key column: `Int64` keys are
    /// read in place, `Int32` keys are widened per row — neither is copied.
    fn scan_column(
        &self,
        outer: &Column,
        matches: Matches,
        on_match: impl FnMut(usize, Oid),
        on_block: impl FnMut(usize, &[bool]),
    ) -> Result<()> {
        match outer.data_type() {
            DataType::Int64 => self.scan(outer.i64_values()?, matches, on_match, on_block),
            DataType::Int32 => self.scan(outer.i32_values()?, matches, on_match, on_block),
            other => return Err(OperatorError::UnsupportedJoinKey(other.name())),
        }
        Ok(())
    }

    /// Probes the table with an outer key column. Each outer row's absolute
    /// oid (`outer.base_oid() + row`) is paired with every matching inner oid.
    ///
    /// Pairs come in ascending outer-row order; the matches of one outer row
    /// come newest-inserted build row first. `KeySetHasNoPairs` for a bitmap,
    /// then `UnsupportedJoinKey` unless the column is `Int64` or `Int32`.
    pub fn probe(&self, outer: &Column) -> Result<JoinResult> {
        self.check_pairs()?;
        let base = outer.base_oid();
        // Reserved for one match per outer row (the foreign-key case; more
        // only grows), and the unused tail handed back: a filtered build
        // side matches a fraction, and the result outlives the probe.
        let mut result = JoinResult {
            outer_oids: Vec::with_capacity(outer.len()),
            inner_oids: Vec::with_capacity(outer.len()),
        };
        // Pairs gather in two stack blocks, appended a block at a time.
        let mut outer_block = [0 as Oid; BLOCK];
        let mut inner_block = [0 as Oid; BLOCK];
        let mut k = 0;
        self.scan_column(
            outer,
            Matches::All,
            |i, j| {
                outer_block[k] = base + i as Oid;
                inner_block[k] = self.base + j;
                k += 1;
                if k == BLOCK {
                    result.outer_oids.extend_from_slice(&outer_block);
                    result.inner_oids.extend_from_slice(&inner_block);
                    k = 0;
                }
            },
            |_, _| {},
        )?;
        result.outer_oids.extend_from_slice(&outer_block[..k]);
        result.inner_oids.extend_from_slice(&inner_block[..k]);
        result.outer_oids.shrink_to_fit();
        result.inner_oids.shrink_to_fit();
        Ok(result)
    }

    /// Probes and reports only whether each outer row has at least one match
    /// (semi-join), returning the matching outer oids in ascending order,
    /// each once. Used for `EXISTS` style sub-queries (TPC-H Q4).
    /// `UnsupportedJoinKey` unless the column is `Int64` or `Int32`.
    pub fn probe_semi(&self, outer: &Column) -> Result<Vec<Oid>> {
        self.probe_existence(outer, true)
    }

    /// The complement of [`JoinHashTable::probe_semi`]: the absolute oids of
    /// the outer rows with *no* build-side match (`NOT EXISTS`, TPC-H Q22),
    /// in ascending order. `UnsupportedJoinKey` unless the column is `Int64`
    /// or `Int32`.
    pub fn probe_anti(&self, outer: &Column) -> Result<Vec<Oid>> {
        self.probe_existence(outer, false)
    }

    /// Outer oids whose "has a match" equals `wanted`.
    fn probe_existence(&self, outer: &Column, wanted: bool) -> Result<Vec<Oid>> {
        let base = outer.base_oid();
        let mut out = Vec::with_capacity(outer.len());
        // The block's flags are compacted in row order, so the survivors
        // come out ascending whichever rows walked a chain.
        let mut kept = [0 as Oid; BLOCK];
        self.scan_column(
            outer,
            Matches::First,
            |_, _| {},
            |start, matched| {
                let mut k = 0;
                for (r, &m) in matched.iter().enumerate() {
                    kept[k] = base + (start + r) as Oid;
                    k += usize::from(m == wanted);
                }
                out.extend_from_slice(&kept[..k]);
            },
        )?;
        out.shrink_to_fit();
        Ok(out)
    }
}

/// One part of a key set built in parts: what
/// [`JoinHashTable::build_key_set`] needs of one cut of its key column.
///
/// A part over a cut ([`KeySetPart::new`]) holds the cut's keys and their
/// smallest and largest. Merging parts in stream order
/// ([`KeySetPart::absorb`]) gathers every key in one bitmap over the
/// union's span, on a grid of whole words that every part shares: a part
/// that already has a bitmap — one merged before — is OR'd in word by word
/// at its word offset, a fresh one sets its keys' bits. The merged part
/// [`KeySetPart::finish`]es into exactly the key set the packed column would
/// build: the same directory, members, `len()` and bytes. It keeps its key
/// columns (zero-copy views) for the one case the bitmap cannot answer, a
/// span the bitmap rule refuses, where `finish` packs them and builds the
/// key set from the pack.
#[derive(Debug, Clone)]
pub struct KeySetPart {
    /// The key columns merged so far, in the order they merged.
    keys: Vec<Column>,
    rows: usize,
    span: Span,
}

/// What a [`KeySetPart`] knows of its keys' span.
#[derive(Debug, Clone)]
enum Span {
    /// There are no keys.
    Empty,
    /// Every key lies in `[min, max]`, a span the bitmap rule admits for the
    /// part's rows. `bits` is their grid bitmap ([`KeyBits::on_grid`]) once
    /// parts merged, `None` for a part fresh from its cut.
    Keys { min: i64, max: i64, bits: Option<KeyBits> },
    /// A span the bitmap rule refused, for a cut or for the parts merged so
    /// far: the keys themselves decide.
    Wide,
}

impl KeySetPart {
    /// The part over `keys`, a cut of a key set's column: its keys' span, in
    /// one pass that stops where the span outgrows the bitmap rule for the
    /// cut's rows. `UnsupportedJoinKey` unless the column is `Int64` or
    /// `Int32`.
    pub fn new(keys: &Column) -> Result<KeySetPart> {
        let limit = bitmap_limit(keys.len());
        let range = match keys.data_type() {
            DataType::Int64 => key_range(keys.i64_values()?, limit),
            DataType::Int32 => key_range(keys.i32_values()?, limit),
            other => return Err(OperatorError::UnsupportedJoinKey(other.name())),
        };
        let span = match range {
            Some((min, max)) => Span::Keys { min, max, bits: None },
            None if keys.is_empty() => Span::Empty,
            None => Span::Wide,
        };
        Ok(KeySetPart { keys: vec![keys.clone()], rows: keys.len(), span })
    }

    /// Keys (rows) merged into the part.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the part has no keys.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Merges `next`: its keys join this part's bitmap, widened to the
    /// union's span when `next` reaches past it — its bitmap OR'd in at its
    /// word offset, or its keys' bits set. A union whose span the bitmap
    /// rule refuses for the rows merged so far keeps no bitmap from then on;
    /// the set is the same, since the keys decide then.
    pub fn absorb(&mut self, next: &KeySetPart) {
        self.rows += next.rows;
        self.span = match (std::mem::replace(&mut self.span, Span::Wide), &next.span) {
            (Span::Wide, _) | (_, Span::Wide) => Span::Wide,
            (span, Span::Empty) => span,
            (Span::Empty, span) => span.clone(),
            (Span::Keys { min, max, bits }, Span::Keys { min: lo, max: hi, bits: more }) => {
                let (min, max) = (min.min(*lo), max.max(*hi));
                if max.abs_diff(min) >= bitmap_limit(self.rows) {
                    Span::Wide
                } else {
                    let mut bits = match bits {
                        Some(bits) => bits.widened(min, max),
                        None => {
                            let mut bits = KeyBits::on_grid(min, max);
                            self.keys.iter().for_each(|keys| bits.set_column(keys));
                            bits
                        }
                    };
                    match more {
                        Some(more) => bits.or(more),
                        None => next.keys.iter().for_each(|keys| bits.set_column(keys)),
                    }
                    Span::Keys { min, max, bits: Some(bits) }
                }
            }
        };
        self.keys.extend(next.keys.iter().cloned());
    }

    /// The key set over the merged parts: what
    /// [`JoinHashTable::build_key_set`] gives their keys packed in order.
    /// A span the rule admits is the bitmap, laid out from the smallest key
    /// up; with no keys or a refused span the keys are packed and built.
    /// Errors as `build_key_set`.
    pub fn finish(self) -> Result<JoinHashTable> {
        check_build_rows(self.rows)?;
        let base = self.keys.first().map_or(0, Column::base_oid);
        let bits = match self.span {
            Span::Keys { min, max, bits: Some(bits) } => bits.laid_from(min, max),
            Span::Keys { min, max, bits: None } => {
                let mut bits = KeyBits { min, words: vec![0; KeyBits::words(min, max)] };
                self.keys.iter().for_each(|keys| bits.set_column(keys));
                bits
            }
            Span::Empty | Span::Wide => {
                return match self.keys.as_slice() {
                    [keys] => JoinHashTable::build_key_set(keys),
                    keys => {
                        JoinHashTable::build_key_set(&Column::concat(keys)?.with_base_oid(base))
                    }
                };
            }
        };
        let directory = Directory::Bits(bits);
        Ok(JoinHashTable { directory, heads: Vec::new(), next: Vec::new(), rows: self.rows, base })
    }
}

// Chain entries this thread's probes have visited: the chain-quality tests
// count steps, not time.
#[cfg(test)]
thread_local!(static CHAIN_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::datagen;

    #[test]
    fn build_and_lookup() {
        let inner = Column::from_i64(vec![10, 20, 30, 20]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.len(), 4);
        assert!(!ht.is_empty());
        assert!(ht.byte_size() > 0);
        let mut hits = ht.lookup(20).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 3]);
        assert!(ht.lookup(99).unwrap().is_empty());
    }

    #[test]
    fn probe_produces_all_pairs() {
        let inner = Column::from_i64(vec![1, 2, 2, 3]);
        let outer = Column::from_i64(vec![2, 3, 4]);
        let ht = JoinHashTable::build(&inner).unwrap();
        let res = ht.probe(&outer).unwrap();
        // outer row 0 (key 2) matches inner oids {1,2}; outer row 1 (key 3) matches inner oid 3.
        let mut pairs: Vec<(Oid, Oid)> =
            res.outer_oids.iter().copied().zip(res.inner_oids.iter().copied()).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 3)]);
        assert_eq!(res.len(), 3);
        assert!(!res.is_empty());
    }

    #[test]
    fn probe_uses_absolute_oids_of_outer_slice() {
        let inner = Column::from_i64(vec![5, 6]);
        let outer_base = Column::from_i64(vec![5, 5, 6, 7, 6, 5]);
        let outer_part = outer_base.slice(3, 3).unwrap(); // oids [3,6): keys 7,6,5
        let ht = JoinHashTable::build(&inner).unwrap();
        let res = ht.probe(&outer_part).unwrap();
        let pairs: Vec<(Oid, Oid)> =
            res.outer_oids.iter().copied().zip(res.inner_oids.iter().copied()).collect();
        assert_eq!(pairs, vec![(4, 1), (5, 0)]);
    }

    #[test]
    fn partitioned_probes_union_to_serial_probe() {
        let inner = Column::from_i64((0..64).collect());
        let outer = Column::from_i64((0..1000).map(|v| v % 100).collect());
        let ht = JoinHashTable::build(&inner).unwrap();
        let serial = ht.probe(&outer).unwrap();

        let mut parts = Vec::new();
        for (s, l) in [(0usize, 300usize), (300, 300), (600, 400)] {
            parts.push(ht.probe(&outer.slice(s, l).unwrap()).unwrap());
        }
        let packed = JoinResult::concat(&parts);
        assert_eq!(packed, serial);
    }

    #[test]
    fn concat_parts_matches_concat() {
        let a = JoinResult { outer_oids: vec![1, 2], inner_oids: vec![10, 20] };
        let b = JoinResult { outer_oids: vec![3], inner_oids: vec![30] };
        let owned = JoinResult::concat(&[a.clone(), b.clone()]);
        let borrowed = JoinResult::concat_parts(&[
            (a.outer_oids.as_slice(), a.inner_oids.as_slice()),
            (b.outer_oids.as_slice(), b.inner_oids.as_slice()),
        ]);
        assert_eq!(owned, borrowed);
        assert!(JoinResult::concat_parts(&[]).is_empty());
    }

    #[test]
    fn semi_join_reports_each_outer_once() {
        let inner = Column::from_i64(vec![1, 1, 2]);
        let outer = Column::from_i64(vec![1, 3, 2, 1]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.probe_semi(&outer).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn anti_join_is_the_complement_of_the_semi_join() {
        let inner = Column::from_i64(vec![1, 1, 2]);
        let outer = Column::from_i64(vec![9, 1, 3, 2, 1, 3]).slice(1, 5).unwrap(); // oids [1, 6)
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.probe_semi(&outer).unwrap(), vec![1, 3, 4]);
        assert_eq!(ht.probe_anti(&outer).unwrap(), vec![2, 5]);
        // Nothing matches an empty build side; nothing is left of an empty outer.
        let empty = JoinHashTable::build(&Column::from_i64(vec![])).unwrap();
        assert_eq!(empty.probe_anti(&outer).unwrap(), vec![1, 2, 3, 4, 5]);
        assert!(ht.probe_anti(&Column::from_i32(vec![])).unwrap().is_empty());
        assert!(ht.probe_anti(&Column::from_f64(vec![1.0])).is_err());
    }

    #[test]
    fn duplicate_build_keys_pair_newest_inserted_first() {
        let inner = Column::from_i64(vec![7, 8, 7, 7]).with_base_oid(100);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.lookup(7).unwrap(), vec![103, 102, 100]);
        let res = ht.probe(&Column::from_i64(vec![8, 7])).unwrap();
        assert_eq!(res.outer_oids, vec![0, 1, 1, 1]);
        assert_eq!(res.inner_oids, vec![101, 103, 102, 100]);
    }

    #[test]
    fn byte_size_counts_what_the_table_owns() {
        // 5 rows would hash into 16 buckets; keys 1..=5 span 4 < 16, so the
        // directory is dense: 5 slots + 5 links, 4 bytes each.
        let keys: Vec<i64> = vec![3, 1, 4, 1, 5];
        let dense = JoinHashTable::build(&Column::from_i64(keys.clone())).unwrap();
        assert_eq!(dense.directory(), "dense");
        assert_eq!(dense.byte_size(), 5 * 4 + 5 * 4);
        // A window is borrowed just the same: keys 10..15, 5 slots.
        let window = Column::from_i64((0..100).collect()).slice(10, 5).unwrap();
        assert_eq!(JoinHashTable::build(&window).unwrap().byte_size(), 5 * 4 + 5 * 4);
        // Int32 keys in a dense directory are never compared, so never copied.
        let narrow = |keys: &[i64]| Column::from_i32(keys.iter().map(|&k| k as i32).collect());
        assert_eq!(JoinHashTable::build(&narrow(&keys)).unwrap().byte_size(), 5 * 4 + 5 * 4);
        // The empty table: two hashed buckets, nothing else.
        let empty = JoinHashTable::build(&Column::from_i64(vec![])).unwrap();
        assert_eq!(empty.directory(), "hashed");
        assert_eq!(empty.byte_size(), 2 * 4);
    }

    #[test]
    fn byte_size_of_bitmaps_and_filters_by_hand_count() {
        // A bitmap-only key set: keys 0..1000 span 999, so 1,000 bits in 16
        // words — no heads, no links, no keys.
        let key_set = JoinHashTable::build_key_set(&Column::from_i64((0..1000).collect())).unwrap();
        assert_eq!(key_set.directory(), "bits");
        assert_eq!((key_set.byte_size(), key_set.bitmap_bytes()), (16 * 8, 16 * 8));
        // A hashed key set: a span of 2^20 passes the 32 KiB floor (2^18
        // bits), so 5 rows keep today's table: 16 buckets + 5 links.
        let sparse = vec![0, 1 << 20, 7, 7, 3];
        let hashed_set = JoinHashTable::build_key_set(&Column::from_i64(sparse.clone())).unwrap();
        assert_eq!(hashed_set.directory(), "hashed");
        assert_eq!((hashed_set.byte_size(), hashed_set.bitmap_bytes()), (16 * 4 + 5 * 4, 0));
        assert_eq!(JoinHashTable::build(&Column::from_i64(sparse)).unwrap().byte_size(), 84);
        // A filtered hashed table: keys 1..=17 span 16, too wide for dense
        // (16 buckets) and narrow enough for a one-word bitmap.
        let filtered_keys = vec![3, 1, 4, 1, 17];
        let filtered = JoinHashTable::build(&Column::from_i64(filtered_keys.clone())).unwrap();
        assert_eq!(filtered.directory(), "hashed+bits");
        assert_eq!(filtered.byte_size(), 16 * 4 + 5 * 4 + 8);
        // Its Int32 twin borrows its keys at 32 bits, so it owns the same.
        let narrow = Column::from_i32(filtered_keys.iter().map(|&k| k as i32).collect());
        assert_eq!(JoinHashTable::build(&narrow).unwrap().byte_size(), 16 * 4 + 5 * 4 + 8);
    }

    #[test]
    fn a_key_set_answers_membership_and_refuses_pairs() {
        let build = Column::from_i64(vec![5, 9, 5, -2]).with_base_oid(40);
        let outer = Column::from_i64(vec![9, 4, -2, 5, 10, i64::MIN, -3]).slice(1, 6).unwrap();
        let pairs = JoinHashTable::build(&build).unwrap();
        for key_set in [
            JoinHashTable::build_key_set(&build).unwrap(),
            JoinHashTable::build_key_set(&Column::from_i32(vec![5, 9, 5, -2])).unwrap(),
        ] {
            assert_eq!(key_set.directory(), "bits");
            assert_eq!(key_set.len(), 4);
            assert_eq!(key_set.probe_semi(&outer), pairs.probe_semi(&outer));
            assert_eq!(key_set.probe_anti(&outer), pairs.probe_anti(&outer));
            assert_eq!(key_set.probe_semi(&outer).unwrap(), vec![2, 3]);
            for refused in [key_set.probe(&outer).map(|_| ()), key_set.lookup(5).map(|_| ())] {
                assert_eq!(refused, Err(OperatorError::KeySetHasNoPairs));
            }
        }
    }

    #[test]
    fn the_bitmap_rule_admits_the_larger_of_the_hashed_directory_and_the_floor() {
        // 5 rows hash into 16 buckets (64 bytes), under the 32 KiB floor: a
        // span of 2^18 - 1 keys fits the bitmap, 2^18 does not. 10,000 rows
        // hash into 32 Ki buckets (128 KiB, above the floor): 2^20 - 1 fits.
        let floor_bits = BITMAP_FLOOR_BYTES as i64 * 8;
        for (rows, limit) in [(5, floor_bits), (10_000, 32 * 1024 * 4 * 8)] {
            for span in [limit - 1, limit] {
                let keys: Vec<i64> = (0..rows).map(|i| -9 + i * span / (rows - 1)).collect();
                let fits = span < limit;
                let key_set =
                    JoinHashTable::build_key_set(&Column::from_i64(keys.clone())).unwrap();
                let table = JoinHashTable::build(&Column::from_i64(keys.clone())).unwrap();
                assert_eq!(key_set.directory(), if fits { "bits" } else { "hashed" }, "{span}");
                assert_eq!(table.directory(), if fits { "hashed+bits" } else { "hashed" });
                let hashed_bytes = (rows as usize * 2).next_power_of_two() * 4;
                assert!(key_set.bitmap_bytes() <= hashed_bytes.max(BITMAP_FLOOR_BYTES));
                assert_eq!(key_set.bitmap_bytes(), table.bitmap_bytes());
                let probe = Column::from_i64(vec![-10, -9, -8, -9 + span, -8 + span, keys[1]]);
                assert_eq!(key_set.probe_semi(&probe).unwrap(), vec![1, 3, 5], "{span}");
            }
        }
    }

    #[test]
    fn the_directory_goes_dense_below_the_hashed_size_and_never_grows() {
        // 100 rows hash into 256 buckets: a span of 255 is dense (256
        // slots), a span of 256 hashes behind a bitmap until the bitmap
        // passes the floor. No table owns more than the hashed count plus
        // its bitmap, and each finds every key, newest-inserted first.
        let n = 100;
        let hashed_bytes = (256 + n) * 4;
        for span in [0, 1, 99, 254, 255, 256, 257, 1 << 18, 1 << 40] {
            let keys: Vec<i64> = (0..n as i64)
                .map(|i| -7 + if i == 1 { span } else { (i * 37) % (span + 1) })
                .collect();
            let table = JoinHashTable::build(&Column::from_i64(keys.clone())).unwrap();
            let kind = match span {
                0..256 => "dense",
                256..262_144 => "hashed+bits",
                _ => "hashed",
            };
            assert_eq!(table.directory(), kind, "span {span}");
            assert!(table.byte_size() <= hashed_bytes + table.bitmap_bytes(), "span {span}");
            assert!(table.bitmap_bytes() <= BITMAP_FLOOR_BYTES);
            for key in [-8, -7, -6, -7 + span, -6 + span, i64::MIN, i64::MAX] {
                let expected: Vec<Oid> =
                    (0..n as Oid).rev().filter(|&i| keys[i as usize] == key).collect();
                assert_eq!(table.lookup(key).unwrap(), expected, "span {span}, key {key}");
            }
        }
    }

    #[test]
    fn dense_directories_and_bitmaps_at_the_ends_of_i64_read_outside_keys_as_empty() {
        for keys in [vec![i64::MIN, i64::MIN + 2], vec![i64::MAX - 2, i64::MAX, i64::MAX]] {
            let table = JoinHashTable::build(&Column::from_i64(keys.clone())).unwrap();
            let key_set = JoinHashTable::build_key_set(&Column::from_i64(keys.clone())).unwrap();
            assert_eq!((table.directory(), key_set.directory()), ("dense", "bits"));
            let outer = Column::from_i64(vec![i64::MIN, i64::MIN + 1, -1, 0, i64::MAX, keys[0]]);
            let expected: Vec<Oid> = outer
                .i64_values()
                .unwrap()
                .iter()
                .enumerate()
                .filter(|(_, k)| keys.contains(k))
                .map(|(i, _)| i as Oid)
                .collect();
            assert_eq!(table.probe_semi(&outer).unwrap(), expected, "{keys:?}");
            assert_eq!(key_set.probe_semi(&outer).unwrap(), expected, "{keys:?}");
        }
    }

    #[test]
    fn a_hashed_build_shares_the_key_column_at_its_width() {
        let wide = Column::from_i64((0..1000).map(|k| k * 1000).collect());
        let narrow = Column::from_i32((0..1000).map(|k| k * 1000).collect());
        for inner in [wide, narrow] {
            let ht = JoinHashTable::build(&inner.slice(100, 800).unwrap()).unwrap();
            assert_eq!(ht.directory(), "hashed");
            let Directory::Hashed { keys, .. } = &ht.directory else {
                panic!("a hashed directory expected")
            };
            assert_eq!(keys.data_type(), inner.data_type());
            assert!(keys.shares_storage_with(&inner));
            assert_eq!(ht.byte_size(), (2048 + 800) * 4);
            assert_eq!(ht.lookup(100_000).unwrap(), vec![100]);
            assert!(ht.lookup(99_000).unwrap().is_empty());
        }
    }

    #[test]
    fn i32_keys_and_unsupported_types() {
        let inner = Column::from_i32(vec![1, 2]);
        let outer = Column::from_i32(vec![2, 2]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.probe(&outer).unwrap().len(), 2);
        let bad = Column::from_strings(["x"]);
        assert!(JoinHashTable::build(&bad).is_err());
        assert!(JoinHashTable::build_key_set(&bad).is_err());
        assert!(ht.probe(&bad).is_err());
    }

    #[test]
    fn empty_build_side() {
        let inner = Column::from_i64(vec![]);
        let outer = Column::from_i64(vec![1, 2, 3]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert!(ht.is_empty());
        assert!(ht.probe(&outer).unwrap().is_empty());
        let key_set = JoinHashTable::build_key_set(&inner).unwrap();
        assert!(key_set.is_empty());
        assert_eq!(key_set.probe_anti(&outer).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn a_build_side_the_row_numbers_cannot_hold_is_refused() {
        // The check alone, on a length: no 4-G-row column is allocated.
        assert_eq!(check_build_rows(0), Ok(()));
        assert_eq!(check_build_rows(u32::MAX as usize - 1), Ok(()));
        for rows in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            assert_eq!(check_build_rows(rows), Err(OperatorError::JoinBuildTooLarge { rows }));
        }
    }

    /// Probes a table over `build` with `outer` and returns the chain entries
    /// compared per outer row, and the longest chain in the table.
    fn chain_quality(build: Vec<i64>, outer: Vec<i64>) -> (f64, usize) {
        let table = JoinHashTable::build(&Column::from_i64(build)).unwrap();
        let rows = outer.len();
        let before = CHAIN_STEPS.with(|steps| steps.get());
        table.probe(&Column::from_i64(outer)).unwrap();
        let steps = CHAIN_STEPS.with(|steps| steps.get()) - before;
        let chain_len = |&head: &u32| {
            let (mut len, mut e) = (0, head);
            while e != EMPTY {
                len += 1;
                e = table.next[e as usize];
            }
            len
        };
        let longest = table.heads.iter().map(chain_len).max().unwrap_or(0);
        (steps as f64 / rows as f64, longest)
    }

    /// Every build key probed once: steps per row is the mean chain length
    /// an entry sits in.
    fn all_hit_quality(keys: Vec<i64>) -> (f64, usize) {
        chain_quality(keys.clone(), keys)
    }

    #[test]
    fn a_dense_build_of_distinct_keys_walks_one_entry_per_row() {
        // TPC-H's part/order keys (200 k) and supplier keys (10 k).
        for n in [200_000, 10_000] {
            let table = JoinHashTable::build(&Column::from_i64((0..n).collect())).unwrap();
            assert_eq!(table.directory(), "dense");
            assert_eq!(all_hit_quality((0..n).collect()), (1.0, 1), "0..{n}");
        }
    }

    // The pins below are counts, not timings: chain steps per probing row and
    // the longest chain, against what the top-bits bucket index gives at two
    // buckets per build row, on key sets sparse enough to stay hashed. They
    // are there to fail on an index taken from anywhere else in the product:
    // bits 32.. read 3.31 steps per row on the dense ranges, 2.57 on the
    // filtered dimension and 97.7 (one chain of 98) on the 2^40 stride.

    /// `keys`, checked to be sparse enough that the table hashes them,
    /// behind a bitmap or not.
    fn hashed(keys: impl IntoIterator<Item = i64>) -> Vec<i64> {
        let keys: Vec<i64> = keys.into_iter().collect();
        let table = JoinHashTable::build(&Column::from_i64(keys.clone())).unwrap();
        assert!(table.directory().starts_with("hashed"));
        keys
    }

    #[test]
    fn dense_keys_sit_one_to_a_bucket() {
        // TPC-H's part/order keys (200 k) and supplier keys (10 k), and one
        // far key: 1.00 / 1.
        for n in [200_000, 10_000] {
            let (steps, longest) = all_hit_quality(hashed((0..n).chain([i64::MAX])));
            assert!(steps <= 1.05 && longest <= 2, "0..{n}: {steps:.2} steps, longest {longest}");
        }
    }

    #[test]
    fn a_probe_of_a_filtered_dimension_walks_only_the_hits() {
        // Q9's part(%BRUSHED%): a 20 % subset of the keys built, every key
        // probed. The bitmap answers the 80 % that miss, so only hits walk a
        // chain: 0.23 steps per row, 1.14 per hit (0.34 per row without the
        // bitmap, the misses that land in another key's chain walking it).
        let kept = datagen::uniform_i64(200_000, 0, 100, 7);
        let build = hashed((0..200_000).zip(kept).filter(|&(_, draw)| draw < 20).map(|(k, _)| k));
        let table = JoinHashTable::build(&Column::from_i64(build.clone())).unwrap();
        assert_eq!(table.directory(), "hashed+bits");
        let outer = datagen::fk_uniform(200_000, 200_000, 8);
        let hits = table.probe_semi(&Column::from_i64(outer.clone())).unwrap().len();
        let (steps, _) = chain_quality(build, outer);
        let per_hit = steps * 200_000.0 / hits as f64;
        assert!(steps <= 0.25 && per_hit <= 1.2, "{steps:.3} steps per row, {per_hit:.2} per hit");
    }

    #[test]
    fn keys_that_differ_only_in_high_bits_still_spread() {
        for shift in [20, 32, 40] {
            let (steps, longest) = all_hit_quality(hashed((0..200_000i64).map(|i| i << shift)));
            assert!(
                steps <= 1.05 && longest <= 2,
                "stride 1 << {shift}: {steps:.2} steps, longest {longest}"
            );
        }
    }

    #[test]
    fn keys_at_the_ends_of_i64_spread() {
        let below_zero = hashed((0..200_000).map(|m| -1 - m).chain([i64::MAX]));
        let below_max = hashed((0..200_000).map(|m| i64::MAX - m).chain([0]));
        for (name, keys) in [("-1 - m", below_zero), ("i64::MAX - m", below_max)] {
            let (steps, longest) = all_hit_quality(keys);
            assert!(steps <= 1.05 && longest <= 2, "{name}: {steps:.2} steps, longest {longest}");
        }
    }

    #[test]
    fn a_stride_of_ten_is_not_perfect_and_is_pinned_as_it_is() {
        // Fibonacci hashing does not give every stride one key a bucket: ten
        // golden-ratio steps land close to a whole turn, so neighbours pile
        // up — 1.99 steps per row, longest chain 3.
        let (steps, longest) = all_hit_quality(hashed((0..200_000).map(|i| i * 10)));
        assert!(steps <= 2.1 && longest <= 4, "{steps:.2} steps, longest {longest}");
    }
}
