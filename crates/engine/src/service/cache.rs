//! The query service's one cache: a bounded result cache with explicit
//! invalidation.
//!
//! It keys on [`crate::Plan::signature`] — the canonical structural
//! encoding of the DAG including every operator parameter and every cut —
//! so two clients building "the same query" hit the same entry while "same
//! shape, different constants" never collides.
//!
//! **Keying rules** (also documented in `docs/architecture.md` §8.3):
//! `signature → (QueryOutput, referenced tables)`. A hit returns the stored
//! output without touching the engine, so it is only correct while the
//! underlying tables are unchanged — any mutation must call
//! [`ResultCache::invalidate_table`] (or swap the catalog, which
//! invalidates everything), and an output computed from a catalog that was
//! swapped out while it ran is never stored ([`ResultCache::insert`]).
//! A miss executes its own clone of the plan (`docs/architecture.md` §8.3
//! says why plans are not cached).
//!
//! The cache is bounded: insertion beyond capacity evicts the least
//! recently *used* entry (lookups refresh recency).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::chunk::QueryOutput;
use crate::sync::lock;

/// A bounded map with least-recently-used eviction.
/// Recency is tracked in a `VecDeque` of keys (front = coldest); `get`
/// refreshes, `insert` evicts from the front once full.
struct LruMap<V> {
    capacity: usize,
    map: HashMap<String, V>,
    recency: VecDeque<String>,
}

impl<V> LruMap<V> {
    fn new(capacity: usize) -> Self {
        LruMap { capacity, map: HashMap::new(), recency: VecDeque::new() }
    }

    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.recency.iter().position(|k| k == key) {
            let k = self.recency.remove(pos).expect("position is in range");
            self.recency.push_back(k);
        }
    }

    fn get(&mut self, key: &str) -> Option<&V> {
        if self.map.contains_key(key) {
            self.touch(key);
        }
        self.map.get(key)
    }

    fn insert(&mut self, key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_some() {
            self.touch(&key);
            return;
        }
        self.recency.push_back(key);
        while self.map.len() > self.capacity {
            if let Some(coldest) = self.recency.pop_front() {
                self.map.remove(&coldest);
            }
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|_, v| keep(v));
        self.recency.retain(|k| self.map.contains_key(k));
        before - self.map.len()
    }

    fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.recency.clear();
        n
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One stored result: the output plus the tables it was computed from
/// (the invalidation keys).
struct CachedResult {
    output: QueryOutput,
    tables: Vec<String>,
}

/// Shared result cache: plan signature → output. Bounded, LRU, with
/// explicit per-table and whole-cache invalidation.
pub(crate) struct ResultCache {
    entries: Mutex<LruMap<CachedResult>>,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache { entries: Mutex::new(LruMap::new(capacity)) }
    }

    pub(crate) fn get(&self, signature: &str) -> Option<QueryOutput> {
        lock(&self.entries).get(signature).map(|r| r.output.clone())
    }

    /// Stores `output` unless `current`, asked under the cache's lock,
    /// says the data it was computed from has been replaced meanwhile. A
    /// replacement that clears the cache after it swapped the data thus
    /// either is seen here or clears this entry.
    pub(crate) fn insert(
        &self,
        signature: String,
        output: QueryOutput,
        tables: Vec<String>,
        current: impl FnOnce() -> bool,
    ) {
        let mut entries = lock(&self.entries);
        if current() {
            entries.insert(signature, CachedResult { output, tables });
        }
    }

    /// Drops every entry computed from `table`; returns how many.
    pub(crate) fn invalidate_table(&self, table: &str) -> usize {
        lock(&self.entries).retain(|r| !r.tables.iter().any(|t| t == table))
    }

    /// Drops everything; returns how many entries were held.
    pub(crate) fn invalidate_all(&self) -> usize {
        lock(&self.entries).clear()
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.entries).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::ScalarValue;

    fn out(v: i64) -> QueryOutput {
        QueryOutput::Scalar(ScalarValue::I64(v))
    }

    #[test]
    fn lru_evicts_coldest_and_lookups_refresh() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), out(1), vec![], || true);
        cache.insert("b".into(), out(2), vec![], || true);
        // Touch `a` so `b` is the coldest entry, then overflow.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), out(3), vec![], || true);
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "coldest entry was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_cache() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), out(1), vec![], || true);
        cache.insert("a".into(), out(2), vec![], || true);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a"), Some(out(2)));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache = ResultCache::new(0);
        cache.insert("a".into(), out(1), vec![], || true);
        assert_eq!(cache.len(), 0);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn table_invalidation_is_selective() {
        let cache = ResultCache::new(8);
        cache.insert("q1".into(), out(1), vec!["orders".into()], || true);
        cache.insert("q2".into(), out(2), vec!["orders".into(), "lineitem".into()], || true);
        cache.insert("q3".into(), out(3), vec!["part".into()], || true);
        assert_eq!(cache.invalidate_table("orders"), 2);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_none());
        assert!(cache.get("q3").is_some());
        assert_eq!(cache.invalidate_all(), 1);
        assert_eq!(cache.len(), 0);
    }
}
