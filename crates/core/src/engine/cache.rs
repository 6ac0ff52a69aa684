//! The cross-query Shapley result cache.
//!
//! The batch executor's structural dedup already computes each distinct
//! lineage structure once *per batch*; dashboards and top-k refresh
//! workloads repeat the same structures across `explain` calls and across
//! queries, recomputing them from scratch every time. [`ShapleyCache`] is
//! the missing layer: a thread-safe LRU keyed by a lineage's **canonical
//! fingerprint** (plus `n_endo` and a digest of the budget-relevant policy
//! knobs), storing canonical-space exact [`EngineResult`]s. A hit skips the
//! engine entirely; the stored values translate back through each task's
//! own [`shapdb_circuit::Fingerprint`] renaming — exactly, rational for
//! rational, the way intra-batch dedup hits do.
//!
//! What is (and is not) cached:
//!
//! * only **exact** results are stored — the Shapley value is a function of
//!   the canonical structure and `n_endo` alone, so a stored entry is valid
//!   for every isomorphic lineage forever;
//! * sampling estimates are never stored (they must be re-drawn per task —
//!   see the batch executor's per-task seeds) and deterministic proxy
//!   rankings are cheap enough not to bother;
//! * the key carries a digest of the planner/budget knobs that could change
//!   what a solve returns (forced engine, admission caps, timeout,
//!   node cap), so changing the policy can never serve a stale entry — it
//!   simply misses and recomputes.
//!
//! The cache is owned by the `shapdb` facade's `ShapleyAnalyzer` (default
//! on) and threaded through `Planner::solve` and `BatchExecutor::run`;
//! process-wide totals are surfaced via [`shapdb_metrics::counters`]
//! (`cache.hits` / `cache.misses` / `cache.evictions` / `cache.bypasses`).

use super::persist::PersistentLog;
use super::EngineResult;
use shapdb_circuit::FingerprintKey;
use shapdb_metrics::counters::{CACHE_BYPASSES, CACHE_EVICTIONS, CACHE_HITS, CACHE_MISSES};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning: every guarded section in this
/// module leaves the LRU (and the append log) structurally consistent, so
/// a panic unwinding through an unrelated thread must not turn the shared
/// cache into a panic-on-touch for everyone else.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identity of one cached canonical result.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// The canonical conjunct list ([`shapdb_circuit::fingerprint()`]),
    /// behind a shared handle so building a lookup key never copies it
    /// (`Arc<T>` hashes and compares through to `T`).
    pub structure: std::sync::Arc<FingerprintKey>,
    /// `|D_n|` — the completion weights (hence the values) depend on it.
    pub n_endo: usize,
    /// Digest of the budget-relevant solve knobs (forced engine, KC
    /// admission caps, per-lineage timeout, node cap): a changed policy
    /// changes the key, so stale entries are unreachable by construction.
    pub config: u64,
}

/// Point-in-time totals of one [`ShapleyCache`] instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted in LRU order to respect the capacity.
    pub evictions: u64,
    /// Solves that skipped the cache (inexact plan, no fingerprint, or a
    /// zero-capacity cache).
    pub bypasses: u64,
    /// Entries replayed from the persistent log at construction
    /// ([`ShapleyCache::with_persistence`]); 0 for in-memory-only caches.
    pub replayed: u64,
    /// Entries currently stored.
    pub len: usize,
    /// Maximum entries stored.
    pub capacity: usize,
}

/// Thread-safe LRU of canonical exact engine results (see module docs).
#[derive(Debug)]
pub struct ShapleyCache {
    inner: Mutex<Lru>,
    /// The durable tier, when [`ShapleyCache::with_persistence`] built this
    /// cache: first-time inserts write through to an append-only log under
    /// its own lock (I/O never blocks readers of the LRU lock).
    log: Option<Mutex<DurableTier>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    replayed: u64,
}

impl ShapleyCache {
    /// The facade's default capacity (entries, not bytes): generous for
    /// dashboard/top-k workloads, small next to the lineages themselves.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A cache holding at most `capacity` canonical results. A zero
    /// capacity stores nothing (every lookup is a bypass) — callers that
    /// want caching *off* should prefer not constructing one at all.
    pub fn with_capacity(capacity: usize) -> ShapleyCache {
        ShapleyCache {
            inner: Mutex::new(Lru::new(capacity)),
            log: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            replayed: 0,
        }
    }

    /// A cache backed by an append-only log at `path`: previously persisted
    /// entries are replayed into the LRU now (newest last, so when the log
    /// holds more than `capacity` entries the most recent survive), the log
    /// is compacted (duplicates and any torn tail dropped, file rewritten
    /// atomically), and every future first-time insert is appended — so a
    /// restarted process answers its old warm set from disk. See
    /// `engine/persist.rs` for the format and crash-safety model.
    pub fn with_persistence(capacity: usize, path: &Path) -> std::io::Result<ShapleyCache> {
        let mut cache = ShapleyCache::with_capacity(capacity);
        let entries = PersistentLog::load(path)?;
        let lru = cache
            .inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if capacity > 0 {
            for (key, result) in entries {
                lru.insert(key, result);
            }
        }
        cache.replayed = lru.map.len() as u64;
        // Compact in LRU order, least recent first, so a replay of the
        // rewritten log reconstructs the same recency order.
        let survivors: Vec<(&CacheKey, &EngineResult)> = lru
            .iter_lru_order()
            .map(|slot| (&slot.key, &slot.value))
            .collect();
        let log = PersistentLog::create(path, &survivors)?;
        let persisted = survivors.iter().map(|(key, _)| (*key).clone()).collect();
        drop(survivors);
        cache.log = Some(Mutex::new(DurableTier { log, persisted }));
        Ok(cache)
    }

    /// A cache with [`ShapleyCache::DEFAULT_CAPACITY`].
    pub fn new() -> ShapleyCache {
        ShapleyCache::with_capacity(ShapleyCache::DEFAULT_CAPACITY)
    }

    /// Looks `key` up, refreshing its recency on a hit. The returned result
    /// is in canonical space — translate it through the task's fingerprint.
    pub fn get(&self, key: &CacheKey) -> Option<EngineResult> {
        let mut lru = lock_recover(&self.inner);
        if lru.capacity == 0 {
            drop(lru);
            self.record_bypass();
            return None;
        }
        match lru.get(key) {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                CACHE_HITS.incr();
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                CACHE_MISSES.incr();
                None
            }
        }
    }

    /// Stores a canonical result, evicting the least-recently-used entry
    /// when full. Callers only insert **exact** results (debug-asserted).
    /// With a persistent tier attached, a key that is not yet in the log
    /// also appends one record (best-effort: an I/O failure drops
    /// durability for that entry, never the in-memory insert). A key
    /// evicted from the LRU and recomputed is already in the log, so it is
    /// not appended again.
    pub fn insert(&self, key: CacheKey, result: EngineResult) {
        debug_assert!(
            result.values.is_exact(),
            "only exact results belong in the cache"
        );
        let durable = if self.log.is_some() {
            Some((key.clone(), result.clone()))
        } else {
            None
        };
        let mut lru = lock_recover(&self.inner);
        if lru.capacity == 0 {
            return;
        }
        let evicted = lru.insert(key, result);
        drop(lru);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            CACHE_EVICTIONS.incr();
        }
        // Append outside the LRU lock: disk latency must not serialize the
        // solvers. A key already in the log (refreshed in the LRU, or
        // evicted and recomputed) stays as it is — exact results are a
        // function of the key, so re-appending would only grow the log.
        if let (Some(log), Some((key, result))) = (&self.log, durable) {
            let mut tier = lock_recover(log);
            if !tier.persisted.contains(&key) && tier.log.append(&key, &result).is_ok() {
                tier.persisted.insert(key);
            }
        }
    }

    /// Records that a solve skipped the cache (inexact plan, missing
    /// fingerprint, or disabled cache).
    pub fn record_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        CACHE_BYPASSES.incr();
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).map.len()
    }

    /// True iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        lock_recover(&self.inner).capacity
    }

    /// True iff the capacity is zero: nothing can ever be stored, so every
    /// solve is a bypass.
    pub fn is_disabled(&self) -> bool {
        self.capacity() == 0
    }

    /// Drops every entry (the stats keep accumulating). The persistent log,
    /// if any, is untouched — `clear` is an in-memory operation.
    pub fn clear(&self) {
        let mut lru = lock_recover(&self.inner);
        let capacity = lru.capacity;
        *lru = Lru::new(capacity);
    }

    /// Point-in-time totals of this instance.
    pub fn stats(&self) -> CacheStats {
        let lru = lock_recover(&self.inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            replayed: self.replayed,
            len: lru.map.len(),
            capacity: lru.capacity,
        }
    }
}

impl Default for ShapleyCache {
    fn default() -> Self {
        ShapleyCache::new()
    }
}

const NIL: usize = usize::MAX;

/// One entry of the intrusive LRU list.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    value: EngineResult,
    prev: usize,
    next: usize,
}

/// A classic LRU: hash map into a slab of doubly-linked slots, most recent
/// at the head. All operations are `O(1)` expected.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn slot(&self, i: usize) -> &Slot {
        self.slots[i].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        self.slots[i].as_mut().expect("live slot")
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        {
            let s = self.slot_mut(i);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot_mut(old_head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<EngineResult> {
        let i = *self.map.get(key)?;
        self.detach(i);
        self.push_front(i);
        Some(self.slot(i).value.clone())
    }

    /// Entries least-recently-used first (tail to head) — the order a
    /// compacted log is written in, so replaying it reconstructs recency.
    fn iter_lru_order(&self) -> impl Iterator<Item = &Slot> {
        let mut at = self.tail;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let s = self.slot(at);
            at = s.prev;
            Some(s)
        })
    }

    /// Inserts (or refreshes) an entry; true iff the least-recently-used
    /// entry was evicted to make room.
    fn insert(&mut self, key: CacheKey, value: EngineResult) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slot_mut(i).value = value;
            self.detach(i);
            self.push_front(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            self.detach(lru);
            let slot = self.slots[lru].take().expect("live tail");
            self.map.remove(&slot.key);
            self.free.push(lru);
            evicted = true;
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[i] = Some(Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.push_front(i);
        self.map.insert(key, i);
        evicted
    }
}

/// The append log plus the keys it holds, under one lock, so a key is
/// appended at most once however often the LRU evicts and recomputes it.
#[derive(Debug)]
struct DurableTier {
    log: PersistentLog,
    persisted: HashSet<CacheKey>,
}

#[cfg(test)]
mod tests {
    use super::super::{EngineKind, EngineValues, Measure};
    use super::*;
    use shapdb_circuit::VarId;
    use shapdb_kc::CompileStats;
    use shapdb_num::Rational;
    use std::time::Duration;

    fn key(tag: u32) -> CacheKey {
        CacheKey {
            structure: std::sync::Arc::new(vec![vec![tag]]),
            n_endo: 8,
            config: 0,
        }
    }

    fn result(tag: u32) -> EngineResult {
        EngineResult {
            engine: EngineKind::ReadOnce,
            measure: Measure::Shapley,
            values: EngineValues::Exact(vec![(VarId(tag), Rational::one())]),
            prep_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            num_facts: 1,
            cnf_clauses: 0,
            ddnnf_size: 1,
            compile_stats: CompileStats::default(),
        }
    }

    fn tag_of(r: &EngineResult) -> u32 {
        match &r.values {
            EngineValues::Exact(v) => v[0].0 .0,
            EngineValues::Approx(_) => panic!("exact only"),
        }
    }

    #[test]
    fn hit_miss_and_replace() {
        let cache = ShapleyCache::with_capacity(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), result(1));
        assert_eq!(cache.get(&key(1)).map(|r| tag_of(&r)), Some(1));
        cache.insert(key(1), result(7));
        assert_eq!(cache.get(&key(1)).map(|r| tag_of(&r)), Some(7));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 0));
    }

    #[test]
    fn eviction_is_lru_order() {
        let cache = ShapleyCache::with_capacity(2);
        cache.insert(key(1), result(1));
        cache.insert(key(2), result(2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), result(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "2 was least recently used");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn different_n_endo_and_config_are_distinct_entries() {
        let cache = ShapleyCache::with_capacity(8);
        cache.insert(key(1), result(1));
        let other_n = CacheKey {
            n_endo: 9,
            ..key(1)
        };
        let other_cfg = CacheKey {
            config: 42,
            ..key(1)
        };
        assert!(cache.get(&other_n).is_none());
        assert!(cache.get(&other_cfg).is_none());
        cache.insert(other_n.clone(), result(2));
        cache.insert(other_cfg.clone(), result(3));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&key(1)).map(|r| tag_of(&r)), Some(1));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = ShapleyCache::with_capacity(0);
        cache.insert(key(1), result(1));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.len(), 0);
        assert!(cache.stats().bypasses >= 1);
    }

    #[test]
    fn clear_keeps_capacity_and_stats() {
        let cache = ShapleyCache::with_capacity(3);
        cache.insert(key(1), result(1));
        assert!(cache.get(&key(1)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 3);
        assert_eq!(cache.stats().hits, 1, "stats survive clear");
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let cache = std::sync::Arc::new(ShapleyCache::with_capacity(4));
        cache.insert(key(1), result(1));
        // Poison the LRU lock: panic while holding it on another thread.
        let poisoner = std::sync::Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        // Pre-fix every one of these panicked ("cache lock"); now the
        // cache keeps serving — the guarded sections never leave the LRU
        // inconsistent, so recovery is sound.
        assert_eq!(cache.get(&key(1)).map(|r| tag_of(&r)), Some(1));
        cache.insert(key(2), result(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().hits >= 1);
    }

    fn tmp_log(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("shapdb-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn persistence_survives_a_restart() {
        let path = tmp_log("restart");
        let _ = std::fs::remove_file(&path);
        {
            let cache = ShapleyCache::with_persistence(8, &path).unwrap();
            assert_eq!(cache.stats().replayed, 0);
            cache.insert(key(1), result(1));
            cache.insert(key(2), result(2));
            // Refresh of an existing key appends nothing new.
            cache.insert(key(1), result(1));
        }
        let reborn = ShapleyCache::with_persistence(8, &path).unwrap();
        assert_eq!(reborn.stats().replayed, 2);
        assert_eq!(reborn.len(), 2);
        assert_eq!(reborn.get(&key(1)).map(|r| tag_of(&r)), Some(1));
        assert_eq!(reborn.get(&key(2)).map(|r| tag_of(&r)), Some(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_respects_capacity_keeping_the_most_recent() {
        let path = tmp_log("capacity");
        let _ = std::fs::remove_file(&path);
        {
            let cache = ShapleyCache::with_persistence(8, &path).unwrap();
            for i in 0..6u32 {
                cache.insert(key(i), result(i));
            }
        }
        // Restart with a smaller capacity: the most recently appended
        // entries survive, and the compacted log matches.
        let small = ShapleyCache::with_persistence(2, &path).unwrap();
        assert_eq!(small.len(), 2);
        assert_eq!(small.stats().replayed, 2);
        assert!(small.get(&key(4)).is_some());
        assert!(small.get(&key(5)).is_some());
        drop(small);
        let again = ShapleyCache::with_persistence(8, &path).unwrap();
        assert_eq!(again.len(), 2, "compaction dropped the evicted entries");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_log_replays_its_intact_prefix() {
        let path = tmp_log("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let cache = ShapleyCache::with_persistence(8, &path).unwrap();
            cache.insert(key(1), result(1));
            cache.insert(key(2), result(2));
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let reborn = ShapleyCache::with_persistence(8, &path).unwrap();
        assert_eq!(reborn.stats().replayed, 1, "torn tail record skipped");
        assert!(reborn.get(&key(1)).is_some());
        // The compaction rewrote a clean log; appends continue from there.
        reborn.insert(key(3), result(3));
        drop(reborn);
        let third = ShapleyCache::with_persistence(8, &path).unwrap();
        assert_eq!(third.stats().replayed, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_capacity_persistent_cache_stores_and_appends_nothing() {
        let path = tmp_log("zerocap");
        let _ = std::fs::remove_file(&path);
        let cache = ShapleyCache::with_persistence(0, &path).unwrap();
        cache.insert(key(1), result(1));
        drop(cache);
        let reborn = ShapleyCache::with_persistence(8, &path).unwrap();
        assert_eq!(reborn.stats().replayed, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evicted_and_recomputed_keys_are_appended_once() {
        let path = tmp_log("reappend");
        let _ = std::fs::remove_file(&path);
        let records = |path: &Path| PersistentLog::load(path).unwrap().len();
        {
            // Capacity 1: every insert evicts the other key.
            let cache = ShapleyCache::with_persistence(1, &path).unwrap();
            for round in 0..50u32 {
                let tag = round % 2;
                cache.insert(key(tag), result(tag));
            }
            assert_eq!(cache.stats().evictions, 49);
            assert_eq!(records(&path), 2, "one record per key");
        }
        // The restart's compaction survivors seed the persisted set: the
        // survivor is not appended again, the evicted key once more.
        let reborn = ShapleyCache::with_persistence(1, &path).unwrap();
        assert_eq!(records(&path), 1);
        for round in 0..10u32 {
            let tag = round % 2;
            reborn.insert(key(tag), result(tag));
        }
        assert_eq!(records(&path), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn churn_past_capacity_stays_bounded_and_consistent() {
        let cache = ShapleyCache::with_capacity(4);
        for round in 0..3u32 {
            for i in 0..16u32 {
                cache.insert(key(i), result(i + round));
            }
        }
        assert_eq!(cache.len(), 4);
        // The last four inserted survive, with the latest values.
        for i in 12..16u32 {
            assert_eq!(cache.get(&key(i)).map(|r| tag_of(&r)), Some(i + 2));
        }
        // No key is ever still resident when re-inserted (16 keys churn
        // through 4 slots), so every insert beyond the surviving 4 evicted.
        assert_eq!(cache.stats().evictions, 3 * 16 - 4);
    }
}
