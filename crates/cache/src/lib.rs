//! # minato-cache
//!
//! A sharded, memory-budgeted, cost-aware cache for preprocessed sample
//! outputs. MinatoLoader classifies samples as fast or slow at runtime,
//! but without a cache every epoch re-pays the slow path for the same
//! samples; [`ShardedCache`] memoizes preprocessed outputs so repeat
//! epochs become near-pure lookups.
//!
//! Design:
//!
//! * **Lock striping.** Keys hash to one of N shards, each guarded by
//!   its own mutex, so concurrent workers rarely contend.
//! * **Byte budget.** The global budget is split evenly across shards
//!   (`budget / shards` each); every shard enforces its slice *while
//!   holding its lock*, so total cached bytes never exceed the budget at
//!   any observable instant. Entries larger than one shard's slice are
//!   rejected outright (counted in [`CacheStats::rejected`]) rather than
//!   thrashing the whole shard.
//! * **Pluggable eviction.** [`EvictionPolicy::Lru`] evicts the
//!   least-recently-used entry; [`EvictionPolicy::CostAware`] evicts the
//!   entry with the *lowest observed preprocess cost* first (ties broken
//!   LRU), so expensive slow samples are the last to go — exactly the
//!   entries whose re-execution hurts most.
//! * **Observability.** Hits, misses, insertions, evictions, rejected
//!   inserts, live entries and bytes are all counted; see [`CacheStats`].
//!
//! # Examples
//!
//! ```
//! use minato_cache::{CacheConfig, EvictionPolicy, ShardedCache};
//! use std::time::Duration;
//!
//! let cache: ShardedCache<u32, String> = ShardedCache::new(CacheConfig {
//!     budget_bytes: 4096,
//!     shards: 4,
//!     policy: EvictionPolicy::CostAware,
//! });
//! cache.insert(7, "preprocessed".into(), 64, Duration::from_millis(120));
//! assert_eq!(cache.get(&7).as_deref(), Some("preprocessed"));
//! assert!(cache.get(&8).is_none());
//! let s = cache.stats();
//! assert_eq!((s.hits, s.misses), (1, 1));
//! ```

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which entry goes first when a shard exceeds its byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used entry.
    Lru,
    /// Evict the entry with the lowest recorded preprocess cost (ties
    /// broken least-recently-used), retaining expensive slow samples
    /// longest.
    CostAware,
}

/// Configuration for [`ShardedCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total byte budget across all shards. Zero disables admission
    /// entirely (every insert is rejected).
    pub budget_bytes: u64,
    /// Number of lock-striped shards; clamped to at least 1. Each shard
    /// enforces `budget_bytes / shards` independently.
    pub shards: usize,
    /// Eviction policy.
    pub policy: EvictionPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget_bytes: 0,
            shards: 8,
            policy: EvictionPolicy::CostAware,
        }
    }
}

/// Point-in-time cache counters, cheap to take from any thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Successful insertions (including same-key replacements).
    pub insertions: u64,
    /// Entries removed to make room under the byte budget.
    pub evictions: u64,
    /// Inserts refused because one entry exceeded a shard's budget slice.
    pub rejected: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident (never exceeds `budget_bytes`).
    pub bytes: u64,
    /// The configured total byte budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// `hits / lookups`, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

struct Entry<V> {
    value: V,
    bytes: u64,
    cost_ns: u64,
    stamp: u64,
}

/// One lock-striped shard: the value map plus an eviction-order index.
///
/// `order` maps `(rank, stamp) -> key`, where `rank` is 0 under LRU
/// (ordering collapses to recency) and the recorded preprocess cost
/// under CostAware (cheapest first, recency breaking ties). The first
/// entry of the BTreeMap is always the next victim.
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    order: BTreeMap<(u64, u64), K>,
    bytes: u64,
    clock: u64,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
            clock: 0,
        }
    }
}

/// A sharded, byte-budgeted cache. See the [crate docs](crate) for the
/// design and an example.
///
/// `K` must be hashable and cloneable (keys live in both the map and the
/// eviction index); `V` must be cloneable (`get` hands out a copy so the
/// cached original survives).
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_budget: u64,
    budget: u64,
    policy: EvictionPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    bytes: AtomicU64,
    entries: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates a cache with the given configuration (`shards` is clamped
    /// to at least 1).
    pub fn new(cfg: CacheConfig) -> ShardedCache<K, V> {
        let shards = cfg.shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: cfg.budget_bytes / shards as u64,
            budget: cfg.budget_bytes,
            policy: cfg.policy,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn rank(&self, cost_ns: u64) -> u64 {
        match self.policy {
            EvictionPolicy::Lru => 0,
            EvictionPolicy::CostAware => cost_ns,
        }
    }

    /// Looks up `key`, returning a clone of the cached value. A hit
    /// refreshes the entry's recency (it moves to the back of the
    /// eviction order within its cost rank).
    pub fn get(&self, key: &K) -> Option<V> {
        let mut guard = self.shards[self.shard_for(key)].lock();
        let st = &mut *guard;
        match st.map.get_mut(key) {
            Some(e) => {
                let old = (self.rank(e.cost_ns), e.stamp);
                e.stamp = st.clock;
                st.clock += 1;
                // minato-verify: allow(V1) order/map sync is the shard's core invariant; silently tolerating a desync would serve stale eviction state
                let k = st.order.remove(&old).expect("order and map in sync");
                st.order.insert((self.rank(e.cost_ns), e.stamp), k);
                let value = e.value.clone();
                drop(guard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(guard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key -> value`, accounted as `weight_bytes` (clamped to at
    /// least 1) and tagged with its observed preprocess `cost`. Evicts
    /// per the configured policy until the entry fits its shard's budget
    /// slice. Returns `false` (and counts a rejection) when the entry
    /// could never fit. Re-inserting an existing key replaces the entry
    /// and refreshes its cost tag.
    pub fn insert(&self, key: K, value: V, weight_bytes: u64, cost: Duration) -> bool {
        let weight = weight_bytes.max(1);
        if weight > self.shard_budget {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let cost_ns = cost.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut guard = self.shards[self.shard_for(&key)].lock();
        let st = &mut *guard;
        if let Some(old) = st.map.remove(&key) {
            st.order.remove(&(self.rank(old.cost_ns), old.stamp));
            st.bytes -= old.bytes;
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        while st.bytes + weight > self.shard_budget {
            let Some((_, victim)) = st.order.pop_first() else {
                break; // Unreachable: weight <= shard_budget and bytes = 0.
            };
            // minato-verify: allow(V1) victim came from `order` under the same shard lock; a miss means corrupted accounting
            let e = st.map.remove(&victim).expect("order and map in sync");
            st.bytes -= e.bytes;
            self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let stamp = st.clock;
        st.clock += 1;
        st.order.insert((self.rank(cost_ns), stamp), key.clone());
        st.map.insert(
            key,
            Entry {
                value,
                bytes: weight,
                cost_ns,
                stamp,
            },
        );
        st.bytes += weight;
        self.bytes.fetch_add(weight, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Whether `key` is resident, without touching recency or hit/miss
    /// counters.
    pub fn contains(&self, key: &K) -> bool {
        self.shards[self.shard_for(key)]
            .lock()
            .map
            .contains_key(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes. Because shard updates subtract before they add,
    /// this observation never exceeds [`ShardedCache::budget_bytes`].
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The configured total byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Drops every entry (counters other than `entries`/`bytes` are
    /// preserved).
    pub fn clear(&self) {
        for sh in &self.shards {
            let mut st = sh.lock();
            self.bytes.fetch_sub(st.bytes, Ordering::Relaxed);
            self.entries
                .fetch_sub(st.map.len() as u64, Ordering::Relaxed);
            st.map.clear();
            st.order.clear();
            st.bytes = 0;
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn cache(budget: u64, shards: usize, policy: EvictionPolicy) -> ShardedCache<u64, u64> {
        ShardedCache::new(CacheConfig {
            budget_bytes: budget,
            shards,
            policy,
        })
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn get_insert_round_trip() {
        let c = cache(1024, 4, EvictionPolicy::Lru);
        assert!(c.get(&1).is_none());
        assert!(c.insert(1, 100, 8, ms(5)));
        assert_eq!(c.get(&1), Some(100));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 8);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let c = cache(1024, 1, EvictionPolicy::Lru);
        c.insert(1, 10, 100, ms(1));
        c.insert(1, 20, 200, ms(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 200);
        assert_eq!(c.get(&1), Some(20));
        assert_eq!(c.stats().evictions, 0, "replacement is not an eviction");
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Single shard, room for exactly 3 unit-weight entries.
        let c = cache(3, 1, EvictionPolicy::Lru);
        c.insert(1, 1, 1, ms(1));
        c.insert(2, 2, 1, ms(1));
        c.insert(3, 3, 1, ms(1));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1), Some(1));
        c.insert(4, 4, 1, ms(1));
        assert!(c.contains(&1), "recently used must survive");
        assert!(!c.contains(&2), "least recently used must be evicted");
        assert!(c.contains(&3) && c.contains(&4));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn cost_aware_evicts_cheapest_first() {
        let c = cache(3, 1, EvictionPolicy::CostAware);
        c.insert(1, 1, 1, ms(500)); // Expensive: last to go.
        c.insert(2, 2, 1, ms(1)); // Cheapest: first victim.
        c.insert(3, 3, 1, ms(50));
        // Recency must not override cost: touch the cheap entry anyway.
        assert_eq!(c.get(&2), Some(2));
        c.insert(4, 4, 1, ms(100));
        assert!(!c.contains(&2), "cheapest-cost entry must be evicted");
        assert!(c.contains(&1), "highest-cost entry must survive");
        c.insert(5, 5, 1, ms(100));
        assert!(!c.contains(&3), "next-cheapest goes next");
        assert!(c.contains(&1));
    }

    #[test]
    fn cost_aware_breaks_ties_lru() {
        let c = cache(2, 1, EvictionPolicy::CostAware);
        c.insert(1, 1, 1, ms(10));
        c.insert(2, 2, 1, ms(10));
        assert_eq!(c.get(&1), Some(1)); // 2 is now the older equal-cost entry.
        c.insert(3, 3, 1, ms(10));
        assert!(!c.contains(&2));
        assert!(c.contains(&1));
    }

    #[test]
    fn oversized_entries_are_rejected() {
        // 64 bytes over 4 shards: 16 per shard.
        let c = cache(64, 4, EvictionPolicy::Lru);
        assert!(!c.insert(1, 1, 17, ms(1)));
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().rejected, 1);
        assert!(c.insert(2, 2, 16, ms(1)), "exactly shard-sized fits");
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let c = cache(0, 4, EvictionPolicy::CostAware);
        assert!(!c.insert(1, 1, 1, ms(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn zero_weight_counts_as_one_byte() {
        let c = cache(2, 1, EvictionPolicy::Lru);
        c.insert(1, 1, 0, ms(1));
        c.insert(2, 2, 0, ms(1));
        c.insert(3, 3, 0, ms(1));
        assert_eq!(c.len(), 2, "weight clamps to 1, budget still binds");
    }

    #[test]
    fn clear_empties_but_keeps_history() {
        let c = cache(1024, 4, EvictionPolicy::Lru);
        for i in 0..10 {
            c.insert(i, i, 4, ms(1));
        }
        c.get(&0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        let s = c.stats();
        assert_eq!(s.insertions, 10);
        assert_eq!(s.hits, 1);
        assert!(c.insert(99, 99, 4, ms(1)), "cache usable after clear");
    }

    #[test]
    fn shards_clamped_to_one() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(CacheConfig {
            budget_bytes: 16,
            shards: 0,
            policy: EvictionPolicy::Lru,
        });
        assert!(c.insert(1, 1, 1, ms(1)));
        assert_eq!(c.get(&1), Some(1));
    }

    /// Acceptance: under concurrent insert pressure from many threads,
    /// an observer never sees resident bytes exceed the budget, and the
    /// final state is internally consistent.
    #[test]
    fn concurrent_inserts_never_exceed_budget() {
        const BUDGET: u64 = 64 * 1024;
        let c = Arc::new(cache(BUDGET, 4, EvictionPolicy::CostAware));
        let stop = Arc::new(AtomicBool::new(false));
        let observer = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let b = c.bytes();
                    assert!(b <= BUDGET, "observed {b} bytes over budget {BUDGET}");
                    observations += 1;
                }
                observations
            })
        };
        let workers: Vec<_> = (0..8u64)
            .map(|w| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(w);
                    for i in 0..4000u64 {
                        let key = rng.random_range(0u64..512);
                        let weight = rng.random_range(1u64..4096);
                        let cost = Duration::from_micros(rng.random_range(0u64..10_000));
                        c.insert(key, w * 10_000 + i, weight, cost);
                        if i % 3 == 0 {
                            let probe = rng.random_range(0u64..512);
                            let _ = c.get(&probe);
                        }
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("insert worker panicked");
        }
        stop.store(true, Ordering::Relaxed);
        let observations = observer.join().expect("observer panicked");
        assert!(observations > 0, "observer must have sampled the cache");
        assert!(c.bytes() <= BUDGET);
        // Replacements remove entries without counting as evictions, so
        // the exact balance is an inequality.
        let s = c.stats();
        assert!(s.entries + s.evictions <= s.insertions);
        assert_eq!(s.entries as usize, c.len());
    }

    proptest! {
        /// Random single-threaded op sequences keep the byte accounting
        /// within budget and the map/order index in sync at every step.
        #[test]
        fn random_ops_respect_budget(
            keys in proptest::collection::vec(0u64..48, 64),
            weights in proptest::collection::vec(1u64..300, 64),
            costs in proptest::collection::vec(0u64..1_000, 64),
            budget in 1u64..2_000,
            shards in 1usize..5,
        ) {
            let c = cache(budget, shards, EvictionPolicy::CostAware);
            for ((&k, &w), &cost) in keys.iter().zip(&weights).zip(&costs) {
                if k % 3 == 0 {
                    let _ = c.get(&k);
                } else {
                    c.insert(k, k, w, Duration::from_micros(cost));
                }
                prop_assert!(c.bytes() <= budget, "bytes {} > budget {budget}", c.bytes());
                let s = c.stats();
                prop_assert!(s.entries + s.evictions <= s.insertions);
            }
        }
    }
}
