//! Cross-epoch sample cache: loader-side integration of
//! [`minato_cache`].
//!
//! MinatoLoader's fast/slow classification removes head-of-line blocking
//! *within* an epoch, but a vanilla multi-epoch run re-pays the full
//! preprocessing cost — including the slow path — for the same samples
//! every epoch. With a cache configured (builder knobs
//! `cache_budget_bytes` / `cache_policy` / `cache_weigher`), loader
//! workers consult the cache before loading a sample; a hit is delivered
//! straight onto the fast path, bypassing the dataset, the pipeline,
//! *and* timeout classification. On a miss, the completion path (fast
//! worker or background slow worker) admits the preprocessed output
//! tagged with its measured preprocess duration, so under
//! [`EvictionPolicy::CostAware`] the samples that were slowest to
//! produce are the last to be evicted.
//!
//! Cache hits never feed the balancer's profiler: a ~0 ms hit recorded
//! into the warm-up/P75 estimator would drag the adaptive timeout toward
//! zero and misclassify every genuinely-processed sample as slow.
//! Consequently [`crate::stats::LoaderStats::samples_done`] keeps
//! counting *pipeline executions*; delivered-but-cached samples appear
//! in [`CacheStats::hits`] instead.
//!
//! **Caveat:** the cache memoizes pipeline *outputs*, so stochastic
//! augmentations freeze — epochs 2+ replay exactly what epoch 1
//! produced. Enable it only when preprocessing is deterministic or
//! replaying augmented samples is an acceptable trade for the speedup.

pub use minato_cache::{CacheConfig, CacheStats, EvictionPolicy, ShardedCache};

use std::sync::Arc;
use std::time::Duration;

/// Sizing function for cached samples; see
/// [`MinatoLoaderBuilder::cache_weigher`](crate::loader::MinatoLoaderBuilder::cache_weigher).
pub type SampleWeigher<S> = Arc<dyn Fn(&S) -> u64 + Send + Sync>;

/// A preprocessed sample served from the cache.
///
/// The admission-time preprocess cost is not carried here: the runtime
/// stamps hits with a zero preprocess time (the cost actually paid this
/// epoch); the original cost lives on as the entry's eviction rank
/// inside the [`ShardedCache`].
pub struct CachedSample<S> {
    /// The preprocessed sample, ready for batching.
    pub sample: S,
    /// Raw on-storage bytes recorded at admission (throughput
    /// accounting).
    pub bytes: u64,
}

/// The cache interface the loader runtime talks to.
///
/// The builder installs [`ClonedSampleCache`] when the sample type is
/// `Clone + Sync`; custom implementations can layer different storage
/// (e.g. serialized spill-to-disk) behind the same calls.
pub trait SampleCache<S>: Send + Sync + 'static {
    /// Returns the cached output for dataset index `index`, if resident.
    fn lookup(&self, index: usize) -> Option<CachedSample<S>>;

    /// Admits a freshly preprocessed sample, tagged with its raw size
    /// and measured preprocess duration.
    fn admit(&self, index: usize, sample: &S, raw_bytes: u64, cost: Duration);

    /// Counter snapshot.
    fn stats(&self) -> CacheStats;
}

struct Stored<S> {
    sample: S,
    raw_bytes: u64,
}

/// [`SampleCache`] over a [`ShardedCache`], storing clones of the
/// preprocessed samples keyed by dataset index.
///
/// Entries are held behind an `Arc`, so a hit only clones a pointer
/// while the shard lock is held; the deep copy handed to the batch
/// happens outside the lock and never serializes other workers hitting
/// the same shard.
pub struct ClonedSampleCache<S: Clone + Send + Sync + 'static> {
    inner: ShardedCache<usize, Arc<Stored<S>>>,
    weigher: Option<SampleWeigher<S>>,
}

impl<S: Clone + Send + Sync + 'static> ClonedSampleCache<S> {
    /// Creates a cache sized by the default weight estimate:
    /// `max(raw_bytes, size_of::<S>(), 1)`.
    pub fn new(cfg: CacheConfig) -> ClonedSampleCache<S> {
        ClonedSampleCache::with_weigher(cfg, None)
    }

    /// Creates a cache with an explicit per-sample weigher. Samples with
    /// heap payloads (tensors, audio buffers) should supply one: the
    /// default estimate only sees the raw-size hint and the shallow
    /// struct size.
    pub fn with_weigher(
        cfg: CacheConfig,
        weigher: Option<SampleWeigher<S>>,
    ) -> ClonedSampleCache<S> {
        ClonedSampleCache {
            inner: ShardedCache::new(cfg),
            weigher,
        }
    }
}

impl<S: Clone + Send + Sync + 'static> SampleCache<S> for ClonedSampleCache<S> {
    fn lookup(&self, index: usize) -> Option<CachedSample<S>> {
        // `get` clones only the Arc under the shard lock; the sample's
        // deep copy below runs lock-free.
        self.inner.get(&index).map(|st| CachedSample {
            sample: st.sample.clone(),
            bytes: st.raw_bytes,
        })
    }

    fn admit(&self, index: usize, sample: &S, raw_bytes: u64, cost: Duration) {
        let weight = match &self.weigher {
            Some(w) => w(sample),
            None => raw_bytes.max(std::mem::size_of::<S>() as u64),
        };
        self.inner.insert(
            index,
            Arc::new(Stored {
                sample: sample.clone(),
                raw_bytes,
            }),
            weight,
            cost,
        );
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_round_trips_metadata() {
        let c: ClonedSampleCache<u32> = ClonedSampleCache::new(CacheConfig {
            budget_bytes: 1024,
            shards: 2,
            policy: EvictionPolicy::CostAware,
        });
        assert!(c.lookup(3).is_none());
        c.admit(3, &30, 128, Duration::from_millis(7));
        let hit = c.lookup(3).expect("admitted");
        assert_eq!(hit.sample, 30);
        assert_eq!(hit.bytes, 128);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn default_weigher_floors_at_struct_size() {
        // raw_bytes 0 (no size hint) must still account real memory.
        let c: ClonedSampleCache<u64> = ClonedSampleCache::new(CacheConfig {
            budget_bytes: 1024,
            shards: 1,
            policy: EvictionPolicy::Lru,
        });
        c.admit(0, &9, 0, Duration::ZERO);
        assert!(c.stats().bytes >= std::mem::size_of::<u64>() as u64);
    }

    #[test]
    fn custom_weigher_overrides_default() {
        let c: ClonedSampleCache<Vec<u8>> = ClonedSampleCache::with_weigher(
            CacheConfig {
                budget_bytes: 1000,
                shards: 1,
                policy: EvictionPolicy::Lru,
            },
            Some(Arc::new(|v: &Vec<u8>| v.len() as u64)),
        );
        c.admit(0, &vec![0u8; 300], 0, Duration::ZERO);
        assert_eq!(c.stats().bytes, 300);
        c.admit(1, &vec![0u8; 900], 0, Duration::ZERO);
        assert!(!c.inner.contains(&0), "budget forced eviction by weigher");
    }
}
