//! Simulated hardware resources: CPU worker pools, GPUs, storage with a
//! page cache.
//!
//! All resources use *service-time* semantics: a task submitted at `now`
//! is assigned a start time (when a server/the device frees up) and an end
//! time, both returned to the caller, and the busy interval is recorded
//! for utilization reporting. This is exact for FIFO disciplines, which is
//! how the real systems behave (queue per device, in-order DMA, etc.).

use crate::busy::IntervalAccumulator;
use crate::time::{SimDuration, SimTime};
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// A pool of identical FIFO servers (CPU preprocessing workers).
///
/// Capacity can change at runtime (the adaptive worker scheduler of
/// §4.3): growing adds servers free immediately; shrinking retires the
/// servers with the latest free times (they finish their current task
/// first).
#[derive(Debug)]
pub struct ServerPool {
    /// Free-at time per active server (unordered).
    free_at: Vec<SimTime>,
    busy: IntervalAccumulator,
}

impl ServerPool {
    /// Creates a pool of `n` servers, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, bucket: SimDuration) -> ServerPool {
        assert!(n > 0, "pool needs at least one server");
        ServerPool {
            free_at: vec![SimTime::ZERO; n],
            busy: IntervalAccumulator::new(bucket),
        }
    }

    /// Current number of servers.
    pub fn capacity(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a task of `dur` at `now`; returns `(start, end)`.
    pub fn submit(&mut self, now: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        // Argmin over free times; the pool is never empty (`new`
        // asserts, `resize` clamps), so index 0 always exists.
        let mut idx = 0;
        for (i, t) in self.free_at.iter().enumerate().skip(1) {
            if *t < self.free_at[idx] {
                idx = i;
            }
        }
        let start = self.free_at[idx].max(now);
        let end = start + dur;
        self.free_at[idx] = end;
        self.busy.add(start, end);
        (start, end)
    }

    /// Changes the pool size to `target` (≥ 1). Growing servers become
    /// free at `now`.
    pub fn resize(&mut self, now: SimTime, target: usize) {
        let target = target.max(1);
        while self.free_at.len() < target {
            self.free_at.push(now);
        }
        while self.free_at.len() > target {
            // Retire the server that frees last (argmax; the loop guard
            // keeps the vec non-empty).
            let mut idx = 0;
            for (i, t) in self.free_at.iter().enumerate().skip(1) {
                if *t > self.free_at[idx] {
                    idx = i;
                }
            }
            self.free_at.swap_remove(idx);
        }
    }

    /// Utilization accumulator (busy worker-seconds per bucket).
    pub fn busy(&self) -> &IntervalAccumulator {
        &self.busy
    }

    /// Fraction of the last-`window` bucket capacity that was busy, for
    /// the scheduler's `Cusage` input.
    pub fn recent_utilization(&self, now: SimTime, window: SimDuration) -> f64 {
        let cap = window.as_secs_f64() * self.capacity() as f64;
        if cap <= 0.0 {
            return 0.0;
        }
        (self
            .busy
            .busy_seconds_between(now.saturating_sub_dur(window), now)
            / cap)
            .clamp(0.0, 1.0)
    }
}

/// One GPU: a single FIFO timeline shared by training steps and (under
/// DALI) preprocessing kernels.
#[derive(Debug)]
pub struct Gpu {
    free_at: SimTime,
    train_busy: IntervalAccumulator,
    preproc_busy: IntervalAccumulator,
}

impl Gpu {
    /// Creates an idle GPU.
    pub fn new(bucket: SimDuration) -> Gpu {
        Gpu {
            free_at: SimTime::ZERO,
            train_busy: IntervalAccumulator::new(bucket),
            preproc_busy: IntervalAccumulator::new(bucket),
        }
    }

    /// Schedules a training step at `now`; returns `(start, end)`.
    pub fn train(&mut self, now: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at.max(now);
        let end = start + dur;
        self.free_at = end;
        self.train_busy.add(start, end);
        (start, end)
    }

    /// Schedules preprocessing work (DALI) at `now`; returns
    /// `(start, end)`.
    pub fn preprocess(&mut self, now: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at.max(now);
        let end = start + dur;
        self.free_at = end;
        self.preproc_busy.add(start, end);
        (start, end)
    }

    /// When the GPU next frees up (≥ `now`).
    pub fn free_at(&self, now: SimTime) -> SimTime {
        self.free_at.max(now)
    }

    /// Training busy intervals.
    pub fn train_busy(&self) -> &IntervalAccumulator {
        &self.train_busy
    }

    /// Preprocessing busy intervals.
    pub fn preproc_busy(&self) -> &IntervalAccumulator {
        &self.preproc_busy
    }
}

/// Result of a storage read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// When the data is available.
    pub ready_at: SimTime,
    /// Whether it came from the page cache.
    pub cache_hit: bool,
}

/// Backing storage with finite bandwidth and an LRU page cache.
///
/// Reads are serialized FIFO at `bandwidth` (a good model for both a
/// saturated Lustre link and a local NVMe). Cache hits cost a DRAM copy at
/// `cache_bandwidth`. The cache capacity models the paper's cgroup memory
/// limit (§5.5).
#[derive(Debug)]
pub struct Storage {
    bandwidth_bps: f64,
    cache_bandwidth_bps: f64,
    free_at: SimTime,
    cache_capacity: u64,
    cache_used: u64,
    /// id → (bytes, last-use tick).
    cache: HashMap<u64, (u64, u64)>,
    /// Lazy LRU heap of (Reverse(tick), id).
    lru: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    tick: u64,
    disk_read: IntervalAccumulator,
    bytes_from_disk: u64,
    bytes_from_cache: u64,
}

impl Storage {
    /// Creates storage with `bandwidth_bps` disk bandwidth and an LRU
    /// cache of `cache_capacity` bytes.
    pub fn new(bandwidth_bps: f64, cache_capacity: u64, bucket: SimDuration) -> Storage {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        Storage {
            bandwidth_bps,
            cache_bandwidth_bps: 20e9, // DRAM-copy speed.
            free_at: SimTime::ZERO,
            cache_capacity,
            cache_used: 0,
            cache: HashMap::new(),
            lru: BinaryHeap::new(),
            tick: 0,
            disk_read: IntervalAccumulator::new(bucket),
            bytes_from_disk: 0,
            bytes_from_cache: 0,
        }
    }

    /// Reads sample `id` (`bytes` long) at `now`.
    pub fn read(&mut self, now: SimTime, id: u64, bytes: u64) -> ReadResult {
        self.tick += 1;
        if let Some(entry) = self.cache.get_mut(&id) {
            entry.1 = self.tick;
            self.lru.push(std::cmp::Reverse((self.tick, id)));
            self.bytes_from_cache += bytes;
            let dur = SimDuration::from_secs_f64(bytes as f64 / self.cache_bandwidth_bps);
            return ReadResult {
                ready_at: now + dur,
                cache_hit: true,
            };
        }
        // Miss: FIFO through the disk.
        let dur = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
        let start = self.free_at.max(now);
        let end = start + dur;
        self.free_at = end;
        self.disk_read.add_weighted(start, end, bytes as f64);
        self.bytes_from_disk += bytes;
        self.insert_cache(id, bytes);
        ReadResult {
            ready_at: end,
            cache_hit: false,
        }
    }

    fn insert_cache(&mut self, id: u64, bytes: u64) {
        if bytes > self.cache_capacity {
            return; // Larger than the whole cache: never cached.
        }
        while self.cache_used + bytes > self.cache_capacity {
            match self.lru.pop() {
                Some(std::cmp::Reverse((tick, victim))) => {
                    // Lazy entry: only evict if this is the *current* tick
                    // for the victim.
                    if let Some(&(vbytes, vtick)) = self.cache.get(&victim) {
                        if vtick == tick {
                            self.cache.remove(&victim);
                            self.cache_used -= vbytes;
                        }
                    }
                }
                None => return, // Nothing to evict (shouldn't happen).
            }
        }
        self.cache.insert(id, (bytes, self.tick));
        self.lru.push(std::cmp::Reverse((self.tick, id)));
        self.cache_used += bytes;
    }

    /// Bytes currently cached.
    pub fn cache_used(&self) -> u64 {
        self.cache_used
    }

    /// Bytes served from disk so far.
    pub fn bytes_from_disk(&self) -> u64 {
        self.bytes_from_disk
    }

    /// Bytes served from cache so far.
    pub fn bytes_from_cache(&self) -> u64 {
        self.bytes_from_cache
    }

    /// Disk-read byte-weighted intervals (for GB/s traces, Figure 10).
    pub fn disk_read(&self) -> &IntervalAccumulator {
        &self.disk_read
    }
}

/// A bounded FIFO of ready items with occupancy history — the simulated
/// batch queue.
#[derive(Debug)]
pub struct SimQueue<T> {
    items: VecDeque<(SimTime, T)>,
    capacity: usize,
}

impl<T> SimQueue<T> {
    /// Creates a queue with `capacity` slots.
    pub fn new(capacity: usize) -> SimQueue<T> {
        SimQueue {
            items: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes an item that became ready at `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.items.push_back((at, item));
    }

    /// Pops the oldest item, returning `(ready_at, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.items.pop_front()
    }

    /// Ready time of the oldest item.
    pub fn front_ready_at(&self) -> Option<SimTime> {
        self.items.front().map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: SimDuration = SimDuration(1_000_000_000);

    #[test]
    fn pool_serves_fifo_across_servers() {
        let mut p = ServerPool::new(2, B);
        let d = SimDuration::from_secs_f64(1.0);
        let (s1, e1) = p.submit(SimTime::ZERO, d);
        let (s2, e2) = p.submit(SimTime::ZERO, d);
        let (s3, _e3) = p.submit(SimTime::ZERO, d);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, SimTime::ZERO);
        // Third task waits for the earliest of e1/e2.
        assert_eq!(s3, e1.min(e2));
    }

    #[test]
    fn pool_resize_grows_and_shrinks() {
        let mut p = ServerPool::new(1, B);
        let d = SimDuration::from_secs_f64(10.0);
        let _ = p.submit(SimTime::ZERO, d);
        p.resize(SimTime::from_secs_f64(1.0), 3);
        assert_eq!(p.capacity(), 3);
        // New server free at resize time, so next task starts at 1s.
        let (s, _) = p.submit(SimTime::from_secs_f64(1.0), d);
        assert_eq!(s, SimTime::from_secs_f64(1.0));
        p.resize(SimTime::from_secs_f64(1.0), 1);
        assert_eq!(p.capacity(), 1);
    }

    #[test]
    fn pool_utilization_window() {
        let mut p = ServerPool::new(1, B);
        p.submit(SimTime::ZERO, SimDuration::from_secs_f64(0.5));
        let u = p.recent_utilization(SimTime::from_secs_f64(1.0), SimDuration::from_secs_f64(1.0));
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn gpu_serializes_train_and_preprocess() {
        let mut g = Gpu::new(B);
        let (_, e1) = g.train(SimTime::ZERO, SimDuration::from_secs_f64(1.0));
        let (s2, e2) = g.preprocess(SimTime::ZERO, SimDuration::from_secs_f64(0.5));
        assert_eq!(s2, e1, "preprocess waits for training");
        assert_eq!(g.free_at(SimTime::ZERO), e2);
    }

    #[test]
    fn storage_miss_then_hit() {
        let mut s = Storage::new(1e9, 1_000_000, B);
        let r1 = s.read(SimTime::ZERO, 7, 500_000);
        assert!(!r1.cache_hit);
        assert!((r1.ready_at.as_secs_f64() - 0.0005).abs() < 1e-9);
        let r2 = s.read(r1.ready_at, 7, 500_000);
        assert!(r2.cache_hit);
        assert!(r2.ready_at < r1.ready_at + SimDuration::from_secs_f64(0.0005));
        assert_eq!(s.bytes_from_disk(), 500_000);
        assert_eq!(s.bytes_from_cache(), 500_000);
    }

    #[test]
    fn storage_lru_evicts_oldest() {
        let mut s = Storage::new(1e9, 1_000, B);
        let _ = s.read(SimTime::ZERO, 1, 600);
        let _ = s.read(SimTime::ZERO, 2, 600); // Evicts 1.
        assert!(s.cache_used() <= 1_000);
        let r = s.read(SimTime::ZERO, 1, 600); // 1 was evicted: miss.
        assert!(!r.cache_hit);
        let r = s.read(SimTime::ZERO, 1, 600); // Now cached again.
        assert!(r.cache_hit);
    }

    #[test]
    fn storage_serializes_reads() {
        let mut s = Storage::new(1e6, 0, B); // 1 MB/s, no cache.
        let r1 = s.read(SimTime::ZERO, 1, 1_000_000); // 1s.
        let r2 = s.read(SimTime::ZERO, 2, 1_000_000); // Queued behind.
        assert!((r1.ready_at.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((r2.ready_at.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_object_not_cached() {
        let mut s = Storage::new(1e9, 100, B);
        let _ = s.read(SimTime::ZERO, 1, 500);
        let r = s.read(SimTime::ZERO, 1, 500);
        assert!(!r.cache_hit);
        assert_eq!(s.cache_used(), 0);
    }

    #[test]
    fn sim_queue_fifo_and_capacity() {
        let mut q = SimQueue::new(2);
        q.push(SimTime(1), 'a');
        q.push(SimTime(2), 'b');
        assert!(q.is_full());
        assert_eq!(q.front_ready_at(), Some(SimTime(1)));
        assert_eq!(q.pop(), Some((SimTime(1), 'a')));
        assert_eq!(q.len(), 1);
    }
}
