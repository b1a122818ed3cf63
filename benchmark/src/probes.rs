//! Layer probes: a timed single-purpose loop over one layer's public
//! functions, with a fixed operation count, reported as the median of
//! seven rounds. No loader is involved, and no probe uses more than two
//! threads.

use crate::stats::median;
use crate::workloads::Workload;
use minato_cache::{CacheConfig, EvictionPolicy, ShardedCache};
use minato_core::balancer::LoadBalancer;
use minato_core::batch::ReorderBuffer;
use minato_core::dataset::{Dataset, EpochSampler, Sampler};
use minato_core::profiler::SampleRecord;
use minato_core::queue::MinatoQueue;
use minato_core::transform::PipelineRun;
use minato_exec::{ExecConfig, ExecHandle, RoleSpec, RoleStep, StepOutcome};
use minato_pool::{BufferPool, PoolConfig, PoolSet};
use minato_trace::{EventKind, Tracer};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 7;

/// One probe's result: its metric, the median, and how many operations
/// each round timed.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub ops: u64,
    pub rounds: usize,
}

/// Runs `round` seven times; each call does `ops` operations and returns
/// how long they took. Reports the median nanoseconds per operation.
fn ns_per_op(name: &'static str, ops: u64, mut round: impl FnMut() -> Duration) -> Probe {
    let per_op: Vec<f64> = (0..ROUNDS)
        .map(|_| round().as_nanos() as f64 / ops as f64)
        .collect();
    Probe {
        name,
        value: median(&per_op),
        ops,
        rounds: ROUNDS,
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn balancer() -> Probe {
    const OPS: u64 = 200_000;
    let record = SampleRecord::total_only(Duration::from_micros(900));
    ns_per_op("balancer.observe_ns", OPS, || {
        let lb = LoadBalancer::paper_default();
        timed(|| {
            for _ in 0..OPS {
                lb.on_fast_complete(black_box(&record));
                black_box(lb.current_timeout());
            }
        })
    })
}

fn queue() -> Vec<Probe> {
    const OPS: u64 = 400_000;
    let uncontended = ns_per_op("queue.uncontended_ns_per_item", OPS, || {
        let q: MinatoQueue<u64> = MinatoQueue::new("probe", 100);
        timed(|| {
            for i in 0..OPS {
                q.put(black_box(i)).expect("open queue");
                black_box(q.pop());
            }
        })
    });
    let handoff = ns_per_op("queue.handoff_ns_per_item", OPS, || {
        let q: MinatoQueue<u64> = MinatoQueue::new("probe", 100);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..OPS {
                    q.put(i).expect("open queue");
                }
                q.close();
            });
            timed(|| {
                while let Some(v) = q.pop() {
                    black_box(v);
                }
            })
        })
    });
    let bulk = ns_per_op("queue.bulk8_ns_per_item", OPS, || {
        let q: MinatoQueue<u64> = MinatoQueue::new("probe", 100);
        timed(|| {
            for i in 0..OPS / 8 {
                q.put_many(black_box(vec![i; 8])).expect("open queue");
                black_box(q.pop_many(8));
            }
        })
    });
    let reserve = ns_per_op("queue.reserve_publish_ns", OPS, || {
        let q: MinatoQueue<u64> = MinatoQueue::new("probe", 100);
        timed(|| {
            for i in 0..OPS {
                let slot = q.try_reserve().expect("free slot");
                slot.publish(black_box(i)).expect("open queue");
                black_box(q.pop());
            }
        })
    });
    vec![uncontended, handoff, bulk, reserve]
}

fn reorder() -> Probe {
    const OPS: u64 = 400_000;
    ns_per_op("batch.reorder_ns_per_item", OPS, || {
        let mut rb: ReorderBuffer<u64> = ReorderBuffer::new(0);
        let mut ready = Vec::with_capacity(8);
        timed(|| {
            // Each window of eight arrives back to front, so seven items
            // park before the eighth releases the run.
            for window in 0..OPS / 8 {
                for k in (0..8).rev() {
                    rb.offer(window * 8 + k, k);
                }
                rb.drain_ready(&mut ready);
                black_box(&ready);
                ready.clear();
            }
        })
    })
}

fn sampler() -> Probe {
    const OPS: u64 = 400_000;
    ns_per_op("sampler.next_many_ns_per_ticket", OPS, || {
        let s = EpochSampler::new(OPS as usize, 1, true, 7);
        timed(|| loop {
            let tickets = s.next_many(8);
            if tickets.is_empty() {
                break;
            }
            black_box(tickets);
        })
    })
}

struct Countdown(AtomicU64);

impl RoleStep for Countdown {
    fn step(&self) -> StepOutcome {
        let left = self.0.load(Ordering::Relaxed);
        if left == 0 {
            return StepOutcome::Exhausted;
        }
        self.0.store(left - 1, Ordering::Relaxed);
        StepOutcome::Progress
    }
}

fn exec() -> Probe {
    const OPS: u64 = 400_000;
    ns_per_op("exec.step_overhead_ns", OPS, || {
        let handle = ExecHandle::new(ExecConfig::fixed(1));
        handle.register(vec![RoleSpec {
            name: "probe".into(),
            step: Arc::new(Countdown(AtomicU64::new(OPS))),
            budget: 1,
            threads: 1,
            max_concurrency: None,
        }]);
        timed(|| {
            let mut pool = handle.spawn().expect("spawn probe executor");
            pool.join();
        })
    })
}

fn cache() -> Vec<Probe> {
    const KEYS: u64 = 50_000;
    const WEIGHT: u64 = 64;
    let roomy = || -> ShardedCache<u64, u64> {
        ShardedCache::new(CacheConfig {
            budget_bytes: KEYS * WEIGHT * 2,
            shards: 8,
            policy: EvictionPolicy::CostAware,
        })
    };
    let cost = |k: u64| Duration::from_micros(100 + k % 900);
    let insert = ns_per_op("cache.insert_ns", KEYS, || {
        let c = roomy();
        timed(|| {
            for k in 0..KEYS {
                black_box(c.insert(k, k, WEIGHT, cost(k)));
            }
        })
    });
    let filled = roomy();
    for k in 0..KEYS {
        filled.insert(k, k, WEIGHT, cost(k));
    }
    let get = ns_per_op("cache.get_hit_ns", KEYS, || {
        timed(|| {
            for k in 0..KEYS {
                black_box(filled.get(&k));
            }
        })
    });
    let evict = ns_per_op("cache.insert_evict_ns", KEYS, || {
        // A quarter of the keys fit: after the fill every insert evicts.
        let c: ShardedCache<u64, u64> = ShardedCache::new(CacheConfig {
            budget_bytes: KEYS * WEIGHT / 4,
            shards: 8,
            policy: EvictionPolicy::CostAware,
        });
        for k in 0..KEYS {
            c.insert(k, k, WEIGHT, cost(k));
        }
        timed(|| {
            for k in KEYS..2 * KEYS {
                black_box(c.insert(k, k, WEIGHT, cost(k)));
            }
        })
    });
    vec![get, insert, evict]
}

fn pool() -> Vec<Probe> {
    const OPS: u64 = 200_000;
    const ELEMS: usize = 4096;
    let recycle = ns_per_op("pool.acquire_recycle_ns", OPS, || {
        let p: BufferPool<f32> = BufferPool::new(PoolConfig::with_budget(16 << 20));
        timed(|| {
            for _ in 0..OPS {
                let buf = p.acquire(black_box(ELEMS));
                p.recycle(buf);
            }
        })
    });
    let miss = ns_per_op("pool.acquire_miss_ns", OPS, || {
        let p: BufferPool<f32> = BufferPool::new(PoolConfig::with_budget(16 << 20));
        timed(|| {
            for _ in 0..OPS {
                // Nothing is ever recycled, so every acquire allocates.
                black_box(p.acquire(black_box(ELEMS)));
            }
        })
    });
    vec![recycle, miss]
}

fn trace() -> Probe {
    const OPS: u64 = 200_000;
    ns_per_op("trace.record_ns", OPS, || {
        // The ring holds every event of the round: no drop path is timed.
        let t = Tracer::new(Instant::now(), 1, 1 << 18);
        timed(|| {
            for i in 0..OPS {
                t.record(EventKind::StageEnd, 0, black_box(i), 0, 100);
            }
        })
    })
}

/// The pipeline alone on one thread: by value (`Pipeline::run`'s path) and
/// in place with pooled buffers (what a pooled loader's workers run), in
/// microseconds per sample over the first samples of `w`'s dataset.
pub fn transform<W: Workload>(w: &W) -> Vec<Probe> {
    const SAMPLES: usize = 48;
    const ROUNDS: usize = 3;
    let data = w.dataset();
    let pipeline = w.pipeline();
    let n = SAMPLES.min(data.len());
    let pools = Arc::new(PoolSet::new(64 << 20));
    let run = |name: &'static str, in_place: bool| {
        let per_sample: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let mut spent = Duration::ZERO;
                for i in 0..n {
                    let raw = data.load(i).expect("probe load failed");
                    let ctx = if in_place {
                        w.reference_ctx().with_pool(Arc::clone(&pools))
                    } else {
                        w.reference_ctx()
                    };
                    let t0 = Instant::now();
                    let out = pipeline.run_ctx(0, raw, ctx);
                    spent += t0.elapsed();
                    assert!(
                        matches!(out, Ok(PipelineRun::Completed { .. })),
                        "probe run of sample {i} did not complete"
                    );
                }
                spent.as_secs_f64() * 1e6 / n as f64
            })
            .collect();
        Probe {
            name,
            value: median(&per_sample),
            ops: n as u64,
            rounds: ROUNDS,
        }
    };
    vec![
        run("transform.solo_us_per_sample", false),
        run("transform.solo_inplace_us_per_sample", true),
    ]
}

/// Every probe that does not depend on a workload.
pub fn layers() -> Vec<Probe> {
    let mut all = vec![balancer()];
    all.extend(queue());
    all.push(reorder());
    all.push(sampler());
    all.push(exec());
    all.extend(cache());
    all.extend(pool());
    all.push(trace());
    all
}
