//! Chaos suite: the loader must degrade gracefully — quarantine, count,
//! reroute — and never hang, when user code misbehaves or faults are
//! injected into its own hot paths.
//!
//! Injection targets are derived deterministically from
//! `MINATO_CHAOS_SEED` (CI sweeps several values), so every failure
//! here replays exactly from the seed printed in the log.

use minato_core::balancer::TimeoutPolicy;
use minato_core::pool::PoolConfig;
use minato_core::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic chaos seed; CI runs the suite under several values.
fn chaos_seed() -> u64 {
    std::env::var("MINATO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks `k` distinct dataset indices in `0..n`, deterministically from
/// the chaos seed and a per-test salt.
fn derive_targets(salt: u64, n: usize, k: usize) -> BTreeSet<usize> {
    let mut state = chaos_seed() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut targets = BTreeSet::new();
    while targets.len() < k.min(n) {
        targets.insert((splitmix64(&mut state) % n as u64) as usize);
    }
    targets
}

/// Injects one action at one site for a fixed set of dataset indices.
struct TargetInjector {
    site: FaultSite,
    action: FaultAction,
    targets: BTreeSet<usize>,
}

impl FaultInjector for TargetInjector {
    fn decide(&self, site: FaultSite, index: usize, _seq: u64) -> FaultAction {
        if site == self.site && self.targets.contains(&index) {
            self.action
        } else {
            FaultAction::None
        }
    }
}

/// Transform that panics on specific inputs.
struct PanicOn {
    modulus: u32,
}

impl Transform<u32> for PanicOn {
    fn name(&self) -> &str {
        "panic-on"
    }

    fn apply(&self, x: u32, _ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        assert!(!x.is_multiple_of(self.modulus), "injected panic on {x}");
        Ok(Outcome::Done(x))
    }
}

#[test]
fn panicking_transform_skips_sample_and_completes() {
    let ds = VecDataset::new((1..=50u32).collect::<Vec<_>>());
    let p: Pipeline<u32> = Pipeline::new(vec![
        Arc::new(PanicOn { modulus: 10 }) as Arc<dyn Transform<u32>>
    ]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .initial_workers(2)
        .max_workers(3)
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    // 5 of 50 samples (10, 20, 30, 40, 50) panic and are skipped.
    assert_eq!(delivered, 45, "panicking samples skipped");
    let stats = loader.stats();
    assert_eq!(stats.errors, 5);
    assert_eq!(stats.faults.panics, 5, "panics counted");
    assert_eq!(stats.faults.quarantined, 5);
    let err = loader.first_error().expect("panic recorded as error");
    assert!(err.to_string().contains("panic"), "got: {err}");
}

#[test]
fn panic_in_every_sample_still_terminates() {
    let ds = VecDataset::new((0..20u32).collect::<Vec<_>>());
    let p: Pipeline<u32> = Pipeline::new(vec![
        Arc::new(PanicOn { modulus: 1 }) as Arc<dyn Transform<u32>>
    ]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(4)
        .initial_workers(2)
        .max_workers(2)
        .build()
        .expect("valid configuration");
    let t0 = Instant::now();
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, 0);
    assert_eq!(loader.stats().errors, 20);
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "must terminate promptly, took {:?}",
        t0.elapsed()
    );
}

/// Transform that panics only on its background (resumed) execution,
/// exercising the slow-worker containment path.
struct PanicInBackground {
    calls: AtomicUsize,
}

impl Transform<u32> for PanicInBackground {
    fn name(&self) -> &str {
        "panic-in-background"
    }

    fn apply(&self, x: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        // First (foreground, deadline-bearing) call: block until expired
        // so the sample defers; the resumed call has no deadline and
        // panics.
        if ctx.deadline().is_some() {
            while !ctx.expired() {
                std::thread::sleep(Duration::from_micros(200));
            }
            self.calls.fetch_add(1, Ordering::Relaxed);
            return Ok(Outcome::Interrupted(x));
        }
        panic!("injected background panic");
    }
}

#[test]
fn background_panic_does_not_wedge_shutdown() {
    let ds = VecDataset::new((0..12u32).collect::<Vec<_>>());
    let p: Pipeline<u32> = Pipeline::new(vec![Arc::new(PanicInBackground {
        calls: AtomicUsize::new(0),
    }) as Arc<dyn Transform<u32>>]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(4)
        .initial_workers(2)
        .max_workers(2)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .build()
        .expect("valid configuration");
    let t0 = Instant::now();
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    // Every sample defers, every background run panics: nothing
    // delivered, but the pipeline drains and the iterator ends.
    assert_eq!(delivered, 0);
    assert_eq!(loader.stats().errors, 12);
    assert_eq!(loader.stats().faults.panics, 12);
    assert!(t0.elapsed() < Duration::from_secs(20));
}

/// How long a test waits for something a working loader does at once: a
/// loader that can never do it fails the test instead of hanging it.
const FAIL_SAFE: Duration = Duration::from_secs(10);

/// Yields until `cond` holds on the loader's stats (`FAIL_SAFE` bound).
fn wait_for_stats<D: Dataset>(
    loader: &MinatoLoader<D>,
    what: &str,
    cond: impl Fn(&LoaderStats) -> bool,
) {
    let t0 = Instant::now();
    loop {
        let s = loader.stats();
        if cond(&s) {
            return;
        }
        assert!(t0.elapsed() < FAIL_SAFE, "{what}: {s:?}");
        std::thread::yield_now();
    }
}

#[test]
#[allow(clippy::drop_non_drop)] // The drops ARE the behavior under test.
fn shutdown_under_backpressure_is_clean() {
    // An iterator that abandons mid-stream with back-pressure all the
    // way up: the batch queue's two slots taken, the 100-slot fast
    // queue full, producers blocked on it. They must unblock on drop.
    let ds = VecDataset::new((0..500u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(2)
        .initial_workers(3)
        .max_workers(3)
        .build()
        .expect("valid configuration");
    let mut it = loader.iter();
    let _ = it.next();
    drop(it);
    wait_for_stats(&loader, "the fast queue never filled", |s| {
        s.fast_queue_len == 100
    });
    let t0 = Instant::now();
    drop(loader);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "drop must not hang: {:?}",
        t0.elapsed()
    );
}

/// Injected fast-path panics: the quarantine count must equal the
/// injection count exactly, and everything else must be delivered.
#[test]
fn chaos_fast_panic_counts_match_injection() {
    let n = 60usize;
    let targets = derive_targets(1, n, 6);
    let k = targets.len() as u64;
    let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(8)
        .initial_workers(2)
        .max_workers(4)
        .fault_injector(Arc::new(TargetInjector {
            site: FaultSite::Fast,
            action: FaultAction::Panic,
            targets: targets.clone(),
        }))
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, n - targets.len());
    let f = loader.stats().faults;
    assert_eq!(f.panics, k, "panic count exact");
    assert_eq!(f.poisoned, 0);
    assert_eq!(f.quarantined, k, "quarantine count exact");
    assert_eq!(f.rerouted, 0, "one GPU: nothing to reroute");
    assert_eq!(loader.stats().errors, k);
    let recent = loader.recent_errors();
    assert_eq!(recent.len(), targets.len().min(16));
    assert!(
        recent.iter().all(|e| e.to_string().contains("injected")),
        "ring holds the injected faults"
    );
}

/// Injected poison (clean per-sample errors): counted as poisoned, not
/// panics, with the same exact-count guarantee.
#[test]
fn chaos_poison_counts_match_injection() {
    let n = 60usize;
    let targets = derive_targets(2, n, 7);
    let k = targets.len() as u64;
    let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(8)
        .initial_workers(2)
        .max_workers(4)
        .fault_injector(Arc::new(TargetInjector {
            site: FaultSite::Fast,
            action: FaultAction::Poison,
            targets: targets.clone(),
        }))
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, n - targets.len());
    let f = loader.stats().faults;
    assert_eq!(f.poisoned, k, "poison count exact");
    assert_eq!(f.panics, 0);
    assert_eq!(f.quarantined, k);
    let err = loader.first_error().expect("poison surfaces as error");
    assert!(err.to_string().contains("poison"), "got: {err}");
}

/// Transform that always defers to the background on its first
/// (deadline-bearing) run and completes after `resume_cost` when
/// resumed.
struct AlwaysDefer {
    resume_cost: Duration,
}

impl Transform<u32> for AlwaysDefer {
    fn name(&self) -> &str {
        "always-defer"
    }

    fn apply(&self, x: u32, ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        if ctx.deadline().is_some() {
            while !ctx.expired() {
                std::thread::sleep(Duration::from_micros(200));
            }
            return Ok(Outcome::Interrupted(x));
        }
        std::thread::sleep(self.resume_cost);
        Ok(Outcome::Done(x))
    }
}

/// Faults injected at the slow site (background completion) are
/// contained by the same quarantine path, with exact counts — also when
/// resuming costs more than deferring, so the slow workers fall behind
/// and the backlog left at source drain is finished by whichever
/// workers the executor sends (drained fast workers included).
#[test]
fn chaos_slow_site_panic_counts_match_injection() {
    for resume_cost in [Duration::ZERO, Duration::from_millis(3)] {
        let n = 16usize;
        let targets = derive_targets(3, n, 4);
        let k = targets.len() as u64;
        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let p: Pipeline<u32> = Pipeline::new(vec![
            Arc::new(AlwaysDefer { resume_cost }) as Arc<dyn Transform<u32>>
        ]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .initial_workers(2)
            .max_workers(2)
            .slow_workers(2)
            .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
            .fault_injector(Arc::new(TargetInjector {
                site: FaultSite::Slow,
                action: FaultAction::Panic,
                targets: targets.clone(),
            }))
            .build()
            .expect("valid configuration");
        let delivered: usize = loader.iter().map(|b| b.len()).sum();
        let tag = format!("resume {resume_cost:?}");
        assert_eq!(delivered, n - targets.len(), "[{tag}]");
        let f = loader.stats().faults;
        assert_eq!(f.panics, k, "[{tag}] background panic count exact");
        assert_eq!(f.quarantined, k, "[{tag}]");
    }
}

/// A wedged batch consumer (never pops its queue) must not stall
/// delivery: batches route around it, the reroute counter says so, and
/// the live consumer receives everything the wedged queue did not take.
#[test]
fn chaos_wedged_consumer_reroutes() {
    let n = 256usize;
    let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(4)
        .num_gpus(2)
        .initial_workers(2)
        .max_workers(2)
        .build()
        .expect("valid configuration");
    // GPU 0's consumer is wedged: nothing ever pops queue 0. The live
    // consumer starts only once both two-batch queues are full, so every
    // later delivery has to route around the wedged one.
    wait_for_stats(&loader, "the batch queues never filled", |s| {
        s.batch_queue_len == 4
    });
    let mut live = 0usize;
    while let Some(b) = loader.next_batch(1) {
        live += b.len();
    }
    assert_eq!(live, n - 2 * 4, "queue 0 keeps exactly its two batches");
    let s = loader.stats();
    assert_eq!(s.batch_queue_len, 2);
    // The first three batches found no queue full; from the fourth on,
    // the other queue was full at every delivery.
    assert_eq!(
        s.faults.rerouted,
        (n / 4 - 3) as u64,
        "each delivery past the wedged queue counts as one reroute"
    );
}

/// Transform that panics the first time it sees the target value and
/// counts how many times the target's pipeline actually runs.
struct PanicOnceAt {
    target: u32,
    armed: AtomicBool,
    calls: Arc<AtomicUsize>,
}

impl Transform<u32> for PanicOnceAt {
    fn name(&self) -> &str {
        "panic-once-at"
    }

    fn apply(&self, x: u32, _ctx: &TransformCtx) -> minato_core::error::Result<Outcome<u32>> {
        if x == self.target {
            self.calls.fetch_add(1, Ordering::SeqCst);
            assert!(
                !self.armed.swap(false, Ordering::SeqCst),
                "injected first-run panic on {x}"
            );
        }
        Ok(Outcome::Done(x))
    }
}

/// Satellite: a panicked sample must never be admitted to the
/// cross-epoch cache — the next epoch re-runs its pipeline instead of
/// serving a phantom hit.
#[test]
fn panicked_sample_is_not_served_from_cache() {
    let n = 16usize;
    let target = *derive_targets(4, n, 1).iter().next().unwrap() as u32;
    let calls = Arc::new(AtomicUsize::new(0));
    let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let p: Pipeline<u32> = Pipeline::new(vec![Arc::new(PanicOnceAt {
        target,
        armed: AtomicBool::new(true),
        calls: Arc::clone(&calls),
    }) as Arc<dyn Transform<u32>>]);
    // One worker serializes the ticket stream: epoch 1 finishes (and
    // admits) before any epoch-2 lookup, making cache hits exact.
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(4)
        .epochs(2)
        .initial_workers(1)
        .max_workers(1)
        .cache_budget_bytes(1 << 20)
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    // Epoch 1 loses the panicked sample; epoch 2 re-runs and delivers it.
    assert_eq!(delivered, 2 * n - 1);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "the panicked sample's pipeline must run again in epoch 2 — a \
         cache hit here would mean the panicked run was admitted"
    );
    let stats = loader.stats();
    assert_eq!(stats.faults.panics, 1);
    let cache = stats.cache.expect("cache enabled");
    assert_eq!(
        cache.hits,
        (n - 1) as u64,
        "every cleanly preprocessed sample is served from cache in epoch 2"
    );
}

/// Transform that draws pool scratch, then panics on target samples
/// *before* recycling it — the leak shape satellite 1 fixes.
struct ScratchThenMaybePanic {
    targets: BTreeSet<usize>,
}

impl Transform<Vec<f32>> for ScratchThenMaybePanic {
    fn name(&self) -> &str {
        "scratch-then-maybe-panic"
    }

    fn apply(
        &self,
        x: Vec<f32>,
        ctx: &TransformCtx,
    ) -> minato_core::error::Result<Outcome<Vec<f32>>> {
        let mut scratch = ctx.acquire_f32(256);
        scratch.resize(256, 1.0);
        let idx = x[0] as usize;
        assert!(
            !self.targets.contains(&idx),
            "injected pool-path panic at {idx}"
        );
        let out = vec![x[0] + scratch.iter().sum::<f32>()];
        ctx.recycle_f32(scratch);
        Ok(Outcome::Done(out))
    }
}

/// Satellite regression: pooled scratch held by a panicking sample is
/// repaid to the pool on unwind. Byte-for-byte, a run with N injected
/// panics must end in the same pool state as a clean run — before the
/// drop-guard fix each panic leaked one buffer, visible as extra
/// misses (re-allocations) on subsequent acquires.
#[test]
fn pool_bytes_return_to_baseline_after_panics() {
    let run = |targets: BTreeSet<usize>| {
        let n = 24usize;
        let mut f32_cfg = PoolConfig::with_budget(1 << 20);
        // Deterministic accounting: no per-thread fast slots.
        f32_cfg.thread_local_slots = false;
        let mut u8_cfg = PoolConfig::with_budget(1 << 16);
        u8_cfg.thread_local_slots = false;
        let pools = Arc::new(PoolSet::with_configs(f32_cfg, u8_cfg));
        let ds = VecDataset::new((0..n).map(|i| vec![i as f32]).collect::<Vec<Vec<f32>>>());
        let p: Pipeline<Vec<f32>> = Pipeline::new(vec![Arc::new(ScratchThenMaybePanic {
            targets: targets.clone(),
        }) as Arc<dyn Transform<Vec<f32>>>]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(4)
            .shuffle(false)
            .initial_workers(1)
            .max_workers(1)
            .timeout_policy(TimeoutPolicy::Disabled)
            .pool(Arc::clone(&pools))
            .build()
            .expect("valid configuration");
        let delivered: usize = loader.iter().map(|b| b.len()).sum();
        assert_eq!(delivered, n - targets.len());
        drop(loader);
        pools.stats()
    };
    let clean = run(BTreeSet::new());
    let panicked = run(derive_targets(5, 24, 5));
    assert!(
        clean.combined().bytes > 0,
        "scratch must actually be retained by the pool"
    );
    assert_eq!(
        panicked.combined().bytes,
        clean.combined().bytes,
        "pool bytes must return to baseline after injected panics"
    );
    assert_eq!(
        panicked.f32s.misses, clean.f32s.misses,
        "a leaked (unrepaid) buffer would force extra allocations"
    );
}

/// Panics at the fast site on a fixed set of dataset indices and counts
/// every fast-site consultation per index.
struct CountingInjector {
    targets: BTreeSet<usize>,
    fast_calls: Vec<AtomicUsize>,
}

impl FaultInjector for CountingInjector {
    fn decide(&self, site: FaultSite, index: usize, _seq: u64) -> FaultAction {
        if site != FaultSite::Fast {
            return FaultAction::None;
        }
        self.fast_calls[index].fetch_add(1, Ordering::SeqCst);
        if self.targets.contains(&index) {
            FaultAction::Panic
        } else {
            FaultAction::None
        }
    }
}

/// A failing sample gets one attempt: the injector is consulted once per
/// sample, each target is quarantined on that first failure, and every
/// other sample is delivered exactly once.
#[test]
fn chaos_fault_is_quarantined_on_its_first_attempt() {
    let n = 40usize;
    let targets = derive_targets(6, n, 5);
    let k = targets.len() as u64;
    let injector = Arc::new(CountingInjector {
        targets: targets.clone(),
        fast_calls: (0..n).map(|_| AtomicUsize::new(0)).collect(),
    });
    let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let loader = MinatoLoader::builder(ds, Pipeline::identity())
        .batch_size(8)
        .initial_workers(2)
        .max_workers(4)
        .fault_injector(Arc::clone(&injector) as Arc<dyn FaultInjector>)
        .build()
        .expect("valid configuration");
    let mut delivered: Vec<usize> = loader
        .iter()
        .flat_map(|b| b.into_samples())
        .map(|s| s as usize)
        .collect();
    delivered.sort_unstable();
    let want: Vec<usize> = (0..n).filter(|i| !targets.contains(i)).collect();
    assert_eq!(delivered, want, "every other sample exactly once");
    for (i, calls) in injector.fast_calls.iter().enumerate() {
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "sample {i} (target: {}) must be consulted exactly once",
            targets.contains(&i)
        );
    }
    let f = loader.stats().faults;
    assert_eq!(f.panics, k, "one panic per target");
    assert_eq!(f.quarantined, k, "one quarantine per target");
}
