//! Smoke tests mirroring each `examples/` program as a scaled-down
//! library call, so the examples' API surface cannot silently rot even
//! when nobody runs the binaries. (CI additionally compiles the real
//! example binaries via `cargo build --all-targets`.)

use minato::baselines::torch::{TorchConfig, TorchLoader};
use minato::core::prelude::*;
use minato::data::audio::{speech_pipeline, AudioClip};
use minato::data::volume::{segmentation_pipeline, Volume3D};
use minato::data::WorkloadSpec;
use minato::sim::{simulate, Policy, SimConfig};
use std::time::Duration;

/// `examples/quickstart.rs`: in-memory dataset, mixed-cost pipeline.
#[test]
fn quickstart_flow() {
    let dataset = VecDataset::new((0..64u32).collect::<Vec<_>>());
    let pipeline = Pipeline::new(vec![
        fn_transform("normalize", |x: u32| Ok(x % 97)),
        fn_transform("augment", |x: u32| {
            if x.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(4));
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
            Ok(x)
        }),
        fn_transform("to-tensor", Ok),
    ]);
    let loader = MinatoLoader::builder(dataset, pipeline)
        .batch_size(16)
        .initial_workers(4)
        .max_workers(8)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(2)))
        .seed(42)
        .build()
        .expect("valid configuration");
    let mut total = 0;
    let mut slow = 0;
    for batch in loader.iter() {
        total += batch.len();
        slow += batch.slow_count();
    }
    assert_eq!(total, 64);
    assert!(slow >= 1, "every 8th sample sleeps past the fixed cutoff");
}

/// `examples/multi_epoch_cache.rs`: multi-epoch run with the cache on;
/// later epochs must be served from memory, pipeline executions must
/// stay below deliveries.
#[test]
fn multi_epoch_cache_flow() {
    let n = 64usize;
    let epochs = 3usize;
    let dataset = VecDataset::new((0..n as u32).collect::<Vec<_>>());
    let pipeline = Pipeline::new(vec![
        fn_transform("normalize", |x: u32| Ok(x % 97)),
        fn_transform("augment", |x: u32| {
            if x.is_multiple_of(8) {
                std::thread::sleep(Duration::from_millis(3));
            } else {
                std::thread::sleep(Duration::from_micros(150));
            }
            Ok(x)
        }),
    ]);
    let loader = MinatoLoader::builder(dataset, pipeline)
        .batch_size(16)
        .epochs(epochs)
        .seed(42)
        .initial_workers(4)
        .max_workers(4)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .cache_budget_bytes(1 << 20)
        .cache_policy(EvictionPolicy::CostAware)
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, n * epochs);
    let stats = loader.stats();
    let cache = stats.cache.expect("cache enabled");
    assert!(cache.hits > 0, "later epochs must hit the cache");
    assert!(
        stats.samples_done < delivered as u64,
        "cache must save pipeline executions"
    );
}

/// `examples/image_segmentation.rs`: variable-size volumes through the
/// segmentation pipeline, Minato vs the in-order baseline.
#[test]
fn image_segmentation_flow() {
    fn dataset() -> FnDataset<Volume3D, impl Fn(usize) -> minato::core::error::Result<Volume3D>> {
        FnDataset::new(12, |i| {
            let side = 8 + (i * 7) % 12;
            Ok(Volume3D::generate([side, side, side], i as u64))
        })
    }
    let pipeline = segmentation_pipeline([6, 6, 6]);

    let loader = MinatoLoader::builder(dataset(), pipeline.clone())
        .batch_size(4)
        .initial_workers(2)
        .max_workers(3)
        .warmup_samples(4)
        .seed(7)
        .build()
        .expect("valid configuration");
    let minato_voxels: usize = loader
        .iter()
        .flat_map(|b| b.into_samples())
        .map(|v| v.len())
        .sum();
    assert_eq!(loader.stats().samples_done, 12);

    let torch = TorchLoader::new(
        dataset(),
        pipeline,
        TorchConfig {
            batch_size: 4,
            num_workers: 2,
            seed: 7,
            ..Default::default()
        },
    )
    .expect("valid configuration");
    let torch_voxels: usize = torch
        .iter()
        .flat_map(|b| b.into_samples())
        .map(|v| v.len())
        .sum();
    // Both loaders crop to the same target shape, so total voxels match.
    assert_eq!(minato_voxels, torch_voxels);
    assert!(minato_voxels > 0);
}

/// `examples/speech_pipeline.rs`: heavy-fifth audio workload; the
/// audio–transcript pairing must survive reordering.
#[test]
fn speech_pipeline_flow() {
    let dataset = FnDataset::new(20, |i| {
        let seconds = if i % 5 == 0 { 0.8 } else { 0.2 };
        Ok(AudioClip::generate(seconds, 8_000, i as u64))
    });
    let pipeline = speech_pipeline(2, 12);
    let loader = MinatoLoader::builder(dataset, pipeline)
        .batch_size(5)
        .initial_workers(2)
        .max_workers(3)
        .slow_workers(1)
        .warmup_samples(6)
        .seed(3)
        .build()
        .expect("valid configuration");
    let mut clips = 0usize;
    for batch in loader.iter() {
        clips += batch.len();
        for (clip, meta) in batch.samples.iter().zip(&batch.meta) {
            let reference = AudioClip::generate(
                if meta.index % 5 == 0 { 0.8 } else { 0.2 },
                8_000,
                meta.index as u64,
            );
            assert_eq!(
                clip.transcript, reference.transcript,
                "audio-text pairing broken under reordering"
            );
        }
    }
    assert_eq!(clips, 20);
}

/// `examples/memory_constrained.rs`: cache-limited simulation; Minato
/// must beat the in-order baseline end to end.
#[test]
fn memory_constrained_flow() {
    let mut cfg = SimConfig::config_b(WorkloadSpec::image_segmentation());
    cfg.dataset_replication = 2;
    cfg.memory_bytes = 20_000_000_000;
    cfg.max_batches = 80;

    let [pytorch, dali, minato] =
        [Policy::Torch, Policy::Dali, Policy::Minato].map(|p| simulate(p, &cfg));

    assert!(pytorch.train_time_s > 0.0);
    assert!(dali.train_time_s > 0.0);
    assert!(
        minato.train_time_s < pytorch.train_time_s,
        "Minato {:.0}s must beat in-order {:.0}s",
        minato.train_time_s,
        pytorch.train_time_s
    );
}

/// `examples/pooled_hot_path.rs`: pooled execution on the volumetric
/// pipeline; the recycle loop must turn and delivery must match the
/// unpooled loader sample for sample. The run is longer than the
/// loader's queues and batch buffers hold, so back-pressure orders later
/// acquires behind the consumer's first recycled drops.
#[test]
fn pooled_hot_path_flow() {
    let n = 512usize;
    let make = |pool_budget: u64| {
        let dataset = FnDataset::new(n, |i| {
            let d = 12 + (i % 3) * 6;
            Ok(Volume3D::generate([d, d, d], i as u64))
        });
        let mut b = MinatoLoader::builder(dataset, segmentation_pipeline([8, 8, 8]))
            .batch_size(8)
            .seed(9)
            .initial_workers(2)
            .max_workers(3);
        if pool_budget > 0 {
            b = b.pool_budget_bytes(pool_budget);
        }
        b.build().expect("valid configuration")
    };
    let collect = |loader: &MinatoLoader<_>| {
        let mut all: Vec<Volume3D> = Vec::new();
        for batch in loader.iter() {
            all.extend(batch.samples.iter().cloned());
        }
        all.sort_by_key(|v| v.seed);
        all
    };
    let unpooled = make(0);
    let base = collect(&unpooled);
    assert!(unpooled.stats().pool.is_none());

    let pooled = make(64 << 20);
    let got = collect(&pooled);
    assert_eq!(got, base, "pooling must not change delivered samples");
    let ps = pooled.stats().pool.expect("pool on").combined();
    assert!(ps.recycled > 0, "recycle loop must turn: {ps:?}");
    assert!(ps.hits > 0, "steady state must reuse buffers: {ps:?}");
}

/// No example behind this one: it carries the panic census of the
/// loader's threads. A loader contains worker panics (and joins swallow
/// a pool thread that died), so delivery counts alone would pass a
/// broken run. The workload
/// leaves the one slow worker a backlog when the source drains, so the
/// fast workers finish it from the executor's drain phase, and the
/// loader is dropped before the count is read.
#[test]
fn drained_pool_raises_no_panic_on_any_thread() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // The hook is process-wide: count only the loaders' own threads
    // (`minato-exec-*`, `minato-monitor`), not a failing assertion in a
    // test running beside this one.
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let current = std::thread::current();
        if current.name().is_some_and(|n| n.starts_with("minato-")) {
            PANICS.fetch_add(1, Ordering::Relaxed);
        }
        report_panic(info);
    }));
    let n = 96u32;
    let dataset = VecDataset::new((0..n).collect::<Vec<_>>());
    // The cutoff is checked between steps: "augment" overruns it on
    // every third sample, which leaves "settle" to the slow path.
    let nap = |d: Duration| {
        move |x: u32| {
            if x.is_multiple_of(3) {
                std::thread::sleep(d);
            }
            Ok(x)
        }
    };
    let pipeline = Pipeline::new(vec![
        fn_transform("augment", nap(Duration::from_millis(2))),
        fn_transform("settle", nap(Duration::from_millis(4))),
    ]);
    let loader = MinatoLoader::builder(dataset, pipeline)
        .batch_size(8)
        .initial_workers(2)
        .max_workers(2)
        .slow_workers(1)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_millis(1)))
        .build()
        .expect("loader builds");
    assert_eq!(loader.iter().map(|b| b.len()).sum::<usize>(), n as usize);
    drop(loader);
    assert_eq!(PANICS.load(Ordering::Relaxed), 0, "a thread panicked");
}

/// `examples/resume_after_crash.rs`: checkpoint mid-run, drop the
/// loader, resume from the serialized bytes; the two halves must be an
/// exact, duplicate-free partition of the run.
#[test]
fn resume_after_crash_flow() {
    use std::collections::BTreeSet;
    let n = 40u32;
    let epochs = 2usize;
    let build = || {
        let dataset = VecDataset::new((0..n).collect::<Vec<_>>());
        MinatoLoader::builder(dataset, Pipeline::identity())
            .batch_size(4)
            .epochs(epochs)
            .seed(7)
            .initial_workers(2)
            .max_workers(4)
    };

    let first = build().build().expect("loader builds");
    let mut pre = BTreeSet::new();
    for _ in 0..5 {
        let batch = first.next_batch(0).expect("early batches exist");
        pre.extend(batch.meta.iter().map(|m| m.seq));
    }
    let bytes = first.checkpoint().expect("checkpointing enabled").encode();
    drop(first); // The crash.

    let ckpt = LoaderCheckpoint::decode(&bytes).expect("intact bytes");
    let resumed = build().resume_from(ckpt).build().expect("resume builds");
    let mut post = BTreeSet::new();
    while let Some(batch) = resumed.next_batch(0) {
        post.extend(batch.meta.iter().map(|m| m.seq));
    }

    assert!(pre.is_disjoint(&post), "resume must not re-deliver");
    let total = (n as usize * epochs) as u64;
    let union: BTreeSet<u64> = pre.union(&post).copied().collect();
    assert_eq!(union, (0..total).collect::<BTreeSet<u64>>());
}
