//! Property-based tests over the core data structures and invariants.

use minato::core::batch::ReorderBuffer;
use minato::core::dataset::{EpochSampler, Sampler};
use minato::core::queue::{MinatoQueue, PopResult};
use minato::metrics::{quantile_sorted, Reservoir, Summary};
use minato::sim::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Quantiles are monotone in `q` and bounded by min/max.
    #[test]
    fn quantiles_monotone_and_bounded(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        xs.sort_by(f64::total_cmp);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let a = quantile_sorted(&xs, lo).unwrap();
        let b = quantile_sorted(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        prop_assert!(a >= xs[0] - 1e-9);
        prop_assert!(b <= xs[xs.len() - 1] + 1e-9);
    }

    /// Summary invariants: min ≤ median ≤ p75 ≤ p90 ≤ max, avg within
    /// [min, max].
    #[test]
    fn summary_order_invariants(xs in proptest::collection::vec(-1e5f64..1e5, 1..200)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.p90 + 1e-9);
        prop_assert!(s.p90 <= s.max + 1e-9);
        prop_assert!(s.avg >= s.min - 1e-9 && s.avg <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
    }

    /// The reservoir window holds exactly the most recent values.
    #[test]
    fn reservoir_keeps_recent_window(
        xs in proptest::collection::vec(0.0f64..1e6, 1..300),
        cap in 1usize..64,
    ) {
        let mut r = Reservoir::new(cap);
        for &x in &xs {
            r.record(x);
        }
        prop_assert_eq!(r.len(), xs.len().min(cap));
        prop_assert_eq!(r.total_seen(), xs.len() as u64);
        // Max over the window equals max over the last `cap` inputs.
        let tail = &xs[xs.len().saturating_sub(cap)..];
        let expect = tail.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(r.quantile(1.0).unwrap(), expect);
    }

    /// Selection-based quantiles equal the sort-based reference bit for
    /// bit: ties, a one-element window, the end points, and a window
    /// that has wrapped.
    #[test]
    fn selection_quantile_equals_sorted_quantile(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..300),
        cap in 1usize..64,
        tied in any::<bool>(),
        q in 0.0f64..1.0,
    ) {
        // Folding onto a handful of integers makes most values repeat.
        let xs: Vec<f64> = xs.iter().map(|&x| if tied { (x % 4.0).round() } else { x }).collect();
        let mut r = Reservoir::new(cap);
        for &x in &xs {
            r.record(x);
        }
        let mut window = xs[xs.len().saturating_sub(cap)..].to_vec();
        window.sort_by(f64::total_cmp);
        for q in [q, 0.0, 1.0] {
            let want = quantile_sorted(&window, q).map(f64::to_bits);
            prop_assert_eq!(r.quantile(q).map(f64::to_bits), want);
        }
    }

    /// Reorder buffers emit every pushed item exactly once, in sequence
    /// order, for any permutation of arrivals.
    #[test]
    fn reorder_buffer_is_a_sorting_network(perm in proptest::sample::subsequence((0..40u64).collect::<Vec<_>>(), 40)) {
        // `subsequence` of the full range with len 40 is a no-op shuffle
        // guard; shuffle via index mapping instead.
        let mut arrivals = perm;
        arrivals.reverse();
        let mut rb = ReorderBuffer::new(0);
        let mut out = Vec::new();
        for &seq in &arrivals {
            out.extend(rb.push(seq, seq));
        }
        out.extend(rb.drain_remaining());
        let expect: Vec<u64> = (0..40).collect();
        prop_assert_eq!(out, expect);
    }

    /// Queue FIFO order survives arbitrary interleaved put/pop programs.
    #[test]
    fn queue_preserves_fifo(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let q: MinatoQueue<u64> = MinatoQueue::new("prop", 64);
        let mut next_put = 0u64;
        let mut next_pop = 0u64;
        for is_put in ops {
            if is_put {
                if q.try_put(next_put).is_ok() {
                    next_put += 1;
                }
            } else if let PopResult::Item(v) = q.try_pop() {
                prop_assert_eq!(v, next_pop);
                next_pop += 1;
            }
        }
        prop_assert!(next_pop <= next_put);
        prop_assert_eq!(q.len() as u64, next_put - next_pop);
    }

    /// Every epoch of the sampler is a permutation; totals always match.
    #[test]
    fn sampler_epochs_are_permutations(len in 1usize..64, epochs in 1usize..4, seed in any::<u64>()) {
        let s = EpochSampler::new(len, epochs, true, seed);
        let mut all = Vec::new();
        while let Some(t) = s.next() {
            all.push(t);
        }
        prop_assert_eq!(all.len(), len * epochs);
        for e in 0..epochs {
            let mut idx: Vec<usize> =
                all[e * len..(e + 1) * len].iter().map(|t| t.index).collect();
            idx.sort_unstable();
            let expect: Vec<usize> = (0..len).collect();
            prop_assert_eq!(idx, expect);
        }
        // Sequence numbers are 0..total in order.
        prop_assert!(all.iter().enumerate().all(|(i, t)| t.seq == i as u64));
    }

    /// Virtual-time arithmetic: addition is monotone, subtraction
    /// saturates.
    #[test]
    fn sim_time_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime(a);
        let d = SimDuration(b);
        prop_assert!(t + d >= t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t - (t + d), SimDuration::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end loader delivery: for arbitrary small configurations the
    /// loader delivers every sample exactly once.
    #[test]
    fn loader_delivers_exactly_once(
        n in 1usize..60,
        batch in 1usize..9,
        workers in 1usize..4,
        epochs in 1usize..3,
    ) {
        use minato::core::prelude::*;
        let ds = VecDataset::new((0..n as u32).collect::<Vec<_>>());
        let p = Pipeline::new(vec![fn_transform("id", |x: u32| Ok(x))]);
        let loader = MinatoLoader::builder(ds, p)
            .batch_size(batch)
            .epochs(epochs)
            .max_workers(workers)
            .build()
            .expect("valid configuration");
        let mut counts = std::collections::HashMap::new();
        for b in loader.iter() {
            for s in b.into_samples() {
                *counts.entry(s).or_insert(0usize) += 1;
            }
        }
        prop_assert_eq!(counts.len(), n);
        prop_assert!(counts.values().all(|&c| c == epochs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-threaded equivalence: a program of batched puts/pops
    /// observes exactly the FIFO sequence the item-at-a-time API would.
    #[test]
    fn batched_queue_ops_match_single_ops(
        chunks in proptest::collection::vec(1usize..12, 1..16),
        pop_max in 1usize..12,
        cap in 1usize..128,
    ) {
        let total: usize = chunks.iter().sum();
        // Keep every chunked put non-blocking for the single-threaded
        // program: the queue must hold the whole input at once.
        let cap = cap.max(total);
        let batched: MinatoQueue<u64> = MinatoQueue::new("batched", cap);
        let single: MinatoQueue<u64> = MinatoQueue::new("single", cap);
        let mut next = 0u64;
        for chunk in &chunks {
            let items: Vec<u64> = (next..next + *chunk as u64).collect();
            next += *chunk as u64;
            for &i in &items {
                single.put(i).expect("open");
            }
            batched.put_many(items).expect("open");
        }
        batched.close();
        single.close();
        let mut via_batched = Vec::new();
        loop {
            let burst = batched.pop_many(pop_max);
            if burst.is_empty() {
                break;
            }
            prop_assert!(burst.len() <= pop_max);
            via_batched.extend(burst);
        }
        let mut via_single = Vec::new();
        while let Some(v) = single.pop() {
            via_single.push(v);
        }
        prop_assert_eq!(via_batched, via_single);
        prop_assert_eq!(single.total_puts(), batched.total_puts());
        prop_assert_eq!(single.total_pops(), batched.total_pops());
    }

    /// MPMC equivalence: under concurrent interleaving of batched
    /// producers and batched consumers — with a capacity small enough to
    /// force `put_many` to split chunks into bursts — nothing is lost,
    /// duplicated, or reordered within a producer's stream.
    #[test]
    fn batched_queue_mpmc_no_loss_no_dup(
        producers in 1usize..4,
        consumers in 1usize..4,
        per_producer in 1usize..40,
        chunk in 1usize..9,
        pop_max in 1usize..9,
        cap in 1usize..12,
    ) {
        use std::sync::Arc;
        let q: Arc<MinatoQueue<u64>> = Arc::new(MinatoQueue::new("mpmc", cap));
        let push: Vec<_> = (0..producers as u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let items: Vec<u64> =
                        (0..per_producer as u64).map(|i| p * 10_000 + i).collect();
                    for c in items.chunks(chunk) {
                        q.put_many(c.to_vec()).expect("open");
                    }
                })
            })
            .collect();
        let pull: Vec<_> = (0..consumers)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let burst = q.pop_many(pop_max);
                        if burst.is_empty() {
                            return got;
                        }
                        got.extend(burst);
                    }
                })
            })
            .collect();
        for h in push {
            h.join().expect("producer");
        }
        q.close();
        let streams: Vec<Vec<u64>> = pull.into_iter().map(|h| h.join().expect("consumer")).collect();
        // Each consumer's stream is per-producer monotone: bursts never
        // reorder one producer's items.
        for s in &streams {
            for p in 0..producers as u64 {
                let mine: Vec<u64> = s.iter().copied().filter(|v| v / 10_000 == p).collect();
                prop_assert!(mine.windows(2).all(|w| w[0] < w[1]), "reordered within producer");
            }
        }
        let mut all: Vec<u64> = streams.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), producers * per_producer, "lost or duplicated items");
    }
}
