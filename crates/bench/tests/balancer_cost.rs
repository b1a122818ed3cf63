//! What the adaptive cutoff costs and computes on inputs that vary.
//!
//! The benchmark's `balancer.observe_ns` probe feeds one constant
//! duration, on which any refresh — sort or selection — takes its best
//! case. Here the durations are seeded and skewed, come from two
//! threads, and the counting allocator and a sort-based reference check
//! what the probe cannot: that the refresh allocates nothing once the
//! profile window has filled, and that every published timeout is the
//! one a full sort of the same window gives.
//!
//! One test, because the allocation counters are process-wide.

use minato_bench::alloc_counter;
use minato_core::balancer::{BalancerConfig, LoadBalancer, TimeoutPolicy};
use minato_core::profiler::SampleRecord;
use minato_metrics::quantile_sorted;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Seeded preprocessing times, 50 µs – 6.6 ms with a long right tail
/// (xorshift64; the square skews it).
fn next_duration(state: &mut u64) -> Duration {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    let u = (*state >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_nanos(50_000 + (u * u * 6_500_000.0) as u64)
}

/// The cutoff `refresh_now` must publish for `window_ms`, by sorting.
fn reference_timeout(window_ms: &VecDeque<f64>, policy: TimeoutPolicy) -> Duration {
    let TimeoutPolicy::Adaptive {
        percentile,
        fallback_percentile,
        misclassification_threshold,
    } = policy
    else {
        panic!("adaptive policies only");
    };
    let mut sorted: Vec<f64> = window_ms.iter().copied().collect();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let ms = quantile_sorted(&sorted, p).expect("window is not empty");
        Duration::from_secs_f64((ms / 1e3).max(0.0))
    };
    let primary = at(percentile);
    let threshold_ms = primary.as_secs_f64() * 1e3;
    let flagged = sorted.iter().filter(|&&v| v > threshold_ms).count() as f64;
    let chosen = if flagged / sorted.len() as f64 > misclassification_threshold {
        at(fallback_percentile)
    } else {
        primary
    };
    Duration::from_nanos(chosen.as_nanos().clamp(1, u64::MAX as u128) as u64)
}

fn steady_state_allocates_nothing() {
    const PER_THREAD: u64 = 50_000;
    let cfg = BalancerConfig::default();
    // Past this many completions per thread the window is full.
    let fill = cfg.profile_window as u64;
    let lb = LoadBalancer::new(cfg);
    // Two recorders and a refresher standing in for the monitor tick.
    let rendezvous = Barrier::new(4);
    let recording = AtomicUsize::new(2);
    let (before, after, refreshes) = std::thread::scope(|s| {
        for t in 0..2u64 {
            let (lb, rendezvous, recording) = (&lb, &rendezvous, &recording);
            s.spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                for _ in 0..fill {
                    lb.on_fast_complete(&SampleRecord::total_only(next_duration(&mut rng)));
                }
                rendezvous.wait(); // Filled.
                rendezvous.wait(); // `before` read.
                let mut chunk = [Duration::ZERO; 8];
                for i in 0..(PER_THREAD - fill) / 8 {
                    // Both entry points the fast workers and the slow
                    // path use.
                    if i % 2 == 0 {
                        chunk.fill_with(|| next_duration(&mut rng));
                        lb.on_fast_complete_many(&chunk);
                    } else {
                        for _ in 0..8 {
                            lb.on_fast_complete(&SampleRecord::total_only(next_duration(&mut rng)));
                        }
                    }
                }
                recording.fetch_sub(1, Ordering::Relaxed);
                rendezvous.wait(); // Steady state done.
                rendezvous.wait(); // `after` read.
            });
        }
        let refresher = s.spawn(|| {
            rendezvous.wait(); // Filled.
            rendezvous.wait(); // `before` read.
            let mut refreshes = 0u64;
            loop {
                lb.refresh_now();
                refreshes += 1;
                if recording.load(Ordering::Relaxed) == 0 {
                    break;
                }
            }
            rendezvous.wait(); // Steady state done.
            rendezvous.wait(); // `after` read.
            refreshes
        });
        rendezvous.wait();
        // One refresh over the full window sizes the scratch buffer.
        lb.refresh_now();
        let before = alloc_counter::allocations();
        rendezvous.wait();
        rendezvous.wait();
        let after = alloc_counter::allocations();
        rendezvous.wait();
        (before, after, refresher.join().expect("refresher"))
    });
    assert_eq!(lb.completions(), 2 * (fill + (PER_THREAD - fill) / 8 * 8));
    assert!(lb.current_timeout().is_some());
    assert!(refreshes > 0);
    assert_eq!(
        after - before,
        0,
        "the balancer allocated on the per-sample or per-refresh path"
    );
}

fn published_timeouts_match_the_reference(policy: TimeoutPolicy) {
    let cfg = BalancerConfig {
        policy,
        ..BalancerConfig::default()
    };
    let (warmup, cap) = (cfg.warmup_samples, cfg.profile_window);
    let lb = LoadBalancer::new(cfg);
    let mut window_ms: VecDeque<f64> = VecDeque::with_capacity(cap);
    let mut rng = 0xD1B5_4A32_D192_ED03u64;
    let mut refreshes = 0;
    for n in 1..=3 * cap as u64 {
        let d = next_duration(&mut rng);
        if window_ms.len() == cap {
            window_ms.pop_front();
        }
        window_ms.push_back(d.as_secs_f64() * 1e3);
        lb.on_fast_complete(&SampleRecord::total_only(d));
        // The completion that ends warm-up publishes; after it, an
        // explicit refresh every 64 completions stands in for the
        // monitor's tick.
        let tick = n > warmup && n % 64 == 0;
        if tick {
            lb.refresh_now();
        }
        if n == warmup || tick {
            refreshes += 1;
            assert_eq!(
                lb.current_timeout(),
                Some(reference_timeout(&window_ms, policy)),
                "after {n} completions"
            );
        }
    }
    assert!(refreshes > 100);
}

#[test]
fn refresh_allocates_nothing_and_matches_a_sort_based_reference() {
    assert!(alloc_counter::instrumented());
    steady_state_allocates_nothing();
    published_timeouts_match_the_reference(TimeoutPolicy::paper_default());
    // A primary percentile low enough that the fallback is taken.
    published_timeouts_match_the_reference(TimeoutPolicy::Adaptive {
        percentile: 0.25,
        fallback_percentile: 0.90,
        misclassification_threshold: 0.35,
    });
}
