//! Focused unit tests for the two mechanisms the paper's §4.2
//! correctness argument rests on: the bounded MPMC queues (fill/drain,
//! close, an item arriving mid-wait) and the load balancer's
//! warm-up → P75 → P90-fallback timeout state machine.

use minato_core::balancer::{BalancerConfig, LoadBalancer, TimeoutPolicy};
use minato_core::profiler::SampleRecord;
use minato_core::queue::{MinatoQueue, PopResult, TryPutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn rec(ms: u64) -> SampleRecord {
    SampleRecord::total_only(Duration::from_millis(ms))
}

// ---------------------------------------------------------------- queues

#[test]
fn queue_fill_to_capacity_then_drain_completely() {
    let q: MinatoQueue<u32> = MinatoQueue::new("fill-drain", 7);
    // Fill until the bound rejects.
    let mut accepted = 0u32;
    loop {
        match q.try_put(accepted) {
            Ok(()) => accepted += 1,
            Err(TryPutError::Full(v)) => {
                assert_eq!(v, accepted, "rejected item must be handed back");
                break;
            }
            Err(TryPutError::Closed(_)) => panic!("queue is open"),
        }
    }
    assert_eq!(accepted as usize, q.capacity());
    assert_eq!(q.len(), 7);
    // Drain in FIFO order until empty.
    for expect in 0..accepted {
        match q.try_pop() {
            PopResult::Item(v) => assert_eq!(v, expect),
            other => panic!("expected item, got {other:?}"),
        }
    }
    assert_eq!(q.try_pop(), PopResult::Empty);
    assert!(q.is_empty());
    // The queue is reusable after a full cycle.
    q.put(99).unwrap();
    assert_eq!(q.pop(), Some(99));
    assert_eq!(q.total_puts(), 8);
    assert_eq!(q.total_pops(), 8);
}

#[test]
fn pop_timeout_returns_item_arriving_mid_wait() {
    let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("late", 4));
    let q2 = Arc::clone(&q);
    let h = thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
    // The consumer's call and its wait are each one counted acquisition,
    // the second made under the state mutex `put` needs: by the time
    // `put` runs the consumer is parked.
    let t0 = Instant::now();
    while q.lock_acquisitions() < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "consumer never waited"
        );
        thread::yield_now();
    }
    q.put(7).unwrap();
    assert_eq!(h.join().unwrap(), Ok(Some(7)));
}

#[test]
fn close_is_idempotent_and_rejects_with_item_returned() {
    let q: MinatoQueue<u32> = MinatoQueue::new("closed", 2);
    q.put(1).unwrap();
    q.close();
    q.close(); // Second close is a no-op.
    assert!(q.is_closed());
    match q.try_put(5) {
        Err(TryPutError::Closed(5)) => {}
        other => panic!("expected Closed(5), got {other:?}"),
    }
    // Drain still works after close.
    assert_eq!(q.pop(), Some(1));
    assert_eq!(q.try_pop(), PopResult::ClosedAndDrained);
}

// -------------------------------------------------------------- balancer

#[test]
fn warmup_boundary_activates_timeout_exactly_at_threshold() {
    let lb = LoadBalancer::new(BalancerConfig {
        warmup_samples: 10,
        ..Default::default()
    });
    for _ in 0..9 {
        lb.on_fast_complete(&rec(20));
        assert_eq!(lb.current_timeout(), None, "optimistic during warm-up");
    }
    lb.on_fast_complete(&rec(20));
    assert!(
        lb.current_timeout().is_some(),
        "timeout must activate on the warm-up completion itself"
    );
}

#[test]
fn cutoff_moves_only_on_refresh_after_warmup() {
    let lb = LoadBalancer::new(BalancerConfig {
        warmup_samples: 10,
        ..Default::default()
    });
    for _ in 0..10 {
        lb.on_fast_complete(&rec(10));
    }
    let at_warmup = lb.current_timeout().expect("warmed up");
    // The distribution shifts a hundredfold, but after warm-up no
    // completion recomputes the cutoff: only a refresh (the monitor's
    // tick) moves it.
    for _ in 0..10_000 {
        lb.on_fast_complete(&rec(1000));
    }
    assert_eq!(
        lb.current_timeout().expect("still set"),
        at_warmup,
        "a completion recomputed the cutoff"
    );
    lb.refresh_now();
    let refreshed = lb.current_timeout().expect("still set");
    assert!(
        refreshed > Duration::from_millis(500),
        "the refresh must follow the data, got {refreshed:?}"
    );
}

#[test]
fn slow_completions_feed_uncensored_times_into_the_profile() {
    // Background completions report their *true* duration; the timeout
    // must rise to reflect them rather than staying censored at the old
    // cutoff.
    let lb = LoadBalancer::new(BalancerConfig {
        warmup_samples: 20,
        profile_window: 40,
        ..Default::default()
    });
    for _ in 0..20 {
        lb.on_fast_complete(&rec(10));
    }
    let before = lb.current_timeout().expect("warmed up");
    for _ in 0..40 {
        lb.on_slow_complete(&rec(800));
    }
    lb.refresh_now();
    let after = lb.current_timeout().expect("still set");
    assert!(
        after > before * 10,
        "true slow durations must move the percentile: {before:?} -> {after:?}"
    );
    assert_eq!(lb.flagged_slow(), 40);
    assert!(lb.slow_fraction() > 0.6);
}

#[test]
fn fallback_engages_under_skew_and_releases_when_distribution_normalizes() {
    // P50 primary with a 35% misclassification threshold: a spread-out
    // distribution flags ~50% (skew -> P90 fallback); an atom-heavy
    // distribution flags <35% (primary again). This exercises both
    // directions of the paper's §4.2 fallback transition.
    let cfg = BalancerConfig {
        warmup_samples: 50,
        profile_window: 100,
        policy: TimeoutPolicy::Adaptive {
            percentile: 0.50,
            fallback_percentile: 0.90,
            misclassification_threshold: 0.35,
        },
    };
    let lb = LoadBalancer::new(cfg);

    // Phase 1: 100 distinct values spread over 0..1000 ms. P50 ≈ 500 ms
    // would flag ~50% > 35%, so the published timeout must be ≈ P90.
    // Each phase ends where the monitor's tick would refresh.
    for i in 0..100u64 {
        lb.on_fast_complete(&rec(i * 10));
    }
    lb.refresh_now();
    let skewed = lb.current_timeout().expect("warmed up");
    assert!(
        skewed > Duration::from_millis(800),
        "expected P90-level fallback timeout, got {skewed:?}"
    );

    // Phase 2: the window slides to 80 samples at exactly 10 ms plus 20
    // stragglers. P50 = 10 ms flags only ~20% < 35%: primary again.
    for i in 0..200u64 {
        let ms = if i % 5 == 4 { 2000 } else { 10 };
        lb.on_fast_complete(&rec(ms));
    }
    lb.refresh_now();
    let recovered = lb.current_timeout().expect("still set");
    assert!(
        recovered < Duration::from_millis(100),
        "expected recovery to the primary percentile, got {recovered:?}"
    );
}
