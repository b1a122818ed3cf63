//! Liveness and conservation tests for `MinatoQueue` through its public
//! API:
//!
//! - a proptest MPMC stress proving no-loss/no-duplication across
//!   randomized producer/consumer/capacity mixes, single and batched;
//! - close-while-parked wakeups: threads blocked in `pop` (empty) and
//!   `put` (full) must all return after `close`;
//! - reservation abandonment: a `PutReservation` dropped without
//!   `publish` must return its capacity so neither producers nor the
//!   close-to-drain protocol hang on a phantom occupant.
//!
//! No test sleeps: a thread that blocks is visible in
//! `lock_acquisitions()` (its call, then its wait, counted under the
//! state mutex), so the tests rendezvous on that count.

use minato_core::queue::{Closed, MinatoQueue, PopResult};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Yields until `calls` blocking operations started after `base` was
/// read have parked (two counted acquisitions each). The next thing the
/// caller does to the queue takes the state mutex, which a waiter only
/// releases by parking.
fn wait_until_parked<T>(q: &MinatoQueue<T>, base: u64, calls: u64) {
    let t0 = Instant::now();
    while q.lock_acquisitions() < base + 2 * calls {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "nobody blocked on `{}`",
            q.name()
        );
        thread::yield_now();
    }
}

/// Runs `producers` threads pushing disjoint tagged ranges through a
/// queue and `consumers` threads draining it until close-to-drain, and
/// returns the sorted multiset of everything delivered.
fn mpmc_drain(
    capacity: usize,
    producers: usize,
    consumers: usize,
    per_producer: usize,
    batched: bool,
) -> Vec<u64> {
    let q = Arc::new(MinatoQueue::new("mpmc", capacity));
    let start = Arc::new(Barrier::new(producers + consumers));
    let mut handles = Vec::new();
    for p in 0..producers {
        let q = Arc::clone(&q);
        let start = Arc::clone(&start);
        handles.push(thread::spawn(move || {
            start.wait();
            let items: Vec<u64> = (0..per_producer)
                .map(|i| ((p as u64) << 32) | i as u64)
                .collect();
            if batched {
                for chunk in items.chunks(3) {
                    q.put_many(chunk.to_vec()).unwrap();
                }
            } else {
                for v in items {
                    q.put(v).unwrap();
                }
            }
        }));
    }
    let mut drains = Vec::new();
    for c in 0..consumers {
        let q = Arc::clone(&q);
        let start = Arc::clone(&start);
        drains.push(thread::spawn(move || {
            start.wait();
            let mut got = Vec::new();
            loop {
                // Alternate single pops and bursts so both dequeue
                // paths run under contention.
                if c % 2 == 0 {
                    match q.pop() {
                        Some(v) => got.push(v),
                        None => break,
                    }
                } else {
                    let burst = q.pop_many(4);
                    if burst.is_empty() {
                        break;
                    }
                    got.extend(burst);
                }
            }
            got
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    q.close();
    let mut all: Vec<u64> = Vec::new();
    for d in drains {
        all.extend(d.join().unwrap());
    }
    all.sort_unstable();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No item is lost or duplicated under concurrent put/pop across
    /// randomized shapes.
    #[test]
    fn mpmc_no_loss_no_dup(
        capacity in 1usize..24,
        producers in 1usize..4,
        consumers in 1usize..4,
        per_producer in 1usize..40,
        batched in any::<bool>(),
    ) {
        let mut expect: Vec<u64> = (0..producers)
            .flat_map(|p| (0..per_producer).map(move |i| ((p as u64) << 32) | i as u64))
            .collect();
        expect.sort_unstable();
        let got = mpmc_drain(capacity, producers, consumers, per_producer, batched);
        prop_assert_eq!(&got, &expect, "items lost or duplicated");
    }
}

/// The queue preserves strict FIFO order per producer.
#[test]
fn preserves_per_producer_fifo() {
    let q = Arc::new(MinatoQueue::new("fifo", 8));
    let mut handles = Vec::new();
    for p in 0..3u64 {
        let q = Arc::clone(&q);
        handles.push(thread::spawn(move || {
            for i in 0..64u64 {
                q.put((p << 32) | i).unwrap();
            }
        }));
    }
    let mut last: HashMap<u64, u64> = HashMap::new();
    let mut seen = 0;
    while seen < 3 * 64 {
        if let Some(v) = q.pop_timeout(Duration::from_secs(5)).unwrap() {
            let (p, i) = (v >> 32, v & u32::MAX as u64);
            if let Some(prev) = last.insert(p, i) {
                assert!(i > prev, "producer {p} reordered: {prev} then {i}");
            }
            seen += 1;
        }
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// `close` must wake every thread parked in a blocking `pop` on an
/// empty queue; each returns `None` instead of hanging.
#[test]
fn close_wakes_consumers_parked_on_empty() {
    let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("park-empty", 4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        })
        .collect();
    wait_until_parked(&q, 0, 4);
    q.close();
    for h in handles {
        assert_eq!(
            h.join().unwrap(),
            None,
            "closed empty queue must yield None"
        );
    }
}

/// `close` must also wake producers parked on a full queue (they get
/// `Err(Closed)`), and the items already inside remain poppable —
/// close-to-drain, not close-and-discard.
#[test]
fn close_wakes_producers_parked_on_full_and_drains() {
    let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("park-full", 2));
    q.put(1).unwrap();
    q.put(2).unwrap();
    let base = q.lock_acquisitions();
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let q = Arc::clone(&q);
            thread::spawn(move || q.put(100 + i))
        })
        .collect();
    wait_until_parked(&q, base, 3);
    q.close();
    for h in handles {
        assert_eq!(h.join().unwrap(), Err(Closed), "parked put must fail");
    }
    assert_eq!(q.pop_many(16), vec![1, 2], "pre-close items must survive");
    assert_eq!(q.pop(), None);
}

/// A reservation abandoned without `publish` returns its capacity: a
/// full round of reserve-then-drop leaves the queue usable at full
/// capacity, and `total_puts` counts only published items.
#[test]
fn reservation_abandoned_mid_publish_releases_capacity() {
    let q: MinatoQueue<u32> = MinatoQueue::new("resv-abandon", 2);
    // Hold the whole capacity in reservations, then abandon both.
    {
        let r1 = q.try_reserve().unwrap();
        let _r2 = q.try_reserve().unwrap();
        assert!(q.try_reserve().is_err(), "capacity must be exact");
        drop(r1);
        // One slot back: a new reservation succeeds while _r2 is
        // still held.
        let r3 = q.try_reserve().unwrap();
        r3.publish(7).unwrap();
    }
    // _r2 dropped: full remaining capacity is back.
    q.put(8).unwrap();
    assert_eq!(q.len(), 2);
    assert_eq!(q.total_puts(), 2, "abandoned reservations must not count");
    assert_eq!(q.pop_many(2), vec![7, 8]);
}

/// An abandoned reservation must not wedge close-to-drain: a consumer
/// blocked on an empty-but-reserved queue is woken when the reservation
/// holder gives up and the queue closes.
#[test]
fn abandoned_reservation_does_not_wedge_close() {
    let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("resv-close", 1));
    let resv = q.try_reserve().unwrap();
    let base = q.lock_acquisitions();
    let consumer = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.pop())
    };
    wait_until_parked(&q, base, 1);
    // Abandon the only slot's reservation, then close: the parked
    // consumer must wake with None, not wait for a publish that
    // never comes.
    drop(resv);
    q.close();
    assert_eq!(consumer.join().unwrap(), None, "consumer wedged");
    // And reserving after close fails cleanly.
    assert!(q.try_reserve().is_err());
}

/// `try_pop` on a closed-and-drained queue reports `ClosedAndDrained`
/// (not `Empty`) — the signal workers use to exit.
#[test]
fn try_pop_reports_closed_and_drained() {
    let q: MinatoQueue<u32> = MinatoQueue::new("drained", 2);
    q.put(1).unwrap();
    q.close();
    assert_eq!(q.try_pop(), PopResult::Item(1));
    assert_eq!(q.try_pop(), PopResult::ClosedAndDrained);
}
