//! Bounded, instrumented, closable MPMC queues.
//!
//! The paper's runtime is built from four queue roles (fast, slow, temp,
//! batch; §4.1). All of them share the same semantics: bounded capacity
//! (the paper caps every queue at 100), multi-producer/multi-consumer,
//! strict FIFO, occupancy statistics for the worker scheduler, and a
//! close signal for clean drain at end of training.
//!
//! There is one implementation: a mutex guards a `VecDeque` plus the
//! closed flag and the reservation count, and two condition variables
//! wake blocked producers (`not_full`) and consumers (`not_empty`)
//! exactly when the state they wait for changes. The batched operations
//! (`put_many`, `pop_many`, ...) move a whole burst under one
//! acquisition, which is where the per-sample synchronization cost goes
//! down; [`MinatoQueue::lock_acquisitions`] counts every acquisition so
//! that cost can be read off a running loader.

use minato_metrics::Counter;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Compatibility remnant of the removed queue-core selection: the
/// frozen `benchmark/` package prints
/// `QueueCore::default().from_env_or()` in its environment fingerprint.
/// There is one queue implementation and nothing reads this type; it
/// goes once the benchmark drops `fingerprint.queue_core`.
#[derive(Debug, Default)]
pub enum QueueCore {
    /// The mutex+condvar queue — the only one.
    #[default]
    Locked,
}

impl QueueCore {
    /// Compatibility remnant (see [`QueueCore`]): returns `self` and
    /// reads no environment variable.
    pub fn from_env_or(self) -> QueueCore {
        self
    }
}

/// Error returned when putting into a closed queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// Error from [`MinatoQueue::try_put`], returning the rejected item.
#[derive(Debug)]
pub enum TryPutError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue is closed.
    Closed(T),
}

/// Error from [`MinatoQueue::try_reserve`] / [`MinatoQueue::reserve_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryReserveError {
    /// No free slot (for `reserve_timeout`: none appeared in time).
    Full,
    /// The queue is closed.
    Closed,
}

/// Result of [`MinatoQueue::try_pop`].
#[derive(Debug, PartialEq, Eq)]
#[must_use = "ignoring the result silently drops a popped item"]
pub enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is currently empty but still open.
    Empty,
    /// The queue is closed and fully drained.
    ClosedAndDrained,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Slots claimed by outstanding reservations: counted against
    /// capacity but not yet holding an item.
    reserved: usize,
}

impl<T> Inner<T> {
    fn space(&self, capacity: usize) -> usize {
        capacity - self.items.len() - self.reserved
    }
}

/// A bounded MPMC queue with occupancy instrumentation and close-to-drain
/// semantics.
///
/// * `put` blocks while full (unless closed — then it fails),
/// * `pop` blocks while empty (unless closed — then it returns `None`),
/// * after [`MinatoQueue::close`], remaining items can still be popped;
///   `pop` returns `None` only when closed *and* empty.
///
/// # Examples
///
/// ```
/// use minato_core::queue::MinatoQueue;
///
/// let q: MinatoQueue<u32> = MinatoQueue::new("fast", 2);
/// q.put(1).unwrap();
/// q.put(2).unwrap();
/// q.close();
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None); // Closed and drained.
/// ```
#[derive(Debug)]
pub struct MinatoQueue<T> {
    name: String,
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    puts: Counter,
    pops: Counter,
    // State-mutex acquisitions made by put/pop operations, including
    // the re-acquisition every condvar wait ends with. Monitoring-only
    // accessors (`len`, `is_closed`, ...) are not counted: the counter
    // measures the synchronization cost of moving items, the quantity
    // `benchmark`'s `queue.locks_per_sample` divides by delivered samples.
    lock_ops: Counter,
    // Occupancy accumulator for the scheduler's moving average: sum of
    // queue lengths observed at each operation.
    occupancy_sum: AtomicU64,
    occupancy_obs: AtomicU64,
}

impl<T> MinatoQueue<T> {
    /// Creates a queue with the given display `name` and `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: &str, capacity: usize) -> MinatoQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        MinatoQueue {
            name: name.to_string(),
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                reserved: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            puts: Counter::new(),
            pops: Counter::new(),
            lock_ops: Counter::new(),
            occupancy_sum: AtomicU64::new(0),
            occupancy_obs: AtomicU64::new(0),
        }
    }

    /// Queue display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of items (the paper's `Qmax`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn observe_len(&self, len: usize) {
        // ORDERING: Relaxed — monitoring counters; no data is published
        // through them and the reader tolerates any interleaving.
        self.occupancy_sum.fetch_add(len as u64, Ordering::Relaxed);
        self.occupancy_obs.fetch_add(1, Ordering::Relaxed);
    }

    /// Acquires the state mutex for a put/pop operation, counting the
    /// acquisition.
    fn lock_op(&self) -> MutexGuard<'_, Inner<T>> {
        self.lock_ops.incr();
        self.inner.lock()
    }

    /// Parks on `cv` until notified. The re-acquisition the wake-up
    /// makes is counted on entry, while `g` is still held: whoever reads
    /// the count and then takes the state mutex finds this thread
    /// already parked — the rendezvous the blocking tests are built on.
    fn wait(&self, cv: &Condvar, g: &mut MutexGuard<'_, Inner<T>>) {
        self.lock_ops.incr();
        cv.wait(g);
    }

    /// [`MinatoQueue::wait`] bounded by `deadline`; `true` when the
    /// wait timed out.
    fn wait_until(
        &self,
        cv: &Condvar,
        g: &mut MutexGuard<'_, Inner<T>>,
        deadline: Instant,
    ) -> bool {
        self.lock_ops.incr();
        cv.wait_until(g, deadline).timed_out()
    }

    /// Enqueues one item into space the caller has checked for, then
    /// releases the state mutex before counting and waking a consumer.
    // minato-verify: hot-path
    fn push_one(&self, mut g: MutexGuard<'_, Inner<T>>, item: T) {
        g.items.push_back(item);
        let len = g.items.len();
        drop(g);
        self.observe_len(len);
        self.puts.incr();
        self.not_empty.notify_one();
    }

    /// The other half: the caller has just dequeued one item under `g`;
    /// releases the state mutex before counting and waking a producer.
    // minato-verify: hot-path
    fn popped_one(&self, g: MutexGuard<'_, Inner<T>>) {
        let len = g.items.len();
        drop(g);
        self.observe_len(len);
        self.pops.incr();
        self.not_full.notify_one();
    }

    /// Blocking put. Fails with [`Closed`] if the queue was closed (before
    /// or while waiting for space).
    // minato-verify: hot-path
    pub fn put(&self, item: T) -> Result<(), Closed> {
        let mut g = self.lock_op();
        loop {
            if g.closed {
                return Err(Closed);
            }
            if g.space(self.capacity) > 0 {
                self.push_one(g, item);
                return Ok(());
            }
            self.wait(&self.not_full, &mut g);
        }
    }

    /// Non-blocking put.
    // minato-verify: hot-path
    pub fn try_put(&self, item: T) -> Result<(), TryPutError<T>> {
        let g = self.lock_op();
        if g.closed {
            return Err(TryPutError::Closed(item));
        }
        if g.space(self.capacity) == 0 {
            return Err(TryPutError::Full(item));
        }
        self.push_one(g, item);
        Ok(())
    }

    /// Non-blocking reservation of one slot, for reserve-then-publish
    /// puts.
    ///
    /// A reservation counts against capacity immediately but holds no
    /// item; the caller does its pre-publication work (e.g. a device
    /// prefetch that must target the queue that will actually deliver
    /// the item) *outside* the queue's synchronization, then calls
    /// [`PutReservation::publish`]. Dropping the reservation without
    /// publishing releases the slot. A plain `try_put` cannot express
    /// this: the caller only learns which queue accepted the item after
    /// it is already poppable.
    pub fn try_reserve(&self) -> Result<PutReservation<'_, T>, TryReserveError> {
        let mut g = self.lock_op();
        if g.closed {
            return Err(TryReserveError::Closed);
        }
        if g.space(self.capacity) == 0 {
            return Err(TryReserveError::Full);
        }
        g.reserved += 1;
        drop(g);
        Ok(PutReservation {
            queue: self,
            active: true,
        })
    }

    /// [`MinatoQueue::try_reserve`] with a bounded wait for space.
    /// Returns `Err(Full)` on timeout.
    pub fn reserve_timeout(
        &self,
        timeout: Duration,
    ) -> Result<PutReservation<'_, T>, TryReserveError> {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock_op();
        loop {
            if g.closed {
                return Err(TryReserveError::Closed);
            }
            if g.space(self.capacity) > 0 {
                g.reserved += 1;
                drop(g);
                return Ok(PutReservation {
                    queue: self,
                    active: true,
                });
            }
            if self.wait_until(&self.not_full, &mut g, deadline) {
                return Err(TryReserveError::Full);
            }
        }
    }

    /// Blocking bulk put: enqueues all of `items` in bursts of available
    /// space instead of one synchronization round per item, waking
    /// consumers once per burst.
    ///
    /// If the chunk exceeds the free space (or the queue capacity), the
    /// put proceeds in capacity-sized bursts, blocking between them.
    /// Fails with [`Closed`] if the queue is closed before every item is
    /// enqueued; items from already-completed bursts stay in the queue
    /// and drain normally (close-to-drain semantics), the rest are
    /// dropped — exactly the items a failing single-item `put` loop
    /// would have dropped.
    pub fn put_many(&self, items: Vec<T>) -> Result<(), Closed> {
        if items.is_empty() {
            return Ok(());
        }
        let total = items.len();
        let mut it = items.into_iter();
        let mut done = 0usize;
        let mut g = self.lock_op();
        loop {
            if g.closed {
                return Err(Closed);
            }
            let space = g.space(self.capacity);
            if space > 0 {
                let take = space.min(total - done);
                g.items.extend(it.by_ref().take(take));
                done += take;
                let len = g.items.len();
                self.observe_len(len);
                self.puts.add(take as u64);
                if done == total {
                    drop(g);
                    self.not_empty.notify_all();
                    return Ok(());
                }
                self.not_empty.notify_all();
            }
            self.wait(&self.not_full, &mut g);
        }
    }

    /// Non-blocking bulk put: enqueues as many leading `items` as
    /// currently fit, in one burst. Returns `Err(Full(rest))` with the
    /// items that did not fit (possibly all of them) and
    /// `Err(Closed(items))` when the queue is closed — callers retry or
    /// hand the leftover to a blocking [`MinatoQueue::put_many`].
    pub fn try_put_many(&self, mut items: Vec<T>) -> Result<(), TryPutError<Vec<T>>> {
        if items.is_empty() {
            return Ok(());
        }
        let mut g = self.lock_op();
        if g.closed {
            return Err(TryPutError::Closed(items));
        }
        let take = g.space(self.capacity).min(items.len());
        if take == 0 {
            return Err(TryPutError::Full(items));
        }
        let rest = items.split_off(take);
        g.items.extend(items);
        let len = g.items.len();
        drop(g);
        self.observe_len(len);
        self.puts.add(take as u64);
        self.not_empty.notify_all();
        if rest.is_empty() {
            Ok(())
        } else {
            Err(TryPutError::Full(rest))
        }
    }

    /// Blocking pop. Returns `None` only when the queue is closed and
    /// empty.
    // minato-verify: hot-path
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock_op();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.popped_one(g);
                return Some(item);
            }
            if g.closed {
                return None;
            }
            self.wait(&self.not_empty, &mut g);
        }
    }

    /// Pop with a bounded wait. Returns `Ok(None)` on timeout and
    /// `Err(Closed)` when closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<T>, Closed> {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock_op();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.popped_one(g);
                return Ok(Some(item));
            }
            if g.closed {
                return Err(Closed);
            }
            if self.wait_until(&self.not_empty, &mut g, deadline) {
                return Ok(None);
            }
        }
    }

    /// Non-blocking pop.
    // minato-verify: hot-path
    pub fn try_pop(&self) -> PopResult<T> {
        let mut g = self.lock_op();
        if let Some(item) = g.items.pop_front() {
            self.popped_one(g);
            PopResult::Item(item)
        } else if g.closed {
            PopResult::ClosedAndDrained
        } else {
            PopResult::Empty
        }
    }

    /// Dequeues up to `max` already-available items under one lock
    /// acquisition, releasing blocked producers with one `notify_all`.
    fn drain_burst(&self, g: &mut MutexGuard<'_, Inner<T>>, max: usize) -> Vec<T> {
        let take = max.min(g.items.len());
        let out: Vec<T> = g.items.drain(..take).collect();
        if !out.is_empty() {
            self.observe_len(g.items.len());
            self.pops.add(out.len() as u64);
            self.not_full.notify_all();
        }
        out
    }

    /// Blocking bulk pop: waits until at least one item is available and
    /// returns up to `max` of them, dequeued as one burst. Returns an
    /// empty vector only when the queue is closed and drained (or
    /// `max == 0`).
    pub fn pop_many(&self, max: usize) -> Vec<T> {
        if max == 0 {
            return Vec::new();
        }
        let mut g = self.lock_op();
        loop {
            let out = self.drain_burst(&mut g, max);
            if !out.is_empty() {
                return out;
            }
            if g.closed {
                return Vec::new();
            }
            self.wait(&self.not_empty, &mut g);
        }
    }

    /// Non-blocking bulk pop of up to `max` items as one burst. `Ok`
    /// with an empty vector means the queue is open but currently empty;
    /// `Err(Closed)` means closed and fully drained.
    pub fn try_pop_many(&self, max: usize) -> Result<Vec<T>, Closed> {
        let mut g = self.lock_op();
        let out = self.drain_burst(&mut g, max);
        if out.is_empty() && g.closed {
            return Err(Closed);
        }
        Ok(out)
    }

    /// Bulk pop with a bounded wait for the first item. `Ok` with an
    /// empty vector means the wait timed out; `Err(Closed)` means closed
    /// and drained.
    pub fn pop_many_timeout(&self, max: usize, timeout: Duration) -> Result<Vec<T>, Closed> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let deadline = Instant::now() + timeout;
        let mut g = self.lock_op();
        loop {
            let out = self.drain_burst(&mut g, max);
            if !out.is_empty() {
                return Ok(out);
            }
            if g.closed {
                return Err(Closed);
            }
            if self.wait_until(&self.not_empty, &mut g, deadline) {
                return Ok(Vec::new());
            }
        }
    }

    /// Closes the queue: pending and future `put`s fail, `pop` drains the
    /// remaining items then returns `None`. Idempotent.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        drop(g);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Whether [`MinatoQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total successful puts.
    pub fn total_puts(&self) -> u64 {
        self.puts.get()
    }

    /// Total successful pops.
    pub fn total_pops(&self) -> u64 {
        self.pops.get()
    }

    /// State-mutex acquisitions made by put/pop operations so far: one
    /// per call, plus one per condvar wait (a wait ends by re-acquiring
    /// the mutex; it is counted when the wait begins, so a thread that
    /// blocks is visible here before it is woken). Divided by
    /// [`MinatoQueue::total_pops`] it is the per-item synchronization
    /// cost `benchmark`'s `queue.locks_per_sample` row reports.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_ops.get()
    }

    /// Average occupancy observed across all put/pop operations — the
    /// `Qsize` input to the scheduler's Formula 2.
    pub fn mean_occupancy(&self) -> f64 {
        // ORDERING: Relaxed — the two monitoring counters are read
        // independently; a torn pair only skews the average by one
        // observation.
        let obs = self.occupancy_obs.load(Ordering::Relaxed);
        if obs == 0 {
            0.0
        } else {
            // ORDERING: Relaxed — same monitoring pair as above.
            self.occupancy_sum.load(Ordering::Relaxed) as f64 / obs as f64
        }
    }
}

/// A claimed slot awaiting its item (see [`MinatoQueue::try_reserve`]).
///
/// The slot counts against queue capacity from reservation until
/// [`PutReservation::publish`] or drop, so concurrent producers cannot
/// oversubscribe the queue while the holder works outside the queue's
/// synchronization.
#[derive(Debug)]
#[must_use = "an unpublished reservation holds a capacity slot until dropped"]
pub struct PutReservation<'a, T> {
    queue: &'a MinatoQueue<T>,
    active: bool,
}

impl<T> PutReservation<'_, T> {
    /// Fills the reserved slot, making `item` visible to consumers.
    ///
    /// Fails with [`Closed`] (dropping the item, like a lost `put` race)
    /// if the queue was closed after the reservation was taken.
    pub fn publish(mut self, item: T) -> Result<(), Closed> {
        self.active = false;
        let mut g = self.queue.lock_op();
        g.reserved -= 1;
        if g.closed {
            drop(g);
            self.queue.not_full.notify_one();
            return Err(Closed);
        }
        self.queue.push_one(g, item);
        Ok(())
    }
}

impl<T> Drop for PutReservation<'_, T> {
    fn drop(&mut self) {
        if self.active {
            let mut g = self.queue.lock_op();
            g.reserved -= 1;
            drop(g);
            self.queue.not_full.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Yields until `calls` blocking operations started after `base` was
    /// read have parked: each counts its call and, under the state
    /// mutex, its wait. Whatever the caller does next to the queue takes
    /// that mutex, which a waiter releases only by parking — so the
    /// blocked path is what runs, with no sleep to guess its timing.
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

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: MinatoQueue<u8> = MinatoQueue::new("q", 0);
    }

    #[test]
    fn fifo_order() {
        let q = MinatoQueue::new("q", 8);
        for i in 0..5 {
            q.put(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn try_put_full_returns_item() {
        let q = MinatoQueue::new("q", 1);
        q.put(1).unwrap();
        match q.try_put(2) {
            Err(TryPutError::Full(2)) => {}
            other => panic!("expected Full(2), got {other:?}"),
        }
    }

    #[test]
    fn put_blocks_until_space() {
        let q = Arc::new(MinatoQueue::new("q", 1));
        q.put(1).unwrap();
        let base = q.lock_acquisitions();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.put(2));
        wait_until_parked(&q, base, 1);
        assert_eq!(q.len(), 1, "the blocked put must not have landed");
        assert_eq!(q.pop(), Some(1));
        h.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn pop_blocks_until_item() {
        let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("q", 4));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        wait_until_parked(&q, 0, 1);
        q.put(9).unwrap();
        assert_eq!(h.join().unwrap(), Some(9));
    }

    #[test]
    fn close_unblocks_consumers_with_none() {
        let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("q", 4));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        wait_until_parked(&q, 0, 1);
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn close_unblocks_blocked_producers_with_err() {
        let q = Arc::new(MinatoQueue::new("q", 1));
        q.put(1).unwrap();
        let base = q.lock_acquisitions();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.put(2));
        wait_until_parked(&q, base, 1);
        q.close();
        assert_eq!(h.join().unwrap(), Err(Closed));
    }

    #[test]
    fn closed_queue_drains_then_none() {
        let q = MinatoQueue::new("q", 4);
        q.put(1).unwrap();
        q.close();
        assert!(q.put(2).is_err());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_timeout_times_out() {
        let q: MinatoQueue<u32> = MinatoQueue::new("q", 4);
        let r = q.pop_timeout(Duration::from_millis(10));
        assert_eq!(r, Ok(None));
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Err(Closed));
    }

    #[test]
    fn stats_count_operations() {
        let q = MinatoQueue::new("q", 4);
        q.put(1).unwrap();
        q.put(2).unwrap();
        let _ = q.pop();
        assert_eq!(q.total_puts(), 2);
        assert_eq!(q.total_pops(), 1);
        assert!(q.mean_occupancy() > 0.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn put_many_pop_many_preserve_fifo() {
        let q = MinatoQueue::new("q", 64);
        q.put_many((0..10).collect()).unwrap();
        assert_eq!(q.pop_many(4), vec![0, 1, 2, 3]);
        assert_eq!(q.pop_many(100), (4..10).collect::<Vec<_>>());
    }

    #[test]
    fn put_many_larger_than_capacity_blocks_in_bursts() {
        let q = Arc::new(MinatoQueue::new("q", 3));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.put_many((0..10).collect()));
        let mut got = Vec::new();
        while got.len() < 10 {
            got.extend(q.pop_many(2));
        }
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn put_many_on_closed_fails_and_keeps_enqueued_burst() {
        let q = Arc::new(MinatoQueue::new("q", 2));
        let q2 = Arc::clone(&q);
        // First burst (0, 1) fits; the producer then blocks for space.
        let h = thread::spawn(move || q2.put_many(vec![0, 1, 2, 3]));
        wait_until_parked(&q, 0, 1);
        q.close();
        assert_eq!(h.join().unwrap(), Err(Closed));
        // The completed burst drains; the unfinished tail is dropped.
        assert_eq!(q.pop_many(10), vec![0, 1]);
        assert!(q.pop_many(10).is_empty());
    }

    #[test]
    fn pop_many_blocks_until_first_item() {
        let q: Arc<MinatoQueue<u32>> = Arc::new(MinatoQueue::new("q", 8));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_many(8));
        wait_until_parked(&q, 0, 1);
        q.put_many(vec![7]).unwrap();
        assert_eq!(h.join().unwrap(), vec![7]);
    }

    #[test]
    fn pop_many_empty_only_when_closed_and_drained() {
        let q = MinatoQueue::new("q", 8);
        q.put_many(vec![1, 2]).unwrap();
        q.close();
        assert_eq!(q.pop_many(8), vec![1, 2]);
        assert!(q.pop_many(8).is_empty());
        assert!(q.pop_many(0).is_empty());
    }

    #[test]
    fn try_pop_many_reports_closed() {
        let q = MinatoQueue::new("q", 8);
        assert_eq!(q.try_pop_many(4), Ok(Vec::new()));
        q.put(1).unwrap();
        assert_eq!(q.try_pop_many(4), Ok(vec![1]));
        q.close();
        assert_eq!(q.try_pop_many(4), Err(Closed));
    }

    #[test]
    fn pop_many_timeout_times_out_then_closes() {
        let q: MinatoQueue<u32> = MinatoQueue::new("q", 8);
        assert_eq!(q.pop_many_timeout(4, Duration::from_millis(5)), Ok(vec![]));
        q.put(9).unwrap();
        assert_eq!(q.pop_many_timeout(4, Duration::from_millis(5)), Ok(vec![9]));
        q.close();
        assert_eq!(q.pop_many_timeout(4, Duration::from_millis(5)), Err(Closed));
    }

    #[test]
    fn reservation_holds_capacity_until_published() {
        let q = MinatoQueue::new("q", 2);
        let r = q.try_reserve().unwrap();
        q.put(1).unwrap();
        // Reservation + item fill both slots.
        assert!(matches!(q.try_put(2), Err(TryPutError::Full(2))));
        assert_eq!(q.try_reserve().unwrap_err(), TryReserveError::Full);
        assert_eq!(q.len(), 1, "reserved slot holds no item yet");
        r.publish(0).unwrap();
        // FIFO reflects publication order, not reservation order.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn dropped_reservation_releases_the_slot() {
        let q = MinatoQueue::new("q", 1);
        drop(q.try_reserve().unwrap());
        q.put(7).unwrap();
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn reserve_timeout_times_out_and_publish_fails_after_close() {
        let q = MinatoQueue::new("q", 1);
        q.put(1).unwrap();
        assert_eq!(
            q.reserve_timeout(Duration::from_millis(5)).unwrap_err(),
            TryReserveError::Full
        );
        let _ = q.pop();
        let r = q.reserve_timeout(Duration::from_millis(5)).unwrap();
        q.close();
        assert_eq!(r.publish(2), Err(Closed));
        assert_eq!(q.try_reserve().unwrap_err(), TryReserveError::Closed);
    }

    #[test]
    fn dropped_reservation_wakes_blocked_producer() {
        let q = Arc::new(MinatoQueue::new("q", 1));
        let r = q.try_reserve().unwrap();
        let base = q.lock_acquisitions();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.put(5));
        wait_until_parked(&q, base, 1);
        drop(r);
        h.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(5));
    }

    #[test]
    fn try_put_many_enqueues_prefix_and_returns_rest() {
        let q = MinatoQueue::new("q", 3);
        q.put(0).unwrap();
        match q.try_put_many(vec![1, 2, 3, 4]) {
            Err(TryPutError::Full(rest)) => assert_eq!(rest, vec![3, 4]),
            other => panic!("expected Full([3, 4]), got {other:?}"),
        }
        assert_eq!(q.pop_many(10), vec![0, 1, 2]);
        q.try_put_many(vec![5]).unwrap();
        assert_eq!(q.pop(), Some(5));
        q.close();
        assert!(matches!(
            q.try_put_many(vec![6]),
            Err(TryPutError::Closed(_))
        ));
    }

    #[test]
    fn batched_ops_take_fewer_locks_than_single_ops() {
        let single = MinatoQueue::new("single", 256);
        for i in 0..64 {
            single.put(i).unwrap();
        }
        while single.try_pop() != PopResult::Empty {}
        let batched = MinatoQueue::new("batched", 256);
        batched.put_many((0..64).collect()).unwrap();
        assert_eq!(batched.pop_many(64).len(), 64);
        assert!(
            batched.lock_acquisitions() * 8 <= single.lock_acquisitions(),
            "batched {} vs single {}",
            batched.lock_acquisitions(),
            single.lock_acquisitions()
        );
        // Occupancy/throughput accounting still matches.
        assert_eq!(batched.total_puts(), 64);
        assert_eq!(batched.total_pops(), 64);
        assert!(batched.mean_occupancy() > 0.0);
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        let q = Arc::new(MinatoQueue::new("q", 16));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250u64 {
                        q.put(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 1000);
        all.dedup();
        assert_eq!(all.len(), 1000, "duplicated items");
    }
}
