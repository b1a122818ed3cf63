//! Lock-free counters shared between loader workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing, thread-safe counter.
///
/// Used for queue put/pop totals, bytes loaded, samples classified slow,
/// etc. All operations are relaxed: counters feed monitoring, not
/// synchronization.
///
/// # Examples
///
/// ```
/// use minato_metrics::Counter;
///
/// let c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Converts a byte count and an elapsed duration into MB/s, the unit of the
/// paper's throughput plots (Figure 7).
///
/// Returns 0.0 for a zero-length interval.
pub fn mb_per_sec(bytes: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / 1e6 / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn take_resets() {
        let c = Counter::new();
        c.add(5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn mb_per_sec_basic() {
        assert_eq!(mb_per_sec(10_000_000, Duration::from_secs(2)), 5.0);
        assert_eq!(mb_per_sec(1, Duration::ZERO), 0.0);
    }
}
