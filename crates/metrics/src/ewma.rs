//! The moving average used by the adaptive worker scheduler.
//!
//! Paper Formula 2 drives worker scaling from "the moving average of the
//! queue size"; [`MovingAverage`] is that average over a fixed window.

use std::collections::VecDeque;

/// Fixed-window moving average over the last `window` observations.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average over the most recent `window` observations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> MovingAverage {
        assert!(window > 0, "window must be positive");
        MovingAverage {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Folds one observation in, evicting the oldest when full.
    pub fn record(&mut self, x: f64) {
        if self.buf.len() == self.window {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.buf.push_back(x);
        self.sum += x;
    }

    /// Current average; 0.0 before any observation.
    pub fn value(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no observation was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn moving_average_rejects_zero_window() {
        let _ = MovingAverage::new(0);
    }

    #[test]
    fn moving_average_partial_window() {
        let mut m = MovingAverage::new(4);
        m.record(2.0);
        m.record(4.0);
        assert_eq!(m.value(), 3.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn moving_average_evicts_oldest() {
        let mut m = MovingAverage::new(2);
        m.record(1.0);
        m.record(3.0);
        m.record(5.0); // Evicts 1.0 -> window [3, 5].
        assert_eq!(m.value(), 4.0);
    }

    #[test]
    fn moving_average_empty_is_zero() {
        assert_eq!(MovingAverage::new(3).value(), 0.0);
    }
}
