//! Batches, per-sample metadata, and ordered reassembly.
//!
//! MinatoLoader batches carry per-sample metadata (index, epoch, slow flag,
//! preprocessing time) so the batch-composition experiments of Figure 11
//! can be computed directly from what the loader emits. [`ReorderBuffer`]
//! provides the strict in-order delivery that the PyTorch baseline (and
//! MinatoLoader's order-preserving mode, §6) require.

use crate::pool::SampleRecycler;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Metadata attached to every preprocessed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleMeta {
    /// Dataset index the sample came from.
    pub index: usize,
    /// Epoch of the request.
    pub epoch: usize,
    /// Global request sequence number.
    pub seq: u64,
    /// Whether the sample exceeded the balancer timeout (slow path).
    pub slow: bool,
    /// Total preprocessing wall time (fast path + background completion).
    pub preprocess: Duration,
    /// Raw sample size in bytes when known, else 0.
    pub bytes: u64,
    /// Nanoseconds since loader start when the ticket was claimed
    /// (0 when unknown). Feeds the always-on end-to-end delivery
    /// latency: `next_batch` records `now - issued_ns` per sample.
    pub issued_ns: u64,
}

/// A preprocessed sample together with its metadata.
#[derive(Debug, Clone)]
pub struct Prepared<S> {
    /// The fully preprocessed sample, ready for batching.
    pub sample: S,
    /// Provenance and classification metadata.
    pub meta: SampleMeta,
}

/// A training batch: samples plus aligned metadata.
///
/// With buffer pooling enabled the loader attaches a
/// [`SampleRecycler`]: dropping the batch (the training loop finishing
/// with it) hands every still-owned sample's buffers back to the pool —
/// the consumer side of the zero-allocation recycle loop. Take
/// ownership with [`Batch::into_samples`]/[`Batch::into_parts`] to opt
/// out for samples you keep.
pub struct Batch<S: 'static> {
    /// The samples, in batch order.
    pub samples: Vec<S>,
    /// Metadata aligned with `samples`.
    pub meta: Vec<SampleMeta>,
    /// Recycle hook invoked per leftover sample on drop.
    recycler: Option<Arc<dyn SampleRecycler<S>>>,
}

impl<S: 'static> Batch<S> {
    /// Creates an empty batch with reserved capacity (no recycler).
    pub fn with_capacity(n: usize) -> Batch<S> {
        Batch {
            samples: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
            recycler: None,
        }
    }

    /// Creates an empty batch whose leftover samples are handed to
    /// `recycler` when the batch is dropped.
    pub fn with_recycler(n: usize, recycler: Option<Arc<dyn SampleRecycler<S>>>) -> Batch<S> {
        Batch {
            samples: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
            recycler,
        }
    }

    /// Appends one prepared sample.
    pub fn push(&mut self, p: Prepared<S>) {
        self.samples.push(p.sample);
        self.meta.push(p.meta);
    }

    /// Takes ownership of the samples; they will *not* be recycled.
    pub fn into_samples(mut self) -> Vec<S> {
        std::mem::take(&mut self.samples)
    }

    /// Takes ownership of samples and metadata; nothing is recycled.
    pub fn into_parts(mut self) -> (Vec<S>, Vec<SampleMeta>) {
        (
            std::mem::take(&mut self.samples),
            std::mem::take(&mut self.meta),
        )
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// How many samples in this batch took the slow path (Figure 11b's
    /// x-axis).
    pub fn slow_count(&self) -> usize {
        self.meta.iter().filter(|m| m.slow).count()
    }

    /// Sum of raw sample sizes, used for MB/s throughput accounting
    /// (Figure 7).
    pub fn bytes(&self) -> u64 {
        self.meta.iter().map(|m| m.bytes).sum()
    }

    /// Fraction of slow samples in the batch (Figure 11c's y-axis).
    pub fn slow_fraction(&self) -> f64 {
        if self.meta.is_empty() {
            0.0
        } else {
            self.slow_count() as f64 / self.meta.len() as f64
        }
    }
}

impl<S: 'static> Drop for Batch<S> {
    fn drop(&mut self) {
        if let Some(recycler) = &self.recycler {
            for sample in self.samples.drain(..) {
                recycler.reclaim(sample);
            }
        }
    }
}

impl<S: Clone + 'static> Clone for Batch<S> {
    fn clone(&self) -> Self {
        Batch {
            samples: self.samples.clone(),
            meta: self.meta.clone(),
            recycler: self.recycler.clone(),
        }
    }
}

impl<S: std::fmt::Debug + 'static> std::fmt::Debug for Batch<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch")
            .field("samples", &self.samples)
            .field("meta", &self.meta)
            .field("recycled_on_drop", &self.recycler.is_some())
            .finish()
    }
}

/// Reassembles an out-of-order stream of `(seq, item)` into sequence order.
///
/// The PyTorch DataLoader delivers batches strictly in sampler order even
/// when workers finish out of order; this buffer reproduces that behaviour
/// (and is the mechanism behind its head-of-line blocking: a missing `seq`
/// holds back everything after it).
///
/// # Examples
///
/// ```
/// use minato_core::batch::ReorderBuffer;
///
/// let mut rb = ReorderBuffer::new(0);
/// assert!(rb.push(2, "c").is_empty()); // Held: 0 and 1 missing.
/// assert!(rb.push(1, "b").is_empty());
/// assert_eq!(rb.push(0, "a"), vec!["a", "b", "c"]); // Gap filled.
/// ```
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: u64,
    /// Items whose seq is at or above `next`, by seq.
    pending: BTreeMap<u64, T>,
}

impl<T> ReorderBuffer<T> {
    /// Creates a buffer expecting `first_seq` next.
    pub fn new(first_seq: u64) -> ReorderBuffer<T> {
        ReorderBuffer {
            next: first_seq,
            pending: BTreeMap::new(),
        }
    }

    /// Inserts `(seq, item)` and returns every item that is now ready in
    /// order. Duplicate or stale sequence numbers are discarded.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should use
    /// [`ReorderBuffer::offer`] + [`ReorderBuffer::drain_ready`] with a
    /// reused output buffer instead.
    pub fn push(&mut self, seq: u64, item: T) -> Vec<T> {
        self.offer(seq, item);
        let mut out = Vec::new();
        self.drain_ready(&mut out);
        out
    }

    /// Inserts `(seq, item)` without draining. Duplicate or stale
    /// sequence numbers are discarded.
    pub fn offer(&mut self, seq: u64, item: T) {
        if seq >= self.next {
            self.pending.insert(seq, item);
        }
    }

    /// Appends every item that is ready (the contiguous run starting at
    /// the awaited sequence number) to `out`, in order. `out` is the
    /// caller's reusable drain buffer — it is *not* cleared here, so one
    /// allocation serves every call.
    pub fn drain_ready(&mut self, out: &mut Vec<T>) {
        while let Some(item) = self.pending.remove(&self.next) {
            out.push(item);
            self.next += 1;
        }
    }

    /// Number of items parked waiting for a gap to fill — a direct measure
    /// of head-of-line blocking depth.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The sequence number the buffer is waiting for.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Drains whatever is parked, in sequence order, ignoring gaps (used
    /// at shutdown when missing sequences can never arrive).
    pub fn drain_remaining(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.pending.len());
        let pending = std::mem::take(&mut self.pending);
        for (seq, item) in pending {
            self.next = seq + 1;
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(index: usize, slow: bool) -> SampleMeta {
        SampleMeta {
            index,
            epoch: 0,
            seq: index as u64,
            slow,
            preprocess: Duration::from_millis(1),
            bytes: 10,
            issued_ns: 0,
        }
    }

    #[test]
    fn batch_accumulates_and_counts() {
        let mut b: Batch<u32> = Batch::with_capacity(3);
        b.push(Prepared {
            sample: 1,
            meta: meta(0, false),
        });
        b.push(Prepared {
            sample: 2,
            meta: meta(1, true),
        });
        b.push(Prepared {
            sample: 3,
            meta: meta(2, true),
        });
        assert_eq!(b.len(), 3);
        assert_eq!(b.slow_count(), 2);
        assert!((b.slow_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(b.bytes(), 30);
    }

    #[test]
    fn empty_batch_fraction_zero() {
        let b: Batch<u32> = Batch::with_capacity(0);
        assert!(b.is_empty());
        assert_eq!(b.slow_fraction(), 0.0);
    }

    #[test]
    fn reorder_in_order_passthrough() {
        let mut rb = ReorderBuffer::new(0);
        assert_eq!(rb.push(0, 10), vec![10]);
        assert_eq!(rb.push(1, 11), vec![11]);
        assert_eq!(rb.pending(), 0);
    }

    #[test]
    fn reorder_holds_until_gap_filled() {
        let mut rb = ReorderBuffer::new(0);
        assert!(rb.push(1, 'b').is_empty());
        assert!(rb.push(3, 'd').is_empty());
        assert_eq!(rb.pending(), 2);
        assert_eq!(rb.push(0, 'a'), vec!['a', 'b']);
        assert_eq!(rb.push(2, 'c'), vec!['c', 'd']);
        assert_eq!(rb.next_seq(), 4);
    }

    #[test]
    fn reorder_discards_stale() {
        let mut rb = ReorderBuffer::new(0);
        assert_eq!(rb.push(0, 1), vec![1]);
        assert!(rb.push(0, 99).is_empty(), "stale seq must be dropped");
        assert_eq!(rb.next_seq(), 1);
    }

    #[test]
    fn drain_remaining_skips_gaps() {
        let mut rb = ReorderBuffer::new(0);
        rb.push(5, 'f');
        rb.push(2, 'c');
        assert_eq!(rb.drain_remaining(), vec!['c', 'f']);
        assert_eq!(rb.pending(), 0);
        assert_eq!(rb.next_seq(), 6);
    }

    #[test]
    fn reorder_nonzero_start() {
        let mut rb = ReorderBuffer::new(10);
        assert!(rb.push(11, 'b').is_empty());
        assert_eq!(rb.push(10, 'a'), vec!['a', 'b']);
    }
}
