//! Dataset and sampling abstractions.
//!
//! Mirrors the PyTorch `Dataset`/`Sampler` split the paper builds on
//! (§2.1): a [`Dataset`] is random-access storage for samples, a
//! [`Sampler`] decides the order indices are *requested* in. Like PyTorch,
//! MinatoLoader requests samples in random order (§4.1) — the novelty is
//! downstream, in which *finished* samples form batches.

use crate::error::{LoaderError, Result};
use parking_lot::Mutex;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use std::sync::Arc;

/// Random-access source of training samples.
///
/// Implementations must be cheap to share across worker threads; `load` is
/// called concurrently from many workers.
pub trait Dataset: Send + Sync + 'static {
    /// The raw (un-preprocessed) sample type.
    type Sample: Send + 'static;

    /// Number of samples in one epoch.
    fn len(&self) -> usize;

    /// Whether the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Loads the raw sample at `index` (0-based, `< len()`).
    fn load(&self, index: usize) -> Result<Self::Sample>;

    /// Optional on-storage size of sample `index`, in bytes.
    ///
    /// Used by the image-size heuristic baseline (paper §3.2 / Fig. 3a) and
    /// by throughput accounting. `None` when unknown.
    fn size_hint_bytes(&self, _index: usize) -> Option<u64> {
        None
    }
}

impl<D: Dataset + ?Sized> Dataset for Arc<D> {
    type Sample = D::Sample;

    fn len(&self) -> usize {
        (**self).len()
    }

    fn load(&self, index: usize) -> Result<Self::Sample> {
        (**self).load(index)
    }

    fn size_hint_bytes(&self, index: usize) -> Option<u64> {
        (**self).size_hint_bytes(index)
    }
}

/// In-memory dataset over a `Vec` of cloneable samples.
///
/// # Examples
///
/// ```
/// use minato_core::dataset::{Dataset, VecDataset};
///
/// let ds = VecDataset::new(vec![10, 20, 30]);
/// assert_eq!(ds.len(), 3);
/// assert_eq!(ds.load(1).unwrap(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct VecDataset<T> {
    items: Vec<T>,
}

impl<T: Clone + Send + Sync + 'static> VecDataset<T> {
    /// Wraps `items` as a dataset.
    pub fn new(items: Vec<T>) -> VecDataset<T> {
        VecDataset { items }
    }
}

impl<T: Clone + Send + Sync + 'static> Dataset for VecDataset<T> {
    type Sample = T;

    fn len(&self) -> usize {
        self.items.len()
    }

    fn load(&self, index: usize) -> Result<T> {
        self.items.get(index).cloned().ok_or(LoaderError::Dataset {
            index,
            msg: format!("index out of bounds (len {})", self.items.len()),
        })
    }
}

/// Dataset generating samples on demand from a closure.
///
/// Useful for synthetic workloads where materializing every sample up front
/// would defeat the purpose (e.g., a 230 GB replicated KiTS19, §5.5).
pub struct FnDataset<T, F> {
    len: usize,
    generate: F,
    size_hint: Option<Box<dyn Fn(usize) -> u64 + Send + Sync>>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T, F> FnDataset<T, F>
where
    T: Send + 'static,
    F: Fn(usize) -> Result<T> + Send + Sync + 'static,
{
    /// Creates a dataset of `len` samples produced by `generate`.
    pub fn new(len: usize, generate: F) -> FnDataset<T, F> {
        FnDataset {
            len,
            generate,
            size_hint: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Attaches a per-index size hint used by size-based heuristics.
    pub fn with_size_hint(
        mut self,
        hint: impl Fn(usize) -> u64 + Send + Sync + 'static,
    ) -> FnDataset<T, F> {
        self.size_hint = Some(Box::new(hint));
        self
    }
}

impl<T, F> Dataset for FnDataset<T, F>
where
    T: Send + 'static,
    F: Fn(usize) -> Result<T> + Send + Sync + 'static,
{
    type Sample = T;

    fn len(&self) -> usize {
        self.len
    }

    fn load(&self, index: usize) -> Result<T> {
        if index >= self.len {
            return Err(LoaderError::Dataset {
                index,
                msg: format!("index out of bounds (len {})", self.len),
            });
        }
        (self.generate)(index)
    }

    fn size_hint_bytes(&self, index: usize) -> Option<u64> {
        self.size_hint.as_ref().map(|h| h(index))
    }
}

/// A claim on one sample to be preprocessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTicket {
    /// Dataset index to load.
    pub index: usize,
    /// Epoch this request belongs to (0-based).
    pub epoch: usize,
    /// Global request sequence number (0-based across all epochs); baseline
    /// loaders use it for strict in-order delivery.
    pub seq: u64,
}

/// Produces the stream of sample requests consumed by loader workers.
///
/// Implementations are shared across workers, so `next` must be
/// thread-safe. Returning `None` signals that all epochs are exhausted.
pub trait Sampler: Send + Sync + 'static {
    /// Claims the next ticket, or `None` when exhausted.
    fn next(&self) -> Option<SampleTicket>;

    /// Claims up to `max` consecutive tickets in one call, returning
    /// fewer (possibly zero) only when the sampler runs out.
    ///
    /// Loader workers use this to amortize the sampler's synchronization
    /// over a whole chunk of eight tickets; the default implementation
    /// just loops [`Sampler::next`], so custom samplers stay correct
    /// without overriding it.
    fn next_many(&self, max: usize) -> Vec<SampleTicket> {
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            match self.next() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out
    }

    /// Total number of tickets this sampler will ever emit.
    fn total(&self) -> u64;
}

struct ShuffleState {
    order: Vec<usize>,
    pos: usize,
    epoch: usize,
    seq: u64,
    rng: StdRng,
}

/// Multi-epoch sampler with optional per-epoch reshuffling.
///
/// Matches PyTorch semantics: every epoch visits each index exactly once;
/// with `shuffle` the visit order is re-randomized per epoch from a seeded
/// RNG, so runs are reproducible.
///
/// # Examples
///
/// ```
/// use minato_core::dataset::{EpochSampler, Sampler};
///
/// let s = EpochSampler::new(3, 2, false, 0);
/// let idxs: Vec<usize> = std::iter::from_fn(|| s.next().map(|t| t.index)).collect();
/// assert_eq!(idxs, vec![0, 1, 2, 0, 1, 2]);
/// assert_eq!(s.total(), 6);
/// ```
pub struct EpochSampler {
    len: usize,
    epochs: usize,
    shuffle: bool,
    state: Mutex<ShuffleState>,
}

impl EpochSampler {
    /// Creates a sampler over `len` indices for `epochs` epochs.
    ///
    /// With `shuffle`, each epoch's order is drawn from `seed` (epoch
    /// boundaries reshuffle; the same seed reproduces the same stream).
    pub fn new(len: usize, epochs: usize, shuffle: bool, seed: u64) -> EpochSampler {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..len).collect();
        if shuffle {
            order.shuffle(&mut rng);
        }
        EpochSampler {
            len,
            epochs,
            shuffle,
            state: Mutex::new(ShuffleState {
                order,
                pos: 0,
                epoch: 0,
                seq: 0,
                rng,
            }),
        }
    }
}

impl Sampler for EpochSampler {
    fn next(&self) -> Option<SampleTicket> {
        self.next_many(1).pop()
    }

    /// Claims a whole chunk under a single lock acquisition (the default
    /// trait implementation would lock once per ticket).
    fn next_many(&self, max: usize) -> Vec<SampleTicket> {
        if self.len == 0 || self.epochs == 0 || max == 0 {
            return Vec::new();
        }
        let mut st = self.state.lock();
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            if st.epoch >= self.epochs {
                break;
            }
            if st.pos == self.len {
                st.epoch += 1;
                if st.epoch >= self.epochs {
                    break;
                }
                st.pos = 0;
                if self.shuffle {
                    let mut order = std::mem::take(&mut st.order);
                    order.shuffle(&mut st.rng);
                    st.order = order;
                }
            }
            out.push(SampleTicket {
                index: st.order[st.pos],
                epoch: st.epoch,
                seq: st.seq,
            });
            st.pos += 1;
            st.seq += 1;
        }
        out
    }

    fn total(&self) -> u64 {
        (self.len as u64) * (self.epochs as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vec_dataset_bounds() {
        let ds = VecDataset::new(vec![1, 2]);
        assert!(ds.load(2).is_err());
        assert!(!ds.is_empty());
    }

    #[test]
    fn fn_dataset_generates_and_bounds() {
        let ds = FnDataset::new(4, |i| Ok(i * 2)).with_size_hint(|i| (i as u64 + 1) * 10);
        assert_eq!(ds.load(3).unwrap(), 6);
        assert!(ds.load(4).is_err());
        assert_eq!(ds.size_hint_bytes(0), Some(10));
    }

    #[test]
    fn arc_dataset_delegates() {
        let ds = Arc::new(VecDataset::new(vec![5]));
        assert_eq!(Dataset::len(&ds), 1);
        assert_eq!(ds.load(0).unwrap(), 5);
    }

    #[test]
    fn sequential_sampler_covers_all_epochs() {
        let s = EpochSampler::new(2, 3, false, 0);
        let tickets: Vec<SampleTicket> = std::iter::from_fn(|| s.next()).collect();
        assert_eq!(tickets.len(), 6);
        assert_eq!(tickets[0].seq, 0);
        assert_eq!(tickets[5].seq, 5);
        assert_eq!(tickets[4].epoch, 2);
        assert!(s.next().is_none());
    }

    #[test]
    fn shuffled_sampler_is_a_permutation_per_epoch() {
        let s = EpochSampler::new(10, 2, true, 42);
        let all: Vec<usize> = std::iter::from_fn(|| s.next().map(|t| t.index)).collect();
        let epoch1: HashSet<usize> = all[..10].iter().copied().collect();
        let epoch2: HashSet<usize> = all[10..].iter().copied().collect();
        assert_eq!(epoch1.len(), 10);
        assert_eq!(epoch2.len(), 10);
    }

    #[test]
    fn shuffled_sampler_is_deterministic_per_seed() {
        let collect = |seed| {
            let s = EpochSampler::new(8, 1, true, seed);
            std::iter::from_fn(|| s.next().map(|t| t.index)).collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn next_many_matches_single_claims_across_epochs() {
        let chunked = EpochSampler::new(5, 3, true, 9);
        let single = EpochSampler::new(5, 3, true, 9);
        let mut via_chunks = Vec::new();
        loop {
            let chunk = chunked.next_many(4);
            if chunk.is_empty() {
                break;
            }
            assert!(chunk.len() <= 4);
            via_chunks.extend(chunk);
        }
        let via_single: Vec<SampleTicket> = std::iter::from_fn(|| single.next()).collect();
        assert_eq!(via_chunks, via_single);
        assert!(chunked.next_many(4).is_empty(), "stays exhausted");
    }

    /// A chunk larger than what remains in the current epoch must roll
    /// over cleanly: correct epoch stamps, contiguous seq, no lost or
    /// duplicated tickets.
    #[test]
    fn next_many_chunk_spans_epoch_boundary() {
        let s = EpochSampler::new(5, 2, false, 0);
        assert_eq!(s.next_many(3).len(), 3); // Epoch 0: indices 0,1,2.
        let spanning = s.next_many(4); // 3,4 of epoch 0 + 0,1 of epoch 1.
        assert_eq!(spanning.len(), 4, "chunk must roll into the next epoch");
        assert_eq!(
            spanning
                .iter()
                .map(|t| (t.epoch, t.index))
                .collect::<Vec<_>>(),
            vec![(0, 3), (0, 4), (1, 0), (1, 1)]
        );
        assert_eq!(
            spanning.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![3, 4, 5, 6],
            "seq must stay contiguous across the boundary"
        );
        let rest = s.next_many(10);
        assert_eq!(rest.len(), 3, "only epoch 1's tail remains");
        assert!(rest.iter().all(|t| t.epoch == 1));
        assert!(s.next_many(1).is_empty(), "exhausted after the last epoch");
    }

    /// One chunk spanning *multiple* epoch boundaries, with shuffling:
    /// every epoch must still be a full permutation and every seq unique.
    #[test]
    fn next_many_chunk_spanning_multiple_epochs_loses_nothing() {
        let s = EpochSampler::new(3, 3, true, 11);
        let mut all = Vec::new();
        loop {
            let chunk = s.next_many(7); // 7 > epoch length 3.
            if chunk.is_empty() {
                break;
            }
            all.extend(chunk);
        }
        assert_eq!(all.len(), 9);
        assert_eq!(
            all.iter().map(|t| t.seq).collect::<Vec<_>>(),
            (0..9).collect::<Vec<u64>>()
        );
        for epoch in 0..3 {
            let mut idxs: Vec<usize> = all
                .iter()
                .filter(|t| t.epoch == epoch)
                .map(|t| t.index)
                .collect();
            idxs.sort_unstable();
            assert_eq!(idxs, vec![0, 1, 2], "epoch {epoch} not a permutation");
        }
    }

    #[test]
    fn empty_sampler_returns_none() {
        let s = EpochSampler::new(0, 5, true, 0);
        assert!(s.next().is_none());
        assert_eq!(s.total(), 0);
        let s = EpochSampler::new(5, 0, true, 0);
        assert!(s.next().is_none());
    }

    #[test]
    fn concurrent_sampling_emits_each_ticket_once() {
        let s = Arc::new(EpochSampler::new(1000, 1, true, 1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(t) = s.next() {
                    seen.push(t.seq);
                }
                seen
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("sampler thread panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0] != w[1]), "duplicate seq");
    }
}
