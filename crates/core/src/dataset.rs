//! Dataset and sampling abstractions.
//!
//! Mirrors the PyTorch `Dataset`/`Sampler` split the paper builds on
//! (§2.1): a [`Dataset`] is random-access storage for samples, a
//! [`Sampler`] decides the order indices are *requested* in. Like PyTorch,
//! MinatoLoader requests samples in random order (§4.1) — the novelty is
//! downstream, in which *finished* samples form batches.

use crate::error::{LoaderError, Result};
use parking_lot::Mutex;
use rand::{rngs::StdRng, RngCore, SeedableRng};
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
        self.items
            .get(index)
            .cloned()
            .ok_or_else(|| LoaderError::Dataset {
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
}

struct SamplerState {
    /// Shuffled only (empty otherwise): slot `k` holds `index ^ k` for
    /// the index at position `k` of the arrangement the epoch draws
    /// from, so zeroed memory reads as the identity order.
    slots: Vec<u32>,
    pos: usize,
    epoch: usize,
    seq: u64,
    rng: StdRng,
}

/// Multi-epoch sampler with optional per-epoch reshuffling.
///
/// Matches PyTorch semantics: every epoch visits each index exactly once;
/// with `shuffle` the visit order is a uniformly random permutation drawn
/// from a seeded RNG, so runs are reproducible.
///
/// The shuffle is a forward Fisher–Yates run drawn as tickets are
/// claimed, not a pass over the whole order up front: claiming position
/// `i` swaps in a uniform pick from positions `i..len` of the current
/// arrangement. An epoch boundary only rewinds the position — Fisher–Yates
/// over any arrangement yields a uniform permutation — so `new` does O(1)
/// work, and the 4 B per index of a shuffled sampler are allocated zeroed
/// and touched only as tickets are drawn. An unshuffled sampler stores
/// nothing: the index is the position.
///
/// # Examples
///
/// ```
/// use minato_core::dataset::{EpochSampler, Sampler};
///
/// let s = EpochSampler::new(3, 2, false, 0);
/// let idxs: Vec<usize> = std::iter::from_fn(|| s.next().map(|t| t.index)).collect();
/// assert_eq!(idxs, vec![0, 1, 2, 0, 1, 2]);
/// ```
pub struct EpochSampler {
    len: usize,
    epochs: usize,
    state: Mutex<SamplerState>,
}

impl EpochSampler {
    /// Creates a sampler over `len` indices for `epochs` epochs.
    ///
    /// With `shuffle`, each epoch's order is drawn from `seed` (the same
    /// seed reproduces the same stream).
    ///
    /// # Panics
    ///
    /// With `shuffle`, if `len` exceeds `u32::MAX` (a slot is 32 bits);
    /// the loader builders reject such a dataset with
    /// [`LoaderError::Config`] first.
    pub fn new(len: usize, epochs: usize, shuffle: bool, seed: u64) -> EpochSampler {
        let slots = if shuffle {
            assert!(
                u32::try_from(len).is_ok(),
                "a shuffled sampler covers at most u32::MAX indices, not {len}"
            );
            vec![0; len]
        } else {
            Vec::new()
        };
        EpochSampler {
            len,
            epochs,
            state: Mutex::new(SamplerState {
                slots,
                pos: 0,
                epoch: 0,
                seq: 0,
                rng: StdRng::seed_from_u64(seed),
            }),
        }
    }

    /// Claims and discards the next `n` tickets (fewer if the sampler
    /// runs out) under one lock acquisition, drawing them exactly as
    /// claims would so that the stream after them is unchanged.
    pub(crate) fn discard(&self, n: u64) {
        if self.len == 0 || self.epochs == 0 {
            return;
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut left = n;
        while left > 0 && st.roll(self.len, self.epochs) {
            let run = left.min((self.len - st.pos) as u64);
            st.take(self.len, run as usize).for_each(drop);
            left -= run;
        }
    }
}

/// Uniform draw from `0..n` (`n > 0`): the high word of one 64 × 64-bit
/// multiply (Lemire's method). The rejection step that makes it exact
/// runs only when the low word lands below `n`, with probability
/// `n / 2^64`.
fn below(rng: &mut StdRng, n: u64) -> u64 {
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    if (m as u64) < n {
        let floor = n.wrapping_neg() % n;
        while (m as u64) < floor {
            m = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (m >> 64) as u64
}

impl SamplerState {
    /// Rolls into the next epoch when the current one is used up; false
    /// once every epoch is.
    fn roll(&mut self, len: usize, epochs: usize) -> bool {
        if self.pos == len && self.epoch < epochs {
            self.epoch += 1;
            self.pos = 0;
        }
        self.epoch < epochs
    }

    /// The next `run` tickets of the current epoch, drawn as the
    /// iterator is consumed (one Fisher–Yates step each when shuffled).
    /// The caller has rolled, takes at most `len - pos` tickets and
    /// consumes all of them: the position and seq advance up front.
    fn take(&mut self, len: usize, run: usize) -> impl Iterator<Item = SampleTicket> + '_ {
        let (pos, epoch, seq) = (self.pos, self.epoch, self.seq);
        self.pos += run;
        self.seq += run as u64;
        let (slots, rng) = (&mut self.slots[..], &mut self.rng);
        (pos..pos + run).zip(seq..).map(move |(i, seq)| {
            let index = if slots.is_empty() {
                i
            } else {
                let j = i + below(rng, (len - i) as u64) as usize;
                // Slots hold `index ^ position`; `len <= u32::MAX`.
                let (ki, kj) = (i as u32, j as u32);
                let (at_i, at_j) = (slots[i] ^ ki, slots[j] ^ kj);
                slots[i] = at_j ^ ki;
                slots[j] = at_i ^ kj;
                at_j as usize
            };
            SampleTicket { index, epoch, seq }
        })
    }
}

impl Sampler for EpochSampler {
    fn next(&self) -> Option<SampleTicket> {
        if self.len == 0 {
            return None;
        }
        let mut st = self.state.lock();
        if !st.roll(self.len, self.epochs) {
            return None;
        }
        let ticket = st.take(self.len, 1).next();
        ticket
    }

    /// Claims a whole chunk under a single lock acquisition (the default
    /// trait implementation would lock once per ticket), drawing the rest
    /// of the current epoch as one run and rolling into the next epoch
    /// only between runs.
    fn next_many(&self, max: usize) -> Vec<SampleTicket> {
        if self.len == 0 || self.epochs == 0 || max == 0 {
            return Vec::new();
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut out = Vec::with_capacity(max);
        while out.len() < max && st.roll(self.len, self.epochs) {
            let run = (max - out.len()).min(self.len - st.pos);
            out.extend(st.take(self.len, run));
        }
        out
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

    /// `next_many` copies runs of an epoch's order and `next` takes one
    /// ticket at a time: chunks of any size, concatenated, are the
    /// `next` stream, shuffled and not, across every epoch boundary, and
    /// both stay exhausted at the end.
    #[test]
    fn next_many_matches_single_claims_across_epochs() {
        const LEN: usize = 10;
        for shuffle in [false, true] {
            let single = EpochSampler::new(LEN, 4, shuffle, 9);
            let via_single: Vec<SampleTicket> = std::iter::from_fn(|| single.next()).collect();
            assert_eq!(via_single.len(), 4 * LEN);
            assert!(single.next_many(1).is_empty());
            for k in [1, 4, 7, 64, LEN + 3] {
                let chunked = EpochSampler::new(LEN, 4, shuffle, 9);
                let mut via_chunks = Vec::new();
                loop {
                    let chunk = chunked.next_many(k);
                    if chunk.is_empty() {
                        break;
                    }
                    assert!(chunk.len() <= k);
                    via_chunks.extend(chunk);
                }
                assert_eq!(via_chunks, via_single, "chunks of {k}, shuffle {shuffle}");
                assert!(chunked.next_many(k).is_empty(), "stays exhausted");
                assert!(chunked.next().is_none());
            }
        }
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

    /// Collects a sampler's whole stream through `next_many(7)`.
    fn drain(s: &EpochSampler) -> Vec<SampleTicket> {
        let mut all = Vec::new();
        loop {
            let chunk = s.next_many(7);
            if chunk.is_empty() {
                return all;
            }
            all.extend(chunk);
        }
    }

    /// Lengths around a word boundary and a larger one, over one to
    /// three epochs, shuffled and not: every epoch visits each index
    /// once, stamped with its epoch, with seqs `0..total` in order.
    #[test]
    fn every_epoch_is_a_permutation_at_edge_lengths() {
        for len in [1, 2, 3, 63, 64, 65, 1000] {
            for epochs in 1..=3 {
                for shuffle in [false, true] {
                    let all = drain(&EpochSampler::new(len, epochs, shuffle, 5));
                    assert_eq!(all.len(), len * epochs);
                    assert!(all.iter().enumerate().all(|(k, t)| t.seq == k as u64));
                    for (e, epoch) in all.chunks(len).enumerate() {
                        assert!(epoch.iter().all(|t| t.epoch == e));
                        let mut idxs: Vec<usize> = epoch.iter().map(|t| t.index).collect();
                        if !shuffle {
                            assert_eq!(idxs, (0..len).collect::<Vec<_>>());
                        }
                        idxs.sort_unstable();
                        assert_eq!(
                            idxs,
                            (0..len).collect::<Vec<_>>(),
                            "len {len}, epoch {e}/{epochs}, shuffle {shuffle}"
                        );
                    }
                }
            }
        }
    }

    /// The stream is a function of the seed alone, and each epoch draws
    /// an order of its own rather than replaying the last one.
    #[test]
    fn same_seed_same_stream_and_epochs_differ() {
        const LEN: usize = 64;
        let a = drain(&EpochSampler::new(LEN, 3, true, 21));
        assert_eq!(a, drain(&EpochSampler::new(LEN, 3, true, 21)));
        assert_ne!(a, drain(&EpochSampler::new(LEN, 3, true, 22)));
        let orders: Vec<Vec<usize>> = a
            .chunks(LEN)
            .map(|e| e.iter().map(|t| t.index).collect())
            .collect();
        assert_ne!(orders[0], orders[1]);
        assert_ne!(orders[1], orders[2]);
        assert_ne!(orders[0], (0..LEN).collect::<Vec<_>>());
    }

    /// Each of the six orders of three indices is drawn with equal
    /// probability: over seeds `0..6000` the counts of the first epoch's
    /// and the second epoch's orders stay inside a chi-square bound of
    /// 20.5 (five degrees of freedom, p ≈ 0.001); they read 2.4 and 0.7.
    /// A step that picks the last remaining position twice as often as
    /// the others reads about 1500.
    #[test]
    fn length_three_orders_are_uniform_over_seeds() {
        const SEEDS: u64 = 6000;
        let mut counts = [[0u32; 6]; 2];
        for seed in 0..SEEDS {
            let all = drain(&EpochSampler::new(3, 2, true, seed));
            for (e, epoch) in all.chunks(3).enumerate() {
                let (a, b) = (epoch[0].index, epoch[1].index);
                // Rank of the permutation: first index, then the order
                // of the remaining two.
                counts[e][2 * a + usize::from(b > 3 - a - b)] += 1;
            }
        }
        let expected = SEEDS as f64 / 6.0;
        for (e, c) in counts.iter().enumerate() {
            let chi2: f64 = c
                .iter()
                .map(|&n| (n as f64 - expected).powi(2) / expected)
                .sum();
            assert!(chi2 < 20.5, "epoch {e}: counts {c:?}, chi-square {chi2:.2}");
        }
    }

    /// Four threads claim chunks of seven from one shuffled 3-epoch
    /// sampler: every (epoch, index) pair and every seq is handed out
    /// exactly once, and each claim's seqs are contiguous.
    #[test]
    fn concurrent_chunked_claims_hand_out_each_ticket_once() {
        const LEN: usize = 20_000;
        const EPOCHS: usize = 3;
        let s = Arc::new(EpochSampler::new(LEN, EPOCHS, true, 3));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut claims = Vec::new();
                    loop {
                        let chunk = s.next_many(7);
                        if chunk.is_empty() {
                            return claims;
                        }
                        claims.push(chunk);
                    }
                })
            })
            .collect();
        let claims: Vec<Vec<SampleTicket>> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("sampler thread panicked"))
            .collect();
        for claim in &claims {
            assert!(
                claim.windows(2).all(|w| w[1].seq == w[0].seq + 1),
                "claim seqs not contiguous: {claim:?}"
            );
        }
        let all: Vec<SampleTicket> = claims.into_iter().flatten().collect();
        let total = LEN * EPOCHS;
        assert_eq!(all.len(), total);
        let pairs: HashSet<(usize, usize)> = all.iter().map(|t| (t.epoch, t.index)).collect();
        assert_eq!(pairs.len(), total, "an (epoch, index) pair repeated");
        assert!(pairs.iter().all(|&(e, i)| e < EPOCHS && i < LEN));
        let mut seqs: Vec<u64> = all.iter().map(|t| t.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..total as u64).collect::<Vec<_>>());
    }

    /// `discard(n)` leaves the sampler exactly where `n` claims would,
    /// across epoch boundaries, and stops at exhaustion.
    #[test]
    fn discard_matches_claiming_and_dropping() {
        for shuffle in [false, true] {
            let full = drain(&EpochSampler::new(10, 3, shuffle, 4));
            for n in [0, 1, 9, 10, 11, 25, 30, 31] {
                let s = EpochSampler::new(10, 3, shuffle, 4);
                s.discard(n);
                let rest = drain(&s);
                assert_eq!(
                    rest,
                    full[(n as usize).min(30)..],
                    "discard {n}, shuffle {shuffle}"
                );
            }
        }
    }

    #[test]
    fn empty_sampler_returns_none() {
        let s = EpochSampler::new(0, 5, true, 0);
        assert!(s.next().is_none());
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
