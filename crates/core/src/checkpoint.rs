//! Crash-safe loader checkpoint/resume.
//!
//! Training jobs preempt and crash; restarting a loader from scratch
//! re-pays every epoch already delivered and loses the balancer's
//! learned timeout and the scheduler's fast share. A
//! [`LoaderCheckpoint`] holds exactly the state a resume reads — the
//! sampler stream parameters, a *delivery watermark* (every sequence
//! number below it was delivered) plus the sparse set of delivered seqs
//! above it, the balancer estimator, and the fast role's budget — in a
//! small versioned struct with a hand-rolled binary codec
//! ([`LoaderCheckpoint::encode`] / [`LoaderCheckpoint::decode`]) so it
//! can be written to any byte sink without pulling in a serialization
//! dependency.
//!
//! Every loader keeps a [`DeliveryLog`]; no setting turns it off. A seq
//! is *delivered* once `next_batch` has recorded it there, under the
//! one lock it takes per popped batch, before returning the batch.
//! [`MinatoLoader::checkpoint`](crate::loader::MinatoLoader::checkpoint)
//! copies that log under the same lock, so the snapshot is consistent
//! at any instant: nothing is paused or drained first.
//!
//! The resume invariant is **exactly-once delivery**: the union of
//! sequence numbers delivered before the kill and after
//! [`resume_from`](crate::loader::MinatoLoaderBuilder::resume_from) is
//! every ticket of the run, with no duplicates. [`ResumeSampler`]
//! enforces it by replaying the original seeded ticket stream and
//! skipping seqs the checkpoint records as delivered; samples that were
//! in flight, queued but never popped, or quarantined at checkpoint
//! time are absent from the log and therefore re-run — delivered again,
//! never lost.

use crate::dataset::{EpochSampler, SampleTicket, Sampler};
use crate::error::{LoaderError, Result};
use std::collections::VecDeque;

/// Version stamp encoded into every checkpoint; `decode` rejects
/// mismatches rather than misinterpreting bytes. Version 3 marks the
/// sampler that draws its shuffle as tickets are claimed: the same seed
/// gives another ticket stream than version 2's up-front shuffle did, so
/// a version 2 checkpoint would replay the wrong tickets.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Magic prefix identifying an encoded checkpoint.
const MAGIC: &[u8; 8] = b"MINATOCK";

/// Balancer estimator state carried across a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalancerCheckpoint {
    /// Published fast/slow cutoff in nanoseconds (0 = optimistic phase
    /// or non-adaptive policy).
    pub timeout_ns: u64,
    /// Completions observed by the balancer before the checkpoint.
    pub completions: u64,
    /// Samples flagged slow before the checkpoint.
    pub flagged_slow: u64,
}

/// Versioned snapshot of resumable loader state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a checkpoint is only useful if persisted or resumed from"]
pub struct LoaderCheckpoint {
    /// Codec version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Dataset length the run was built with; resume validates it.
    pub dataset_len: u64,
    /// Epoch count of the run.
    pub epochs: u64,
    /// Whether the sampler shuffles per epoch.
    pub shuffle: bool,
    /// Sampler seed (reproduces the exact ticket stream).
    pub seed: u64,
    /// Every seq `< watermark` was delivered to a consumer.
    pub watermark: u64,
    /// Delivered seqs `>= watermark` (sparse, strictly ascending);
    /// resuming from any other shape fails with
    /// [`LoaderError::Checkpoint`].
    pub delivered_above: Vec<u64>,
    /// Balancer estimator state.
    pub balancer: BalancerCheckpoint,
    /// Fast-role budget (the scheduler's gate) at checkpoint time;
    /// resume clamps it into `1..=max_workers`.
    pub fast_budget: usize,
}

impl LoaderCheckpoint {
    /// Total tickets the checkpointed run will ever emit.
    pub fn total_tickets(&self) -> u64 {
        self.dataset_len * self.epochs
    }

    /// Number of seqs the checkpoint records as already delivered.
    pub fn delivered_count(&self) -> u64 {
        self.watermark + self.delivered_above.len() as u64
    }

    /// Serializes the checkpoint into a self-describing byte buffer:
    /// an 8-byte magic followed by little-endian `u64` words.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * (11 + self.delivered_above.len()));
        out.extend_from_slice(MAGIC);
        let mut word = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        word(self.version as u64);
        word(self.dataset_len);
        word(self.epochs);
        word(self.shuffle as u64);
        word(self.seed);
        word(self.watermark);
        word(self.balancer.timeout_ns);
        word(self.balancer.completions);
        word(self.balancer.flagged_slow);
        word(self.fast_budget as u64);
        word(self.delivered_above.len() as u64);
        for &seq in &self.delivered_above {
            word(seq);
        }
        out
    }

    /// Parses a buffer produced by [`encode`](Self::encode), rejecting
    /// truncated input, a foreign magic, or an unknown version.
    pub fn decode(bytes: &[u8]) -> Result<LoaderCheckpoint> {
        let bad = |msg: &str| LoaderError::Checkpoint(msg.to_string());
        if bytes.len() < 8 || &bytes[..8] != MAGIC {
            return Err(bad("missing checkpoint magic"));
        }
        let mut rest = &bytes[8..];
        let mut word = || -> Result<u64> {
            let (head, tail) = rest
                .split_first_chunk::<8>()
                .ok_or_else(|| bad("truncated checkpoint"))?;
            rest = tail;
            Ok(u64::from_le_bytes(*head))
        };
        let version = word()?;
        if version != CHECKPOINT_VERSION as u64 {
            return Err(bad(&format!("unsupported checkpoint version {version}")));
        }
        let dataset_len = word()?;
        let epochs = word()?;
        let shuffle = word()? != 0;
        let seed = word()?;
        let watermark = word()?;
        let balancer = BalancerCheckpoint {
            timeout_ns: word()?,
            completions: word()?,
            flagged_slow: word()?,
        };
        let fast_budget = word()? as usize;
        let above_len = word()?;
        let mut delivered_above = Vec::with_capacity(above_len.min(1 << 20) as usize);
        for _ in 0..above_len {
            delivered_above.push(word()?);
        }
        if !rest.is_empty() {
            return Err(bad("trailing bytes after checkpoint"));
        }
        Ok(LoaderCheckpoint {
            version: version as u32,
            dataset_len,
            epochs,
            shuffle,
            seed,
            watermark,
            delivered_above,
            balancer,
            fast_budget,
        })
    }
}

/// Compact record of which ticket seqs reached a consumer.
///
/// Delivery is out-of-order (that is the whole point of the loader), so
/// the log keeps a dense *watermark* — every seq below it delivered —
/// plus a bit window over the seqs above it: bit `i` of word `k` stands
/// for seq `base + 64k + i`, where `base` is the watermark rounded down
/// to a multiple of 64, so the front word's bits below the watermark are
/// all set. Recording a seq is amortized O(1): the watermark advances a
/// word at a time and full words leave the front. A seq above a pinned
/// watermark (a quarantined seq is never recorded) costs one bit, so the
/// window holds at most one bit per seq of the run.
#[derive(Debug, Default)]
pub struct DeliveryLog {
    watermark: u64,
    window: VecDeque<u64>,
}

impl DeliveryLog {
    /// Creates an empty log (nothing delivered).
    pub fn new() -> DeliveryLog {
        DeliveryLog::default()
    }

    /// Restores a log from checkpoint state.
    pub fn seeded(watermark: u64, above: impl IntoIterator<Item = u64>) -> DeliveryLog {
        let mut log = DeliveryLog {
            watermark,
            window: VecDeque::from([(1 << (watermark % 64)) - 1]),
        };
        // Recording normalizes `above` contiguous with the watermark.
        for seq in above {
            log.record(seq);
        }
        log
    }

    /// Seq of bit 0 of the front word.
    fn base(&self) -> u64 {
        self.watermark & !63
    }

    /// Marks `seq` delivered.
    pub fn record(&mut self, seq: u64) {
        if seq < self.watermark {
            return;
        }
        let word = ((seq - self.base()) / 64) as usize;
        if word >= self.window.len() {
            self.window.resize(word + 1, 0);
        }
        self.window[word] |= 1 << (seq % 64);
        if word > 0 {
            return;
        }
        let mut base = self.base();
        while self.window.front() == Some(&u64::MAX) {
            self.window.pop_front();
            base += 64;
        }
        self.watermark = base + self.window.front().map_or(0, |w| w.trailing_ones() as u64);
    }

    /// Whether `seq` has been delivered.
    pub fn contains(&self, seq: u64) -> bool {
        if seq < self.watermark {
            return true;
        }
        let word = ((seq - self.base()) / 64) as usize;
        self.window
            .get(word)
            .is_some_and(|w| w & (1 << (seq % 64)) != 0)
    }

    /// Dense prefix bound: every seq below this was delivered.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Delivered seqs at or above the watermark, ascending.
    pub fn above(&self) -> Vec<u64> {
        let base = self.base();
        let mut out = Vec::new();
        for (k, &word) in self.window.iter().enumerate() {
            // The front word's bits below the watermark are its trailing
            // ones (never all 64: a full front word is popped), and
            // `w & (w + 1)` clears them.
            let mut bits = if k == 0 { word & (word + 1) } else { word };
            while bits != 0 {
                out.push(base + 64 * k as u64 + bits.trailing_zeros() as u64);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Total seqs recorded.
    pub fn len(&self) -> u64 {
        let bits: u64 = self.window.iter().map(|w| w.count_ones() as u64).sum();
        self.base() + bits
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sampler replaying a checkpointed run: the original seeded ticket
/// stream minus the seqs the checkpoint records as delivered. The
/// prefix below the watermark is skipped once, up front; the sparse
/// seqs above it are filtered out as they are claimed.
pub struct ResumeSampler {
    inner: EpochSampler,
    delivered: DeliveryLog,
}

impl ResumeSampler {
    /// Wraps the freshly rebuilt `inner` stream (same len/epochs/
    /// shuffle/seed as the original run) with `ckpt`'s delivery record,
    /// skipping the delivered prefix below the watermark in one call.
    pub fn new(inner: EpochSampler, ckpt: &LoaderCheckpoint) -> ResumeSampler {
        inner.discard(ckpt.watermark);
        ResumeSampler {
            inner,
            delivered: DeliveryLog::seeded(ckpt.watermark, ckpt.delivered_above.iter().copied()),
        }
    }
}

impl Sampler for ResumeSampler {
    fn next(&self) -> Option<SampleTicket> {
        self.next_many(1).pop()
    }

    /// Claims up to `max` *undelivered* tickets.
    ///
    /// Keeps pulling from the inner stream until the chunk is full or
    /// the stream ends: a short return must mean genuine exhaustion,
    /// because `FastStep` treats a short chunk as the drain signal that
    /// starts the shutdown cascade — filtering alone must never fake
    /// one.
    fn next_many(&self, max: usize) -> Vec<SampleTicket> {
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            let chunk = self.inner.next_many(max - out.len());
            if chunk.is_empty() {
                break;
            }
            out.extend(
                chunk
                    .into_iter()
                    .filter(|t| !self.delivered.contains(t.seq)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ckpt() -> LoaderCheckpoint {
        LoaderCheckpoint {
            version: CHECKPOINT_VERSION,
            dataset_len: 100,
            epochs: 3,
            shuffle: true,
            seed: 42,
            watermark: 17,
            delivered_above: vec![19, 23, 31],
            balancer: BalancerCheckpoint {
                timeout_ns: 2_500_000,
                completions: 20,
                flagged_slow: 4,
            },
            fast_budget: 5,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = sample_ckpt();
        let bytes = ckpt.encode();
        assert_eq!(LoaderCheckpoint::decode(&bytes).unwrap(), ckpt);
        assert_eq!(ckpt.delivered_count(), 20);
        assert_eq!(ckpt.total_tickets(), 300);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(LoaderCheckpoint::decode(b"").is_err());
        assert!(LoaderCheckpoint::decode(b"NOTMAGIC........").is_err());
        let mut bytes = sample_ckpt().encode();
        bytes.truncate(bytes.len() - 3);
        assert!(LoaderCheckpoint::decode(&bytes).is_err(), "truncated");
        let mut bytes = sample_ckpt().encode();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(LoaderCheckpoint::decode(&bytes).is_err(), "trailing");
        // Corrupt the version word (bytes 8..16).
        let mut bytes = sample_ckpt().encode();
        bytes[8] = 0xFF;
        assert!(LoaderCheckpoint::decode(&bytes).is_err(), "bad version");
    }

    #[test]
    fn delivery_log_advances_watermark_over_gaps() {
        let mut log = DeliveryLog::new();
        assert!(log.is_empty());
        log.record(0);
        log.record(2);
        log.record(3);
        assert_eq!(log.watermark(), 1);
        assert_eq!(log.above(), vec![2, 3]);
        assert!(log.contains(0) && log.contains(3) && !log.contains(1));
        log.record(1); // Fills the gap: watermark jumps past 3.
        assert_eq!(log.watermark(), 4);
        assert!(log.above().is_empty());
        assert_eq!(log.len(), 4);
        log.record(2); // Duplicate below watermark: no-op.
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn delivery_log_seeded_normalizes() {
        let log = DeliveryLog::seeded(5, vec![5, 6, 9]);
        assert_eq!(log.watermark(), 7);
        assert_eq!(log.above(), vec![9]);
    }

    /// A seq that is never recorded pins the watermark; every seq above
    /// it then costs one bit, not a set entry.
    #[test]
    fn delivery_log_above_a_pinned_watermark_costs_a_bit_per_seq() {
        let mut log = DeliveryLog::new();
        let n = 1_000_000u64;
        for seq in 1..=n {
            log.record(seq);
        }
        assert_eq!(log.watermark(), 0);
        assert_eq!(log.len(), n);
        assert!(log.window.len() as u64 <= n.div_ceil(64) + 1);
        log.record(0);
        assert_eq!(log.watermark(), n + 1);
        assert!(log.window.len() <= 1);
    }

    #[test]
    fn resume_sampler_emits_exactly_the_undelivered_seqs() {
        let n = 20usize;
        let epochs = 2usize;
        let ckpt = LoaderCheckpoint {
            dataset_len: n as u64,
            epochs: epochs as u64,
            shuffle: true,
            seed: 7,
            watermark: 11,
            delivered_above: vec![13, 14, 29],
            ..sample_ckpt()
        };
        let s = ResumeSampler::new(EpochSampler::new(n, epochs, true, 7), &ckpt);
        let mut seqs = Vec::new();
        loop {
            // Chunk size 6 exercises the refill loop across filters.
            let chunk = s.next_many(6);
            if chunk.is_empty() {
                break;
            }
            seqs.extend(chunk.iter().map(|t| t.seq));
        }
        let expected: Vec<u64> = (0..(n * epochs) as u64)
            .filter(|&q| q >= 11 && ![13, 14, 29].contains(&q))
            .collect();
        assert_eq!(seqs, expected);
        // Tickets must carry the same index the original stream had.
        let original = EpochSampler::new(n, epochs, true, 7);
        let orig: Vec<SampleTicket> = std::iter::from_fn(|| original.next()).collect();
        let resumed = ResumeSampler::new(EpochSampler::new(n, epochs, true, 7), &ckpt);
        for t in std::iter::from_fn(|| resumed.next()) {
            assert_eq!(orig[t.seq as usize], t, "resumed ticket diverged");
        }
    }

    /// A full chunk request never returns short while undelivered
    /// tickets remain — FastStep treats short chunks as drained.
    #[test]
    fn resume_sampler_short_chunk_means_exhausted() {
        let ckpt = LoaderCheckpoint {
            dataset_len: 10,
            epochs: 1,
            shuffle: false,
            seed: 0,
            watermark: 0,
            delivered_above: (0..9).step_by(2).collect(), // 0,2,4,6,8 delivered.
            ..sample_ckpt()
        };
        let s = ResumeSampler::new(EpochSampler::new(10, 1, false, 0), &ckpt);
        let chunk = s.next_many(4);
        assert_eq!(
            chunk.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![1, 3, 5, 7],
            "filter must refill to the requested chunk size"
        );
        let tail = s.next_many(4);
        assert_eq!(tail.len(), 1, "only seq 9 remains");
        assert!(s.next_many(4).is_empty());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Asserts that `log` answers like `model` on every query.
    fn assert_matches(log: &DeliveryLog, model: &BTreeSet<u64>, hi: u64) {
        let watermark = (0..).find(|q| !model.contains(q)).unwrap();
        prop_assert_eq!(log.watermark(), watermark);
        prop_assert_eq!(
            log.above(),
            model.range(watermark..).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(log.len(), model.len() as u64);
        for q in watermark.saturating_sub(70)..hi {
            prop_assert_eq!(log.contains(q), model.contains(&q), "seq {}", q);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The bit window answers exactly like a set of every recorded
        /// seq: seeded from a random watermark and sparse seqs above it,
        /// then fed a random subset of a random permutation (seqs below
        /// the watermark included), checked after every step.
        #[test]
        fn delivery_log_matches_a_set_model(
            w in 0u64..300,
            above in proptest::collection::vec(0u64..200, 0..6),
            keys in proptest::collection::vec(any::<u64>(), 1..400),
            skip in 0u64..8,
        ) {
            let above: Vec<u64> = above.iter().map(|d| w + 1 + d).collect();
            let mut log = DeliveryLog::seeded(w, above.iter().copied());
            let mut model: BTreeSet<u64> = (0..w).chain(above.iter().copied()).collect();
            // Seqs `lo..lo + keys.len()`, visited in the order of their
            // keys; a key whose low six bits are under `skip` leaves its
            // seq unrecorded (none when `skip` is 0, so several full
            // words can leave the front at once).
            let lo = w.saturating_sub(10);
            let hi = lo + keys.len() as u64 + 220;
            assert_matches(&log, &model, hi);
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            for i in order.into_iter().filter(|&i| keys[i] % 64 >= skip) {
                let seq = lo + i as u64;
                log.record(seq);
                model.insert(seq);
                assert_matches(&log, &model, hi);
            }
        }
    }
}
