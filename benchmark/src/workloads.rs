//! The five workloads: what inputs each feeds the loader and how the
//! loader is configured. `README.md` says why each exists.
//!
//! The workload seed feeds only input generation (sizes, contents, the
//! shuffle seed). Sample and repetition counts are frozen: results are
//! comparable between commits only while they stay as they are.

use minato_core::prelude::*;
use minato_data::audio::{speech_pipeline, AudioClip, AudioData};
use minato_data::spec::WorkloadSpec;
use minato_data::synth::{synthetic_dataset, work_pipeline_with_mode, SyntheticSample, WorkMode};
use minato_data::volume::{segmentation_pipeline, Volume3D};
use std::time::Duration;

/// SplitMix64 step: the harness's only source of randomness, so inputs
/// stay the same when the `rand` shim changes.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Four-lane multiply-xor hash over 32-bit words; lanes keep the
/// consumer-side checksum of a 160 KB volume in the tens of microseconds.
struct WordHash([u64; 4]);

impl WordHash {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new(tag: u64) -> WordHash {
        WordHash([tag, tag ^ 1, tag ^ 2, tag ^ 3])
    }

    fn word(&mut self, lane: usize, w: u64) {
        self.0[lane] = (self.0[lane] ^ w).wrapping_mul(Self::K).rotate_left(23);
    }

    fn f32s(&mut self, values: &[f32]) {
        let mut chunks = values.chunks_exact(4);
        for c in &mut chunks {
            for (lane, v) in c.iter().enumerate() {
                self.word(lane, u64::from(v.to_bits()));
            }
        }
        for v in chunks.remainder() {
            self.word(0, u64::from(v.to_bits()));
        }
        self.word(1, values.len() as u64);
    }

    fn bytes(&mut self, values: &[u8]) {
        let mut chunks = values.chunks_exact(8);
        for (i, c) in (&mut chunks).enumerate() {
            let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            self.word(i & 3, w);
        }
        for b in chunks.remainder() {
            self.word(0, u64::from(*b));
        }
        self.word(2, values.len() as u64);
    }

    fn finish(self) -> u64 {
        self.0.iter().fold(0, |acc, lane| mix(acc ^ lane))
    }
}

/// What the harness needs from a sample: the dataset index it carries
/// (how a span recorded around a transform finds its sample) and a
/// checksum of everything preprocessing can change.
pub trait BenchSample: Send + 'static {
    fn index(&self) -> usize;
    fn checksum(&self) -> u64;
    /// Heap bytes of the payload: what a cache entry for it weighs.
    fn payload_bytes(&self) -> u64;
}

impl BenchSample for u32 {
    fn index(&self) -> usize {
        *self as usize
    }

    fn checksum(&self) -> u64 {
        mix(u64::from(*self))
    }

    fn payload_bytes(&self) -> u64 {
        0
    }
}

/// Samples that seed their own random transforms carry the dataset index
/// in the low half of that seed and the workload seed in the high half.
fn sample_seed(workload_seed: u64, index: usize) -> u64 {
    (mix(workload_seed) << 32) | index as u64
}

impl BenchSample for Volume3D {
    fn index(&self) -> usize {
        (self.seed & 0xFFFF_FFFF) as usize
    }

    fn checksum(&self) -> u64 {
        let mut h = WordHash::new(self.seed);
        for d in self.dims {
            h.word(3, d as u64);
        }
        h.f32s(&self.voxels);
        h.bytes(&self.labels);
        h.finish()
    }

    fn payload_bytes(&self) -> u64 {
        self.nbytes()
    }
}

impl BenchSample for AudioClip {
    fn index(&self) -> usize {
        (self.seed & 0xFFFF_FFFF) as usize
    }

    fn checksum(&self) -> u64 {
        let mut h = WordHash::new(self.seed);
        match &self.data {
            AudioData::Waveform(w) => h.f32s(w),
            AudioData::Features {
                frames,
                bins,
                values,
            } => {
                h.word(3, *frames as u64);
                h.word(3, *bins as u64);
                h.f32s(values);
            }
        }
        for t in &self.transcript {
            h.word(2, u64::from(*t));
        }
        h.finish()
    }

    fn payload_bytes(&self) -> u64 {
        self.nbytes()
    }
}

impl BenchSample for SyntheticSample {
    fn index(&self) -> usize {
        self.index
    }

    fn checksum(&self) -> u64 {
        let mut h = WordHash::new(self.index as u64);
        h.word(3, self.steps_done as u64);
        h.word(3, self.step_costs.len() as u64);
        h.f32s(&self.payload);
        h.finish()
    }

    fn payload_bytes(&self) -> u64 {
        (self.payload.len() * 4) as u64
    }
}

/// Worker threads of one loader. The box has two cores, so every
/// workload pins the loader to two fast workers unless it says otherwise.
#[derive(Clone, Copy)]
pub struct Workers {
    pub fast: usize,
    pub slow: usize,
}

impl Workers {
    const TWO_CORES: Workers = Workers { fast: 2, slow: 1 };
}

/// Sizes and consumer behaviour shared by every loader a workload builds.
#[derive(Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Samples per epoch.
    pub samples: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub shuffle: bool,
    /// Strict sampler order: the checker then also fails a sample whose
    /// `seq` does not increase.
    pub ordered: bool,
    /// How long the consumer sleeps per batch, standing in for the GPU.
    pub gpu_step: Duration,
    pub workers: Workers,
    /// Measured repetitions of an untraced run: frozen, like the sample
    /// counts, so a run does the same work on every commit and machine.
    /// Sized to fill `run_seconds` on the commit that froze them.
    pub reps: usize,
    /// Repetitions of each kind (untraced, wrapped, wrapped + built-in
    /// tracer) in a traced run.
    pub traced_reps: usize,
}

impl Shape {
    pub fn total_samples(&self) -> usize {
        self.samples * self.epochs
    }
}

/// One workload: inputs made from the seed, and the loader configuration.
pub trait Workload {
    type Sample: BenchSample;

    fn shape(&self) -> Shape;

    /// What the loaders' shuffle seeds are made from; see [`order_seed`].
    fn shuffle_seed(&self) -> u64;

    /// Input generation; counted in `setup_s`.
    fn dataset(&self) -> impl Dataset<Sample = Self::Sample>;

    fn pipeline(&self) -> Pipeline<Self::Sample>;

    /// Workload-specific builder knobs; everything not set here or in
    /// [`configure`] stays at the builder's defaults, which is what users
    /// get.
    /// `working_set_bytes` is what one preprocessed epoch weighs, as the
    /// reference run measured it.
    fn tune<D: Dataset<Sample = Self::Sample>>(
        &self,
        builder: MinatoLoaderBuilder<D>,
        _working_set_bytes: u64,
    ) -> MinatoLoaderBuilder<D> {
        builder
    }

    /// Context for the single-threaded reference run of the pipeline.
    fn reference_ctx(&self) -> TransformCtx {
        TransformCtx::unbounded()
    }
}

/// Shuffle seed of the loader of repetition `rep`. Every repetition of a
/// run delivers the samples in another order: which samples make up the
/// first batch decides `setup_s` (one heavy sample more is +5 ms on
/// `speech_hol`), and a run that repeated one order would report that
/// order's luck, not the workload.
pub fn order_seed<W: Workload>(w: &W, rep: usize) -> u64 {
    mix(w.shuffle_seed() ^ rep as u64)
}

/// Applies the shape and the workload's own knobs to the builder of
/// repetition `rep`'s loader.
pub fn configure<W: Workload, D: Dataset<Sample = W::Sample>>(
    w: &W,
    builder: MinatoLoaderBuilder<D>,
    rep: usize,
    working_set_bytes: u64,
) -> MinatoLoaderBuilder<D> {
    let s = w.shape();
    let builder = builder
        .batch_size(s.batch_size)
        .epochs(s.epochs)
        .shuffle(s.shuffle)
        .seed(order_seed(w, rep))
        .order_preserving(s.ordered)
        .initial_workers(s.workers.fast)
        .max_workers(s.workers.fast)
        .slow_workers(s.workers.slow)
        .batch_workers(1);
    w.tune(builder, working_set_bytes)
}

/// `imgseg_kernels`: real volumetric kernels whose cost follows the
/// volume's size.
pub struct ImgsegKernels {
    seed: u64,
}

impl ImgsegKernels {
    pub const NAME: &'static str = "imgseg_kernels";
    const SAMPLES: usize = 400;
    const MIN_SIDE: usize = 40;
    const SIDE_RANGE: usize = 56;

    pub fn new(seed: u64) -> ImgsegKernels {
        ImgsegKernels { seed }
    }

    /// Side length of every volume, in `40..96`. The seed decides which
    /// index gets which side, not which sides occur: the sides are a
    /// seeded shuffle of one fixed ladder, so every seed asks for the same
    /// total work.
    fn sides(&self) -> Vec<usize> {
        let n = Self::SAMPLES;
        let mut sides: Vec<usize> = (0..n)
            .map(|rung| Self::MIN_SIDE + rung * Self::SIDE_RANGE / n)
            .collect();
        let mut state = self.seed;
        for i in (1..n).rev() {
            state = mix(state);
            sides.swap(i, (state % (i as u64 + 1)) as usize);
        }
        sides
    }
}

impl Workload for ImgsegKernels {
    type Sample = Volume3D;

    fn shape(&self) -> Shape {
        Shape {
            name: Self::NAME,
            samples: Self::SAMPLES,
            epochs: 4,
            batch_size: 8,
            shuffle: true,
            ordered: false,
            gpu_step: Duration::ZERO,
            workers: Workers::TWO_CORES,
            reps: 9,
            traced_reps: 3,
        }
    }

    fn shuffle_seed(&self) -> u64 {
        mix(self.seed ^ 0x1356)
    }

    fn dataset(&self) -> impl Dataset<Sample = Volume3D> {
        let sides = self.sides();
        let seed = self.seed;
        FnDataset::new(Self::SAMPLES, move |i| {
            let s = sides[i];
            Ok(Volume3D::generate([s, s, s], sample_seed(seed, i)))
        })
    }

    fn pipeline(&self) -> Pipeline<Volume3D> {
        segmentation_pipeline([32, 32, 32])
    }
}

/// `speech_hol`: the paper's head-of-line microbenchmark, sleeping
/// instead of burning CPU.
pub struct SpeechHol {
    spec: WorkloadSpec,
}

impl SpeechHol {
    pub const NAME: &'static str = "speech_hol";
    /// 500 ms light and 3 s heavy steps become 1 ms and 6 ms.
    const TIME_SCALE: f64 = 0.002;

    pub fn new(seed: u64) -> SpeechHol {
        let mut spec = WorkloadSpec::speech(3.0);
        spec.n_samples = 1600;
        spec.seed = mix(seed ^ 0x5bee);
        SpeechHol { spec }
    }
}

impl Workload for SpeechHol {
    type Sample = SyntheticSample;

    fn shape(&self) -> Shape {
        Shape {
            name: Self::NAME,
            samples: self.spec.n_samples,
            epochs: 1,
            batch_size: 8,
            shuffle: true,
            ordered: false,
            gpu_step: Duration::from_millis(2),
            workers: Workers { fast: 3, slow: 1 },
            reps: 19,
            traced_reps: 4,
        }
    }

    fn shuffle_seed(&self) -> u64 {
        mix(self.spec.seed)
    }

    fn dataset(&self) -> impl Dataset<Sample = SyntheticSample> {
        synthetic_dataset(&self.spec, Self::TIME_SCALE)
    }

    fn pipeline(&self) -> Pipeline<SyntheticSample> {
        work_pipeline_with_mode(&self.spec, WorkMode::Sleep)
    }

    /// The sleeps divide by the context's speed-up; the reference output
    /// does not depend on how long they took.
    fn reference_ctx(&self) -> TransformCtx {
        TransformCtx::unbounded().with_speedup(1e9)
    }
}

/// `noop_tax` and `noop_ordered`: an identity transform, so the loader's
/// own machinery is the only work.
pub struct Noop {
    seed: u64,
    ordered: bool,
}

impl Noop {
    pub const TAX: &'static str = "noop_tax";
    pub const ORDERED: &'static str = "noop_ordered";

    pub fn tax(seed: u64) -> Noop {
        Noop {
            seed,
            ordered: false,
        }
    }

    pub fn ordered(seed: u64) -> Noop {
        Noop {
            seed,
            ordered: true,
        }
    }
}

impl Workload for Noop {
    type Sample = u32;

    fn shape(&self) -> Shape {
        Shape {
            name: if self.ordered {
                Self::ORDERED
            } else {
                Self::TAX
            },
            samples: 100_000,
            epochs: 1,
            batch_size: 64,
            shuffle: !self.ordered,
            ordered: self.ordered,
            gpu_step: Duration::ZERO,
            workers: Workers::TWO_CORES,
            reps: if self.ordered { 48 } else { 55 },
            traced_reps: if self.ordered { 8 } else { 10 },
        }
    }

    fn shuffle_seed(&self) -> u64 {
        mix(self.seed ^ 0x7a8)
    }

    fn dataset(&self) -> impl Dataset<Sample = u32> {
        VecDataset::new((0..self.shape().samples as u32).collect::<Vec<u32>>())
    }

    fn pipeline(&self) -> Pipeline<u32> {
        Pipeline::new(vec![fn_transform("identity", |x: u32| Ok(x))])
    }
}

/// `audio_cache_epochs`: real audio kernels over several epochs with the
/// sample cache at half the working set and the buffer pool underneath.
pub struct AudioCacheEpochs {
    seed: u64,
}

impl AudioCacheEpochs {
    pub const NAME: &'static str = "audio_cache_epochs";
    const CLIPS: usize = 300;

    pub fn new(seed: u64) -> AudioCacheEpochs {
        AudioCacheEpochs { seed }
    }
}

impl Workload for AudioCacheEpochs {
    type Sample = AudioClip;

    fn shape(&self) -> Shape {
        Shape {
            name: Self::NAME,
            samples: Self::CLIPS,
            epochs: 6,
            batch_size: 8,
            shuffle: true,
            ordered: false,
            gpu_step: Duration::ZERO,
            workers: Workers::TWO_CORES,
            reps: 14,
            traced_reps: 4,
        }
    }

    fn shuffle_seed(&self) -> u64 {
        mix(self.seed ^ 0xa0d10)
    }

    fn dataset(&self) -> impl Dataset<Sample = AudioClip> {
        let seed = self.seed;
        FnDataset::new(Self::CLIPS, move |i| {
            let seconds = if i % 5 == 0 { 1.2 } else { 0.3 };
            Ok(AudioClip::generate(seconds, 16_000, sample_seed(seed, i)))
        })
    }

    fn pipeline(&self) -> Pipeline<AudioClip> {
        speech_pipeline(2, 12)
    }

    fn tune<D: Dataset<Sample = AudioClip>>(
        &self,
        builder: MinatoLoaderBuilder<D>,
        working_set_bytes: u64,
    ) -> MinatoLoaderBuilder<D> {
        // The default weigher counts `size_of::<AudioClip>()`, under
        // which nothing would ever be evicted.
        builder
            .pool_budget_bytes(64 << 20)
            .cache_policy(EvictionPolicy::CostAware)
            .cache_weigher(AudioClip::nbytes)
            .cache_budget_bytes(working_set_bytes / 2)
    }
}
