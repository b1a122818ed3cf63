//! Audio samples and the speech-recognition pipeline (Table 1).
//!
//! Models LibriSpeech-style utterances: mono `f32` waveforms with a token
//! transcript. The pipeline — Pad → SpecAugment → FilterBank →
//! FrameSplicing → PermuteAudio → LightStep → HeavyStep — matches Table 1.
//! `LightStep` and `HeavyStep` are the paper's simulated compute stages
//! (§2.2): here they run genuine multi-pass smoothing over the features,
//! with iteration counts chosen so HeavyStep ≈ 6× LightStep per pass unit;
//! at paper scale the paper's absolute 0.5 s / 3 s costs are produced by
//! the calibrated cost models in [`crate::spec`] instead.
//!
//! The audio–text pair always travels together (§6: modality alignment is
//! preserved under reordering).

use minato_core::error::{LoaderError, Result};
use minato_core::pool::{PoolSet, Reclaim};
use minato_core::transform::{InPlace, Pipeline, Transform, TransformCtx};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::Arc;

/// Either a raw waveform or a framed feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum AudioData {
    /// Mono waveform samples.
    Waveform(Vec<f32>),
    /// `frames × bins` features, row-major.
    Features {
        /// Number of frames.
        frames: usize,
        /// Feature bins per frame.
        bins: usize,
        /// Values, `frames * bins` long.
        values: Vec<f32>,
    },
}

/// An utterance: audio plus its transcript tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct AudioClip {
    /// Audio payload, transformed in place along the pipeline.
    pub data: AudioData,
    /// Sample rate in Hz.
    pub sample_rate: u32,
    /// Token ids of the transcript (kept aligned with the audio).
    pub transcript: Vec<u32>,
    /// Per-sample seed for random transforms.
    pub seed: u64,
}

impl AudioClip {
    /// Generates a synthetic utterance of `seconds` at `rate` Hz: a sum of
    /// a few random sinusoids plus noise, with a random token transcript.
    pub fn generate(seconds: f32, rate: u32, seed: u64) -> AudioClip {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (seconds * rate as f32) as usize;
        let mut wave = vec![0.0f32; n];
        for _ in 0..4 {
            let freq = rng.random_range(80.0..3000.0f32);
            let amp = rng.random_range(0.05..0.3f32);
            let phase = rng.random_range(0.0..std::f32::consts::TAU);
            for (i, w) in wave.iter_mut().enumerate() {
                *w += amp * (std::f32::consts::TAU * freq * i as f32 / rate as f32 + phase).sin();
            }
        }
        for w in wave.iter_mut() {
            *w += rng.random_range(-0.02..0.02f32);
        }
        let n_tokens = rng.random_range(5..40usize);
        let transcript = (0..n_tokens)
            .map(|_| rng.random_range(0..1000u32))
            .collect();
        AudioClip {
            data: AudioData::Waveform(wave),
            sample_rate: rate,
            transcript,
            seed,
        }
    }

    /// Bytes occupied by the audio payload.
    pub fn nbytes(&self) -> u64 {
        match &self.data {
            AudioData::Waveform(w) => (w.len() * 4) as u64,
            AudioData::Features { values, .. } => (values.len() * 4) as u64,
        }
    }
}

impl Reclaim for AudioClip {
    fn reclaim(self, pools: &PoolSet) {
        match self.data {
            AudioData::Waveform(w) => pools.f32s().recycle(w),
            AudioData::Features { values, .. } => pools.f32s().recycle(values),
        }
    }
}

fn expect_waveform(clip: &AudioClip, t: &str) -> Result<()> {
    match clip.data {
        AudioData::Waveform(_) => Ok(()),
        AudioData::Features { .. } => Err(LoaderError::Transform {
            name: t.into(),
            msg: "expects a waveform (run before FilterBank)".into(),
        }),
    }
}

fn expect_features(clip: &AudioClip, t: &str) -> Result<()> {
    match clip.data {
        AudioData::Features { .. } => Ok(()),
        AudioData::Waveform(_) => Err(LoaderError::Transform {
            name: t.into(),
            msg: "expects features (run FilterBank first)".into(),
        }),
    }
}

/// Zero-pads the waveform to a multiple of `unit` samples (Inflationary —
/// Pecan's AutoOrder moves it to the end of the pipeline, §5.1).
pub struct Pad {
    /// Pad target granularity in samples.
    pub unit: usize,
}

impl Transform<AudioClip> for Pad {
    fn name(&self) -> &str {
        "Pad"
    }

    fn apply_mut(&self, clip: &mut AudioClip, _ctx: &TransformCtx) -> Result<InPlace> {
        if self.unit == 0 {
            return Err(LoaderError::Transform {
                name: "Pad".into(),
                msg: "unit must be positive".into(),
            });
        }
        // Inflationary, but growth happens inside the sample's own
        // buffer; pool-served buffers carry class-granular capacity, so
        // the resize usually fits without reallocating.
        match &mut clip.data {
            AudioData::Waveform(w) => {
                let target = w.len().div_ceil(self.unit) * self.unit;
                w.resize(target, 0.0);
            }
            // Padding features (post-FilterBank position under AutoOrder)
            // pads frames instead.
            AudioData::Features {
                frames,
                bins,
                values,
            } => {
                let target_frames = frames.div_ceil(self.unit) * self.unit;
                values.resize(target_frames * *bins, 0.0);
                *frames = target_frames;
            }
        }
        Ok(InPlace::Done)
    }
}

/// Masks random time spans of the audio (augmentation).
pub struct SpecAugment {
    /// Number of masks.
    pub masks: usize,
    /// Max mask width as a fraction of the clip.
    pub max_width: f32,
}

impl Transform<AudioClip> for SpecAugment {
    fn name(&self) -> &str {
        "SpecAugment"
    }

    fn apply_mut(&self, clip: &mut AudioClip, _ctx: &TransformCtx) -> Result<InPlace> {
        let mut rng = StdRng::seed_from_u64(clip.seed ^ 0x5BEC);
        let vals = match &mut clip.data {
            AudioData::Waveform(w) => w,
            AudioData::Features { values, .. } => values,
        };
        let max_w = ((vals.len() as f32) * self.max_width) as usize;
        if vals.is_empty() || max_w == 0 {
            return Ok(InPlace::Done);
        }
        for _ in 0..self.masks {
            let w = rng.random_range(1..=max_w.min(vals.len()));
            let start = rng.random_range(0..=vals.len() - w);
            vals[start..start + w].fill(0.0);
        }
        Ok(InPlace::Done)
    }
}

/// Converts the waveform to log-energy filterbank features
/// (Deflationary: frames ≪ samples).
pub struct FilterBank {
    /// Window length in samples.
    pub window: usize,
    /// Hop length in samples.
    pub hop: usize,
    /// Output bins per frame.
    pub bins: usize,
}

impl FilterBank {
    /// Typical 25 ms / 10 ms / 64-bin configuration at 16 kHz.
    pub fn default_16k() -> FilterBank {
        FilterBank {
            window: 400,
            hop: 160,
            bins: 64,
        }
    }
}

impl FilterBank {
    fn validate(&self, clip: &AudioClip) -> Result<usize> {
        expect_waveform(clip, "FilterBank")?;
        if self.window == 0 || self.hop == 0 || self.bins == 0 {
            return Err(LoaderError::Transform {
                name: "FilterBank".into(),
                msg: "window/hop/bins must be positive".into(),
            });
        }
        let AudioData::Waveform(w) = &clip.data else {
            unreachable!("checked above");
        };
        Ok(if w.len() >= self.window {
            (w.len() - self.window) / self.hop + 1
        } else {
            0
        })
    }

    /// Fills `values` (`frames * bins` long, zero-filled) with band
    /// energies of waveform `w`.
    fn energies_into(&self, w: &[f32], frames: usize, values: &mut [f32]) {
        // Goertzel-style band energies: real O(frames × window × bins/8)
        // compute, the honest stand-in for mel filterbanks.
        for f in 0..frames {
            let start = f * self.hop;
            let win = &w[start..start + self.window];
            for b in 0..self.bins {
                let freq = (b + 1) as f32 / (self.bins as f32 * 2.0);
                let (mut re, mut im) = (0.0f32, 0.0f32);
                let step = std::f32::consts::TAU * freq;
                // Subsample the window 8× to bound cost.
                let mut i = 0;
                while i < win.len() {
                    let (s, c) = (step * i as f32).sin_cos();
                    re += win[i] * c;
                    im += win[i] * s;
                    i += 8;
                }
                values[f * self.bins + b] = (re * re + im * im + 1e-10).ln();
            }
        }
    }
}

impl Transform<AudioClip> for FilterBank {
    fn name(&self) -> &str {
        "FilterBank"
    }

    fn apply_mut(&self, clip: &mut AudioClip, ctx: &TransformCtx) -> Result<InPlace> {
        let frames = self.validate(clip)?;
        let AudioData::Waveform(w) = &clip.data else {
            unreachable!("validated above");
        };
        // Deflationary stage: the feature matrix is scratch (pool-served
        // when pooled) and the (much larger) waveform goes back.
        let mut values = ctx.acquire_f32(frames * self.bins);
        self.energies_into(w, frames, &mut values);
        let old = std::mem::replace(
            &mut clip.data,
            AudioData::Features {
                frames,
                bins: self.bins,
                values,
            },
        );
        if let AudioData::Waveform(w) = old {
            ctx.recycle_f32(w);
        }
        Ok(InPlace::Done)
    }
}

/// Stacks `factor` adjacent frames into one wider frame.
pub struct FrameSplicing {
    /// Frames stacked together.
    pub factor: usize,
}

impl FrameSplicing {
    fn splice_into(&self, bins: usize, values: &[f32], out_frames: usize, out: &mut [f32]) {
        let out_bins = bins * self.factor;
        for f in 0..out_frames {
            for k in 0..self.factor {
                let src = (f * self.factor + k) * bins;
                let dst = f * out_bins + k * bins;
                out[dst..dst + bins].copy_from_slice(&values[src..src + bins]);
            }
        }
    }
}

impl Transform<AudioClip> for FrameSplicing {
    fn name(&self) -> &str {
        "FrameSplicing"
    }

    fn apply_mut(&self, clip: &mut AudioClip, ctx: &TransformCtx) -> Result<InPlace> {
        expect_features(clip, "FrameSplicing")?;
        if self.factor == 0 {
            return Err(LoaderError::Transform {
                name: "FrameSplicing".into(),
                msg: "factor must be positive".into(),
            });
        }
        if let AudioData::Features {
            frames,
            bins,
            values,
        } = &mut clip.data
        {
            let out_frames = *frames / self.factor;
            let out_bins = *bins * self.factor;
            let mut out = ctx.acquire_f32(out_frames * out_bins);
            self.splice_into(*bins, values, out_frames, &mut out);
            *frames = out_frames;
            *bins = out_bins;
            ctx.recycle_f32(std::mem::replace(values, out));
        }
        Ok(InPlace::Done)
    }
}

/// Transposes features from frame-major to bin-major (the layout the
/// RNN-T consumer expects).
pub struct PermuteAudio;

impl Transform<AudioClip> for PermuteAudio {
    fn name(&self) -> &str {
        "PermuteAudio"
    }

    fn apply_mut(&self, clip: &mut AudioClip, ctx: &TransformCtx) -> Result<InPlace> {
        expect_features(clip, "PermuteAudio")?;
        if let AudioData::Features {
            frames,
            bins,
            values,
        } = &mut clip.data
        {
            let mut out = ctx.acquire_f32(values.len());
            for f in 0..*frames {
                for b in 0..*bins {
                    out[b * *frames + f] = values[f * *bins + b];
                }
            }
            // Layout note: after permutation we keep (frames, bins) but the
            // buffer is bin-major; swapping the counts records the shape.
            std::mem::swap(frames, bins);
            ctx.recycle_f32(std::mem::replace(values, out));
        }
        Ok(InPlace::Done)
    }
}

/// Iterated smoothing pass over the features — the paper's simulated
/// lightweight step (volume normalization / frame splicing class of work).
pub struct LightStep {
    /// Smoothing passes; cost scales linearly.
    pub passes: usize,
}

/// Multi-pass enhancement — the paper's simulated compute-intensive step
/// (long-context time-stretching, multi-pass spectrogram enhancement).
/// Cooperates with the balancer deadline between passes.
pub struct HeavyStep {
    /// Enhancement passes; cost scales linearly.
    pub passes: usize,
}

fn smooth_pass(values: &mut [f32]) {
    if values.len() < 3 {
        return;
    }
    let mut prev = values[0];
    for i in 1..values.len() - 1 {
        let cur = values[i];
        values[i] = 0.25 * prev + 0.5 * cur + 0.25 * values[i + 1];
        prev = cur;
    }
}

impl Transform<AudioClip> for LightStep {
    fn name(&self) -> &str {
        "LightStep"
    }

    fn apply_mut(&self, clip: &mut AudioClip, _ctx: &TransformCtx) -> Result<InPlace> {
        if let AudioData::Features { values, .. } = &mut clip.data {
            for _ in 0..self.passes {
                smooth_pass(values);
            }
        }
        Ok(InPlace::Done)
    }
}

impl Transform<AudioClip> for HeavyStep {
    fn name(&self) -> &str {
        "HeavyStep"
    }

    fn apply_mut(&self, clip: &mut AudioClip, ctx: &TransformCtx) -> Result<InPlace> {
        if let AudioData::Features { values, .. } = &mut clip.data {
            // Heavy work cooperates with the deadline, checked between
            // passes. Scratch-then-commit: run the passes on a copy of the
            // features (pool-served when pooled) and swap it in only on
            // completion, so an interrupt leaves the sample bit-for-bit in
            // its input state (the `apply_mut` resume contract) without
            // cloning the whole clip.
            let mut scratch = ctx.acquire_f32_from(values);
            for p in 0..self.passes {
                smooth_pass(&mut scratch);
                // Extra enhancement work per pass: contrast expansion.
                for v in scratch.iter_mut() {
                    *v = v.tanh() * 1.02;
                }
                if p % 4 == 3 && ctx.expired() {
                    ctx.recycle_f32(scratch);
                    return Ok(InPlace::Interrupted);
                }
            }
            ctx.recycle_f32(std::mem::replace(values, scratch));
        }
        Ok(InPlace::Done)
    }
}

/// The full Table 1 speech pipeline. `light_passes`/`heavy_passes` control
/// the simulated-compute cost ratio (paper: 0.5 s vs 3 s → 1:6).
pub fn speech_pipeline(light_passes: usize, heavy_passes: usize) -> Pipeline<AudioClip> {
    Pipeline::new(vec![
        Arc::new(Pad { unit: 1600 }),
        Arc::new(SpecAugment {
            masks: 2,
            max_width: 0.05,
        }),
        Arc::new(FilterBank::default_16k()),
        Arc::new(FrameSplicing { factor: 3 }),
        Arc::new(PermuteAudio),
        Arc::new(LightStep {
            passes: light_passes,
        }),
        Arc::new(HeavyStep {
            passes: heavy_passes,
        }),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use minato_core::transform::{Outcome, PipelineRun};
    use std::time::Duration;

    fn clip(seconds: f32) -> AudioClip {
        AudioClip::generate(seconds, 16_000, 11)
    }

    #[test]
    fn generate_produces_waveform_and_transcript() {
        let c = clip(1.0);
        match &c.data {
            AudioData::Waveform(w) => assert_eq!(w.len(), 16_000),
            _ => panic!(),
        }
        assert!(!c.transcript.is_empty());
        assert_eq!(c.nbytes(), 64_000);
    }

    #[test]
    fn pad_rounds_up() {
        let c = clip(0.33); // 5280 samples.
        let p = Pad { unit: 1600 };
        match p.apply(c, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(out) => match out.data {
                AudioData::Waveform(w) => assert_eq!(w.len(), 6400),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn pad_rejects_zero_unit() {
        assert!(Pad { unit: 0 }
            .apply(clip(0.1), &TransformCtx::unbounded())
            .is_err());
    }

    #[test]
    fn filterbank_frames_arithmetic() {
        let c = clip(1.0); // 16000 samples.
        let fb = FilterBank::default_16k();
        match fb.apply(c, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(out) => match out.data {
                AudioData::Features {
                    frames,
                    bins,
                    values,
                } => {
                    assert_eq!(frames, (16_000 - 400) / 160 + 1);
                    assert_eq!(bins, 64);
                    assert_eq!(values.len(), frames * bins);
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn filterbank_rejects_features_input() {
        let c = clip(0.2);
        let fb = FilterBank::default_16k();
        let out = match fb.apply(c, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(o) => o,
            _ => panic!(),
        };
        assert!(fb.apply(out, &TransformCtx::unbounded()).is_err());
    }

    #[test]
    fn splice_stacks_frames() {
        let c = AudioClip {
            data: AudioData::Features {
                frames: 7,
                bins: 4,
                values: (0..28).map(|i| i as f32).collect(),
            },
            sample_rate: 16_000,
            transcript: vec![1],
            seed: 0,
        };
        match (FrameSplicing { factor: 3 })
            .apply(c, &TransformCtx::unbounded())
            .unwrap()
        {
            Outcome::Done(out) => match out.data {
                AudioData::Features {
                    frames,
                    bins,
                    values,
                } => {
                    assert_eq!((frames, bins), (2, 12));
                    assert_eq!(values[0..4], [0.0, 1.0, 2.0, 3.0]);
                    assert_eq!(values[4], 4.0); // Second frame stacked in.
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn permute_transposes() {
        let c = AudioClip {
            data: AudioData::Features {
                frames: 2,
                bins: 3,
                values: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            },
            sample_rate: 16_000,
            transcript: vec![],
            seed: 0,
        };
        match PermuteAudio.apply(c, &TransformCtx::unbounded()).unwrap() {
            Outcome::Done(out) => match out.data {
                AudioData::Features { values, .. } => {
                    assert_eq!(values, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn heavy_step_interrupts_on_deadline() {
        let mut c = clip(2.0);
        // Build features first.
        c = match FilterBank::default_16k()
            .apply(c, &TransformCtx::unbounded())
            .unwrap()
        {
            Outcome::Done(o) => o,
            _ => panic!(),
        };
        let heavy = HeavyStep { passes: 100_000 };
        let ctx = TransformCtx::with_deadline(std::time::Instant::now() + Duration::from_millis(5));
        match heavy.apply(c.clone(), &ctx).unwrap() {
            Outcome::Interrupted(orig) => assert_eq!(orig, c, "input returned unchanged"),
            Outcome::Done(_) => panic!("100k passes cannot finish in 5 ms"),
        }
    }

    #[test]
    fn transcript_survives_pipeline() {
        let p = speech_pipeline(4, 8);
        let c = clip(0.5);
        let tokens = c.transcript.clone();
        match p.run(c, None).unwrap() {
            PipelineRun::Completed { value, .. } => {
                assert_eq!(value.transcript, tokens, "audio-text pairing preserved");
            }
            _ => panic!("no deadline"),
        }
    }

    #[test]
    fn in_place_pipeline_is_byte_identical() {
        let p = speech_pipeline(4, 8);
        let unpooled = match p.run(clip(0.5), None).unwrap() {
            PipelineRun::Completed { value, .. } => value,
            _ => panic!("no deadline"),
        };
        let pools = Arc::new(PoolSet::new(32 << 20));
        for _ in 0..2 {
            let ctx = TransformCtx::unbounded().with_pool(Arc::clone(&pools));
            match p.run_ctx(0, clip(0.5), ctx).unwrap() {
                PipelineRun::Completed { value, .. } => assert_eq!(value, unpooled),
                _ => panic!("no deadline"),
            }
        }
        let s = pools.stats().combined();
        assert!(s.recycled > 0, "shape-changing stages recycle inputs");
        assert!(s.hits > 0, "second run reuses pooled buffers");
    }

    #[test]
    fn heavy_step_in_place_interrupt_restores_input() {
        let mut c = clip(2.0);
        c = match FilterBank::default_16k()
            .apply(c, &TransformCtx::unbounded())
            .unwrap()
        {
            Outcome::Done(o) => o,
            _ => panic!(),
        };
        let heavy = HeavyStep { passes: 100_000 };
        let pools = Arc::new(PoolSet::new(32 << 20));
        let ctx = TransformCtx::with_deadline(std::time::Instant::now() + Duration::from_millis(5))
            .with_pool(Arc::clone(&pools));
        let mut interrupted = c.clone();
        match heavy.apply_mut(&mut interrupted, &ctx).unwrap() {
            InPlace::Interrupted => {
                assert_eq!(interrupted, c, "sample left in its input state")
            }
            _ => panic!("100k passes cannot finish in 5 ms"),
        }
        // Re-execution from the restored state (the background path,
        // pooled) matches an uninterrupted unpooled run.
        let quick = HeavyStep { passes: 8 };
        let uctx = TransformCtx::unbounded().with_pool(pools);
        quick.apply_mut(&mut interrupted, &uctx).unwrap();
        let mut unpooled = c;
        quick
            .apply_mut(&mut unpooled, &TransformCtx::unbounded())
            .unwrap();
        assert_eq!(interrupted, unpooled);
    }

    #[test]
    fn heavy_costs_more_than_light() {
        let mk = || {
            let c = clip(1.0);
            match FilterBank::default_16k()
                .apply(c, &TransformCtx::unbounded())
                .unwrap()
            {
                Outcome::Done(o) => o,
                _ => panic!(),
            }
        };
        let t_light = {
            let c = mk();
            let t0 = std::time::Instant::now();
            let _ = LightStep { passes: 10 }.apply(c, &TransformCtx::unbounded());
            t0.elapsed()
        };
        let t_heavy = {
            let c = mk();
            let t0 = std::time::Instant::now();
            let _ = HeavyStep { passes: 60 }.apply(c, &TransformCtx::unbounded());
            t0.elapsed()
        };
        assert!(t_heavy > t_light, "{t_heavy:?} vs {t_light:?}");
    }
}
